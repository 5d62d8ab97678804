"""Identities of the paper checked against the pipeline; test code, not library code.

- ``casimir``: the Casimir-variation operator D_f P_alpha and its action on
  L^perp / L;
- ``toda``: the Toda lattice's kernel of P_lambda at a double Lax eigenvalue,
  with its sl(2, R) + R bracket table and pairings in closed form, and its
  two generators built by ``Poly`` arithmetic, the reference for the
  library's one pass over their monomials;
- ``algebras``: Lie algebras beside the catalog's, central extensions and
  quotients by a central ideal, and the float ad matrix by a loop over the
  brackets, the reference for the library's structure-array contraction;
- ``fields``: polynomial calculus (partial derivatives as polynomials and
  values as term-by-term Fraction sums, the reference for the library's
  evaluation on ints), the Jacobi identity and compatibility of
  Poisson fields, the direct sum of two pencils, and the shifted Casimirs of
  argument-shift pencils.
- ``dense``: the dense u^T A v that the library's sparse Gram contraction
  reproduces, and the per-entry complex() conversion that the library's
  float matrices reproduce;
- ``euclid``: the polynomial gcd and squarefree decomposition by Euclid over
  the field, the reference for the library's remainder sequences on the
  integer carriers;
- ``bareiss``: Bareiss forward elimination and fraction-free Gauss-Jordan
  over Z, the reference for the row sizes of the library's elimination, which
  divides by contents and back-substitutes, and the greedy rank loop on it,
  the reference for the library's spans;
- ``stops``: the pencil rank, the core and the Lax oracle by their earlier,
  longer rules, the reference for the library's early stops.
- ``pencilfile``: a pencil file's entries summed one ``Poly`` per monomial,
  the reference for the one-pass parse of ``io.entries_to_field``.
- ``eigensplit``: the joint eigen-split of a commuting family on Fraction /
  QQi entries, the reference for the library's split on carrier ints.
- ``padic``: the Gaussian-rational roots of a polynomial by p-adic lifting
  at every degree, the reference for the library's closed form, and root
  order, of a quadratic over Q.
- ``sampling``: a seeded source of random rational points, from which tests
  draw their inputs.
- ``sln``: argument-shift pencils on sl(n, R) at rank-0 points whose
  Williamson type has a closed form.
- ``corpus``: the named inputs that the tests and ``tools/jobdiff.py`` share
  (the catalog, Toda points, sl(n) points, Jordan-Kronecker and companion
  pairs), each with its pencil file, CLI call and reference.

A definition that only tests use lives here, not in ``src/``.
"""
