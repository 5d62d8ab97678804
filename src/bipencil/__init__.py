"""bipencil: singularity type analysis for pencils of compatible Poisson brackets.

The library decides, for a point of a bi-Hamiltonian system given by two
compatible Poisson tensors, whether the induced Lagrangian-fibration
singularity is non-degenerate and of which Williamson type, by analyzing the
pencil's spectrum, its linearizations (Lie algebras with 2-cocycles), and
their root decompositions.  The periodic Toda lattice and a catalog of
Lie-algebraic pencils ship as verified models.
"""

__version__ = "0.1.0"

from .analyzer import SingularPointReport, Verdict, analyze_point
from .catalog import CatalogEntry, catalog, catalog_by_name
from .errors import (BipencilError, DimensionMismatchError, InputFormatError,
                     NonRationalPointError, PreconditionError,
                     RankDeficientPointError, SingularParameterError,
                     ToleranceError)
from .jk import (JKInvariants, JordanBlock, KroneckerBlock,
                 assemble_jk_canonical_pair, congruent_pair, jk_invariants)
from .liealg import (LieAlgebra, LinearPencil, TwoCocycle, argument_shift_cocycle,
                     is_cocycle, is_regular_cocycle, kernel_of_cocycle)
from .linearization import kernel_form, linearize
from .pencil import (IsotropicCore, RecursionOperator, Spectrum,
                     compute_core, compute_spectrum, is_diagonalizable,
                     kernel_basis, pencil_rank_corank, quotient_basis, quotient_form,
                     rank_at, recursion_operator)
from .poly import Poly
from .roots import (BlockDecomposition, LinearAnalysis, RootData, WilliamsonType,
                    analyze_linear, classify, is_nondegenerate_linear,
                    root_decomposition)
from .scalars import EXACT, INF, Mode, QQi, float_mode
from .tensorfield import PencilAtPoint, PoissonTensorField, constant_pencil, evaluate_pencil
from .toda import (TodaPoint, jacobi_block, make_singular_point, random_point,
                   toda_pencil, toda_spectrum_via_lax)
