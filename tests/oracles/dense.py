"""Dense references for the sparse contractions and float conversions of the library.

``bilinear`` is u^T A v over a dense matrix, the sum that
``tensorfield.gram`` contracts over nonzero cells alone and must reproduce,
value for value and, for floats, bit for bit.  ``complex_array`` converts
every entry by complex(), the reference bits for ``exactlin.to_numpy`` and
``PencilAtPoint.float_matrix_at``, which convert each exact value once.
``entrywise_array`` is the conversion ``to_numpy`` made before it handed
whole lists to numpy: each entry by ``exactlin.as_float``, then numpy.
"""

from __future__ import annotations

import numpy as np

from bipencil.exactlin import as_float


def complex_array(M):
    """M as a complex ndarray, each entry converted by complex()."""
    return np.array([[complex(x) for x in row] for row in M], dtype=complex)


def entrywise_array(M):
    """M as a complex ndarray, each entry first converted by ``as_float``."""
    return np.array([[as_float(x) for x in row] for row in M], dtype=complex)


def bilinear(A, u, v):
    """u^T A v for covectors u, v, summed as sum_i u_i (sum_j A_ij v_j).

    Zero entries of u, A and v are skipped: the matrices of a pencil at a
    point are mostly zero, and skipping a zero product moves no float sum.
    """
    support = [(j, x) for j, x in enumerate(v) if x != 0]
    total = 0
    for ui, row in zip(u, A):
        if ui != 0:
            inner = 0
            for j, x in support:
                if row[j] != 0:
                    inner = inner + row[j] * x
            total = total + ui * inner
    return total
