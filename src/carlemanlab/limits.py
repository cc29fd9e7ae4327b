"""Size policy: the four limits every module checks before it allocates.

An oversized problem fails fast with :class:`ValidationError` instead of
running out of memory or stalling in dense linear algebra.
"""

from __future__ import annotations

from .errors import ValidationError

#: F1 is held dense up to this state dimension and sparse above it.  Dense
#: keeps the structured matvec a single matmul per tensor factor and the
#: 2-norm of F1 exact; a dense n x n F1 stays below 2 MiB.
DENSE_F1_MAX_N = 512

#: explicit dense matrices (Laplacian, Carleman operator, Matrix Market
#: export) up to this dimension, i.e. at most 128 MiB of float64.
DENSE_MAX_DIM = 4096

#: sparse assembly of the Carleman operator up to this dimension.  It covers
#: both assemblies: ``to_sparse()`` (and ``sparsity_count()``) on the total
#: dimension ``sum_j n**j``, and ``to_symmetric()``, the operator ``evolve``
#: steps, on the symmetric dimension ``sum_j C(n+j-1, j)``.  Above the limit
#: ``evolve`` steps with the block-structured action, whose memory stays at
#: ``O(nnz(F1) + nnz(FM))`` plus the vector.
ASSEMBLY_MAX_DIM = 200_000

#: entries per array of this many float64 (80 MB).  It covers both
#: Kronecker-power vectors and the stored entries of the symmetric operator
#: (``CarlemanMatrix.symmetric_nnz``, counted before anything is allocated);
#: ``evolve`` steps with the structured action when the count exceeds it.
KRON_MAX_SIZE = 10**7


def check_size(size: int, limit: int, what: str) -> None:
    """Reject ``what`` when its ``size`` exceeds ``limit``."""
    if size > limit:
        raise ValidationError(f"{what} of size {size} exceeds the limit {limit}")
