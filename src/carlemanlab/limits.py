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

#: sparse assembly of the Carleman operator up to this total dimension.  The
#: cached sparse operator is much faster per step on small systems; above the
#: limit ``evolve`` steps with the block-structured action, whose memory stays
#: at ``O(nnz(F1) + nnz(FM))`` plus the vector.
ASSEMBLY_MAX_DIM = 200_000

#: Kronecker-power vectors up to this many entries (80 MB of float64).
KRON_MAX_SIZE = 10**7


def check_size(size: int, limit: int, what: str) -> None:
    """Reject ``what`` when its ``size`` exceeds ``limit``."""
    if size > limit:
        raise ValidationError(f"{what} of size {size} exceeds the limit {limit}")
