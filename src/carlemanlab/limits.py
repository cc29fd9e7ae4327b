"""Size policy: the four limits every module checks before it allocates,
and the stiffness scale that picks the reference integrator.

An oversized problem fails fast with :class:`ValidationError` instead of
running out of memory or stalling in dense linear algebra.
"""

from __future__ import annotations

from .errors import SizeLimitError

#: F1 is held dense up to this state dimension and sparse above it.  Dense
#: keeps the 2-norm of F1 exact and the reference integrator's Jacobian
#: cheap; a dense n x n F1 stays below 2 MiB.
DENSE_F1_MAX_N = 512

#: explicit dense matrices (Laplacian, Carleman operator, Matrix Market
#: export) up to this dimension, i.e. at most 128 MiB of float64.
DENSE_MAX_DIM = 4096

#: full sparse assembly of the Carleman operator, ``to_sparse()`` (and
#: ``sparsity_count()``, which counts its rows), up to this total dimension
#: ``sum_j n**j``.  The symmetric operator ``evolve`` steps is limited by its
#: stored entries instead (``KRON_MAX_SIZE``).
ASSEMBLY_MAX_DIM = 200_000

#: entries per array of this many float64 (80 MB).  It covers
#: Kronecker-power vectors and the stored entries of the symmetric operator
#: (``CarlemanMatrix.symmetric_nnz``), counted before it is allocated, so over
#: it ``evolve`` raises instead of stepping; the one-step Taylor matrix
#: (``propagator.taylor_matrix``), over which ``evolve`` keeps the K-matvec
#: series; and the nonlinearity of ``pde.fourier_form`` and its enumeration
#: of mode products, over which the CLI steps a PDE on its grid.
KRON_MAX_SIZE = 10**7

#: ``reference_solve`` integrates with implicit Radau IIA and the analytic
#: Jacobian instead of explicit DOP853 when ``n <= DENSE_F1_MAX_N`` and the
#: horizon times ``|F1|_inf`` (the largest absolute row sum of F1) exceeds
#: this.  An explicit step is capped by stability near ``6 / |F1|``, so
#: DOP853's RHS count grows like ``T |F1|_inf`` (about 1.9 per unit), while
#: Radau's stays at about 2 000 at tol 1e-10.  On the demo PDE (k = 2, 3,
#: m = 48..68, T = 1; 2-core Xeon VM, one BLAS thread, best of 7 solves)
#: DOP853 was faster up to 3 347 (m = 56, k = 2: 93 ms against 118 ms) and
#: Radau from 3 793 on (m = 56, k = 3: 67 ms against 79 ms; m = 64, k = 2,
#: 4 371: 72 ms against 94 ms), with one inversion at 3 271 (m = 52, k = 3).
STIFF_REFERENCE_SCALE = 3500.0


def check_size(size: int, limit: int, what: str) -> None:
    """Reject ``what`` when its ``size`` exceeds ``limit``."""
    if size > limit:
        raise SizeLimitError(f"{what} of size {size} exceeds the limit {limit}")
