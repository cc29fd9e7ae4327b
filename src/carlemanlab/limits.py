"""Size policy: the four limits every module checks before it allocates.

An oversized problem fails fast with :class:`ValidationError` instead of
running out of memory or stalling in dense linear algebra.
"""

from __future__ import annotations

from .errors import SizeLimitError

#: dense linear algebra on F1 up to this state dimension: LAPACK spectra
#: (``lambda0`` and the exact 2-norm of F1; seeded ARPACK above it) and the
#: dense analytic Jacobian, and with it an ODE's reference integrator (LSODA,
#: which refuses a larger ODE); a dense n x n copy stays below 2 MiB.  The
#: spectra and the Jacobian serve ODE inputs only: a periodic grid's spectrum
#: comes in closed form from its stencil (``pde.periodic_spectrum``) at every
#: dimension, and so does its reference (``pde.etdrk4_reference``).  F1 itself
#: is held as CSR at every dimension.
DENSE_F1_MAX_N = 512

#: explicit dense matrices (Laplacian, Carleman operator) up to this
#: dimension, i.e. at most 128 MiB of float64.
DENSE_MAX_DIM = 4096

#: full sparse assembly of the Carleman operator, ``to_sparse()`` (and
#: ``sparsity_count()``, which counts its rows), up to this total dimension
#: ``sum_j n**j``.  The symmetric operator ``evolve`` steps is limited by its
#: stored entries instead (``KRON_MAX_SIZE``).
ASSEMBLY_MAX_DIM = 200_000

#: entries per array of this many float64 (80 MB).  It covers the PDE grid
#: operator, ``n (2kd + 1)`` entries (``pde.discretize``, which refuses a
#: larger grid before it builds anything), Kronecker-power vectors and the
#: stored entries of the symmetric operator, on every coordinate counted in
#: closed form before it is allocated (``CarlemanMatrix.symmetric_nnz``) and on
#: a reach counted as they are written (``CarlemanMatrix.to_symmetric``), so over
#: it ``evolve`` raises instead of stepping, as it does over this many
#: coordinates in the reach (``CarlemanMatrix.reach``); the one-step Taylor matrix
#: (``propagator.taylor_matrix``), over which ``evolve`` keeps the K-matvec
#: series; and the nonlinearity of ``pde.fourier_form`` and its enumeration
#: of mode products, over which the CLI steps a PDE on its grid.
KRON_MAX_SIZE = 10**7


def check_size(size: int, limit: int, what: str) -> None:
    """Reject ``what`` when its ``size`` exceeds ``limit``."""
    if size > limit:
        raise SizeLimitError(f"{what} of size {size} exceeds the limit {limit}")


def check_power(base: int, exponent: int, limit: int, what: str) -> int:
    """``base**exponent``, rejected as ``what`` over ``limit``: before it is formed (which can
    take minutes) when ``|base| >= 2`` and the exponent is ``limit.bit_length()`` or more."""
    if abs(base) >= 2 and exponent >= limit.bit_length():
        raise SizeLimitError(f"{what} of size {base}**{exponent} exceeds the limit {limit}")
    size = base**exponent
    check_size(size, limit, what)
    return size
