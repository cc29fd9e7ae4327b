"""Truncated Carleman operator: the symmetric operator and its flat oracles.

The linearised operator acts on stacked Kronecker levels ``y_1 .. y_N`` with
diagonal blocks built from ``F1`` and off-diagonal blocks built from the
rescaled nonlinearity ``gamma**(M-1) FM``.  Both block families are Kronecker
sums, so the operator commutes with permutations of tensor factors and keeps
a symmetric lift symmetric.  :meth:`CarlemanMatrix.to_symmetric` assembles it
on the symmetric subspace, one coordinate per non-decreasing multi-index (the
reduced, monomial form of Carleman linearisation: Kowalski & Steeb 1991);
this is the operator :func:`carlemanlab.propagator.evolve` steps, from
:meth:`SymmetricBasis.lift`.

On the flat layout (:class:`CarlemanVector`, :meth:`SymmetricBasis.expand`)
the operator has two independent forms, each the other's oracle:
:meth:`CarlemanMatrix.apply` contracts sparse F1 or FM with one tensor
factor at a time and never materialises a block, and
:meth:`CarlemanMatrix.to_sparse` assembles the full operator for small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import NumericFailure, ValidationError
from .limits import (
    ASSEMBLY_MAX_DIM,
    DENSE_MAX_DIM,
    KRON_MAX_SIZE,
    check_size,
)
from .nonlinear_ode import (
    NonlinearODE, RescaledODE, base_digits, digit_products, kron_power, rescale,
)

#: multi-indices per block of every level walk
_CHUNK = 256


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def level_offsets(n: int, N: int) -> list[int]:
    """Start of each level ``1..N`` in the stacked vector, then its total length."""
    offsets = [0]
    for j in range(1, N + 1):
        offsets.append(offsets[-1] + n**j)
    return offsets


@dataclass
class CarlemanVector:
    """Stacked Kronecker levels ``y_1 .. y_N`` in one contiguous array.

    Level ``j`` (1-based) has length ``n**j`` and starts at offset
    ``n + n**2 + ... + n**(j-1)``; :meth:`level` returns it as a view.
    Register layouts that pad every level to the same width belong to
    state-encoding bookkeeping and only show up in the measurement-probability
    formulas, never in memory.
    """

    flat: np.ndarray
    n: int
    N: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.N < 1:
            raise ValidationError(f"a Carleman vector needs n, N >= 1, got {self.n}, {self.N}")
        self.flat = np.asarray(self.flat, dtype=float)
        self._offsets = level_offsets(self.n, self.N)
        if self.flat.shape != (self._offsets[-1],):
            raise ValidationError(
                f"vector of shape {self.flat.shape} does not hold {self.N} levels of "
                f"n = {self.n} (length {self._offsets[-1]})"
            )

    def level(self, j: int) -> np.ndarray:
        """View of level ``j`` (1-based)."""
        return self.flat[self._offsets[j - 1] : self._offsets[j]]

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


def initial_vector(u_in: np.ndarray, gamma: float, N: int) -> CarlemanVector:
    """Carleman lift of the initial state: level ``j`` is ``(u_in/gamma)^(x j)``."""
    if not gamma > 0:
        raise ValidationError(f"scaling factor must be positive, got {gamma}")
    u = np.asarray(u_in, dtype=float) / gamma
    return CarlemanVector(np.concatenate([kron_power(u, j) for j in range(1, N + 1)]), u.size, N)


# ---------------------------------------------------------------------------
# the symmetric subspace
# ---------------------------------------------------------------------------

def symmetric_offsets(n: int, N: int) -> list[int]:
    """Like :func:`level_offsets` with ``C(n+j-1, j)`` sorted multi-indices per level."""
    offsets = [0]
    for j in range(1, N + 1):
        offsets.append(offsets[-1] + math.comb(n + j - 1, j))
    return offsets


def _digit_keys(digits: np.ndarray, n: int) -> np.ndarray:
    """Row-major position of each multi-index row, the inverse of ``base_digits``."""
    keys = np.zeros(digits.shape[0], dtype=np.int64)
    for pos in range(digits.shape[1]):
        keys *= n
        keys += digits[:, pos]
    return keys


def sorted_keys(n: int, j: int) -> np.ndarray:
    """Row-major positions of the non-decreasing multi-indices of level ``j``, ascending."""
    keys = np.arange(n, dtype=np.int64)
    for _ in range(j - 1):
        last = keys % n
        reps = n - last
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        keys = np.repeat(keys * n + last, reps) + (np.arange(starts.size) - starts)
    return keys


def _sorted_blocks(n: int, keys):
    """Blocks of sorted multi-indices, level after level.

    ``keys`` holds :func:`sorted_keys` of levels ``1, 2, ...``.  Yields each
    block's level ``j``, the position of its first multi-index in the stacked
    symmetric coordinates, and its digits, one row per multi-index.
    """
    at = 0
    for j, level in enumerate(keys, start=1):
        for start in range(0, level.size, _CHUNK):
            yield j, at + start, base_digits(level[start : start + _CHUNK], n, j)
        at += level.size


def _multiplicities(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted multi-index rows: where each value first occurs, and its count there."""
    first = np.ones(T.shape, dtype=bool)
    first[:, 1:] = T[:, 1:] != T[:, :-1]
    return first, (T[:, :, None] == T[:, None, :]).sum(axis=2)


@dataclass
class SymmetricBasis:
    """One coordinate per sorted multi-index of levels ``1..N``.

    Representatives follow each other in the order of :func:`sorted_keys`,
    level after level.  ``weights`` holds each one's orbit size
    ``j! / prod(counts!)``, so ``sqrt(sum(weights * z**2))`` is the 2-norm of
    the symmetric vector ``z`` stands for.
    """

    n: int
    N: int
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._offsets = symmetric_offsets(self.n, self.N)
        self._flat_offsets = level_offsets(self.n, self.N)
        factorial = np.array([math.factorial(k) for k in range(self.N + 1)], dtype=float)
        self.weights = np.empty(self._offsets[-1])
        for where, digits in self._blocks():
            first, counts = _multiplicities(digits)
            self.weights[where] = factorial[digits.shape[1]] / np.prod(
                np.where(first, factorial[counts], 1.0), axis=1
            )

    def _blocks(self):
        """Per block of representatives: its slice of ``z`` and its sorted digits."""
        keys = (sorted_keys(self.n, j) for j in range(1, self.N + 1))
        for _, at, digits in _sorted_blocks(self.n, keys):
            yield slice(at, at + digits.shape[0]), digits

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Representatives of the Carleman lift of ``u``, without forming the flat lift.

        Each is the product of ``u`` over its sorted digits, bit for bit the
        flat lift's entry (:func:`digit_products`).
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValidationError(f"state of shape {u.shape} does not have n = {self.n} entries")
        z = np.empty(self._offsets[-1])
        for where, digits in self._blocks():
            z[where] = digit_products(u, digits)
        return z

    def expand(self, z: np.ndarray) -> np.ndarray:
        """Flat state whose every entry is the value of its representative in ``z``."""
        out = np.empty(self._flat_offsets[-1])
        for j in range(1, self.N + 1):
            keys, size, at = sorted_keys(self.n, j), self.n**j, self._flat_offsets[j - 1]
            level = z[self._offsets[j - 1] : self._offsets[j]]
            for start in range(0, size, _CHUNK):
                stop = min(start + _CHUNK, size)
                digits = np.sort(base_digits(np.arange(start, stop), self.n, j), axis=1)
                ranks = np.searchsorted(keys, _digit_keys(digits, self.n))
                out[at + start : at + stop] = level[ranks]
        return out

    def norm(self, z: np.ndarray) -> float:
        """2-norm of the symmetric state ``z`` stands for."""
        return math.sqrt(float(np.dot(self.weights * z, z)))


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------

@dataclass
class CarlemanMatrix:
    """Truncated, rescaled Carleman operator held in block-implicit form.

    Level ``j`` of the action is
    ``A_j^(1) y_j + gamma**(M-1) A_(j+M-1)^(M) y_(j+M-1)``
    with the second term absent when ``j+M-1 > N``; both block families are
    Kronecker sums referencing ``F1``/``FM`` once each.
    """

    rescaled: RescaledODE
    N: int
    _f1_sparse: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        M, N = self.M, self.N
        if N <= M:
            raise ValidationError(
                f"truncation order must exceed the nonlinearity order: N={N} <= M={M}"
            )
        if self.total_dimension >= 2**62:
            raise ValidationError("total Carleman dimension overflows the address space")
        self._f1_sparse = sp.csr_matrix(self.rescaled.F1)

    # -- shape bookkeeping --------------------------------------------------

    @property
    def n(self) -> int:
        return self.rescaled.n

    @property
    def M(self) -> int:
        return self.rescaled.M

    @property
    def gamma(self) -> float:
        return self.rescaled.gamma

    @property
    def total_dimension(self) -> int:
        """Exact ``sum_j n**j`` in arbitrary-precision integers."""
        return level_offsets(self.n, self.N)[-1]

    @property
    def coupling(self) -> float:
        """Off-diagonal prefactor ``gamma**(M-1)``."""
        return self.gamma ** (self.M - 1)

    @property
    def f1_is_diagonal(self) -> bool:
        """Whether F1 stores no entry off its diagonal.

        Then every level block of :meth:`to_symmetric` is diagonal and the
        operator is upper triangular, each row storing its diagonal first.
        """
        f1 = self._f1_sparse
        rows = np.repeat(np.arange(self.n), np.diff(f1.indptr))
        return bool(np.array_equal(f1.indices, rows))

    # -- matrix-free action, the assemblies' oracle -------------------------

    def _apply_axis(self, op: sp.csr_matrix, y: np.ndarray, j: int, i: int) -> np.ndarray:
        """Contract F1 or FM (``op``) with the factors of ``y`` from ``i`` (1-based) on.

        The result is a level-``j`` vector: F1 replaces factor ``i``, FM the
        ``M`` factors ``i..i+M-1``.
        """
        n, width = self.n, op.shape[1]
        a, b = n ** (i - 1), n ** (j - i)
        flat = y.reshape(a, width, b).transpose(1, 0, 2).reshape(width, a * b)
        out = (op @ flat).reshape(n, a, b)
        return out.transpose(1, 0, 2).reshape(-1)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Action on a stacked vector laid out as in :class:`CarlemanVector`.

        One sparse contraction per tensor factor, independent of
        :meth:`to_sparse` and :meth:`to_symmetric`; no production path calls it.
        """
        N, M = self.N, self.M
        offsets = level_offsets(self.n, N)
        if y.shape != (offsets[-1],):
            raise ValidationError(
                f"vector of shape {y.shape} does not match dimension {offsets[-1]}"
            )
        out = np.zeros(offsets[-1])
        for j in range(1, N + 1):
            acc = out[offsets[j - 1] : offsets[j]]
            for i in range(1, j + 1):
                acc += self._apply_axis(self._f1_sparse, y[offsets[j - 1] : offsets[j]], j, i)
            if j + M - 1 <= N:
                src = y[offsets[j + M - 2] : offsets[j + M - 1]]
                fm_acc = np.zeros(self.n**j)
                for i in range(1, j + 1):
                    fm_acc += self._apply_axis(self.rescaled.base.FM, src, j, i)
                acc += self.coupling * fm_acc
        return out

    # -- explicit assembly (small instances) ---------------------------------

    def _diag_block(self, j: int) -> sp.csr_matrix:
        n = self.n
        total = sp.csr_matrix((n**j, n**j))
        for i in range(1, j + 1):
            left = sp.identity(n ** (i - 1), format="csr")
            right = sp.identity(n ** (j - i), format="csr")
            total = total + sp.kron(sp.kron(left, self._f1_sparse), right, format="csr")
        return total

    def _off_block(self, j: int) -> sp.csr_matrix:
        """Block coupling level ``j+M-1`` into level ``j`` (rescaling included)."""
        n, M = self.n, self.M
        fm = self.rescaled.base.FM
        total = sp.csr_matrix((n**j, n ** (j + M - 1)))
        for i in range(1, j + 1):
            left = sp.identity(n ** (i - 1), format="csr")
            right = sp.identity(n ** (j - i), format="csr")
            total = total + sp.kron(sp.kron(left, fm), right, format="csr")
        return self.coupling * total

    def to_sparse(self) -> sp.csr_matrix:
        check_size(self.total_dimension, ASSEMBLY_MAX_DIM, "sparse Carleman assembly")
        N, M = self.N, self.M
        grid: list[list[object]] = [[None] * N for _ in range(N)]
        for j in range(1, N + 1):
            grid[j - 1][j - 1] = self._diag_block(j)
            if j + M - 1 <= N:
                grid[j - 1][j + M - 2] = self._off_block(j)
        out = sp.bmat(grid, format="csr")
        out.sum_duplicates()
        out.eliminate_zeros()
        return out

    def dense(self) -> np.ndarray:
        check_size(self.total_dimension, DENSE_MAX_DIM, "dense Carleman matrix")
        return self.to_sparse().toarray()

    # -- assembly on the symmetric subspace -----------------------------------

    @property
    def symmetric_dimension(self) -> int:
        """Number of sorted multi-indices, ``sum_j C(n+j-1, j)``."""
        return symmetric_offsets(self.n, self.N)[-1]

    @cached_property
    def _symmetric_parts(self):
        """F1's diagonal, and the other entries of F1 and of FM as CSR-like rows.

        A row family is ``(indptr, digits, values)``: row ``v`` holds the
        multi-indices that replace one factor ``v``.  F1 contributes single
        digits; FM contributes its column digits sorted, with entries whose
        digits are permutations of each other summed.
        """
        n, M = self.n, self.M
        coo = self._f1_sparse.tocoo()
        off = coo.row != coo.col
        f1_off = sp.csr_matrix((coo.data[off], (coo.row[off], coo.col[off])), shape=(n, n))
        base = self.rescaled.base
        rows, _, vals = base.fm_coordinates
        width = n**M
        keys, inverse = np.unique(
            rows * width + _digit_keys(np.sort(base.fm_digits, axis=1), n), return_inverse=True
        )
        fm_rows = keys // width
        fm = (
            np.searchsorted(fm_rows, np.arange(n + 1)),
            base_digits(keys % width, n, M),
            np.bincount(inverse, weights=vals, minlength=keys.size),
        )
        return self._f1_sparse.diagonal(), (f1_off.indptr, f1_off.indices[:, None], f1_off.data), fm

    def symmetric_nnz(self) -> int:
        """Entries :meth:`to_symmetric` stores, counted before it allocates any.

        Row ``I`` of level ``j`` stores its diagonal entry plus, for each
        distinct value ``v`` in ``I``, one entry per off-diagonal F1 entry of
        row ``v`` and (when level ``j+M-1`` exists) one per sorted FM entry of
        row ``v``.  ``C(n+j-1, j) - C(n+j-2, j)`` sorted multi-indices of
        level ``j`` contain a given value.
        """
        n, M, N = self.n, self.M, self.N
        _, f1_off, fm = self._symmetric_parts
        total = 0
        for j in range(1, N + 1):
            rows = math.comb(n + j - 1, j)
            per_value = f1_off[2].size + (fm[2].size if j + M - 1 <= N else 0)
            total += rows + (rows - math.comb(n + j - 2, j)) * per_value
        return total

    def to_symmetric(self) -> sp.csr_matrix:
        """The operator on the symmetric subspace of :class:`SymmetricBasis`.

        Entry ``(I, J)`` sums the full operator's row ``I`` over every flat
        column whose sorted multi-index is ``J``, so
        ``basis.expand(op @ z) == full @ basis.expand(z)``.  Built block by
        block from F1's rows and FM's digits; the full operator never exists.
        """
        n, M, N = self.n, self.M, self.N
        nnz = self.symmetric_nnz()
        # every row stores its diagonal entry, so rows <= entries <= KRON_MAX_SIZE
        # < 2**31 and the int32 ``indices`` and ``indptr`` below cannot overflow
        check_size(nnz, KRON_MAX_SIZE, "symmetric Carleman operator entries")
        diag, f1_off, fm = self._symmetric_parts
        offsets = symmetric_offsets(n, N)
        keys = [sorted_keys(n, j) for j in range(1, N + 1)]
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=np.int32)
        indptr = np.zeros(offsets[-1] + 1, dtype=np.int32)
        pos = 0
        for j, at, T in _sorted_blocks(n, keys):
            families = [(f1_off, j, 1.0)]
            if j + M - 1 <= N:
                families.append((fm, j + M - 1, self.coupling))
            first, counts = _multiplicities(T)
            rows = [np.arange(T.shape[0])]
            cols = [np.arange(at, at + T.shape[0])]
            vals = [diag[T].sum(axis=1)]
            row, slot = np.nonzero(first)
            value, mult = T[row, slot], counts[row, slot]
            for (ptr, digits, entries), level, scale in families:
                per = ptr[value + 1] - ptr[value]
                src = np.repeat(np.arange(row.size), per)
                starts = np.repeat(ptr[value] - (np.cumsum(per) - per), per)
                entry = starts + np.arange(src.size)
                rest = T[row[src]][np.arange(j) != slot[src, None]].reshape(src.size, j - 1)
                tuples = np.sort(np.concatenate([rest, digits[entry]], axis=1), axis=1)
                rows.append(row[src])
                ranks = np.searchsorted(keys[level - 1], _digit_keys(tuples, n))
                cols.append(offsets[level - 1] + ranks)
                vals.append(scale * mult[src] * entries[entry])
            r, c, v = (np.concatenate(parts) for parts in (rows, cols, vals))
            order = np.lexsort((c, r))
            indices[pos : pos + order.size] = c[order]
            data[pos : pos + order.size] = v[order]
            indptr[at + 1 : at + T.shape[0] + 1] = pos + np.cumsum(
                np.bincount(r, minlength=T.shape[0])
            )
            pos += order.size
        if pos != nnz:
            raise NumericFailure(f"symmetric operator stored {pos} entries, counted {nnz}")
        return sp.csr_matrix((data, indices, indptr), shape=(offsets[-1], offsets[-1]))

    # -- spectral bookkeeping -------------------------------------------------

    def gershgorin_max_eig_bound(self) -> float:
        """Block-Gershgorin bound on the top eigenvalue of the symmetric part.

        Row ``j`` contributes ``j lambda0`` from the diagonal block plus half
        the spectral norms of whichever off-diagonal blocks are present.
        """
        base = self.rescaled.base
        lam, coupling, fm = base.lambda0, self.coupling, base.fm_norm
        best = -np.inf
        for j in range(1, self.N + 1):
            if j < self.M:
                off = j
            elif j <= self.N - self.M + 1:
                off = 2 * j - self.M + 1
            else:
                off = j - self.M + 1
            best = max(best, j * lam + off * coupling * fm / 2.0)
        return float(best)

    def spectral_norm_bound(self) -> float:
        """``N |F1| + (N-M+1) gamma**(M-1) |FM|``, from the block structure."""
        base = self.rescaled.base
        return self.N * base.f1_norm + (self.N - self.M + 1) * self.coupling * base.fm_norm

    def sparsity_count(self) -> int:
        """Measured maximum number of nonzeros in any assembled row."""
        return int(self.to_sparse().getnnz(axis=1).max())


def assemble(system: RescaledODE | NonlinearODE, N: int) -> CarlemanMatrix:
    """Build the truncated Carleman operator for a (rescaled) nonlinear ODE.

    An unscaled problem is treated as ``gamma = 1``.
    """
    if isinstance(system, NonlinearODE):
        system = rescale(system, 1.0)
    return CarlemanMatrix(rescaled=system, N=int(N))


def lambda_value(N: int, M: int, gamma: float, lam_f1: float, lam_fm: float) -> float:
    """Block-encoding subnormalisation of the assembled operator.

    ``N lam_f1 + (N-M+1) gamma**(M-1) lam_fm``: the diagonal family stacks up
    to N copies of F1 and the off-diagonal family up to N-M+1 copies of the
    rescaled FM.
    """
    return N * lam_f1 + (N - M + 1) * gamma ** (M - 1) * lam_fm


def export_matrix_market(mat: CarlemanMatrix, path: str) -> None:
    """Write the assembled operator in Matrix Market format (small instances)."""
    from scipy.io import mmwrite

    check_size(mat.total_dimension, DENSE_MAX_DIM, "Matrix Market export")
    mmwrite(path, mat.to_sparse())
