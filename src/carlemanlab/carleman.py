"""Truncated Carleman operator: the symmetric operator and its flat oracles.

The linearised operator acts on stacked Kronecker levels ``y_1 .. y_N`` with
diagonal blocks built from ``F1`` and off-diagonal blocks built from the
rescaled nonlinearity ``gamma**(M-1) FM``.  Both block families are Kronecker
sums, so the operator commutes with permutations of tensor factors and keeps
a symmetric lift symmetric.  :meth:`CarlemanMatrix.to_symmetric` assembles it
on the symmetric subspace, one coordinate per non-decreasing multi-index (the
reduced, monomial form of Carleman linearisation: Kowalski & Steeb 1991),
each level keyed by the lexicographic rank of its multi-indices
(:func:`level_ranks`), which fits in int64 whenever the level's count does.
It takes any subset of those keys and returns the principal submatrix on it:
:meth:`CarlemanMatrix.reach` gives the coordinates the lift of ``u_in`` can
reach, few when F1 is diagonal and ``u_in`` band-limited (13 of 6 544 on the
demo PDE at N = 3, 1 262 of about 7.3e10 at N = 13), and every one
otherwise.  This is the operator :func:`carlemanlab.propagator.evolve`
steps, from :meth:`SymmetricBasis.lift` on the same keys.

On the flat layout (:class:`CarlemanVector`, :meth:`SymmetricBasis.expand`)
the operator has two independent forms, each the other's oracle:
:meth:`CarlemanMatrix.apply` applies each block's Kronecker sum with
:func:`~carlemanlab.nonlinear_ode.kron_sum_apply`, one sparse contraction of
F1 or FM per tensor factor, and never materialises a block, and
:meth:`CarlemanMatrix.to_sparse` assembles the full operator from
:func:`~carlemanlab.nonlinear_ode.kron_sum` for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    NonlinearODE, RescaledODE, base_digits, digit_products, kron_power, kron_sum,
    kron_sum_apply, rescale,
)

#: multi-indices per block of the level walks of :class:`SymmetricBasis`
_CHUNK = 256

#: stored entries per block of the :meth:`CarlemanMatrix.to_symmetric` walk
_ENTRIES_PER_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def level_offsets(n: int, N: int) -> list[int]:
    """Start of each level ``1..N`` in the stacked vector, then its total length."""
    offsets = [0]
    for j in range(1, N + 1):
        offsets.append(offsets[-1] + n**j)
    return offsets


def _addressable(n: int, N: int) -> list[int]:
    """:func:`level_offsets` of a flat layout, refused when it overflows the address space."""
    offsets = level_offsets(n, N)
    check_size(offsets[-1], 2**62 - 1, "flat Carleman dimension")
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
    _addressable(u.size, N)
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


@lru_cache(maxsize=None)
def _rank_table(n: int, j: int) -> np.ndarray:
    """``C(c + i, i + 1)`` at ``[i, c]`` for ``i < j`` and ``c < n``, the terms of a level-``j`` rank.

    Its largest entry, ``C(n + j - 2, j)``, is below the level's count, so the
    table fits in int64 whenever the level's ranks do.
    """
    check_size(math.comb(n + j - 1, j), 2**63 - 1, f"level {j} of n = {n}, ranked in int64,")
    return np.array(
        [[math.comb(c + i, i + 1) for c in range(n)] for i in range(j)], dtype=np.int64
    )


def level_ranks(T: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic position of each sorted multi-index row of ``T`` within its level.

    The reversed complements ``c_i = n - 1 - T[:, j-1-i]`` are sorted too,
    and ``sum_i C(c_i + i, i + 1)`` is their combinatorial (colex) rank, which
    runs against the lexicographic order of ``T``.  A rank fits in int64
    whenever the level's count ``C(n+j-1, j)`` does, at any ``n**j``.
    """
    j = T.shape[1]
    table = _rank_table(n, j)
    colex = np.zeros(T.shape[0], dtype=np.int64)
    for i in range(j):
        colex += table[i, n - 1 - T[:, j - 1 - i]]
    return (math.comb(n + j - 1, j) - 1) - colex


def level_digits(ranks, n: int, j: int) -> np.ndarray:
    """Sorted multi-indices of level ``j`` at ``ranks``, one row each; inverts :func:`level_ranks`."""
    table = _rank_table(n, j)
    rest = (math.comb(n + j - 1, j) - 1) - np.asarray(ranks, dtype=np.int64)
    T = np.empty((rest.size, j), dtype=np.int64)
    for i in range(j - 1, -1, -1):
        c = np.searchsorted(table[i], rest, side="right") - 1
        rest = rest - table[i, c]
        T[:, j - 1 - i] = n - 1 - c
    return T


def full_levels(n: int, N: int) -> list[range]:
    """Every rank of levels ``1..N``: the key set of the whole symmetric subspace."""
    return [range(math.comb(n + j - 1, j)) for j in range(1, N + 1)]


def _count(level) -> int:
    """Number of ranks in a level's keys; exact past int64 for a whole level's ``range``."""
    return level.stop - level.start if isinstance(level, range) else level.size


def _take(level, a: int, b: int) -> np.ndarray:
    """Ranks ``a..b-1`` of a level's sorted ranks, an array or a whole level's ``range``."""
    part = level[a:b]
    return np.arange(part.start, part.stop) if isinstance(part, range) else part


def _locate(keys: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each rank in the sorted ``keys``, and whether it is there."""
    at = np.searchsorted(keys, ranks)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == ranks[hit]
    return at, hit


def ranges(sizes: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Consecutive index ranges whose ``sizes`` add up to about ``cap`` (a larger item alone)."""
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(ends, np.arange(cap, ends[-1], cap), side="right")
    edges = np.unique(np.concatenate([[0], cuts, [sizes.size]]))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def _sorted_blocks(n: int, keys, weigh=None, cap: int = _CHUNK):
    """Blocks of sorted multi-indices, level after level.

    ``keys`` holds the sorted ranks (:func:`level_ranks`) of levels
    ``1, 2, ...``.  A block holds ``cap`` multi-indices, or, given
    ``weigh(j, digits)`` (one weight per row of digits), multi-indices whose
    weights add up to about ``cap``.  Yields each block's level ``j``, the
    position of its first multi-index in the stacked coordinates, and its
    digits, one row per multi-index.
    """
    at = 0
    for j, level in enumerate(keys, start=1):
        if not len(level):
            continue
        if weigh is None:
            weights = np.ones(len(level))
        else:
            starts = range(0, len(level), cap)
            weights = np.concatenate(
                [weigh(j, level_digits(_take(level, s, s + cap), n, j)) for s in starts]
            )
        for a, b in ranges(weights, cap):
            yield j, at + a, level_digits(_take(level, a, b), n, j)
        at += len(level)


def _settle(found: list, above: int) -> np.ndarray:
    """The distinct ranks of ``found``, refused when they and the ``above`` rows
    of higher levels pass ``KRON_MAX_SIZE``: each row stores at least its diagonal entry."""
    ranks = np.unique(np.concatenate(found))
    check_size(above + ranks.size, KRON_MAX_SIZE, "symmetric Carleman operator entries")
    return ranks


def _multiplicities(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted multi-index rows: where each value first occurs, and its count there."""
    first = np.ones(T.shape, dtype=bool)
    first[:, 1:] = T[:, 1:] != T[:, :-1]
    return first, (T[:, :, None] == T[:, None, :]).sum(axis=2)


@dataclass
class SymmetricBasis:
    """One coordinate per sorted multi-index of ``keys``, a subset of levels ``1..N``.

    ``keys`` holds each level's sorted ranks (:func:`level_ranks`); left
    unset, it is every multi-index (:func:`full_levels`).  Coordinates follow
    the ranks, level after level.  ``weights`` holds each one's orbit size
    ``j! / prod(counts!)``, so ``sqrt(sum(weights * z**2))`` is the 2-norm of
    the symmetric vector ``z`` stands for, every coordinate outside ``keys``
    being zero.
    """

    n: int
    N: int
    keys: list | None = field(default=None, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        levels = full_levels(self.n, self.N) if self.keys is None else self.keys
        self.keys = [_take(level, 0, len(level)) for level in levels]
        self._offsets = np.cumsum([0] + [level.size for level in self.keys]).tolist()
        factorial = np.array([math.factorial(k) for k in range(self.N + 1)], dtype=float)
        self.weights = np.empty(self.dimension)
        for where, digits in self._blocks():
            first, counts = _multiplicities(digits)
            self.weights[where] = factorial[digits.shape[1]] / np.prod(
                np.where(first, factorial[counts], 1.0), axis=1
            )

    @property
    def dimension(self) -> int:
        """Number of coordinates."""
        return self._offsets[-1]

    def _blocks(self):
        """Per block of representatives: its slice of ``z`` and its sorted digits."""
        for _, at, digits in _sorted_blocks(self.n, self.keys):
            yield slice(at, at + digits.shape[0]), digits

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Representatives of the Carleman lift of ``u``, without forming the flat lift.

        Each is the product of ``u`` over its sorted digits, bit for bit the
        flat lift's entry (:func:`digit_products`).
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValidationError(f"state of shape {u.shape} does not have n = {self.n} entries")
        z = np.empty(self.dimension)
        for where, digits in self._blocks():
            z[where] = digit_products(u, digits)
        return z

    def first_level(self, z: np.ndarray) -> np.ndarray:
        """Level 1 of ``z`` on all ``n`` entries, zero outside ``keys``."""
        out = np.zeros(self.n)
        out[self.keys[0]] = z[: self._offsets[1]]
        return out

    def expand(self, z: np.ndarray) -> np.ndarray:
        """Flat state whose every entry is the value of its representative in ``z``, or zero."""
        out = np.zeros(_addressable(self.n, self.N)[-1])
        at = 0
        for j, keys in enumerate(self.keys, start=1):
            size, level = self.n**j, z[self._offsets[j - 1] : self._offsets[j]]
            for start in range(0, size, _CHUNK):
                stop = min(start + _CHUNK, size)
                digits = np.sort(base_digits(np.arange(start, stop), self.n, j), axis=1)
                where, hit = _locate(keys, level_ranks(digits, self.n))
                out[at + start : at + stop][hit] = level[where[hit]]
            at += size
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

    def __post_init__(self) -> None:
        M, N = self.M, self.N
        if N <= M:
            raise ValidationError(
                f"truncation order must exceed the nonlinearity order: N={N} <= M={M}"
            )

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
        f1 = self.rescaled.F1
        rows = np.repeat(np.arange(self.n), np.diff(f1.indptr))
        return bool(np.array_equal(f1.indices, rows))

    # -- matrix-free action, the assemblies' oracle -------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Action on a stacked vector laid out as in :class:`CarlemanVector`.

        One sparse contraction per tensor factor (:func:`kron_sum_apply`),
        independent of :meth:`to_sparse` and :meth:`to_symmetric`; no
        production path calls it.
        """
        n, N, M = self.n, self.N, self.M
        offsets = _addressable(n, N)
        if y.shape != (offsets[-1],):
            raise ValidationError(
                f"vector of shape {y.shape} does not match dimension {offsets[-1]}"
            )
        out = np.zeros(offsets[-1])
        for j in range(1, N + 1):
            acc = out[offsets[j - 1] : offsets[j]]
            acc += kron_sum_apply(self.rescaled.F1, y[offsets[j - 1] : offsets[j]], n, j)
            if j + M - 1 <= N:
                src = y[offsets[j + M - 2] : offsets[j + M - 1]]
                acc += self.coupling * kron_sum_apply(self.rescaled.base.FM, src, n, j)
        return out

    # -- explicit assembly (small instances) ---------------------------------

    def to_sparse(self) -> sp.csr_matrix:
        n, N, M = self.n, self.N, self.M
        check_size(_addressable(n, N)[-1], ASSEMBLY_MAX_DIM, "sparse Carleman assembly")
        grid: list[list[object]] = [[None] * N for _ in range(N)]
        for j in range(1, N + 1):
            grid[j - 1][j - 1] = kron_sum(self.rescaled.F1, n, j)
            if j + M - 1 <= N:
                grid[j - 1][j + M - 2] = self.coupling * kron_sum(self.rescaled.base.FM, n, j)
        out = sp.bmat(grid, format="csr")
        out.sum_duplicates()
        out.eliminate_zeros()
        return out

    def dense(self) -> np.ndarray:
        check_size(_addressable(self.n, self.N)[-1], DENSE_MAX_DIM, "dense Carleman matrix")
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
        digits are permutations of each other summed and sums of zero dropped.
        """
        n, M, base = self.n, self.M, self.rescaled.base
        coo = base.F1.tocoo()
        off = coo.row != coo.col
        f1_off = sp.csr_matrix((coo.data[off], (coo.row[off], coo.col[off])), shape=(n, n))
        rows, _, vals = base.fm_coordinates
        width = math.comb(n + M - 1, M)
        keys, inverse = np.unique(
            rows * width + level_ranks(np.sort(base.fm_digits, axis=1), n), return_inverse=True
        )
        sums = np.bincount(inverse, weights=vals, minlength=keys.size)
        keys, sums = keys[sums != 0], sums[sums != 0]
        fm = (
            np.searchsorted(keys // width, np.arange(n + 1)),
            level_digits(keys % width, n, M),
            sums,
        )
        return base.F1.diagonal(), (f1_off.indptr, f1_off.indices[:, None], f1_off.data), fm

    def _row_entries(self, j: int, T: np.ndarray) -> np.ndarray:
        """Entries each sorted multi-index row of ``T`` (level ``j``) stores at most.

        Its diagonal entry plus, for each distinct value ``v`` in it, one per
        off-diagonal F1 entry of row ``v`` and, when level ``j+M-1`` exists,
        one per sorted FM entry of row ``v``.
        """
        _, f1_off, fm = self._symmetric_parts
        per_value = np.diff(f1_off[0]) + (np.diff(fm[0]) if j + self.M - 1 <= self.N else 0)
        first, _ = _multiplicities(T)
        return 1 + np.where(first, per_value[T], 0).sum(axis=1)

    def symmetric_nnz(self, keys=None) -> int:
        """Bound on the entries :meth:`to_symmetric` stores, counted before it allocates any.

        ``keys`` defaults to every sorted multi-index.  When a level is whole
        (a ``range`` of ranks, as :func:`full_levels` gives), each row counts
        :meth:`_row_entries`; on subsets of every level (arrays of ranks, as
        :meth:`reach` gives), its diagonal entry and its couplings whose
        columns lie in ``keys`` (:meth:`_couplings`), walked in the blocks
        :meth:`to_symmetric` writes, so counting takes no more scratch than writing.
        Every row stores its diagonal entry, so a key set with more rows than
        ``KRON_MAX_SIZE`` is counted by its rows alone.  Exact when no two
        entries of a row meet in one column and none sums to zero.
        """
        keys = full_levels(self.n, self.N) if keys is None else keys
        rows = sum(_count(level) for level in keys)
        if rows > KRON_MAX_SIZE:
            return rows
        total = 0
        if any(isinstance(level, range) for level in keys):
            for j, level in enumerate(keys, start=1):
                for s in range(0, len(level), _ENTRIES_PER_BLOCK):
                    T = level_digits(_take(level, s, s + _ENTRIES_PER_BLOCK), self.n, j)
                    total += int(self._row_entries(j, T).sum())
            return total
        for j, _, T in self._entry_blocks(keys):
            total += T.shape[0] + sum(r.size for _, r, _, _ in self._couplings(j, T, keys))
        return total

    def _entry_blocks(self, keys):
        """Blocks of ``keys`` (:func:`_sorted_blocks`) of about ``_ENTRIES_PER_BLOCK`` entries.

        A row weighs one more than its entries, as its digits and
        multiplicities take about as much scratch as an entry.
        """
        return _sorted_blocks(
            self.n, keys, lambda j, T: 1 + self._row_entries(j, T), _ENTRIES_PER_BLOCK
        )

    def _couplings(self, j: int, T: np.ndarray, keys: list):
        """Off-diagonal entries of block ``T``'s rows (level ``j``) whose columns lie in ``keys``.

        ``keys`` holds each level's sorted ranks as an array.  One family at a
        time, F1's off-diagonal entries and then, when level ``j+M-1``
        exists, FM's, yields the level of the family's columns and, per
        entry, its row in ``T``, its column's position in that level's keys
        and its value.  A row's entries may meet in one column.
        """
        _, f1_off, fm = self._symmetric_parts
        families = [(f1_off, j, 1.0)]
        if j + self.M - 1 <= self.N:
            families.append((fm, j + self.M - 1, self.coupling))
        first, counts = _multiplicities(T)
        row, slot = np.nonzero(first)
        value, mult = T[row, slot], counts[row, slot]
        for (ptr, digits, entries), level, scale in families:
            per = ptr[value + 1] - ptr[value]
            src = np.repeat(np.arange(row.size), per)
            starts = np.repeat(ptr[value] - (np.cumsum(per) - per), per)
            entry = starts + np.arange(src.size)
            rest = T[row[src]][np.arange(j) != slot[src, None]].reshape(src.size, j - 1)
            tuples = np.sort(np.concatenate([rest, digits[entry]], axis=1), axis=1)
            where, hit = _locate(keys[level - 1], level_ranks(tuples, self.n))
            yield level, row[src[hit]], where[hit], scale * mult[src[hit]] * entries[entry[hit]]

    def reach(self) -> list:
        """Sorted ranks, level by level, of the coordinates the lifted ``u_in`` can reach.

        When F1 is diagonal, level ``j`` of the operator moves level ``j``
        only along its diagonal and couples in level ``j+M-1``, so a
        coordinate can leave zero only if it is nonzero at the start or its
        row couples to a reachable coordinate of level ``j+M-1``.  Level
        ``N``'s reach is the support of the lift (the sorted multi-indices
        over the nonzero entries of ``u_in``); level ``j``'s is its support
        plus every sorted ``(rest, v)`` such that ``rest`` and a sorted FM
        column tuple of row ``v`` make up a reachable multi-index of level
        ``j+M-1``.  Every other coordinate stays exactly zero, so stepping
        the operator on the reach (:meth:`to_symmetric`) gives the same
        trajectory.  Otherwise, or when every entry of ``u_in`` is nonzero,
        every coordinate (:func:`full_levels`).

        Each row of the operator stores its diagonal entry, so a reach of
        more than ``KRON_MAX_SIZE`` coordinates is refused as soon as its
        found coordinates pass that count.  Candidates are merged into the
        level's reach whenever they outnumber it, so they never hold more
        ranks than the reach so far plus one block's.
        """
        n, M, N = self.n, self.M, self.N
        support = np.flatnonzero(self.rescaled.u_in_scaled)
        # a full support makes every level's support the whole level
        if not self.f1_is_diagonal or support.size == n:
            return full_levels(n, N)
        own = [math.comb(support.size + j - 1, j) for j in range(1, N + 1)]
        check_size(sum(own), KRON_MAX_SIZE, "symmetric Carleman operator entries")
        _, _, (ptr, digits, _) = self._symmetric_parts
        # FM's sorted column tuples by rank, each with its row
        columns = level_ranks(digits, n)
        order = np.argsort(columns, kind="stable")
        columns, owner = columns[order], np.repeat(np.arange(n), np.diff(ptr))[order]
        levels: list = [None] * N
        for j in range(N, 0, -1):
            above = sum(level.size for level in levels[j:])
            # the lift's support: the sorted multi-indices of the support's positions
            found = [np.empty(0, dtype=np.int64)]
            for s in range(0, own[j - 1], _CHUNK):
                picked = level_digits(np.arange(s, min(s + _CHUNK, own[j - 1])), support.size, j)
                found.append(level_ranks(support[picked], n))
            reached, found, pending = _settle(found, above), [], 0
            if j + M - 1 <= N:
                coupled = levels[j + M - 2]
                picks = list(itertools.combinations(range(j + M - 1), M))
                for s in range(0, coupled.size, _CHUNK):
                    D = level_digits(coupled[s : s + _CHUNK], n, j + M - 1)
                    for pick in picks:
                        rest = np.delete(D, pick, axis=1)
                        query = level_ranks(D[:, pick], n)
                        lo = np.searchsorted(columns, query, side="left")
                        count = np.searchsorted(columns, query, side="right") - lo
                        src = np.repeat(np.arange(query.size), count)
                        at = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(src.size)
                        T = np.sort(np.concatenate([rest[src], owner[at, None]], axis=1), axis=1)
                        found.append(np.unique(level_ranks(T, n)))
                        pending += found[-1].size
                    # merge once the candidates outnumber the level's reach so
                    # far: they never hold more than its ranks and one block's
                    if pending > reached.size:
                        reached, found, pending = _settle([reached, *found], above), [], 0
                reached = _settle([reached, *found], above)
            levels[j - 1] = reached
        return levels

    def to_symmetric(self, keys=None) -> sp.csr_matrix:
        """The operator on the coordinates ``keys`` of :class:`SymmetricBasis` (every one when unset).

        Entry ``(I, J)`` sums the full operator's row ``I`` over every flat
        column whose sorted multi-index is ``J``, so
        ``basis.expand(op @ z) == full @ basis.expand(z)`` on the whole
        subspace.  On a subset it is the principal submatrix: columns outside
        ``keys`` are dropped.  Built block by block from F1's rows and FM's
        digits; the full operator never exists.  The CSR is canonical: each
        row's entries in one column are summed, off-diagonal sums of zero
        are dropped, and every diagonal entry is stored.
        """
        n = self.n
        keys = full_levels(n, self.N) if keys is None else keys
        nnz = self.symmetric_nnz(keys)
        # every row stores its diagonal entry, so rows <= entries <= KRON_MAX_SIZE
        # < 2**31 and the int32 ``indices`` and ``indptr`` below cannot overflow
        check_size(nnz, KRON_MAX_SIZE, "symmetric Carleman operator entries")
        keys = [_take(level, 0, len(level)) for level in keys]
        diag = self._symmetric_parts[0]
        offsets = np.cumsum([0] + [level.size for level in keys]).tolist()
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=np.int32)
        indptr = np.zeros(offsets[-1] + 1, dtype=np.int32)

        def write(j: int, at: int, T: np.ndarray, pos: int) -> int:
            """Store the rows of block ``T`` from entry ``pos`` on; returns the next free entry."""
            rows = [np.arange(T.shape[0])]
            cols = [np.arange(at, at + T.shape[0])]
            vals = [diag[T].sum(axis=1)]
            for level, r, where, v in self._couplings(j, T, keys):
                rows.append(r)
                cols.append(offsets[level - 1] + where)
                vals.append(v)
            r, c, v = (np.concatenate(parts) for parts in (rows, cols, vals))
            order = np.lexsort((c, r))
            r, c, v = r[order], c[order], v[order]
            new = np.ones(r.size, dtype=bool)
            new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            starts = np.flatnonzero(new)
            r, c, v = r[starts], c[starts], np.add.reduceat(v, starts)
            kept = (v != 0) | (c == at + r)
            r, c, v = r[kept], c[kept], v[kept]
            indices[pos : pos + r.size] = c
            data[pos : pos + r.size] = v
            indptr[at + 1 : at + T.shape[0] + 1] = pos + np.cumsum(
                np.bincount(r, minlength=T.shape[0])
            )
            return pos + r.size

        pos = 0
        for j, at, T in self._entry_blocks(keys):
            pos = write(j, at, T, pos)
        if pos > nnz:
            raise NumericFailure(f"symmetric operator stored {pos} entries, counted at most {nnz}")
        # trim the count's slack in place
        data.resize(pos, refcheck=False)
        indices.resize(pos, refcheck=False)
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
        """Block-structure bound ``N |F1| + (N-M+1) gamma**(M-1) |FM|`` (:func:`lambda_value`)."""
        base = self.rescaled.base
        return lambda_value(self.N, self.M, self.gamma, base.f1_norm, base.fm_norm)

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
