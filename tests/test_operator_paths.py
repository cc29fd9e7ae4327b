"""Properties of the three forms of the Carleman operator: the block-structured
action, the full sparse assembly and the symmetric operator ``evolve`` steps.

The structured ``apply`` and the full sparse assembly are built independently
and must agree on every vector; the symmetric operator must equal the full
assembly on symmetric vectors.  The Carleman lift must hold the Kronecker
powers level by level, and its symmetric coordinates must be exactly the
flat lift's entries at the sorted multi-indices.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from carlemanlab.carleman import (
    SymmetricBasis,
    assemble,
    initial_vector,
    level_digits,
    level_offsets,
    symmetric_offsets,
)
from carlemanlab.nonlinear_ode import NonlinearODE, kron_power, rescale

SETTINGS = settings(deadline=None)


@st.composite
def problems(draw):
    """(ODE, gamma, N) over the small orders both paths handle exactly."""
    n = draw(st.sampled_from([1, 2, 3]))
    M = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(M + 1, M + 3))
    f1_kind = draw(st.sampled_from(["dense", "sparse"]))
    fm_kind = draw(st.sampled_from(["one_sparse", "generic"]))
    gamma = draw(st.floats(0.1, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    F1 = rng.standard_normal((n, n))
    if f1_kind != "dense":
        F1 = sp.csr_matrix(F1 * (rng.random((n, n)) < 0.6))
    width = n**M
    if fm_kind == "one_sparse":
        rows = np.flatnonzero(rng.random(n) < 0.8)
        cols = rng.integers(0, width, rows.size)
        FM = sp.csr_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(n, width))
    else:
        # row 0 is full, so every row index repeats once width > 1
        dense = rng.standard_normal((n, width)) * (rng.random((n, width)) < 0.5)
        dense[0] = rng.standard_normal(width)
        FM = sp.csr_matrix(dense)
    u_in = rng.standard_normal(n)
    return NonlinearODE(n=n, M=M, F1=F1, FM=FM, u_in=u_in), gamma, N


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_structured_apply_equals_assembled_matvec(problem, seed):
    ode, gamma, N = problem
    mat = assemble(rescale(ode, gamma), N)
    y = np.random.default_rng(seed).standard_normal(mat.total_dimension)
    got = mat.apply(y)
    want = mat.to_sparse() @ y
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@SETTINGS
@given(problems())
def test_initial_vector_levels_are_kronecker_powers(problem):
    ode, gamma, N = problem
    y = initial_vector(ode.u_in, gamma, N)
    assert y.flat.size == assemble(ode, N).total_dimension
    for j in range(1, N + 1):
        assert np.shares_memory(y.level(j), y.flat)
        np.testing.assert_array_equal(y.level(j), kron_power(ode.u_in / gamma, j))


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_symmetric_operator_equals_assembled_matvec_on_symmetric_vectors(problem, seed):
    ode, gamma, N = problem
    mat = assemble(rescale(ode, gamma), N)
    basis = SymmetricBasis(mat.n, mat.N)
    z = np.random.default_rng(seed).standard_normal(mat.symmetric_dimension)
    flat = basis.expand(z)
    got = basis.expand(mat.to_symmetric() @ z)
    want = mat.to_sparse() @ flat
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert math.isclose(basis.norm(z), np.linalg.norm(flat), rel_tol=1e-12)


@SETTINGS
@given(problems())
def test_whole_level_count_equals_the_walked_count(problem):
    ode, gamma, N = problem
    mat = assemble(rescale(ode, gamma), N)
    offsets = symmetric_offsets(mat.n, N)
    every = [np.arange(offsets[j] - offsets[j - 1]) for j in range(1, N + 1)]
    assert mat.symmetric_nnz() == mat.symmetric_nnz(every)


@SETTINGS
@given(problems())
def test_symmetric_lift_holds_the_flat_lift_representatives(problem):
    ode, gamma, N = problem
    basis = SymmetricBasis(ode.n, N)
    lift = basis.lift(ode.u_in / gamma)
    flat = initial_vector(ode.u_in, gamma, N).flat
    sym, full = symmetric_offsets(ode.n, N), level_offsets(ode.n, N)
    for j in range(1, N + 1):
        # row-major flat positions of the sorted multi-indices, in rank order
        digits = level_digits(np.arange(sym[j] - sym[j - 1]), ode.n, j)
        positions = digits @ ode.n ** np.arange(j - 1, -1, -1)
        np.testing.assert_array_equal(lift[sym[j - 1] : sym[j]], flat[full[j - 1] + positions])
    # the lift's levels are symmetric up to the rounding of their products
    np.testing.assert_allclose(basis.expand(lift), flat, rtol=1e-14, atol=0)
