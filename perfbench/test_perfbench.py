"""Self-tests for the benchmark's own code: ``python3 -m pytest perfbench``."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


class TestSelfTime:
    def test_leaf_keeps_its_duration(self):
        assert tracing.self_times([span("a", 1.0, 3.5)]) == [2.5]

    def test_children_are_subtracted(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 4.0, 8.0, 0)]
        assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 6.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2.0, 6.0), span("a", 1.0, 3.0, 0), span("b", 5.0, 9.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(2.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 9.0, 0), span("b", 2.0, 4.0, 1)]
        assert tracing.self_times(spans) == pytest.approx([2.0, 6.0, 2.0])

    def test_self_times_add_up_to_the_top_level_spans(self):
        spans = [
            span("setup", 0.0, 1.0),
            span("bench.workload", 1.0, 9.0),
            span("cli.main", 1.5, 8.5, 1),
            span("propagator.evolve", 2.0, 8.0, 2),
            span("carleman.matvec", 3.0, 3.5, 3),
            span("carleman.matvec", 4.0, 4.5, 3),
        ]
        layers = tracing.layer_self_times(spans)
        assert sum(layers.values()) == pytest.approx(9.0)
        assert layers["carleman"] == pytest.approx(1.0)
        assert layers["propagator"] == pytest.approx(5.0)
        assert layers["bench"] == pytest.approx(1.0)
        assert tracing.operator_applications_in_evolve(spans) == 2

    def test_nested_calls_of_one_name_are_timed_once(self):
        spans = [span("x", 0.0, 4.0), span("x", 1.0, 2.0, 0), span("x", 5.0, 6.0)]
        stats = tracing.summarize(spans)["x"]
        assert stats["calls"] == 3
        assert stats["total"] == pytest.approx(5.0)
        assert stats["median"] == pytest.approx(1.0)

    def test_tracer_nests_spans(self):
        tracer = tracing.Tracer("t")
        outer = tracer.open("a.outer")
        tracer.timed("b.inner", lambda: None)()
        tracer.close(outer)
        assert [s[3] for s in tracer.spans] == [-1, 0]
        assert all(s[2] >= s[1] for s in tracer.spans)


class TestMetricNames:
    def test_names_are_well_formed_and_distinct(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        assert len(names) == len(set(names))
        for name in names + list(workloads.WORKLOADS):
            assert NAME.fullmatch(name), name

    def test_units_are_well_formed(self):
        for unit in list(run.END_TO_END.values()) + list(run.PER_LAYER.values()):
            assert len(unit) <= 16 and all(c.isalnum() or c in "_/%.-" for c in unit), unit

    def test_every_layer_has_a_self_time(self):
        for layer in tracing.LAYERS:
            assert f"self.{layer}_s" in run.PER_LAYER


class TestSeededInputs:
    @pytest.mark.parametrize("m,d", [(16, 1), (32, 1), (128, 1), (8, 2), (40, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_seed_keeps_the_grid_two_norm(self, m, d, seed):
        params = workloads.seed_params(seed, d)
        values = workloads.seeded_profile(params, m, d, 0.4)
        base = workloads.raised_cosine(workloads.grid(m, d), 0.4)
        assert np.linalg.norm(values) == pytest.approx(np.linalg.norm(base), rel=1e-14)

    def test_seed_changes_the_values_and_repeats_exactly(self):
        def profile(seed):
            return workloads.seeded_profile(workloads.seed_params(seed, 1), 32, 1, 0.4)

        assert np.array_equal(profile(3), profile(3))
        assert not np.allclose(profile(3), profile(4))

    def test_refinement_grids_sample_one_function(self):
        # the rescale factor is grid-independent, so coarse grids are subsamples of fine ones
        params = workloads.seed_params(5, 1)
        fine = workloads.seeded_profile(params, 128, 1, 0.4)
        for m in workloads.REFINE_GRIDS[:-1]:
            coarse = workloads.seeded_profile(params, m, 1, 0.4)
            assert np.allclose(coarse, fine[:: 128 // m], rtol=0, atol=1e-12)


def test_instrumentation_is_undone():
    modules = tracing._package_modules()
    owners = [(modules[m], a) for m, a in tracing.FUNCTION_SPANS] + [
        (modules["carleman"].CarlemanMatrix, "to_sparse"),
        (modules["carleman"].CarlemanMatrix, "apply"),
        (modules["nonlinear_ode"].NonlinearODE, "rhs"),
        (modules["propagator"], "evolve"),
    ]
    before = [getattr(owner, a) for owner, a in owners]
    restore = tracing.instrument(tracing.Tracer("t"))
    assert all(getattr(owner, a) is not f for (owner, a), f in zip(owners, before))
    restore()
    assert all(getattr(owner, a) is f for (owner, a), f in zip(owners, before))
