"""Tests of the benchmark's own logic: inputs, span arithmetic, declared names.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, covered_length, summarize  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(name, seed, count):
    """The cases of the first ``count`` passes of a workload."""
    workload = workloads.make(name, ROOT / "golden")
    return [c for cases in islice(workloads.passes(workload, seed), count) for c in cases]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    assert _first(name, 7, 5) == _first(name, 7, 5)
    assert _first(name, 7, 5) != _first(name, 8, 5)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_pass_of_every_seed_deals_the_whole_deck(name):
    workload = workloads.make(name, ROOT / "golden")
    deck = sorted(map(repr, workload.deck(workloads.np.random.default_rng(workloads.DECK_SEED))))
    for seed in (1, 2):
        for cases in islice(workloads.passes(workload, seed), 3):
            assert sorted(map(repr, cases)) == deck


def test_a_polygon_pass_holds_every_size_and_potential_once():
    cases = _first("polygons", 0, 1)
    assert sorted(c.params[:2] for c in cases) == sorted(
        (n, p) for n in workloads.Polygons.SIZES for p in workloads.POTENTIALS)


def test_covered_length_merges_and_clips():
    assert covered_length(0.0, 10.0, [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered_length(0.0, 10.0, [(-1.0, 1.0), (9.5, 12.0)]) == 1.5
    assert covered_length(0.0, 10.0, []) == 0.0


def test_self_time_on_a_synthetic_tree():
    # id, parent, op, name, t0, t1
    spans = [
        (1, 0, 0, "b", 1.0, 4.0),
        (3, 2, 0, "d", 6.0, 8.0),
        (4, 2, 0, "a", 8.0, 8.5),       # a re-entered below itself
        (2, 0, 0, "c", 5.0, 9.0),
        (0, None, 0, "a", 0.0, 10.0),
        (5, None, 1, "b", 20.0, 21.0),
    ]
    table = summarize(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["incl_s"] == pytest.approx(10.0)      # outermost span only
    assert table["a"]["self_s"] == pytest.approx((10.0 - 3.0 - 4.0) + 0.5)
    assert table["b"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert table["c"]["self_s"] == pytest.approx(4.0 - 2.0 - 0.5)
    assert table["d"]["self_s"] == pytest.approx(2.0)
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(10.0 + 1.0)          # the two root spans


def test_slowness_is_the_median_of_the_samples_around_an_interval():
    gauge = speed.Gauge.__new__(speed.Gauge)
    gauge.times = [0.0, 1.0, 1.2, 1.4, 5.0]
    gauge.samples = [r * speed.REFERENCE_S for r in (9.0, 1.0, 2.0, 3.0, 7.0)]
    assert gauge.slowness(1.1, 1.3) == pytest.approx(2.0)
    assert gauge.slowness(0.9, 0.9) == pytest.approx(1.0)    # 0.0 is too far
    assert gauge.slowness(3.0, 3.0) == pytest.approx(7.0)    # none near: the next
    assert gauge.slowness(9.0, 9.0) == pytest.approx(7.0)    # none after: the last


def test_tracer_nests_calls_and_restores_the_modules():
    from relequil import model, pipeline, spectrum

    original = spectrum.potential_hessian
    tracer = Tracer()
    tracer.install()
    try:
        assert spectrum.potential_hessian is not original
        tracer.begin_op(0)
        pipeline.run_analysis(pipeline.AnalysisRequest(case="triangle-homogeneous", alpha=1.0))
    finally:
        tracer.uninstall()
    assert spectrum.potential_hessian is original
    assert model.potential_hessian is original
    names = {s[0]: s[3] for s in tracer.spans}
    parents = {(names.get(s[1]), s[3]) for s in tracer.spans}
    assert ("spectrum.decompose_blocks", "model.potential_hessian") in parents
    assert ("spectrum.decompose_blocks", "symmetry.joint_invariant_subspaces") in parents
    assert (None, "pipeline.run_analysis") in parents
    table = summarize(tracer.spans)
    root = table["pipeline.run_analysis"]
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(root["incl_s"])


def test_end_to_end_names_are_declared():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert declared == metrics.END_TO_END
    values = metrics.end_to_end([0.01, 0.02], ["ok", "failed"], 1.0)
    assert set(values) == set(declared)


def test_layer_names_are_declared_and_emitted():
    declared = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert declared == {m: metrics.unit_of(m) for m in metrics.MOVES}
    tracer = Tracer(metrics.PROBES)
    tracer.install()
    try:
        for op, name in enumerate(workloads.NAMES):
            workload = workloads.make(name, ROOT / "golden")
            tracer.begin_op(op)
            workloads.attempt(workload, next(workloads.passes(workload, 0))[0])
    finally:
        tracer.uninstall()
    values, _ = metrics.layer_metrics(tracer, len(workloads.NAMES), 0, 0.1)
    assert set(values) == set(declared)
    assert all(math.isfinite(v) for v in values.values())
    assert values["central.newton_iters"] >= 1
    assert values["dynamics.us_per_step"] > 0


def test_moves_name_declared_metrics_and_workloads():
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    names = {w["name"] for w in DECLARED["workloads"]}
    assert names == set(workloads.NAMES)
    for targets in metrics.MOVES.values():
        for target in targets:
            metric, workload = target.split("@")
            assert metric in e2e and workload in names
