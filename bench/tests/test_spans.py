"""Tests of the benchmark's span recorder, percentile rule and patching.

    python3 -m pytest bench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from spans import (COUNT_SPAN, Target, Tracer, patch_targets,  # noqa: E402
                   patched, percentile, samples_beyond, self_times,
                   tail_percentile)


def test_self_time_of_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [3, 6] (overlapping: union 1..6)
    # and c [8, 12] (clipped to 8..10); a holds a1 [2, 3]
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_tracer_self_time_excludes_children_and_counting():
    tracer = Tracer()
    tracer.begin_run("run")
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    count = tracer.open(COUNT_SPAN)
    tracer.close(count)
    tracer.close(outer)
    totals = tracer.layer_totals()
    outer_len = tracer.ends[outer] - tracer.starts[outer]
    inner_len = tracer.ends[inner] - tracer.starts[inner]
    count_len = tracer.ends[count] - tracer.starts[count]
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        outer_len - inner_len - count_len)
    assert tracer.parents == [-1, 0, 0]
    assert set(tracer.runs) == {0}


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (2000, 99.5), (5000, 99.8), (10000, 99.9),
    (10 ** 6, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        assert samples_beyond(n, p) >= 10


def test_percentile_is_nearest_rank():
    values = sorted(float(v) for v in range(1, 1001))
    assert percentile(values, 50.0) == 500.0
    assert percentile(values, 99.0) == 990.0
    assert len(values) - values.index(percentile(values, 99.0)) - 1 == 10


def _fake_package(name="fakepkg"):
    pkg = types.ModuleType(name)
    core = types.ModuleType(f"{name}.core")
    user = types.ModuleType(f"{name}.user")

    def work(x):
        return x + 1

    class Buffer:
        def push(self, v):
            return v

    core.work = work
    core.Buffer = Buffer
    user.work = work  # as after `from .core import work`
    user.call = lambda x: user.work(x)
    return pkg, core, user


@pytest.fixture
def fakepkg(monkeypatch):
    pkg, core, user = _fake_package()
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_patch_wraps_every_binding_and_restores_after_raise(fakepkg):
    core, user = fakepkg
    original_work = core.work
    original_push = core.Buffer.__dict__["push"]
    tracer = Tracer()
    targets = [Target("fakepkg.core", "work",
                      counts=lambda a, k, r: {"items": 1}),
               Target("fakepkg.core", "Buffer.push")]
    with pytest.raises(RuntimeError, match="workload failed"):
        with patched(targets, tracer, "fakepkg"), tracer.recording():
            assert core.work is not original_work
            assert user.work is core.work
            assert user.call(1) == 2
            assert core.Buffer().push(3) == 3
            raise RuntimeError("workload failed")
    assert core.work is original_work
    assert user.work is original_work
    assert core.Buffer.__dict__["push"] is original_push
    assert tracer.names.count("core.work") == 1
    assert tracer.names.count("core.Buffer.push") == 1
    assert tracer.counts == {"core.work": {"items": 1.0}}


def test_missing_target_is_reported_absent(fakepkg):
    core, _ = fakepkg
    tracer = Tracer()
    targets = [Target("fakepkg.core", "renamed_away"),
               Target("fakepkg.core", "Gone.method"),
               Target("fakepkg.nosuchmodule", "work"),
               Target("fakepkg.core", "work")]
    patches = patch_targets(targets, tracer, "fakepkg")
    try:
        assert patches.absent == ["core.renamed_away", "core.Gone.method",
                                  "nosuchmodule.work"]
        with tracer.recording():
            assert core.work(1) == 2
    finally:
        patches.undo()
    assert tracer.names == ["core.work"]


def test_paused_tracer_records_nothing(fakepkg):
    core, _ = fakepkg
    tracer = Tracer()
    with patched([Target("fakepkg.core", "work")], tracer, "fakepkg"), \
            tracer.recording():
        with tracer.paused():
            core.work(1)
        core.work(1)
    assert tracer.names == ["core.work"]


def test_benchmark_json_lists_what_the_runs_report():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import layers
    import workloads

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert e2e == workloads.END_TO_END
    expected = layers.per_layer_metrics() + [
        {"name": f"overhead.{name}", "unit": unit, "better": better}
        for name, unit, better in workloads.END_TO_END]
    assert doc["per_layer"] == expected
    assert len(doc["per_layer"]) <= 128
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    values = layers.layer_values({}, {})
    assert list(values) == [m["name"] for m in layers.per_layer_metrics()]
