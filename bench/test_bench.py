"""Tests of the benchmark's own code: tracer, checks, generator and a smoke run.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

import multisum.cli  # noqa: E402
import multisum.mc  # noqa: E402
import multisum.parametric  # noqa: E402
import multisum.verify  # noqa: E402


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_wrapped_callable_returns_identical_values():
    active = tracer.Tracer()
    a = multisum.mc.EmpiricalDist([3.0, 1.0, 2.0])
    b = multisum.mc.EmpiricalDist([0.5, 2.5])
    wrapped = active.wrap("ks", multisum.verify.ks_distance)
    assert wrapped(a, b) == multisum.verify.ks_distance(a, b)
    assert wrapped(a, b=b) == multisum.verify.ks_distance(a, b)
    assert [s.name for s in active.spans] == ["ks", "ks"]


def test_wrapped_callable_reraises_and_unwinds():
    active = tracer.Tracer()

    def boom(x):
        raise ValueError(f"bad {x}")

    wrapped = active.wrap("boom", boom)
    with pytest.raises(ValueError, match="bad 3"):
        wrapped(3)
    after = active.wrap("after", lambda: None)
    after()
    failed, ok = active.spans
    assert failed.name == "boom" and failed.counts == {}
    assert ok.parent_id is None and ok.trace_id == ok.span_id


def test_nested_self_times_add_up_to_no_more_than_parent():
    ticks = iter(range(100))
    active = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = active.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    active.wrap("outer", body)()
    own = tracer.self_times(active.spans)
    root, = [s for s in active.spans if s.parent_id is None]
    assert all(s.trace_id == root.span_id for s in active.spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) == pytest.approx(root.duration)
    summary = tracer.summarize(active.spans)
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] + summary["inner"]["self_s"] <= root.duration


def test_install_rebinds_every_namespace_and_uninstall_restores():
    simulate = multisum.mc.simulate_S_L
    ks = multisum.verify.ks_distance
    uniform_block = multisum.mc.RngSpec.__dict__["uniform_block"]
    active = tracer.Tracer()
    active.install(tracer.LAYERS)
    try:
        assert multisum.mc.simulate_S_L is not simulate
        assert multisum.cli.simulate_S_L is multisum.mc.simulate_S_L
        assert multisum.verify.simulate_S_L is multisum.mc.simulate_S_L
        assert multisum.parametric.ks_distance is multisum.verify.ks_distance is not ks
        assert multisum.mc.RngSpec.__dict__["uniform_block"] is not uniform_block
    finally:
        active.uninstall()
    assert multisum.cli.simulate_S_L is multisum.verify.simulate_S_L is simulate
    assert multisum.parametric.ks_distance is ks
    assert multisum.mc.RngSpec.__dict__["uniform_block"] is uniform_block


def _run_cli(tmp_path, name, inv):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(inv.config))
    out = tmp_path / name
    code = multisum.cli.main([inv.command, "--config", str(config), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced_and_spans_nest(tmp_path, workload):
    inv = workloads.generate(workload, 7, smoke=True)[0]
    plain = _run_cli(tmp_path, "plain", inv)
    active = tracer.Tracer()
    active.install(tracer.LAYERS)
    try:
        traced = _run_cli(tmp_path, "traced", inv)
    finally:
        active.uninstall()
    assert traced == plain
    own = tracer.self_times(active.spans)
    for root in (s for s in active.spans if s.parent_id is None):
        tree = [s for s in active.spans if s.trace_id == root.trace_id]
        assert sum(own[s.span_id] for s in tree) <= root.duration * (1 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _bound_outputs(rows):
    data = json.dumps(rows).encode()
    manifest = json.dumps({"files": {"bounds_rows": "rows.json"}}).encode()
    return {"manifest.json": manifest, "rows.json": data}


def test_bound_check_separates_missing_from_wrong():
    rows = [{"p": 8.0, "route": "trivial", "value": math.nan},
            {"p": 8.0, "route": "dp_quasinorm", "value": 2.0},
            {"p": 8.0, "route": "theorem_W", "value": 3.0}]
    tally = checks.Tally()
    checks.check_bound({}, 0, _bound_outputs(rows), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)
    assert not tally.correct
    assert set(tally.failures) == {"bound.row[p=8.0,trivial]: missing",
                                   "bound.row[p=8.0,theorem_W]: wrong"}


def test_unreadable_outputs_count_as_wrong():
    tally = checks.Tally()
    checks.check_invocation("simulate", {"N": 10}, 0, {}, tally)
    assert tally.failed == tally.wrong == 1


# ---------------------------------------------------------------------------
# generator, BENCHMARK.json, smoke runs
# ---------------------------------------------------------------------------


def test_generator_is_seeded_and_work_does_not_depend_on_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 1)
        assert a == workloads.generate(workload, 1)
        b = workloads.generate(workload, 2)
        assert a[0].config["seed"] != b[0].config["seed"]
        assert [i.work for i in a] == [i.work for i in b]


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_repetition_count_depends_only_on_workload_and_seconds():
    for workload in workloads.WORKLOADS:
        assert run.repetitions(workload, 0.0, False) == 1
        assert run.repetitions(workload, 20.0, False) >= 3
        assert run.repetitions(workload, 20.0, True) >= 2


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(tmp_path, capsys, workload, trace):
    bench = run.Bench(workload, 3, tmp_path, smoke=True)
    metrics = bench.measure(0.0, trace)
    names = [m[0] for m in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(metrics) == names
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert bench.tally.correct and bench.tally.attempted > 0
    if not trace:
        assert all(metrics[n]["value"] > 0 for n in names)
    run.report(workload, 3, trace, bench, metrics)
    assert "checks:" in capsys.readouterr().out


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", Path(tmp_path))
    assert run.main(["--workload", "bounds", "--seed", "1", "--seconds", "1"]) != 0
