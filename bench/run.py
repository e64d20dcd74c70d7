"""Benchmark of the ``multisum`` CLI: seeded workloads, fresh processes, checked outputs.

Usage, from the repository root::

    python3 bench/run.py --workload sim-box --seed 1 --seconds 20 --trace 0

Every timed repetition runs the workload's CLI invocations in a fresh
interpreter that imports ``multisum`` from ``src/``, with ``--workers 1``.
With ``--trace 0`` the run reports the end-to-end metrics below; with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer split, taken from spans recorded by ``tracer.py`` around the
package's public callables.  Times are rescaled to a fixed host speed by
a speed gauge timed in the same process (see ``GAUGE_S``).  Before timing,
every run checks once that a reduced ``sim-box`` config writes identical
bytes at ``--workers 1`` and ``--workers 2``.  The number of repetitions is
fixed by the workload and ``--seconds`` alone (``repetitions``), never by
the clock, so every run of one workload checks the same records.  All
outputs are checked (``checks.py``); the last line of standard output is one JSON object with
the check tally and the metrics.  Scratch files live under
``.bench_build/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

ROOT = BENCH_DIR.parent
RUN_BUDGET_S = 170.0        # a run must end within 180 s, whatever its --seconds
# The speed gauge's time (child.gauge_s) at the usual speed of the reference
# host, a 2-vCPU Intel Xeon VM.  Times are reported at that speed: each one
# is multiplied by GAUGE_S over the gauge timed next to it in the same process.
GAUGE_S = 0.125

# (name, unit, better); the same lists are in BENCHMARK.json
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "ratio", "higher"),
)

PER_LAYER = (
    ("mc.uniform_block.self_s", "s", "lower"),
    ("mc.uniform_block.calls", "count", "lower"),
    ("mc.uniform_block.doubles", "count", "lower"),
    ("mc.uniform_block.useful_frac", "ratio", "higher"),
    ("mc.transform.self_s", "s", "lower"),
    ("mc.transform.values", "count", "lower"),
    ("kernels.evaluate_block.self_s", "s", "lower"),
    ("kernels.evaluate_block.values", "count", "lower"),
    ("mc.simulate_S_L.self_s", "s", "lower"),
    ("mc.simulate_S_L.cells", "count", "lower"),
    ("index_sets.rect_pair.self_s", "s", "lower"),
    ("index_sets.rect_pair.cells", "count", "lower"),
    ("verify.ks_distance.self_s", "s", "lower"),
    ("verify.ks_distance.calls", "count", "lower"),
    ("verify.ks_distance.points", "count", "lower"),
    ("mc.EmpiricalDist.self_s", "s", "lower"),
    ("mc.EmpiricalDist.values", "count", "lower"),
    ("parametric.simulate_Q_L.self_s", "s", "lower"),
    ("parametric.sample_Q_infty.self_s", "s", "lower"),
    ("mc.sample_S_infty.self_s", "s", "lower"),
    ("parametric.covering_profile.self_s", "s", "lower"),
    ("parametric.covering_profile.points", "count", "lower"),
    ("parametric.entropy_integral_exp.self_s", "s", "lower"),
    ("kernels.moment.self_s", "s", "lower"),
    ("kernels.moment.calls", "count", "lower"),
    ("kernels.moment.nodes", "count", "lower"),
    ("kernels.moment.nonfinite", "count", "lower"),
    ("rosenthal.theorem_W_bound.self_s", "s", "lower"),
    ("psi.young_fenchel.self_s", "s", "lower"),
    ("psi.young_fenchel.calls", "count", "lower"),
    ("cli.OutputSet.add.self_s", "s", "lower"),
    ("cli.OutputSet.add.bytes", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Bench:
    """One benchmark run: spawns fresh processes, checks outputs, gathers samples."""

    def __init__(self, workload: str, seed: int, scratch: Path, smoke: bool = False):
        self.workload = workload
        self.scratch = scratch
        self.invocations = workloads.generate(workload, seed, smoke=smoke)
        self.probe = workloads.determinism_probe(seed, smoke=smoke)
        self.tally = checks.Tally()
        self.setup_samples = []
        self.repetitions = 0
        self.unscaled = {}          # wall-clock medians, for the printed report only
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._spawned = 0

    def spawn(self, invocations, trace: bool = False, workers: int = 1):
        """Run ``invocations`` in a fresh process; returns (result, outputs per invocation)."""
        self._spawned += 1
        tag = f"p{self._spawned}"
        argvs, out_dirs = [], []
        for i, inv in enumerate(invocations):
            config = self.scratch / f"{tag}-config{i}.json"
            config.write_text(json.dumps(inv.config))
            out = self.scratch / f"{tag}-out{i}"
            out_dirs.append(out)
            argvs.append([inv.command, "--config", str(config), "--out", str(out),
                          "--workers", str(workers)])
        spec_path = self.scratch / f"{tag}-spec.json"
        result_path = self.scratch / f"{tag}-result.json"
        spec_path.write_text(json.dumps({
            "src": str(ROOT / "src"), "invocations": argvs, "trace": trace,
            "result": str(result_path)}))
        log_path = self.scratch / f"{tag}-log.txt"
        with open(log_path, "wb") as log:
            spawned_at = time.time()
            proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                                    stdout=log, stderr=subprocess.STDOUT, cwd=self.scratch)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            raise RuntimeError(f"benchmark process exited {code}:\n{log_path.read_text()[-4000:]}")
        result = json.loads(result_path.read_text())
        if not trace:
            self.setup_samples.append((result["ready"] - spawned_at) * GAUGE_S / result["gauge_s"][0])
        outputs = []
        for inv, exit_code, out in zip(invocations, result["codes"], out_dirs):
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            checks.check_invocation(inv.command, inv.config, exit_code, files, self.tally)
            outputs.append(files)
            shutil.rmtree(out, ignore_errors=True)
        return result, outputs

    def check_worker_invariance(self) -> None:
        """Untimed: the probe's output bytes do not depend on the worker count."""
        _, serial = self.spawn([self.probe], workers=1)
        _, parallel = self.spawn([self.probe], workers=2)
        checks.same_bytes("determinism.workers", serial, parallel, self.tally)

    def measure(self, seconds: float, trace: bool) -> dict:
        self.check_worker_invariance()
        untraced, traced, first = [], [], None
        for _ in range(repetitions(self.workload, seconds, trace)):
            result, outputs = self.spawn(self.invocations)
            untraced.append(result)
            if first is None:
                first = outputs
            else:
                checks.same_bytes("determinism.repeat", first, outputs, self.tally)
            if trace:
                result, outputs = self.spawn(self.invocations, trace=True)
                traced.append(result)
                checks.same_bytes("determinism.traced", first, outputs, self.tally)
        self.repetitions = len(untraced)
        return self.per_layer(untraced, traced) if trace else self.end_to_end(untraced)

    def end_to_end(self, reps: list) -> dict:
        self.unscaled = {
            "wall run_s": statistics.median(sum(r["run_s"]) for r in reps),
            "gauge_s": statistics.median(g for r in reps for g in r["gauge_s"]),
        }
        run_s = statistics.median(scaled_run_s(r) for r in reps)
        work = sum(inv.work for inv in self.invocations)
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(self.setup_samples),
            "work_per_s": work / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ops_ok_frac": (self.tally.attempted - self.tally.failed) / self.tally.attempted,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    def per_layer(self, untraced: list, traced: list) -> dict:
        samples = []
        for rep in traced:
            spans = [tracer.Span.from_json(row) for row in rep["spans"]]
            samples.append(layer_values(tracer.summarize(spans)))
        overhead = (statistics.median(scaled_run_s(r) for r in traced)
                    - statistics.median(scaled_run_s(r) for r in untraced))
        out = {}
        for name, unit, _ in PER_LAYER:
            value = overhead if name == "trace.overhead_s" else \
                statistics.median(s.get(name, 0.0) for s in samples)
            out[name] = {"value": value, "unit": unit}
        return out


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """Repetitions that fill ``seconds`` on the reference host; a traced pair counts twice.

    The count depends on nothing measured, so the checked records, and with
    them ``attempted`` and ``failed``, are the same in every run of a workload.
    """
    rep_s = workloads.REPETITION_S[workload] * (2 if trace else 1)
    return max(1, math.ceil(seconds / rep_s))


def scaled_run_s(result: dict) -> float:
    """Summed invocation wall times, each rescaled by the mean of the gauges around it."""
    gauge = result["gauge_s"]
    return sum(t * GAUGE_S / (0.5 * (before + after))
               for t, before, after in zip(result["run_s"], gauge, gauge[1:]))


def layer_values(summary: dict) -> dict:
    """Flatten ``tracer.summarize`` output to ``layer.metric`` names."""
    values = {}
    for layer, row in summary.items():
        for key, value in row.items():
            values[f"{layer}.{key}"] = value
        if row.get("doubles"):
            values[f"{layer}.useful_frac"] = row["used"] / row["doubles"]
    return values


def report(workload: str, seed: int, trace: bool, bench: Bench, metrics: dict) -> None:
    tally = bench.tally
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"repetitions {bench.repetitions} (medians over them)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in bench.unscaled.items():
        print(f"  ({name:38s} {value:>16.6g} s, unscaled)")
    state = "correct" if tally.correct else "INCORRECT"
    print(f"  checks: {tally.attempted} attempted, {tally.failed} failed ({state})")
    for failure, count in sorted(tally.failures.items()):
        print(f"    {count} x {failure}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)     # unwinds through spawn(), which stops its child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multisum" / "__init__.py").is_file():
        print(f"error: no multisum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="multisum-", dir=build))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        metrics = bench.measure(args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(args.workload, args.seed, bool(args.trace), bench, metrics)
    print(json.dumps({"correct": bench.tally.correct, "attempted": bench.tally.attempted,
                      "failed": bench.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
