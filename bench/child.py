"""One fresh benchmark process: import ``multisum``, run CLI invocations, report.

Usage: ``python3 child.py SPEC.json``.  The spec names the source tree to
import, the CLI argument lists to run in order, whether to trace, and the
path of the result file.  The result holds the wall clock once the package
is imported (the parent subtracts its spawn time to get set-up time), each
invocation's exit code and wall time, the speed gauge's time before the
first invocation and after each one, the process's peak resident memory
and, when traced, every span.
"""

import json
import resource
import sys
import time

import numpy as np


def gauge_s() -> float:
    """Wall time of a fixed NumPy and pure-Python kernel that uses no ``multisum`` code.

    The host's speed drifts by tens of percent within minutes, so the
    parent rescales each invocation's time by the gauge timed next to it.
    The kernel mixes what the workloads spend time on: fresh allocations,
    random gathers, transcendental functions, a sort and an interpreted loop.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.random(250_000)
    idx = rng.integers(0, x.size, 500_000)
    for _ in range(16):
        y = np.sqrt(x[idx]) * 1.5 + x[idx] ** 2
        np.sort(y[:125_000])
        np.exp(-x) * np.log1p(x)
        np.ones(500_000)
    acc = 0.0
    for i in range(400_000):
        acc += i * 0.5
    return time.perf_counter() - start


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import multisum.cli
    spans = None
    if spec["trace"]:
        import tracer
        active = tracer.Tracer()
        active.install(tracer.LAYERS)
        spans = active.spans
    main = multisum.cli.main       # looked up after install: the traced entry point
    ready = time.time()
    gauge = [gauge_s()]
    codes, run_s = [], []
    for argv in spec["invocations"]:
        start = time.perf_counter()
        codes.append(main(argv))
        run_s.append(time.perf_counter() - start)
        gauge.append(gauge_s())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ready": ready,
        "codes": codes,
        "run_s": run_s,
        "gauge_s": gauge,
        "peak_rss_mb": peak_kib / 1024.0,
        "spans": None if spans is None else [s.to_json() for s in spans],
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
