"""Regenerate ``golden_manifests.json``, the pinned outputs of the CLI.

Each case is one CLI invocation: every config in ``demos/configs`` and every
invocation of each benchmark workload (``bench/workloads.py``) at
``smoke=True`` for seeds 1-3.  The file maps a case to its exit code and the
``files`` map of its ``manifest.json``, whose file names carry content
digests, so one changed output byte changes the map.
``tests/test_golden.py`` runs every case at ``--workers`` 1 and 4 against it.

After a declared output change, regenerate from the repository root and
commit the diff with the change::

    PYTHONPATH=src python3 tests/make_golden_manifests.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from multisum.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_manifests.json"
BENCH_SEEDS = (1, 2, 3)


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases() -> dict:
    """``case name -> (subcommand, config object)``, in a fixed order."""
    out = {}
    for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        command = next((c for c in ("verify", "psi", "bound") if c in cfg), "simulate")
        out[path.relative_to(ROOT).as_posix()] = (command, cfg)
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for i, inv in enumerate(workloads.generate(name, seed, smoke=True)):
                out[f"bench/{name}/seed{seed}/{i}"] = (inv.command, inv.config)
    return out


def run_case(command: str, config: dict, workdir: Path, workers: int) -> dict:
    """Exit code and manifest ``files`` map of one in-process CLI call (``None`` without a manifest)."""
    workdir.mkdir(parents=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = workdir / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([command, "--config", str(cfg_path), "--out", str(out),
                     "--workers", str(workers)])
    manifest = out / "manifest.json"
    files = json.loads(manifest.read_text())["files"] if manifest.exists() else None
    return {"exit": code, "files": files}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_case(command, cfg, Path(tmp) / str(i), workers=1)
                  for i, (name, (command, cfg)) in enumerate(cases().items())}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
