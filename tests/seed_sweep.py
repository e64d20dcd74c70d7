"""Exit codes of ``verify`` configs, the demo ones by default, over a range of seeds.

Each config given, or by default each config in ``demos/configs`` that runs
``verify``, is run through the CLI in-process with ``--seed-override``
1..K, and one line per config lists its exit codes in seed order (0 pass,
3 hypotheses not met, 5 failed).  The override replaces the config's
``seed``, so of configs that differ only there (the ``bench/<workload>/seed1``
and ``seed3`` cases) the first runs and each later one is skipped with a line
naming the case it repeats.  A config is a path, or the name of a
golden case (``make_golden_manifests.cases()``, such as
``bench/field/seed3/0``), which runs its own subcommand.  Nothing is
written outside a temporary directory.  From the repository root::

    PYTHONPATH=src python3 tests/seed_sweep.py            # seeds 1-10
    PYTHONPATH=src python3 tests/seed_sweep.py --seeds 40 --workers 2
    PYTHONPATH=src python3 tests/seed_sweep.py demos/configs/gauss_rank1.json
    PYTHONPATH=src python3 tests/seed_sweep.py bench/field/seed1/0 bench/field/seed3/1

The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from multisum.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def verify_configs() -> list:
    """The demo configs that run ``verify``, sorted by path."""
    return [path for path in sorted(CONFIGS.glob("*.json"))
            if "verify" in json.loads(path.read_text())]


def resolve(name: str):
    """``(label, subcommand, config)``: a config file runs ``verify``, a golden case its own."""
    if Path(name).exists():
        return Path(name).name, "verify", Path(name)
    from make_golden_manifests import cases
    case = cases().get(name)
    if case is None:
        raise SystemExit(f"{name}: neither a config file nor a golden case")
    return (name, *case)


def sweep(config, seeds, workers: int = 1, command: str = "verify") -> list:
    """The exit code of ``command`` on ``config`` at each ``--seed-override`` in ``seeds``.

    ``config`` is a path, or a config object, which is written to a temporary file.
    """
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(config, Path):
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            config = path
        for seed in seeds:
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli_main([command, "--config", str(config),
                                       "--out", str(Path(tmp) / str(seed)),
                                       "--workers", str(workers),
                                       "--seed-override", str(seed)]))
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*",
                        help="verify config paths or golden case names to sweep (default: the"
                             " demo configs that run verify)")
    parser.add_argument("--seeds", type=int, default=10, help="sweep seeds 1..SEEDS")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    seen = {}
    for name in args.configs or verify_configs():
        label, command, config = resolve(str(name))
        # --seed-override replaces a config's seed, so configs equal but for it run alike
        obj = json.loads(config.read_text()) if isinstance(config, Path) else config
        key = (command, json.dumps({k: v for k, v in obj.items() if k != "seed"},
                                   sort_keys=True))
        if key in seen:
            print(f"{label}: skipped, repeats {seen[key]} (the configs differ only in seed)")
            continue
        seen[key] = label
        codes = sweep(config, range(1, args.seeds + 1), args.workers, command)
        print(f"{label}: {','.join(map(str, codes))}"
              f"  ({sum(c == 0 for c in codes)} of {len(codes)} exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
