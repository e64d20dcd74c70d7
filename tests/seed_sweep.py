"""Exit codes of ``verify`` configs, the demo ones by default, over a range of seeds.

Each config given, or by default each config in ``demos/configs`` that runs
``verify``, is run through the CLI in-process with ``--seed-override``
1..K, and one line per config lists its exit codes in seed order (0 pass,
3 hypotheses not met, 5 failed).  Nothing is written outside a temporary
directory.  From the repository root::

    PYTHONPATH=src python3 tests/seed_sweep.py            # seeds 1-10
    PYTHONPATH=src python3 tests/seed_sweep.py --seeds 40 --workers 2
    PYTHONPATH=src python3 tests/seed_sweep.py demos/configs/gauss_rank1.json

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


def sweep(config: Path, seeds, workers: int = 1) -> list:
    """``config``'s exit code at each ``--seed-override`` in ``seeds``."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli_main(["verify", "--config", str(config),
                                       "--out", str(Path(tmp) / str(seed)),
                                       "--workers", str(workers),
                                       "--seed-override", str(seed)]))
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="verify configs to sweep (default: the demo configs that run verify)")
    parser.add_argument("--seeds", type=int, default=10, help="sweep seeds 1..SEEDS")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    for config in args.configs or verify_configs():
        codes = sweep(config, range(1, args.seeds + 1), args.workers)
        print(f"{config.name}: {','.join(map(str, codes))}"
              f"  ({sum(c == 0 for c in codes)} of {len(codes)} exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
