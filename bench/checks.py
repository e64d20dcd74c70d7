"""Output checks and failure accounting for the benchmark's workloads.

Every checked record is one operation: a bound row, a conjugate or tail
row, a stage, a verdict, a distribution, an exit code, or a byte comparison.
A record ends in one of three states:

* ``ok``;
* ``missing`` -- the program produced no usable number (NaN or infinity
  where a finite value was due).  The operation failed, but nothing wrong
  was claimed;
* ``wrong``   -- a value, verdict, exit code or byte stream that contradicts
  what the program must produce.

``failed`` counts both; the run is ``correct`` while no record is wrong.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

OK, MISSING, WRONG = "ok", "missing", "wrong"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)

    def record(self, name: str, status: str) -> None:
        self.attempted += 1
        if status == OK:
            return
        self.failed += 1
        self.wrong += status == WRONG
        self.failures[f"{name}: {status}"] += 1

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def _manifest_file(outputs: dict, kind: str) -> bytes:
    manifest = json.loads(outputs["manifest.json"])
    return outputs[manifest["files"][kind]]


def _csv_rows(data: bytes) -> list:
    lines = data.decode().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _number(value: float, low: float = -math.inf, high: float = math.inf) -> str:
    if not math.isfinite(value):
        return MISSING
    return OK if low <= value <= high else WRONG


def _exit(code: int, expected: int) -> str:
    return OK if code == expected else WRONG


# ---------------------------------------------------------------------------
# per command
# ---------------------------------------------------------------------------


def _distribution(outputs: dict, row: dict, n: int) -> str:
    """Stored sample: header count, payload size, sorted order, var_ratio within 4 SE."""
    head, _, payload = outputs[row["file"]].partition(b"\n")
    values = array("d")
    values.frombytes(payload)
    if json.loads(head)["n"] != n or len(values) != n or row["N"] != n:
        return WRONG
    if any(a > b for a, b in zip(values, values[1:])):
        return WRONG
    se = row["variance_se"] / row["sigma_sq"]
    if not (math.isfinite(row["var_ratio"]) and math.isfinite(se)):
        return MISSING
    return OK if abs(row["var_ratio"] - 1.0) <= 4.0 * se else WRONG


def check_simulate(config: dict, code: int, outputs: dict, tally: Tally) -> None:
    tally.record("simulate.exit", _exit(code, 0))
    for row in json.loads(_manifest_file(outputs, "summary")):
        tally.record("simulate.distribution", _distribution(outputs, row, config["N"]))


def check_nclt_lshape(config: dict, code: int, outputs: dict, tally: Tally) -> None:
    """L-shapes missing a half-side corner: both deficiencies equal n / (2 sqrt 3)."""
    verdict = json.loads(_manifest_file(outputs, "verdict"))
    sizes = config["index_sets"]["sizes"]
    stages = verdict["stages"]
    tally.record("nclt.stage_count", OK if len(stages) == len(sizes) else WRONG)
    for n, stage in zip(sizes, stages):
        kappa = n / (2.0 * math.sqrt(3.0))
        status = _number(stage["ks"], 0.0, 1.0)
        if status == OK and not all(math.isclose(stage[key], kappa, rel_tol=1e-9)
                                    for key in ("kappa_minus", "kappa_plus")):
            status = WRONG
        tally.record("nclt.stage", status)
    ok = verdict["verdict"] == "hypotheses not met" and code == 3
    tally.record("nclt.verdict", OK if ok else WRONG)


_VERDICT_EXIT = {"pass": 0, "hypotheses not met": 3}


def check_parametric(config: dict, code: int, outputs: dict, tally: Tally) -> None:
    report = json.loads(_manifest_file(outputs, "verdict"))
    n_points = len(config["parametric_kernel"]["V"])
    for stage in report["stages"]:
        ks = stage["ks_per_v"]
        statuses = {_number(v, 0.0, 1.0) for v in ks} | ({OK} if len(ks) == n_points else {WRONG})
        tally.record("field.stage", WRONG if WRONG in statuses else
                     MISSING if MISSING in statuses else OK)
    integral = report["hypotheses"]["entropy_integral"]
    verdict = report["verdict"]
    if not math.isfinite(integral):
        status = WRONG              # both fields have convergent entropy integrals
    elif verdict in _VERDICT_EXIT:
        status = _exit(code, _VERDICT_EXIT[verdict])
    else:
        status = OK if code not in (0, 2) else WRONG   # a failed check must not exit 0
    tally.record("field.verdict", status)


def check_bound(config: dict, code: int, outputs: dict, tally: Tally) -> None:
    """Bound rows finite and nonnegative; theorem_W never above the dp_quasinorm row."""
    tally.record("bound.exit", _exit(code, 0))
    rows = json.loads(_manifest_file(outputs, "bounds_rows"))
    dp = {row["p"]: row["value"] for row in rows if row["route"] == "dp_quasinorm"}
    for row in rows:
        status = _number(row["value"], 0.0)
        if status == OK and row["route"] == "theorem_W" and row["p"] in dp:
            if row["value"] > dp[row["p"]] * (1.0 + 1e-12):
                status = WRONG
        tally.record(f"bound.row[p={row['p']},{row['route']}]", status)


def check_psi(config: dict, code: int, outputs: dict, tally: Tally) -> None:
    """Conjugate finite, nonnegative, nondecreasing in x; tail in [0, 1], nonincreasing in y."""
    tally.record("psi.exit", _exit(code, 0))
    for row in _csv_rows(_manifest_file(outputs, "psi_table")):
        tally.record("psi.table_row", _number(float(row["psi"]), 0.0))
    prev = -math.inf
    for row in _csv_rows(_manifest_file(outputs, "conjugate")):
        value = float(row["v_star"])
        status = _number(value, max(0.0, prev))
        tally.record("psi.conjugate_row", status)
        prev = value if status == OK else prev
    prev = math.inf
    for row in _csv_rows(_manifest_file(outputs, "tail")):
        value = float(row["tail_bound"])
        status = _number(value, 0.0, min(1.0, prev))
        tally.record("psi.tail_row", status)
        prev = value if status == OK else prev


def check_verify(config: dict, code: int, outputs: dict, tally: Tally) -> None:
    which = config["verify"]["which"]
    if which == "parametric":
        check_parametric(config, code, outputs, tally)
    elif which == "nclt" and config["index_sets"].get("family") == "lshape_fixed_fraction":
        check_nclt_lshape(config, code, outputs, tally)
    else:
        raise ValueError(f"no output check for verify '{which}'")


_BY_COMMAND = {
    "simulate": check_simulate,
    "verify": check_verify,
    "bound": check_bound,
    "psi": check_psi,
}


def check_invocation(command: str, config: dict, code: int, outputs: dict,
                     tally: Tally) -> None:
    """Check one CLI call's outputs; unreadable outputs count as one wrong record."""
    try:
        _BY_COMMAND[command](config, code, outputs, tally)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        tally.record(f"{command}.outputs unreadable ({type(exc).__name__})", WRONG)


def same_bytes(name: str, a: list, b: list, tally: Tally) -> None:
    """One record: two runs' output trees (lists of name -> bytes dicts) are identical."""
    tally.record(name, OK if a == b else WRONG)
