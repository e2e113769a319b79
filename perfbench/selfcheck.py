"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The output checks pass exact values and fail perturbed ones: the
   closed forms, one real `stress_t0` result, and a figure CSV with one
   cell nudged by three tolerances (or blanked).
2. Inputs follow the seed: the same seed gives the same inputs, a new
   seed new cone-points and oracle-suite inputs; figure-scan has none.
3. Two traced runs of each workload with the same code and seed give
   the same counts (jets, rungs, calls, errors, empty cells, failures)
   and, for figure-scan, the same CSV digest.

Takes a few minutes; prints one line per check and exits 1 on a failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
import conevac  # noqa: E402
from conevac import cli  # noqa: E402

FAILURES = []


def report(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_output_checks(tmp: Path) -> None:
    reference.self_test()
    report(True, "closed forms: exact values pass, perturbed values fail")

    res = conevac.stress_t0(conevac.Cone(2.0), 1.5, beta=0.0)
    closed = reference.closed_stress(math.pi, 1.5, 0.25)  # theta1 = 2, xi = 1/4
    dev, _ = workloads.stress_deviation(res, closed, 1.5)
    bumped = dataclasses.replace(res, stress=dataclasses.replace(
        res.stress, t_rr=res.stress.t_rr + 3.0 * reference.TOLERANCE * abs(res.stress.t_perp)))
    dev_bumped, _ = workloads.stress_deviation(bumped, closed, 1.5)
    report(dev <= reference.TOLERANCE < dev_bumped,
           f"stress_t0 result passes ({dev:.1e}), perturbed one fails ({dev_bumped:.1e})")

    workloads.quiet(cli.main, workloads.figure_argv("fig4", tmp))
    clean = reference.FigureCheck({})
    clean.check_dir(tmp)
    report(clean.failed_rows == 0 and clean.cells_checked > 0,
           f"figure fig4 passes ({clean.cells_checked} cells checked)")
    path = tmp / "fig4_xi16.csv"
    rows = list(csv.reader(path.open(newline="")))
    col = rows[0].index("t_perp_t0")
    for change, name in ((lambda v: repr(float(v) * (1 + 3 * reference.TOLERANCE)), "nudged"),
                         (lambda v: "", "blanked")):
        edited = [list(r) for r in rows]
        edited[5][col] = change(edited[5][col])
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(edited)
        check = reference.FigureCheck({})
        check.check_dir(tmp)
        report(check.failed_rows == 1, f"figure cell {name}: its row fails")
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def check_inputs() -> None:
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = (repr(cls(s, ROOT).inputs()) for s in (1, 1, 2))
        changes = name != "figure-scan"
        report(a == b and (a != c) == changes,
               f"{name}: same seed same inputs, new seed {'new' if changes else 'same'} inputs")


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, env=dict(os.environ))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run failed\n{proc.stderr[-2000:]}")
    *_, details, result = proc.stdout.splitlines()
    return json.loads(details), json.loads(result)


def check_repeatable_counts() -> None:
    for workload in workloads.WORKLOADS:
        (d1, r1), (d2, r2) = _traced(workload, 7), _traced(workload, 7)
        counts = [k for k, v in r1["metrics"].items() if v["unit"] in ("count", "B")]
        same = all(r1["metrics"][k] == r2["metrics"][k] for k in counts)
        same = same and (r1["attempted"], r1["failed"]) == (r2["attempted"], r2["failed"])
        same = same and d1["figure"].get("csv_sha256") == d2["figure"].get("csv_sha256")
        report(same, f"{workload}: two traced runs, same {len(counts)} counts"
                     + (f", CSV digest {d1['figure']['csv_sha256'][:12]}"
                        if workload == "figure-scan" else ""))


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        check_output_checks(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check_inputs()
    check_repeatable_counts()
    print(f"{len(FAILURES)} self-check failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
