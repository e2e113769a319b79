"""Record the figure defects of the current program in known_defects.json.

    python3 perfbench/make_known_defects.py

Writes every figure at the benchmark's grid size once, checks it with
no known defects, and stores what failed: empty t -> 0 cells and
curves outside the tolerance.  Run it only when the benchmark's grid
changes; the figure-scan workload then flags these rows, and fails a
row that gains a new defect or whose known deviation grows.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from conevac import cli  # noqa: E402


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        for fid in workloads.figure_ids():
            workloads.quiet(cli.main, workloads.figure_argv(fid, outdir))
        check = reference.FigureCheck({})
        check.check_dir(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    known = check.known_defects(workloads.FIGURE_POINTS)
    path = ROOT / "perfbench" / "known_defects.json"
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {len(known['empty'])} empty cells, "
          f"{len(known['inexact'])} curves outside {reference.TOLERANCE:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
