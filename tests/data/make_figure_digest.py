"""Regenerate figure_digest.json: SHA-256 digests of every figure CSV and warning.

The digests pin the bytes of all figure datasets and of the warning
lines that name their empty cells, at 4 grid points (the top-level
``sha256``) and at each grid size in GRIDS (20 points is the grid the
benchmark writes; the tests check 4 and 20, and 200 is the full
figure set of the README).  A change that is meant to keep the numbers
(a refactor, a speed-up) proves it by leaving this file alone and by
passing ``--check``, which recomputes every frozen grid, writes
nothing, and exits nonzero on any mismatch; ``--workers N`` computes
with N worker processes, whose output must be the same bytes.  Each
grid's line also gives its wall time and the peak resident set so far
(``ru_maxrss``) of this process and of its finished worker processes,
the memory that the figure planner's pass size bounds.
Regenerate the file only in a change that means to alter the numbers,
and say so in that change.  Run from the repository root:

    python3 tests/data/make_figure_digest.py [--check] [--workers N]
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from conevac import cli  # noqa: E402

OUT = Path(__file__).with_name("figure_digest.json")
POINTS = 4
GRIDS = (4, 20, 200)


def figure_digest(outdir: Path) -> str:
    """SHA-256 over the name and bytes of every CSV in ``outdir``, sorted by name."""
    h = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def warning_digest(lines: list[str]) -> str:
    """SHA-256 over the warning lines, in the order they were printed."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def run(outdir: Path, points: int, workers: int = 1) -> tuple[int, list[str]]:
    """Write every figure id at ``points`` grid points into ``outdir``.

    Returns the exit code and the warning lines printed on stderr.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["figure", *cli._FIGURES, "--points", str(points),
                         "--workers", str(workers), "--outdir", str(outdir)])
    return code, [line for line in err.getvalue().splitlines()
                  if line.startswith("warning:")]


def grid_digests(points: int, workers: int = 1) -> dict:
    """CSV digest, warning digest and warning count at one grid size."""
    with tempfile.TemporaryDirectory() as tmp:
        code, warnings = run(Path(tmp), points, workers)
        if code != 0:
            raise SystemExit(f"conevac figure --points {points} failed")
        return {"sha256": figure_digest(Path(tmp)),
                "warnings_sha256": warning_digest(warnings),
                "warning_lines": len(warnings)}


def check(workers: int = 1) -> int:
    """Recompute every grid in the frozen file; 0 if all match, else 1."""
    frozen = json.loads(OUT.read_text())
    if frozen["figure_ids"] != list(cli._FIGURES):
        print("mismatch: the figure ids differ from cli._FIGURES")
        return 1
    status = 0
    for points, want in frozen["grids"].items():
        start = time.perf_counter()
        got = grid_digests(int(points), workers)
        wall = time.perf_counter() - start
        verdict = "ok" if got == want else "MISMATCH"
        # ru_maxrss is in KiB on Linux
        peaks = [resource.getrusage(who).ru_maxrss / 1024
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        print(f"{points} points: {verdict} ({wall:.2f} s; ru_maxrss self "
              f"{peaks[0]:.1f} MB, children {peaks[1]:.1f} MB)")
        if got != want:
            print(f"  frozen   {want}\n  computed {got}")
            status = 1
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute every frozen grid and compare; write nothing")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the figure computation (default 1)")
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.check:
        raise SystemExit(check(args.workers))
    grids = {str(points): grid_digests(points, args.workers) for points in GRIDS}
    OUT.write_text(json.dumps({"points": POINTS, "figure_ids": list(cli._FIGURES),
                               "sha256": grids[str(POINTS)]["sha256"],
                               "grids": grids}, indent=2) + "\n")
    print(f"wrote {OUT}")
