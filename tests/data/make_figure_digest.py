"""Regenerate figure_digest.json: the SHA-256 of every figure CSV at 4 points.

The digest pins the bytes of all figure datasets, so a change that is
meant to keep the numbers (a refactor, a speed-up) proves it by leaving
this file alone.  Regenerate it only in a change that means to alter
the numbers, and say so in that change.  Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_figure_digest.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from conevac import cli

OUT = Path(__file__).with_name("figure_digest.json")
POINTS = 4


def figure_digest(outdir: Path) -> str:
    """SHA-256 over the name and bytes of every CSV in ``outdir``, sorted by name."""
    h = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def build(outdir: Path) -> int:
    """Write every figure id at POINTS grid points into ``outdir``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["figure", *cli._FIGURES, "--points", str(POINTS),
                         "--workers", "1", "--outdir", str(outdir)])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        if build(Path(tmp)) != 0:
            raise SystemExit("conevac figure failed")
        digest = figure_digest(Path(tmp))
    OUT.write_text(json.dumps({"points": POINTS, "figure_ids": list(cli._FIGURES),
                               "sha256": digest}, indent=2) + "\n")
    print(f"wrote {OUT}: {digest}")
