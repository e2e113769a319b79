"""Set-up probe: `import conevac.cli` plus one warm-up op, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD WARMUP_JSON

Prints one JSON line with the import time and the warm-up op's time.
`run.py` starts it several times per run and reports the median; it
also calls `warm_up` in its own process before measuring.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time


def geometry(kind: str, theta1: float | None):
    import conevac

    if kind == "cone":
        return conevac.Cone(theta1)
    return conevac.Dowker() if kind == "dowker" else conevac.Minkowski()


def warm_up(workload: str, arg: dict) -> None:
    """One op of the workload: a point, a two-row figure, or one oracle."""
    import conevac
    from conevac import cli

    if workload == "cone-points":
        kind, theta1, r, z, beta = arg["point"]
        conevac.stress_t0(geometry(kind, theta1), r, 0.0, z, beta=beta)
    elif workload == "figure-scan":
        argv = ["figure", arg["id"], "--points", "2", "--workers", "1", "--outdir", arg["outdir"]]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            shutil.rmtree(arg["outdir"], ignore_errors=True)
        if rc != 0:
            raise RuntimeError(f"warm-up figure {arg['id']} returned {rc}")
    else:
        conevac.run_oracle_suite([arg["oracle"]], seed=arg["seed"])


def main() -> int:
    workload, arg = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    import conevac.cli  # noqa: F401  (the import is what is timed)
    mid = time.perf_counter()
    warm_up(workload, arg)
    end = time.perf_counter()
    print(json.dumps({"import_s": mid - start, "warmup_s": end - mid}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
