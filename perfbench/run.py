"""conevac benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the `src/` next to
this directory.  Workloads: cone-points, figure-scan, oracle-suite
(see workloads.py and README.md).

--trace 0 measures the end-to-end metrics: set-up time (median of
fresh-interpreter set-ups), then whole units of work, untraced, until
--seconds have passed.  --trace 1 is the separate traced run: the unit
four times, untraced, with spans, with spans, untraced, then the
per-layer metrics and the tracing overhead.  The last line of standard output is the result
as one JSON object; the line before it carries provenance and details.
Spans go to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
JET_KINDS = ("cone", "dowker", "minkowski", "wedge")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def measure_setup(wl) -> dict:
    """Median of fresh-interpreter `import conevac.cli` plus one warm-up op."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), wl.name,
           json.dumps(wl.warmup_arg())]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-3000:]}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["import_s"] + r["warmup_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "runs": runs,
    }


def timed_run(wl, seconds: float, setup: dict, workloads):
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(wl.unit())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = workloads.latency_summary(workloads.merge_latency(units))
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "op_p50_ms": (lat["p50_s"] * 1e3, "ms"),
        "op_tail_ms": (lat["tail_s"] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, units, {"latency": lat, "wall_s": time.perf_counter() - start}


def _jet_counts(replay: dict) -> dict:
    """Replay recorded `stress_at` calls per geometry with jet counting on."""
    import conevac
    from spans import JetCounts, count_jets

    out = {}
    for kind in JET_KINDS:
        calls = replay.get(kind, [])
        done = JetCounts()
        n = 0
        for args, kwargs in calls:
            c = JetCounts()
            with count_jets(c):
                try:
                    conevac.stress.stress_at(*args, **kwargs)
                except Exception:  # a call that failed in the run fails here too
                    continue
            done.ops += c.ops
            done.promotions += c.promotions
            done.hess_bytes += c.hess_bytes
            n += 1
        out[kind] = (n, done)
    return out


def traced_run(wl, seed: int, setup: dict, workloads):
    import numpy as np

    import conevac
    from spans import Tracer, instrument, median

    # Untraced, traced, traced, untraced: a drift in machine speed during
    # the run weighs on both sides alike.
    tracer = Tracer()
    units = []
    for with_spans in (False, True, True, False):
        if with_spans:
            with instrument(tracer):
                units.append(wl.unit(tracer))
        else:
            units.append(wl.unit())
    untraced, traced = units[0::3], units[1:3]
    t0 = workloads.check_t0_results(tracer.t0_results, conevac.stress.stress_t0)
    tracer.t0_results.clear()
    jets = _jet_counts(tracer.replay)
    probe = workloads.float_kernel_probe(seed)

    # Layers the workload never reaches get one small census so that
    # every per-layer metric is measured in every traced run.
    census_seed = int(np.random.default_rng([seed, 4]).integers(0, 2**31 - 1))
    names = conevac.oracles.oracle_names()
    oracle_tracer, cli_tracer = tracer, tracer
    if wl.name != "oracle-suite":
        oracle_tracer = Tracer()
        with instrument(oracle_tracer):
            for name in names:
                workloads.timed_call(oracle_tracer, f"oracles.{name}",
                                conevac.run_oracle_suite, [name], seed=census_seed)
    if wl.name != "figure-scan":
        cli_tracer = Tracer()
        outdir = OUT / f"census-{os.getpid()}"
        fid = next(iter(workloads.figure_ids()))
        try:
            with instrument(cli_tracer):
                workloads.timed_call(cli_tracer, "cli.main", workloads.quiet,
                                conevac.cli.main, workloads.figure_argv(fid, outdir))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    t0_d = tracer.durations("stress.t0")
    at_d = tracer.durations("stress.at")
    expr_d = tracer.durations("kernels.expr")
    outcomes = tracer.outcomes("stress.t0")
    mi_d = oracle_tracer.durations("kernels.mode_integral")
    m = {
        "cli.import_s": (setup["import_s"], "s"),
        "cli.self_frac": (_ratio(sum(cli_tracer.self_times("cli.main")),
                                 sum(cli_tracer.durations("cli.main"))), "fraction"),
        "stress.t0_calls": (len(t0_d), "count"),
        "stress.t0_p50_ms": (median(t0_d) * 1e3, "ms"),
        "stress.t0_self_ms": (median(tracer.self_times("stress.t0")) * 1e3, "ms"),
        "stress.at_calls": (len(at_d), "count"),
        "stress.at_p50_us": (median(at_d) * 1e6, "us"),
        "stress.at_self_us": (median(tracer.self_times("stress.at")) * 1e6, "us"),
        "stress.rungs_per_t0": (_ratio(tracer.children_of("stress.t0", "stress.at"),
                                       len(t0_d)), "count"),
        "stress.convergence_errors": (outcomes["ConvergenceError"], "count"),
        "stress.domain_errors": (outcomes["DomainError"], "count"),
        "stress.ref_rel_err_max": (t0["ref_rel_err_max"], "rel"),
        "stress.err_bar_ratio_max": (t0["err_bar_ratio_max"], "ratio"),
        "kernels.expr_calls": (len(expr_d), "count"),
        "kernels.expr_p50_us": (median(expr_d) * 1e6, "us"),
        "kernels.tbar_cone_us": (probe["tbar_cone_s"] * 1e6, "us"),
        "kernels.images_us": (probe["images_s"] * 1e6, "us"),
        "kernels.mode_integral_calls": (len(mi_d), "count"),
        "kernels.mode_integral_s": (sum(mi_d), "s"),
    }
    for kind, (n, c) in jets.items():
        m[f"jets.{kind}.ops_per_stress_at"] = (_ratio(c.ops, n), "count")
        m[f"jets.{kind}.promotions_per_stress_at"] = (_ratio(c.promotions, n), "count")
        m[f"jets.{kind}.hess_bytes_computed_per_stress_at"] = (_ratio(c.hess_bytes, n), "B")
    for name in names:
        m[f"oracles.{name}_s"] = (median(oracle_tracer.durations(f"oracles.{name}")), "s")
    plain, with_spans = (workloads.latency_summary(workloads.merge_latency(group))["ops_per_s"]
                         for group in (untraced, traced))
    m.update({
        "quality.fail_frac": (_ratio(sum(u.flagged for u in units),
                                     sum(u.ops for u in units)), "fraction"),
        "quality.empty_cells": (traced[-1].details.get("empty_cells", 0), "count"),
        "trace.untraced_ops_per_s": (plain, "1/s"),
        "trace.traced_ops_per_s": (with_spans, "1/s"),
        "trace.overhead_frac": (1.0 - _ratio(with_spans, plain), "fraction"),
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        tracer.write(fh, "workload")
        if oracle_tracer is not tracer:
            oracle_tracer.write(fh, "oracle-census")
        if cli_tracer is not tracer:
            cli_tracer.write(fh, "cli-census")
    extra = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "stress_t0_checked": t0["checked"],
        "jet_replays": {k: n for k, (n, _) in jets.items()},
    }
    return m, units, extra


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    h = hashlib.sha256()
    lines = 0
    for p in sorted(SRC.rglob("*.py")):
        data = p.read_bytes()
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def _declared_metrics(trace: int) -> dict | None:
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cone-points", "figure-scan", "oracle-suite"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conevac" / "__init__.py").is_file():
        print(f"error: no conevac sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy is imported, here and in set-up probes
    sys.path.insert(0, str(SRC))

    import reference
    reference.self_test()
    import workloads
    import conevac

    if not Path(conevac.__file__).resolve().is_relative_to(SRC):
        print(f"error: conevac imported from {conevac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setup = measure_setup(wl)
    import setup_probe
    setup_probe.warm_up(wl.name, wl.warmup_arg())

    if args.trace:
        metrics, units, extra = traced_run(wl, args.seed, setup, workloads)
    else:
        metrics, units, extra = timed_run(wl, args.seconds, setup, workloads)
    last = units[-1]
    details = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "inputs": wl.describe(),
        "inputs_sha256": hashlib.sha256(repr(wl.inputs()).encode()).hexdigest(),
        "units": len(units),
        "setup": setup,
        "tolerance": reference.TOLERANCE,
        "quality": {
            "fail_frac": _ratio(sum(u.flagged for u in units), sum(u.ops for u in units)),
            "ref_rel_err_max": max(u.ref_rel_err_max for u in units),
            "err_bar_ratio_max": max(u.err_bar_ratio_max for u in units),
        },
        "figure": last.details,
        "problems": sorted({p for u in units for p in u.problems})[:50],
        **extra,
        "provenance": provenance(),
    }
    print(json.dumps(details, sort_keys=True))
    declared = _declared_metrics(args.trace)
    produced = {k: unit for k, (_, unit) in metrics.items()}
    if declared is not None and declared != produced:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared.items()) ^ set(produced.items()))}", file=sys.stderr)
        return 3
    result = {
        "correct": all(u.correct for u in units),
        "attempted": sum(u.ops for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {k: {"value": float(v), "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
