"""Seeded inputs and closed-loop measurement units for the three workloads.

One client, one op at a time, each op started when the previous one
returned.  A unit is a fixed amount of work made from the inputs:

  cone-points   every generated point once, one `stress_t0` call each;
  figure-scan   one `conevac figure` call per figure id, all 16 ids;
  oracle-suite  every oracle at every oracle seed of the run, one
                `run_oracle_suite([name], seed=s)` call each.

An op is a point, a CSV row or an oracle call.  Each op's latency is
the time of the program call that produced it; a figure call's time is
shared evenly among the rows it wrote.  The benchmark's own checks run
outside these times.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import conevac
from conevac import cli

import reference
from setup_probe import geometry
from spans import Tracer

CONE_POINTS = 1000
CONE_BETAS = (-0.25, -1.0 / 12.0, 0.0, 0.7)
FIGURE_POINTS = 20
# Oracle seeds of a run: a fixed core plus a few drawn from the benchmark
# seed.  An oracle's cost varies several-fold with its seed, so an
# all-drawn set would make the run's cost follow the benchmark seed.
ORACLE_CORE_SEEDS = 8
ORACLE_DRAWN_SEEDS = 2
WARMUP_ORACLE = "threedim_average"  # a scipy quadrature, like the suite's bulk


class Unit:
    """What one unit of work produced."""

    def __init__(self):
        self.latency: dict = {}  # op key -> seconds, NaN for a call that raised
        self.failed = 0
        self.flagged = 0  # failed ops plus rows holding a known defect
        self.correct = True
        self.problems: list[str] = []
        self.ref_rel_err_max = 0.0
        self.err_bar_ratio_max = 0.0
        self.details: dict = {}

    @property
    def ops(self) -> int:
        return len(self.latency)

    def fail(self, message: str, *, wrong: bool = False) -> None:
        self.failed += 1
        self.flagged += 1
        self.correct = self.correct and not wrong
        if len(self.problems) < 50:
            self.problems.append(message)


def timed_call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Run one program call, in a span when tracing.

    Returns (result, seconds, exception); an exception ends the op, not
    the run.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = tracer.call(name, fn, *args, **kwargs)
    except Exception as exc:
        return None, time.perf_counter() - start, exc
    return out, time.perf_counter() - start, None


class ConePoints:
    name = "cone-points"

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 1])
        self.points = []
        for _ in range(CONE_POINTS):
            pick = rng.random()
            kind = "cone" if pick < 0.8 else ("dowker" if pick < 0.9 else "minkowski")
            theta1 = float(np.exp(rng.uniform(math.log(0.3), math.log(50.0))))
            r = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
            z = float(rng.uniform(-5.0, 5.0))
            beta = CONE_BETAS[int(rng.integers(len(CONE_BETAS)))]
            self.points.append((kind, theta1 if kind == "cone" else None, r, z, beta))

    def describe(self) -> dict:
        return {"points": len(self.points)}

    def inputs(self):
        return self.points

    def warmup_arg(self):
        return {"point": self.points[0]}

    def unit(self, tracer: Tracer | None = None) -> Unit:
        u = Unit()
        for i, (kind, theta1, r, z, beta) in enumerate(self.points):
            if tracer is not None:
                tracer.op = i
            res, dt, exc = timed_call(tracer, "op", conevac.stress_t0,
                                 geometry(kind, theta1), r, 0.0, z, beta=beta)
            if exc is not None:
                u.latency[i] = math.nan
                u.fail(f"point {i} {kind} theta1={theta1} r={r} beta={beta}: {exc!r}")
                continue
            u.latency[i] = dt
            a = reference.order_of(kind, beta + 0.25, theta1=theta1)
            dev, ratio = stress_deviation(res, reference.closed_stress(a, r, beta + 0.25), r)
            u.ref_rel_err_max = max(u.ref_rel_err_max, dev)
            u.err_bar_ratio_max = max(u.err_bar_ratio_max, ratio)
            if not dev <= reference.TOLERANCE:
                u.fail(f"point {i} {kind} theta1={theta1} r={r} beta={beta}: "
                       f"deviation {dev:.3e}", wrong=True)
        return u


def stress_deviation(result, closed: dict, r: float) -> tuple[float, float]:
    """Relative deviation of a `stress_t0` result from its closed form,
    and the worst ratio of a component's true error to its error bar."""
    values = result.stress.components()
    dev = reference.relative_deviation(values, closed, r)
    ratio = 0.0
    for k, v in values.items():
        miss = abs(v - closed[k])
        if miss > 0.0 and result.error[k] > 0.0:
            ratio = max(ratio, miss / result.error[k])
    return dev, ratio


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def figure_ids() -> dict[str, list[str]]:
    """Figure id -> its CSV files, as `conevac figure --list` prints them."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(["figure", "--list"]) != 0:
            raise RuntimeError("conevac figure --list failed")
    out = {}
    for line in buf.getvalue().splitlines():
        fid, files = line.split(":", 1)
        out[fid.strip()] = [f.strip() for f in files.split(",")]
    return out


def figure_argv(fid: str, outdir: Path) -> list[str]:
    return ["figure", fid, "--points", str(FIGURE_POINTS), "--workers", "1",
            "--outdir", str(outdir)]


class FigureScan:
    name = "figure-scan"

    def __init__(self, seed: int, root: Path):
        # The figure registry is the paper's fixed input: the seed plays no part.
        self.ids = figure_ids()
        self.tmp_root = root / ".perfbench_out"
        self.known = _load_known_defects(root)
        self.digest = None

    def describe(self) -> dict:
        return {"figure_ids": len(self.ids), "points": FIGURE_POINTS,
                "files": sum(map(len, self.ids.values()))}

    def inputs(self):
        return sorted(self.ids.items())

    def warmup_arg(self):
        return {"id": next(iter(self.ids)), "outdir": str(self.tmp_root / "warmup")}

    def unit(self, tracer: Tracer | None = None) -> Unit:
        u = Unit()
        outdir = Path(tempfile.mkdtemp(prefix="figures-", dir=self.tmp_root))
        try:
            call_time = {}
            for k, fid in enumerate(self.ids):
                if tracer is not None:
                    tracer.op = k
                rc, dt, exc = timed_call(tracer, "cli.main", quiet, cli.main,
                                    figure_argv(fid, outdir))
                call_time[fid] = dt
                if rc != 0:
                    u.correct = False
                    u.problems.append(f"conevac figure {fid}: returned {rc}, {exc!r}")
            check = reference.FigureCheck(self.known)
            try:
                check.check_dir(outdir)
            except (OSError, KeyError, ValueError) as exc:
                u.correct = False
                u.problems.append(f"figure output unreadable: {exc!r}")
            for fid, files in self.ids.items():
                rows = {f: check.file_rows.get(f, 0) for f in files}
                if not all(rows.values()):
                    u.correct = False
                    u.problems.append(f"figure {fid}: missing or empty CSV files")
                for f, n in rows.items():
                    for i in range(n):
                        u.latency[(f, i)] = call_time[fid] / sum(rows.values())
            u.failed = check.failed_rows
            u.flagged = check.rows_flagged
            u.correct = u.correct and check.wrong_rows == 0
            u.problems.extend(check.problems[:50])
            u.ref_rel_err_max = check.worst
            digest = _digest(outdir)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                u.correct = False
                u.problems.append("figure CSV bytes changed between passes")
            u.details = {
                "csv_sha256": digest,
                "rows": check.rows,
                "rows_flagged": check.rows_flagged,
                "inexact": check.inexact,
                "empty_cells": check.empty_cells,
                "empty_cells_per_file": check.empty,
                "cells_checked": check.cells_checked,
                "cells_without_closed_form": check.cells_unchecked,
            }
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return u


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(outdir.glob("*.csv")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _load_known_defects(root: Path) -> dict:
    data = json.loads((root / "perfbench" / "known_defects.json").read_text())
    if data["points"] != FIGURE_POINTS:
        raise RuntimeError("known_defects.json was made for another grid size")
    return data


class OracleSuite:
    name = "oracle-suite"

    def __init__(self, seed: int, root: Path):
        drawn = np.random.default_rng([seed, 2]).integers(
            ORACLE_CORE_SEEDS, 2**31 - 1, ORACLE_DRAWN_SEEDS)
        self.seeds = list(range(ORACLE_CORE_SEEDS)) + [int(s) for s in drawn]
        self.names = conevac.oracles.oracle_names()

    def describe(self) -> dict:
        return {"oracles": len(self.names), "oracle_seeds": self.seeds}

    def inputs(self):
        return self.seeds

    def warmup_arg(self):
        name = WARMUP_ORACLE if WARMUP_ORACLE in self.names else self.names[0]
        return {"oracle": name, "seed": self.seeds[0]}

    def unit(self, tracer: Tracer | None = None) -> Unit:
        u = Unit()
        for s in self.seeds:
            for name in self.names:
                if tracer is not None:
                    tracer.op = (s, name)
                reports, dt, exc = timed_call(tracer, f"oracles.{name}",
                                         conevac.run_oracle_suite, [name], seed=s)
                if exc is not None:
                    u.latency[(s, name)] = math.nan
                    u.fail(f"oracle {name} seed {s}: {exc!r}")
                    continue
                u.latency[(s, name)] = dt
                rep = reports[0]
                if rep.name != name or (rep.max_rel_err <= rep.tolerance) != rep.passed:
                    u.correct = False
                    u.problems.append(f"oracle {name} seed {s}: inconsistent report {rep}")
                if not rep.passed:
                    u.fail(f"oracle {name} seed {s}: max_rel_err {rep.max_rel_err:.3e} "
                           f"> tolerance {rep.tolerance:.1e}")
        return u


WORKLOADS = {w.name: w for w in (ConePoints, FigureScan, OracleSuite)}


def check_t0_results(results, stress_t0) -> dict:
    """Compare traced `stress_t0` results with the closed form where one exists.

    Returns the worst relative deviation, the worst error-bar ratio and
    the number of results compared.
    """
    sig = inspect.signature(stress_t0)
    seen = {"ref_rel_err_max": 0.0, "err_bar_ratio_max": 0.0, "checked": 0}
    for args, kwargs, result in results:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        p = bound.arguments
        geom, r, xi = p["geometry"], p["r"], p["beta"] + 0.25
        a = reference.order_of(type(geom).__name__.lower(), xi,
                               theta1=getattr(geom, "theta1", None),
                               theta0=getattr(geom, "theta0", None))
        if a is None:
            continue
        dev, ratio = stress_deviation(result, reference.closed_stress(a, r, xi), r)
        seen["ref_rel_err_max"] = max(seen["ref_rel_err_max"], dev)
        seen["err_bar_ratio_max"] = max(seen["err_bar_ratio_max"], ratio)
        seen["checked"] += 1
    return seen


def float_kernel_probe(seed: int) -> dict:
    """Median time of one float `tbar_cone` call and one 1000-image sum."""
    rng = np.random.default_rng([seed, 3])
    pairs = []
    for _ in range(200):
        pair = conevac.PointPair(
            t=float(rng.uniform(0.05, 1.0)),
            r=float(np.exp(rng.uniform(math.log(0.2), math.log(5.0)))),
            rp=float(np.exp(rng.uniform(math.log(0.2), math.log(5.0)))),
            theta=float(rng.uniform(-1.0, 1.0)), z=float(rng.uniform(-1.0, 1.0)))
        pairs.append((pair, float(np.exp(rng.uniform(math.log(0.3), math.log(50.0))))))
    cone, images = [], []
    for k, (pair, theta1) in enumerate(pairs):
        start = time.perf_counter()
        for _ in range(20):
            conevac.tbar_cone(pair, theta1)
        cone.append((time.perf_counter() - start) / 20)
        if k % 2 == 0:
            start = time.perf_counter()
            conevac.tbar_cone_via_images(pair, theta1, n_images=1000)
            images.append(time.perf_counter() - start)
    return {"tbar_cone_s": float(np.median(cone)), "images_s": float(np.median(images))}


def latency_summary(latency: dict[object, list[float]]) -> dict:
    """Throughput, median and tail from per-op medians.

    Each op's latency is the median of its repetitions in the run, so a
    slow spell of the machine that covers a minority of them drops out,
    and the sample count, with it the tail percentile, is fixed by the
    workload.  The tail is the highest of a few standard percentiles
    with at least ten samples beyond it.
    """
    per_op = np.array([np.median(v) for v in latency.values()
                       if not any(math.isnan(x) for x in v)])
    n = len(per_op)
    if n == 0:
        raise RuntimeError("no op completed")
    tail = 50.0
    for p10 in (999, 995, 990, 980, 950, 900, 750):
        if n * (1000 - p10) >= 10 * 1000:
            tail = p10 / 10.0
            break
    return {"n": n, "ops_per_s": n / float(per_op.sum()),
            "p50_s": float(np.percentile(per_op, 50)),
            "tail_pct": tail, "tail_s": float(np.percentile(per_op, tail))}


def merge_latency(units) -> dict:
    out = defaultdict(list)
    for u in units:
        for k, v in u.latency.items():
            out[k].append(v)
    return out
