"""Command line interface.

Four subcommands:

  eval     one point, JSON on stdout
  scan     sweep one coordinate, CSV rows
  figure   write the canned figure datasets (CSV plus JSON sidecar)
  verify   run the oracle suite

Exit codes: 0 on success, 1 on runtime or verification failure, 2 on
usage errors.  CSV files carry two column groups per requested
component: the stress at the fixed finite cutoff (column tag t<value>)
and the extrapolated t -> 0 limit (tag t0).  Points where a value is
not defined or does not converge become empty cells, with a note on
stderr; cell text uses shortest round-trip float formatting, so a
given grid always produces byte-identical CSV no matter how many
worker processes computed it (`--workers N` gives each the same
contiguous slice of every file's grid).  One plan covers every file of
a call: the curves of one kernel kind (cones of any angle, the sheet,
flat space, or wedges of any opening with one wall condition), z and
cutoff share `stress.stress_grid` passes of up to `_PASS_POINTS`
points, with the angle a batch column, and each distinct point is
computed once over the couplings of every curve that draws it.  So the
two couplings of a wedge figure or of a correction curve, the angles
of a multi-cone figure and every point of a theta1 sweep share one
pass.  Sidecars record the geometry, coupling, grid, and build metadata
(`git describe` once per process); timestamps appear only there.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import enum
import functools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConeVacError
from .geometry import (
    BoundaryCondition,
    Cone,
    Coupling,
    Dowker,
    Minkowski,
    PointPair,
    Wedge,
)
from .kernels import (
    kernel_kind,
    tbar_cone,
    tbar_dowker,
    tbar_minkowski,
    tbar_wedge_renormalized,
)
from .oracles import SUITE_VERSION, format_reports, reports_to_json, run_oracle_suite
from .stress import COMPONENT_NAMES, RenormMode, stress_at, stress_grid, stress_t0

_XI_TAGS = {"xi14": 0.25, "xi16": 1.0 / 6.0}


# ---------------------------------------------------------------------------
# Sweep machinery shared by scan and figure.


@dataclass(frozen=True)
class _Series:
    """One curve: a geometry, a coupling, and the fixed coordinates."""

    label: str
    geometry: object
    beta: float
    correction: bool = False
    fixed_r: float | None = None
    fixed_theta: float = 0.0
    fixed_z: float = 0.0


@dataclass(frozen=True)
class _FileSpec:
    """One output file: a grid over one coordinate and a set of curves."""

    filename: str
    sweep: str  # "r" | "theta" | "theta1"
    lo: float
    hi: float
    log: bool
    series: tuple
    components: tuple = COMPONENT_NAMES
    points: int = 200
    cutoff_t: float = 1.0


# Points per `stress_grid` pass.  A pass's results stay until the last
# file that draws it is written, so this bounds the memory of a call:
# `figure` over every id at 200 points peaks at ~37 MB ru_maxrss.
_PASS_POINTS = 128


def _curve_points(spec: _FileSpec, series: _Series, xs: list[float]):
    """(geometry, r, theta) of one curve at each grid point in ``xs``."""
    if spec.sweep not in ("r", "theta", "theta1"):
        raise ValueError(f"unknown sweep coordinate {spec.sweep!r}")
    if spec.sweep != "r" and series.fixed_r is None:
        raise ValueError("no radius: series needs fixed_r or an r sweep")
    if spec.sweep == "theta1":
        return [(Cone(x), series.fixed_r, series.fixed_theta) for x in xs]
    if spec.sweep == "r":
        return [(series.geometry, x, series.fixed_theta) for x in xs]
    return [(series.geometry, series.fixed_r, x) for x in xs]


def _file_rows(specs, slices):
    """Yield the CSV rows and notes of each file in turn, file k at ``slices[k]``.

    Curves share `stress_grid` passes by kernel kind, z and cutoff, so
    every cone curve of a call, whatever its angle, is in one pass of up
    to `_PASS_POINTS` points, taken in the order the files draw them.
    A point is keyed by its geometry and the bits of its r and theta
    (-0.0 is not 0.0), and curves that draw the same point share it,
    over the union of their couplings.  A pass runs when the first file
    that needs it comes up and is dropped after the last, and each file
    picks its own cells.
    """
    passes = []  # per pass: z, cutoff, its points as [geometry, r, theta, beta reprs]
    open_pass = {}  # (kernel kind, repr z, repr t) -> the pass that takes new points
    slots = {}  # point key -> (its pass, its place there)
    unions = {}  # (beta reprs, beta reprs) -> their union, a tuple points share
    beta_of = {}  # beta repr -> beta
    curves = []  # per file, per series: (the slot of each of its points, its beta reprs)
    for spec, xs in zip(specs, slices):
        curves.append([])
        for series in spec.series:
            couplings = ((series.beta, series.beta + 1.0) if series.correction
                         else (series.beta,))
            beta_of.update((repr(b), b) for b in couplings)
            betas = tuple(dict.fromkeys(map(repr, couplings)))
            placed, points = [], _curve_points(spec, series, xs)
            # a curve's points share one kernel kind
            group = (kernel_kind(points[0][0]) if points else None,
                     repr(series.fixed_z), repr(spec.cutoff_t))
            for geometry, r, theta in points:
                key = (group, geometry, float(r).hex(), float(theta).hex())
                slot = slots.get(key)
                if slot is None:
                    k = open_pass.get(group)
                    if k is None or len(passes[k][2]) == _PASS_POINTS:
                        k = open_pass[group] = len(passes)
                        passes.append((series.fixed_z, spec.cutoff_t, []))
                    slot = slots[key] = (k, len(passes[k][2]))
                    passes[k][2].append([geometry, r, theta, ()])
                point = passes[slot[0]][2][slot[1]]
                pair = (point[3], betas)
                if pair not in unions:
                    unions[pair] = tuple(dict.fromkeys(point[3] + betas))
                point[3] = unions[pair]
                placed.append(slot)
            curves[-1].append((placed, betas))
    del open_pass, slots, unions
    last = {k: j for j, file_curves in enumerate(curves)
            for placed, _ in file_curves for k, _ in placed}
    done = {}

    def cells(placed, betas):
        """(finite, limit) per point of one curve, each a list over its betas."""
        out = []
        for k, i in placed:
            if k not in done:
                z, t, points = passes[k]
                grid = stress_grid([(g, r, th, tuple(map(beta_of.get, union)))
                                    for g, r, th, union in points], z, t)
                done[k] = [(cell, point[3]) for point, cell in zip(points, grid)]
                passes[k] = None
            cell, union = done[k][i]
            picks = [union.index(b) for b in betas]
            out.append(tuple([group[j] for j in picks] for group in cell))
        return out

    for j, (spec, xs, file_curves) in enumerate(zip(specs, slices, curves)):
        yield _rows(spec, xs, [cells(*curve) for curve in file_curves])
        for k in [k for k, i in last.items() if i == j]:
            del done[k]


def _slice_rows(specs, slices):
    """Every file's rows and notes at ``slices``, as one worker returns them."""
    return list(_file_rows(specs, slices))


def _cell(values):
    """Component dict of one CSV cell group from its per-coupling tensors.

    A correction curve has two couplings and gives their per-unit
    difference, exploiting that every component is affine in beta.
    The first error among the values empties the cells instead.
    """
    for value in values:
        if isinstance(value, ConeVacError):
            return value
    comps = [value.components() for value in values]
    if len(comps) == 1:
        return comps[0]
    base, bumped = comps
    return {k: bumped[k] - base[k] for k in base}


def _rows(spec: _FileSpec, xs: list[float], curves):
    """CSV rows and notes of one file from the cells of each of its curves."""
    rows: list = []
    notes: list[str] = []
    for i, x in enumerate(xs):
        cells: list = [x]
        for group, tag in enumerate((f"t={spec.cutoff_t:g}", "t0")):
            for series, curve in zip(spec.series, curves):
                comps = _cell(curve[i][group])
                if isinstance(comps, ConeVacError):
                    cells.extend([None] * len(spec.components))
                    label = f" [{series.label}]" if series.label else ""
                    notes.append(f"{spec.sweep}={x:g}{label} ({tag}): {comps}")
                else:
                    cells.extend(comps[name] for name in spec.components)
        rows.append(cells)
    return rows, notes


def _grid(lo: float, hi: float, points: int, log: bool) -> list[float]:
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points!r}")
    if log:
        if lo <= 0:
            raise ValueError("log grids need positive endpoints")
        return [float(v) for v in np.geomspace(lo, hi, points)]
    return [float(v) for v in np.linspace(lo, hi, points)]


def _columns(spec: _FileSpec) -> list[str]:
    cols = [spec.sweep]
    for tag in (f"t{spec.cutoff_t:g}", "t0"):
        for series in spec.series:
            suffix = f"_{series.label}" if series.label else ""
            cols.extend(f"{name}_{tag}{suffix}" for name in spec.components)
    return cols


def _compute(specs, workers: int):
    """The CSV rows and notes of every file in ``specs``, file by file.

    One worker yields each file as soon as it is done.  With several,
    each takes the same contiguous slice of every file's grid.
    """
    grids = [_grid(spec.lo, spec.hi, spec.points, spec.log) for spec in specs]
    workers = min(workers, max(map(len, grids)))
    if workers == 1:
        return _file_rows(specs, grids)
    # Imported here: multiprocessing costs ~1 MB that one worker does not need.
    from concurrent.futures import ProcessPoolExecutor
    parts = [[xs[len(xs) * k // workers:len(xs) * (k + 1) // workers] for xs in grids]
             for k in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(functools.partial(_slice_rows, specs), parts))
    return [([row for part in results for row in part[k][0]],
             [note for part in results for note in part[k][1]])
            for k in range(len(specs))]


def _write_csv(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(float(v)) for v in row])


def _geometry_dict(geometry) -> dict:
    """The lower-cased class name as ``kind``, then every field, enums by value."""
    if geometry is None:
        return {"kind": "cone", "theta1": "swept"}
    out = {"kind": type(geometry).__name__.lower()}
    for field in fields(geometry):
        value = getattr(geometry, field.name)
        out[field.name] = value.value if isinstance(value, enum.Enum) else value
    return out


@functools.cache
def _git_describe() -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _sidecar(spec: _FileSpec, figure_id: str | None) -> dict:
    return {
        "figure": figure_id,
        "file": spec.filename,
        "sweep": {
            "coordinate": spec.sweep,
            "lo": spec.lo,
            "hi": spec.hi,
            "points": spec.points,
            "log": spec.log,
        },
        "series": [
            {
                "label": s.label,
                "geometry": _geometry_dict(s.geometry),
                "beta": s.beta,
                "xi": s.beta + 0.25,
                "correction": s.correction,
                "fixed_r": s.fixed_r,
                "fixed_theta": s.fixed_theta,
                "fixed_z": s.fixed_z,
            }
            for s in spec.series
        ],
        "components": list(spec.components),
        "cutoffs": {"finite_t": spec.cutoff_t, "extrapolated": True},
        "build": {
            "version": __version__,
            "git": _git_describe(),
            "oracle_suite_version": SUITE_VERSION,
        },
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit_spec(spec: _FileSpec, outdir: Path, figure_id: str | None, rows, notes) -> None:
    for note in notes:
        print(f"warning: {spec.filename}: {note}", file=sys.stderr)
    csv_path = outdir / spec.filename
    with open(csv_path, "w", newline="") as fh:
        _write_csv(fh, _columns(spec), rows)
    sidecar_path = csv_path.with_suffix(".json")
    with open(sidecar_path, "w") as fh:
        json.dump(_sidecar(spec, figure_id), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(rows)} rows) and {sidecar_path.name}")


# ---------------------------------------------------------------------------
# Figure registry.  Ranges are chosen for the interesting structure;
# every parameter lands in the sidecar, so the files are self describing.

_FIG2_ANGLES = [
    ("tp25", 0.25 * math.pi),
    ("tp5", 0.5 * math.pi),
    ("t1", 1.0 * math.pi),
    ("t2p5", 2.5 * math.pi),
    ("t8", 8.0 * math.pi),
    ("t1e4", 1e4 * math.pi),
]
_FIG6_OPENINGS = (("pi3", math.pi / 3), ("2pi5", 2 * math.pi / 5),
                  ("2pi3", 2 * math.pi / 3))
_FIG7_ANGLES = (("pi16", math.pi / 16), ("pi8", math.pi / 8), ("pi4", math.pi / 4))


def _cone_file(filename, theta1, *, beta=0.0, correction=False, lo=0.25, hi=8.0,
               components=COMPONENT_NAMES, log=True):
    return _FileSpec(
        filename, "r", lo, hi, log,
        series=(_Series("", Cone(theta1), beta, correction=correction),),
        components=components,
    )


def _multi_angle_file(filename, *, correction=False, lo=0.02, hi=1.0):
    series = tuple(
        _Series(tag, Cone(theta1), 0.0, correction=correction)
        for tag, theta1 in _FIG2_ANGLES
    )
    return _FileSpec(filename, "r", lo, hi, True, series=series, components=("t00",))


def _wedge_theta_file(filename, theta0, beta, radii, *, near=False):
    lo = (0.002 if near else 0.01) * theta0
    hi = (0.1 if near else 0.99) * theta0
    series = tuple(
        _Series(f"r{r:g}", Wedge(theta0), beta, fixed_r=float(r)) for r in radii
    )
    return _FileSpec(filename, "theta", lo, hi, False, series=series,
                     components=("t00",))


def _wedge_r_file(filename, theta0, beta, theta, *, lo=1.0, hi=32.0):
    series = (_Series("", Wedge(theta0), beta, fixed_theta=theta),)
    return _FileSpec(filename, "r", lo, hi, True, series=series,
                     components=("t00",))


_FIGURES: dict[str, tuple[_FileSpec, ...]] = {
    "fig1": (
        _FileSpec("fig1.csv", "r", 0.25, 8.0, True,
                  series=(_Series("", Dowker(), 0.0),)),
    ),
    "fig1b": (
        _FileSpec("fig1b.csv", "r", 0.25, 8.0, True,
                  series=(_Series("", Dowker(), 0.0, correction=True),)),
    ),
    "fig2mis": tuple(
        _cone_file(f"fig2mis_{tag}.csv", theta1)
        for tag, theta1 in _FIG2_ANGLES[:3]
    ),
    "fig2ext": tuple(
        _cone_file(f"fig2ext_{tag}.csv", theta1)
        for tag, theta1 in _FIG2_ANGLES[3:]
    ),
    "fig2b": (_multi_angle_file("fig2b.csv"),),
    "fig3": tuple(
        _cone_file(f"fig3_{tag}.csv", theta1, correction=True)
        for tag, theta1 in _FIG2_ANGLES
    ),
    "fig3b": (_multi_angle_file("fig3b.csv", correction=True),),
    "fig4": tuple(
        _cone_file(f"fig4_{tag}.csv", 0.8 * math.pi, beta=beta)
        for tag, beta in (("xi16", Coupling.conformal().beta), ("xi14", 0.0))
    ),
    "coneang1": (
        _FileSpec("coneang1.csv", "theta1", math.pi / 8, 2.0 * math.pi, False,
                  series=(_Series("", None, 0.0, fixed_r=1.0),)),
    ),
    "coneang2": (
        _FileSpec("coneang2.csv", "theta1", 2.0 * math.pi, 100.0 * math.pi, True,
                  series=(_Series("", None, 0.0, fixed_r=1.0),)),
    ),
    "fig5": (
        _wedge_theta_file("fig5_xi14.csv", 0.5 * math.pi, 0.0, (2, 4, 8)),
        _wedge_theta_file("fig5_xi16.csv", 0.5 * math.pi, Coupling.conformal().beta,
                          (4, 8, 16)),
    ),
    "fig5b": (
        _wedge_theta_file("fig5b_xi14.csv", 0.5 * math.pi, 0.0, (2, 4, 8),
                          near=True),
        _wedge_theta_file("fig5b_xi16.csv", 0.5 * math.pi, Coupling.conformal().beta,
                          (4, 8, 16), near=True),
    ),
    "fig6": tuple(
        _wedge_theta_file(f"fig6_{t0tag}_{xitag}.csv", theta0,
                          Coupling.from_xi(xi).beta, (8,))
        for t0tag, theta0 in _FIG6_OPENINGS
        for xitag, xi in _XI_TAGS.items()
    ),
    "fig6b": tuple(
        _wedge_theta_file(f"fig6b_{t0tag}_{xitag}.csv", theta0,
                          Coupling.from_xi(xi).beta, (8,), near=True)
        for t0tag, theta0 in _FIG6_OPENINGS
        for xitag, xi in _XI_TAGS.items()
    ),
    "fig7": tuple(
        _wedge_r_file(f"fig7_{thtag}_{xitag}.csv", 0.5 * math.pi,
                      Coupling.from_xi(xi).beta, theta)
        for thtag, theta in _FIG7_ANGLES
        for xitag, xi in _XI_TAGS.items()
    ),
    "fig7b": tuple(
        _wedge_r_file(f"fig7b_{thtag}_{xitag}.csv", 0.5 * math.pi,
                      Coupling.from_xi(xi).beta, theta, lo=0.05, hi=1.0)
        for thtag, theta in _FIG7_ANGLES
        for xitag, xi in _XI_TAGS.items()
    ),
}


# ---------------------------------------------------------------------------
# Argument handling.


def _load_config(path: str) -> list[str]:
    tokens: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if value.lower() in ("true", "yes", "on"):
            tokens.append(f"--{key}")
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            tokens.extend((f"--{key}", value))
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice `--config FILE` tokens in right after the subcommand.

    Command line flags parse later, so they win over the file.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    tokens = _load_config(argv[i + 1])
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise ValueError("--config needs a subcommand")
    return [rest[0], *tokens, *rest[1:]]


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _positive_cutoff(text: str) -> float:
    try:
        t = float(text)
    except ValueError:
        t = math.nan
    if not (math.isfinite(t) and t > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return t


def _add_geometry_args(sub):
    sub.add_argument("--geometry", required=True,
                     choices=["minkowski", "cone", "dowker", "wedge"])
    sub.add_argument("--theta1", type=float, default=None,
                     help="total cone angle (cone only)")
    sub.add_argument("--theta0", type=float, default=None,
                     help="wedge opening angle (wedge only)")
    sub.add_argument("--bc", choices=["dirichlet", "neumann"],
                     default="dirichlet", help="wedge wall condition")


def _add_coupling_args(sub):
    sub.add_argument("--beta", type=float, default=None,
                     help="coupling combination xi - 1/4")
    sub.add_argument("--xi", type=float, default=None, help="curvature coupling")
    sub.add_argument("--coupling", choices=["minimal", "conformal", "quarter"],
                     default=None, help="named coupling preset")


def _geometry_from_args(args):
    if args.geometry == "minkowski":
        return Minkowski()
    if args.geometry == "cone":
        if args.theta1 is None:
            raise ValueError("--theta1 is required for --geometry cone")
        return Cone(args.theta1)
    if args.geometry == "dowker":
        return Dowker()
    if args.theta0 is None:
        raise ValueError("--theta0 is required for --geometry wedge")
    return Wedge(args.theta0, BoundaryCondition(args.bc))


def _beta_from_args(args) -> float:
    given = [v for v in (args.beta, args.xi, args.coupling) if v is not None]
    if len(given) > 1:
        raise ValueError("give at most one of --beta, --xi, --coupling")
    if args.beta is not None:
        return Coupling(args.beta).beta
    if args.xi is not None:
        return Coupling.from_xi(args.xi).beta
    if args.coupling is not None:
        return Coupling.from_name(args.coupling).beta
    return 0.0


def _cmd_eval(args) -> int:
    geometry = _geometry_from_args(args)
    beta = _beta_from_args(args)
    what = "kernel" if args.kernel_only else args.what
    primes = (args.rprime, args.thetaprime, args.zprime)
    if what != "kernel" and any(v is not None for v in primes):
        raise ValueError(
            "primed coordinates apply to kernel evaluation only; "
            "stress is taken at spatially coincident points"
        )
    result = {
        "geometry": _geometry_dict(geometry),
        "r": args.r,
        "theta": args.theta,
        "z": args.z,
        "beta": beta,
        "what": what,
    }
    if what == "kernel":
        pair = PointPair(
            t=args.t, r=args.r,
            rp=args.r if args.rprime is None else args.rprime,
            theta=args.theta,
            thetap=args.theta if args.thetaprime is None else args.thetaprime,
            z=args.z,
            zp=args.z if args.zprime is None else args.zprime,
        )
        result["t"] = args.t
        for name, value in (("rprime", pair.rp), ("thetaprime", pair.thetap),
                            ("zprime", pair.zp)):
            result[name] = value
        match geometry:
            case Minkowski():
                result["tbar"] = tbar_minkowski(pair)
            case Cone(theta1=theta1):
                result["tbar"] = tbar_cone(pair, theta1)
            case Dowker():
                result["tbar"] = tbar_dowker(pair)
            case Wedge(theta0=theta0, bc=bc):
                result["tbar"] = tbar_wedge_renormalized(pair, theta0, bc)
    elif what == "stress":
        s = stress_at(geometry, args.r, args.theta, args.z, beta=beta,
                      t=args.t, renorm=RenormMode(args.renorm))
        result["t"] = args.t
        result["renorm"] = args.renorm
        result["stress"] = s.components()
    else:
        ext = stress_t0(geometry, args.r, args.theta, args.z, beta=beta)
        result["stress"] = ext.stress.components()
        result["error_estimate"] = ext.error
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_scan(args) -> int:
    geometry = None if args.sweep == "theta1" else _geometry_from_args(args)
    beta = _beta_from_args(args)
    if args.sweep != "r" and args.r is None:
        raise ValueError(f"--r is required for a {args.sweep} sweep")
    components = tuple(args.components.split(","))
    unknown = sorted(set(components) - set(COMPONENT_NAMES))
    if unknown:
        raise ValueError(
            f"unknown components: {', '.join(unknown)}; "
            f"known: {', '.join(COMPONENT_NAMES)}"
        )
    out = Path(args.out) if args.out else None
    name = out.name if out else "scan.csv"
    spec = _FileSpec(
        name, args.sweep, args.lo, args.hi, args.log,
        series=(_Series("", geometry, beta, correction=args.correction,
                        fixed_r=args.r, fixed_theta=args.theta,
                        fixed_z=args.z),),
        components=components, points=args.points, cutoff_t=args.t,
    )
    ((rows, notes),) = _compute([spec], args.workers)
    if out is None:
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        _write_csv(sys.stdout, _columns(spec), rows)
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    _emit_spec(spec, out.parent, None, rows, notes)
    return 0


def _cmd_figure(args) -> int:
    if args.list:
        for figure_id, specs in _FIGURES.items():
            print(f"{figure_id}: {', '.join(s.filename for s in specs)}")
        return 0
    if not args.id:
        raise ValueError("figure id required (or use --list)")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for figure_id in args.id:
        if figure_id not in _FIGURES:
            raise ValueError(
                f"unknown figure id {figure_id!r}; known: {', '.join(_FIGURES)}"
            )
        for spec in _FIGURES[figure_id]:
            if args.points is not None:
                spec = replace(spec, points=args.points)
            files.append((figure_id, spec))
    outputs = _compute([spec for _, spec in files], args.workers)
    for (figure_id, spec), (rows, notes) in zip(files, outputs):
        _emit_spec(spec, outdir, figure_id, rows, notes)
    return 0


def _cmd_verify(args) -> int:
    selection = args.only.split(",") if args.only else None
    reports = run_oracle_suite(selection, seed=args.seed)
    print(reports_to_json(reports) if args.json else format_reports(reports))
    return 0 if all(r.passed for r in reports) else 1


@functools.cache  # built once per process, for callers that run `main` many times
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conevac",
        description="Vacuum stress of a massless scalar on cones and wedges.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="one point, JSON output")
    _add_geometry_args(p_eval)
    _add_coupling_args(p_eval)
    p_eval.add_argument("--r", type=float, required=True)
    p_eval.add_argument("--theta", type=float, default=0.0)
    p_eval.add_argument("--z", type=float, default=0.0)
    p_eval.add_argument("--rprime", type=float, default=None,
                        help="primed radius (kernel only; defaults to --r)")
    p_eval.add_argument("--thetaprime", type=float, default=None,
                        help="primed angle (kernel only; defaults to --theta)")
    p_eval.add_argument("--zprime", type=float, default=None,
                        help="primed height (kernel only; defaults to --z)")
    p_eval.add_argument("--t", type=float, default=1.0,
                        help="Euclidean time offset; 0 needs separated points")
    p_eval.add_argument("--what", choices=["kernel", "stress", "stress-t0"],
                        default="stress")
    p_eval.add_argument("--kernel-only", action="store_true",
                        help="shorthand for --what kernel")
    p_eval.add_argument("--renorm", choices=[m.value for m in RenormMode],
                        default="kernel")
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="sweep one coordinate to CSV")
    _add_geometry_args(p_scan)
    _add_coupling_args(p_scan)
    p_scan.add_argument("--sweep", choices=["r", "theta", "theta1"],
                        required=True)
    p_scan.add_argument("--lo", type=float, required=True)
    p_scan.add_argument("--hi", type=float, required=True)
    p_scan.add_argument("--points", type=int, default=200)
    p_scan.add_argument("--log", action="store_true",
                        help="geometric instead of linear grid")
    p_scan.add_argument("--r", type=float, default=None,
                        help="fixed radius for theta/theta1 sweeps")
    p_scan.add_argument("--theta", type=float, default=0.0)
    p_scan.add_argument("--z", type=float, default=0.0)
    p_scan.add_argument("--t", type=_positive_cutoff, default=1.0,
                        help="finite cutoff for the first column group")
    p_scan.add_argument("--components", default=",".join(COMPONENT_NAMES))
    p_scan.add_argument("--correction", action="store_true",
                        help="emit the per-unit-beta correction instead")
    p_scan.add_argument("--out", default=None,
                        help="CSV path (stdout when omitted)")
    p_scan.add_argument("--workers", type=_worker_count, default=1)
    p_scan.set_defaults(func=_cmd_scan)

    p_fig = sub.add_parser("figure", help="write canned figure datasets")
    p_fig.add_argument("id", nargs="*", help="figure ids (see --list)")
    p_fig.add_argument("--list", action="store_true",
                       help="list figure ids and their files")
    p_fig.add_argument("--outdir", default="figures")
    p_fig.add_argument("--points", type=int, default=None,
                       help="override the per-file grid size")
    p_fig.add_argument("--workers", type=_worker_count, default=1)
    p_fig.set_defaults(func=_cmd_figure)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--only", default=None,
                          help="comma separated oracle names")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Argument validation beyond what argparse checks itself.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConeVacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
