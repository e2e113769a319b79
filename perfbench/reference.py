"""Closed-form references for the renormalized stress and the output checks.

Cones of total angle theta1 (a = 2 pi/theta1) and the infinite sheet
(a = 0), at any coupling xi (Frolov and Serebriany 1987; Dowker 1987):

    t00    = -(a^4 - 1)/(1440 pi^2 r^4) - (xi - 1/6)(a^2 - 1)/(12 pi^2 r^4)
    t_rr   =  (a^4 - 1)/(1440 pi^2 r^4) - (xi - 1/6)(a^2 - 1)/(24 pi^2 r^4)
    t_perp = -3 t_rr
    t_zz   = -t00

so at conformal coupling t_rr = t_zz = -t00 and t_perp = 3 t00.  The
wedge of opening theta0 at conformal coupling has the same tensor with
a = pi/theta0 (Deutsch and Candelas 1979).  Correction curves hold the
beta derivative, e.g. d t00/d beta = -(a^2 - 1)/(12 pi^2 r^4).

Deviations are measured relative to the largest closed-form component
at the point, floored at 1/(1440 pi^2 r^4) so that flat points (a = 1,
where every component vanishes) stay well defined.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Relative tolerance of every output check.  The worst deviation seen
# when the benchmark was defined was 6e-6 (cones and the sheet) and 5e-5
# (conformal wedge cells).
TOLERANCE = 1e-4

CONFORMAL_XI = 1.0 / 6.0


def _unit(r: float) -> float:
    return 1.0 / (math.pi**2 * r**4)


def closed_stress(a: float, r: float, xi: float) -> dict[str, float]:
    """All four components on a cone or sheet with order ``a``."""
    u = _unit(r)
    conf = (a**4 - 1.0) / 1440.0 * u
    coup = (xi - CONFORMAL_XI) * (a * a - 1.0) * u
    t00 = -conf - coup / 12.0
    t_rr = conf - coup / 24.0
    return {"t00": t00, "t_rr": t_rr, "t_perp": -3.0 * t_rr, "t_zz": -t00}


def closed_beta_derivative(a: float, r: float) -> dict[str, float]:
    """Per-unit-coupling change of each component (correction curves)."""
    c = (a * a - 1.0) * _unit(r)
    return {"t00": -c / 12.0, "t_rr": -c / 24.0, "t_perp": c / 8.0, "t_zz": c / 12.0}


def order_of(kind: str, xi: float, *, theta1=None, theta0=None) -> float | None:
    """Order ``a`` of the closed form for a geometry, None where none applies."""
    if kind == "cone":
        return 2.0 * math.pi / theta1
    if kind == "dowker":
        return 0.0
    if kind == "minkowski":
        return 1.0
    if kind == "wedge" and abs(xi - CONFORMAL_XI) < 1e-12:
        return math.pi / theta0
    return None


def relative_deviation(values: dict, closed: dict, r: float) -> float:
    """Worst |value - closed| over the given components, relative to the
    largest closed-form component (floored, see the module docstring)."""
    scale = max(max(abs(v) for v in closed.values()), _unit(r) / 1440.0)
    return max(abs(values[k] - closed[k]) for k in values) / scale


def self_test() -> None:
    """The checks must pass exact values and flag perturbed ones."""
    for a, r, xi in ((2.0, 1.3, 0.0), (0.4, 0.7, 0.95), (0.0, 2.0, CONFORMAL_XI)):
        ref = closed_stress(a, r, xi)
        if relative_deviation(ref, ref, r) != 0.0:
            raise RuntimeError("reference check rejects an exact value")
        bumped = dict(ref, t_rr=ref["t_rr"] + 3.0 * TOLERANCE * max(map(abs, ref.values())))
        if relative_deviation(bumped, ref, r) <= TOLERANCE:
            raise RuntimeError("reference check accepts a perturbed value")
    conf = closed_stress(3.0, 1.0, CONFORMAL_XI)
    if not math.isclose(conf["t_perp"], 3.0 * conf["t00"], rel_tol=1e-14):
        raise RuntimeError("conformal relations broken in the reference")
    d = closed_beta_derivative(3.0, 1.0)
    step = closed_stress(3.0, 1.0, 1.25)["t00"] - closed_stress(3.0, 1.0, 0.25)["t00"]
    if not math.isclose(d["t00"], step, rel_tol=1e-12):
        raise RuntimeError("beta derivative disagrees with the closed form")


class FigureCheck:
    """Check a directory of figure CSVs against the closed forms.

    Every t -> 0 cell of a cone, sheet or flat curve, and of a
    conformally coupled wedge curve, is compared with the reference.
    Finite-cutoff cells must be present.  ``known`` lists the defects
    the figures had when the benchmark was defined: empty t -> 0 cells
    (``file:row:column``) and curves outside the tolerance at a row
    (``file:row:label`` -> the deviation then, rounded up).  A known
    defect flags its row; a new one, or a known deviation that grew,
    fails it.
    """

    def __init__(self, known: dict):
        self.known_empty = set(known.get("empty", ()))
        self.known_inexact = known.get("inexact", {})
        self.rows = 0
        self.failed_rows = 0
        self.wrong_rows = 0  # a value outside its allowed deviation
        self.rows_flagged = 0  # failed, or holding a known defect
        self.file_rows: dict[str, int] = {}
        self.cells_checked = 0
        self.cells_unchecked = 0
        self.worst = 0.0
        self.empty: dict[str, int] = {}
        self.empty_keys: list[str] = []
        self.inexact: dict[str, float] = {}
        self.problems: list[str] = []

    def check_dir(self, outdir: Path) -> None:
        for csv_path in sorted(outdir.glob("*.csv")):
            self._check_file(csv_path, json.loads(csv_path.with_suffix(".json").read_text()))

    def _check_file(self, csv_path: Path, sidecar: dict) -> None:
        with open(csv_path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        col = {name: k for k, name in enumerate(header)}
        comps = sidecar["components"]
        sweep = sidecar["sweep"]["coordinate"]
        finite_tag = f"t{sidecar['cutoffs']['finite_t']:g}"
        self.empty.setdefault(csv_path.name, 0)
        self.file_rows[csv_path.name] = len(rows)
        for i, row in enumerate(rows):
            x = float(row[0])
            bad = flagged = wrong = False
            for s in sidecar["series"]:
                suffix = f"_{s['label']}" if s["label"] else ""
                for comp in comps:
                    if row[col[f"{comp}_{finite_tag}{suffix}"]] == "":
                        bad = True
                        self.problems.append(f"{csv_path.name}:{i}: empty finite-cutoff cell")
                cells = {}
                for comp in comps:
                    name = f"{comp}_t0{suffix}"
                    text = row[col[name]]
                    if text == "":
                        flagged = True
                        key = f"{csv_path.name}:{i}:{name}"
                        self.empty[csv_path.name] += 1
                        self.empty_keys.append(key)
                        if key not in self.known_empty:
                            bad = True
                            self.problems.append(f"{csv_path.name}:{i}:{name}: new empty cell")
                    else:
                        cells[comp] = float(text)
                ref = _series_reference(s, sweep, x)
                if ref is None:
                    self.cells_unchecked += len(cells)
                    continue
                closed, r = ref
                if cells:
                    dev = relative_deviation(cells, closed, r)
                    self.cells_checked += len(cells)
                    self.worst = max(self.worst, dev)
                    if not dev <= TOLERANCE:
                        key = f"{csv_path.name}:{i}:{s['label']}"
                        self.inexact[key] = dev
                        flagged = True
                        if not dev <= self.known_inexact.get(key, TOLERANCE):
                            bad = wrong = True
                            self.problems.append(f"{key}: deviation {dev:.3e}")
            self.rows += 1
            self.failed_rows += bad
            self.wrong_rows += wrong
            self.rows_flagged += bad or flagged

    @property
    def empty_cells(self) -> int:
        return sum(self.empty.values())

    def known_defects(self, points: int) -> dict:
        """The defects found, in the form ``known`` takes."""
        def ceil3(x):
            e = 10.0 ** (math.floor(math.log10(x)) - 2)
            return math.ceil(x / e) * e
        return {"points": points, "empty": self.empty_keys,
                "inexact": {k: ceil3(v) for k, v in self.inexact.items()}}


def _series_reference(series: dict, sweep: str, x: float):
    geom = series["geometry"]
    r = x if sweep == "r" else series["fixed_r"]
    theta1 = x if sweep == "theta1" else geom.get("theta1")
    a = order_of(geom["kind"], series["xi"], theta1=theta1, theta0=geom.get("theta0"))
    if a is None or r is None:
        return None
    if series["correction"]:
        if geom["kind"] == "wedge":
            return None  # the wall term depends on xi; no closed form here
        return closed_beta_derivative(a, r), r
    return closed_stress(a, r, series["xi"]), r

