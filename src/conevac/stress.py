"""Vacuum stress tensor assembled from kernel derivatives.

Each diagonal component of the stress tensor is a linear combination
of first and second derivatives of the cylinder kernel with respect to
the pair coordinates, evaluated at spatially coincident points with
the Euclidean time offset t > 0 as regulator.  The combination depends
on the curvature coupling only through beta = xi - 1/4, which
multiplies a block of second derivatives (radial everywhere, plus an
angular term that survives only when the kernel is not a function of
the angle difference alone, as between wedge walls).

Renormalization is a choice of what to subtract:

  * KERNEL_SUBTRACTION removes the flat-space kernel from the
    expression before differentiating, so the divergent parts never
    meet the assembly.  This is the default.
  * COMPONENT_SUBTRACTION assembles the full kernel and subtracts the
    flat-space stress of the same cutoff componentwise.
  * RAW subtracts nothing.

The renormalized components have finite t -> 0 limits, reached by
`stress_t0` through even-power Richardson extrapolation over a fixed
halving ladder of six cutoffs (`_t0_ladder`).

There is one planner, `_stress_cells`: an entry is one `stress_at`,
`stress_from_kernel` or `stress_t0` call, at one or more couplings.
The three public functions are one-entry calls to it, the check tier's
`oracles._stress_points` a call that raises the first error, and the
CLI's scans and figures calls of up to `cli._PASS_POINTS` points, each
contributing its finite cutoff and its six-cutoff ladder.  There is one
intake, `_cutoffs`: every check of an entry runs there, once, and gives
per coupling the cutoffs the entry is evaluated at or the first error
it meets.  There is one
engine, `_pass`: it takes any list of (source, r, theta, z, cutoffs,
couplings) ladders that passed the intake, whose sources are one kernel
expression or geometries of one kernel kind (`kernels.kernel_kind`),
evaluates the kernel expression once on batched jets (see `jets`), one
element per cutoff, with r, theta, z and the cone angle or wedge
opening batch columns, and assembles each ladder elementwise at its own
couplings.  The planner runs one pass per kernel kind (or expression)
and renorm mode, and one `_limits` call.  Batching changes no bits:
each element equals a batch of one.  Inside the engine a stress is the
plain component tuple (t00, t_rr, t_perp, t_zz); the public functions
wrap it in a `StressTensor` once per call.  A batch whose elements fall
on different sides of a kernel branch is split there and each part
rerun (`jets.split`); a pass over several ladders whose kernel
evaluation fails is rerun in halves, down to single ladders, so each
ladder meets its own outcome.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import jets
from .errors import ConvergenceError, DomainError
from .geometry import Coupling, Geometry, PointPair, Wedge
from .jets import IR, IRP, IT, ITHETA, ITHETAP, IZ, IZP
from .kernels import kernel_expr, kernel_kind, minkowski_expr

# Double-precision epsilon times 3/(2 pi^2), the coefficient of the
# zero-point 1/t^4 piece that the renormalized assembly cancels.
_RUNG_NOISE = 3.4e-17

# Cutoffs in the t -> 0 ladder.
_RUNGS = 6

_CONFORMAL_BETA = Coupling.conformal().beta

_OUT_OF_RANGE = "the stress at r={!r} leaves the range of double precision ({})"


class RenormMode(enum.Enum):
    KERNEL_SUBTRACTION = "kernel"
    COMPONENT_SUBTRACTION = "component"
    RAW = "raw"


@dataclass(frozen=True)
class StressTensor:
    """Diagonal stress components in cylindrical coordinates.

    t00 is the energy density; t_rr, t_perp, t_zz are the radial,
    azimuthal, and axial pressures.  ``cutoff_t`` records the Euclidean
    time offset the components were computed at (0.0 for extrapolated
    results) and ``renorm_mode`` what was subtracted.
    """

    t00: float
    t_rr: float
    t_perp: float
    t_zz: float
    renorm_mode: RenormMode
    cutoff_t: float

    def components(self) -> dict[str, float]:
        return {
            "t00": self.t00,
            "t_rr": self.t_rr,
            "t_perp": self.t_perp,
            "t_zz": self.t_zz,
        }


COMPONENT_NAMES = ("t00", "t_rr", "t_perp", "t_zz")


def trace(stress: StressTensor) -> float:
    """Trace with the energy density entering with a minus sign."""
    return _trace((stress.t00, stress.t_rr, stress.t_perp, stress.t_zz))


def _trace(components) -> float:
    """`trace` of a component tuple (t00, t_rr, t_perp, t_zz)."""
    t00, t_rr, t_perp, t_zz = components
    return -t00 + t_rr + t_perp + t_zz


def zero_point_stress(t: float) -> StressTensor:
    """Flat-space stress of the bare kernel at cutoff t.

    The universal divergent part every geometry shares: energy density
    3/(2 pi^2 t^4) and isotropic pressure 1/(2 pi^2 t^4), independent
    of the coupling.
    """
    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"cutoff t must be positive, got {t!r}")
    c = 1.0 / (2.0 * math.pi**2 * t**4)
    return StressTensor(
        t00=3.0 * c, t_rr=c, t_perp=c, t_zz=c,
        renorm_mode=RenormMode.RAW, cutoff_t=t,
    )


def _derivatives(k):
    """The kernel derivatives `_assemble` reads, from the jet of a kernel expression."""
    h = k.hess_entry
    return (k.grad[IR], h(IT, IT), h(IR, IR), h(IR, IRP), h(IZ, IZ), h(IZ, IZP),
            h(ITHETA, ITHETA), h(ITHETA, ITHETAP))


def _assemble(rows, beta: float, renorm_mode: RenormMode):
    """Stress components from `_rungs` rows: one (t00, t_rr, t_perp, t_zz) tuple per row.

    A row holds one batch element's radius, cutoff and `_derivatives`.
    The arithmetic runs on plain floats, element by element: it is the
    same IEEE arithmetic as on numpy values, cheaper than array operations
    for ladder-sized batches, and keeps numpy scalars out of the JSON
    serialization downstream.  Component subtraction takes off the
    zero-point stress of each row's cutoff.
    """
    subtract = renorm_mode is RenormMode.COMPONENT_SUBTRACTION
    out = []
    for r, t, d_r, d_t2, d_r2, d_r_rp, d_z2, d_z_zp, d_th2, d_th_thp in rows:
        radial = d_r_rp + d_r2 + d_r / r
        # Angular part of the Laplacian acting on the coincidence value
        # of the pair function.  Exactly zero (bitwise) for kernels that
        # depend only on theta - thetap; nonzero between wedge walls.
        angular = (d_th2 + d_th_thp) / (r * r)

        t00 = -0.5 * d_t2 + beta * (radial + angular)
        t_rr = -0.25 * (d_r_rp - d_r2) - beta * (d_r / r + angular)
        # General angular form (Deutsch and Candelas 1979); for a kernel of
        # theta - thetap alone d_th_thp = -d_th2, so it is d_th2 / (2 r^2) exactly.
        t_perp = (
            d_r / (4.0 * r)
            + (d_th2 - d_th_thp) / (4.0 * r * r)
            - beta * (d_r_rp + d_r2)
        )
        t_zz = -0.25 * (d_z_zp - d_z2) - beta * (radial + angular)
        if subtract:
            zp = zero_point_stress(t)
            t00, t_rr, t_perp, t_zz = (t00 - zp.t00, t_rr - zp.t_rr, t_perp - zp.t_perp,
                                       t_zz - zp.t_zz)
        out.append((t00, t_rr, t_perp, t_zz))
    return out


def _rungs(kernel_fn, pairs, renorm_mode):
    """Every point pair's `_assemble` row, from one jet pass.

    ``pairs`` is a batch as `jets.lift` takes it: a list of point pairs,
    or a dict of coordinate columns.  The kernel expression is
    evaluated once, on the whole batch; the caller assembles each row at
    the couplings it needs.  Under KERNEL_SUBTRACTION the flat kernel is
    taken off the full kernel here, for every geometry alike.  Every
    element is bit for bit what a batch of one would give (see `jets`).
    Near the axis the arrays meet infinities on the way to the error
    `_pass` reports; numpy is kept quiet about them.
    """
    coords = jets.lift(pairs)
    with np.errstate(all="ignore"):
        k = kernel_fn(**coords)
        if renorm_mode is RenormMode.KERNEL_SUBTRACTION:
            k = k - minkowski_expr(**coords)
    columns = (coords["r"].value, coords["t"].value, *_derivatives(k))
    return list(zip(*(c.tolist() for c in columns)))


def _check_point(r, theta, z, t) -> None:
    """Validate a stress point as a `PointPair` at cutoff t would."""
    # The test `PointPair` makes; the pair is built only to raise its error.
    if not (0.0 < r < math.inf and 0.0 <= t < math.inf
            and math.isfinite(theta) and math.isfinite(z)):
        PointPair(t=t, r=r, rp=r, theta=theta, thetap=theta, z=z, zp=z)


def _pass(renorm, ladders):
    """Stress components on ladders that passed `_cutoffs`, from one kernel evaluation.

    Returns, per (source, r, theta, z, cutoffs, betas) ladder, one entry
    per beta of its own: the component tuple of each of its cutoffs, or
    the ladder's own DomainError.  A ladder is assembled at its own betas
    only, and one whose assembly fails (``r * r`` underflows) meets its
    own error there.  When the kernel evaluation fails (the squared
    t-slope of the kernels' ``q`` underflows, ``sqrt(q)`` meets q = 0, a
    derivative factor overflows), each half of the ladders is run on its
    own, and so on down to single ladders, so each meets its own outcome
    and a grid with one failing point costs about two passes, not one
    per ladder.  A geometry's ladder whose kernel pass fails is out of
    range, with the failure's text (or Python error's type) as the
    reason; a kernel expression's keeps the DomainError of its jets
    rule.  A component that comes out NaN is out of range too.  Errors
    are returned without their tracebacks, which would keep the batch
    alive.
    """
    ts_col, r_col, theta_col, z_col, source_col = [], [], [], [], []
    for source, r, theta, z, ts, _ in ladders:
        n = len(ts)
        ts_col += ts
        r_col += [r] * n
        theta_col += [theta] * n
        z_col += [z] * n
        source_col += [source] * n
    columns = {"t": ts_col, "r": r_col, "rp": r_col, "theta": theta_col,
               "thetap": theta_col, "z": z_col, "zp": z_col}
    expr = source_col[0] if callable(source_col[0]) else kernel_expr(source_col)
    try:
        rows = _rungs(expr, columns, renorm)
    except (DomainError, ArithmeticError) as exc:
        if len(ladders) > 1:
            half = len(ladders) // 2
            return _pass(renorm, ladders[:half]) + _pass(renorm, ladders[half:])
        if isinstance(exc, ArithmeticError) or not callable(ladders[0][0]):
            # the kernels' FloatingPointError and a jets rule say why; Python's name their type
            why = (str(exc) if type(exc) in (FloatingPointError, DomainError)
                   else type(exc).__name__)
            exc = DomainError(_OUT_OF_RANGE.format(ladders[0][1], why))
        return [[exc.with_traceback(None)] * len(ladders[0][5])]
    out, start = [], 0
    for _, r, _, _, ts, betas in ladders:
        span = rows[start:start + len(ts)]
        start += len(ts)
        try:
            # r * r or a cutoff's t**4 fails alike at every beta
            per_beta = [_assemble(span, beta, renorm) for beta in betas]
        except ArithmeticError as exc:
            out.append([DomainError(_OUT_OF_RANGE.format(r, type(exc).__name__))]
                       * len(betas))
            continue
        out.append([DomainError(_OUT_OF_RANGE.format(r, "NaN"))
                    if any(map(math.isnan, chain.from_iterable(rungs))) else rungs
                    for rungs in per_beta])
    return out


def _one_cell(source, renorm, r, theta, z, t, beta):
    """The one cell of a one-entry `_stress_cells` call, or its error, raised."""
    ((cell,),) = _stress_cells([(source, renorm, r, theta, z, t, (beta,))])
    if isinstance(cell, Exception):
        raise cell
    return cell


def stress_from_kernel(
    kernel_fn,
    r: float,
    theta: float = 0.0,
    z: float = 0.0,
    *,
    beta: float = 0.0,
    t: float,
    renorm_mode: RenormMode = RenormMode.KERNEL_SUBTRACTION,
) -> StressTensor:
    """Differentiate an arbitrary kernel expression and assemble the stress.

    ``kernel_fn`` takes the seven pair coordinates by keyword and must
    be built from + - * /, ``** 2`` and the `jets` rules exp, sqrt, sinh,
    asinh, sin and cos, branching through `jets.value_of`, `jets.agree`
    and `jets.split`.  It takes the path of `stress_at`, a
    one-entry `_stress_cells` call, with the expression as the source;
    it is exposed so independently constructed kernels (image sums,
    cross checks) can be pushed through the same assembly.
    """
    math.isfinite(t)  # a cutoff that is not a number (None marks t -> 0) raises here
    return StressTensor(*_one_cell(kernel_fn, renorm_mode, r, theta, z, t, beta),
                        renorm_mode=renorm_mode, cutoff_t=t)


def _check_interior(geometry: Geometry, theta: float) -> None:
    if isinstance(geometry, Wedge) and not 0.0 < theta < geometry.theta0:
        raise DomainError(
            f"stress point theta={theta!r} must lie strictly inside "
            f"the wedge (0, {geometry.theta0!r})"
        )


def stress_at(
    geometry: Geometry,
    r: float,
    theta: float = 0.0,
    z: float = 0.0,
    *,
    beta: float = 0.0,
    t: float,
    renorm: RenormMode = RenormMode.KERNEL_SUBTRACTION,
) -> StressTensor:
    """Stress tensor at one point for a geometry, at finite cutoff t.

    For the wedge the point must lie strictly between the walls.
    """
    math.isfinite(t)  # a cutoff that is not a number (None marks t -> 0) raises here
    return StressTensor(*_one_cell(geometry, renorm, r, theta, z, t, beta),
                        renorm_mode=renorm, cutoff_t=t)


@dataclass(frozen=True)
class ExtrapolatedStress:
    """Extrapolated t -> 0 stress with per-component error estimates."""

    stress: StressTensor
    error: dict[str, float]


@functools.cache
def _tableau_index(n: int):
    """Where the parents and deepest rung of each entry sit in an n-rung tableau.

    The tableau's columns laid side by side (the n rungs, then the n - 1
    entries of column 1, ...): for every entry after the rungs, the
    positions of its upper and lower parent and the rung index of the
    noise that floors its score.
    """
    starts = [0]
    for j in range(n - 1):
        starts.append(starts[-1] + n - j)
    upper, lower, rung = [], [], []
    for j in range(1, n):
        for i in range(n - j):
            upper.append(starts[j - 1] + i + 1)
            lower.append(starts[j - 1] + i)
            rung.append(i + j)
    return np.array(upper), np.array(lower), np.array(rung)


def _richardson(values, noise):
    """Extrapolate each row f(t0), f(t0/2), ... of ``values`` assuming even powers of t.

    ``values`` and ``noise`` are (R, n) arrays, one ladder per row.
    Builds the standard tableau with ratio 4 per column and returns, per
    row, the entry with the smallest error score, that score and the
    entry's spread, as three (R,) arrays.  The spread is the entry's
    disagreement with its two parents; the score floors it by the
    roundoff ``noise`` of the deepest rung feeding the entry: deep rungs
    suffer a deterministic cancellation bias that entire tableau columns
    inherit coherently, so parent agreement alone would make
    noise-dominated entries look spuriously converged.

    It is the scalar loop (columns j, then entries i) vectorised over
    rows, and gives the loop's bits: both maxima keep their first argument
    unless the second is larger (as Python's ``max`` does with NaN), the
    first of equal scores wins, and an entry scoring NaN or inf is never
    chosen.  A row with no entry left returns its deepest rung, with
    score and spread 0 when the row is constant and inf otherwise.
    """
    values = np.asarray(values, dtype=float)
    noise = np.asarray(noise, dtype=float)
    n = values.shape[1]
    upper, lower, rung = _tableau_index(n)
    columns = [values]
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(1, n):
            fac = 4.0**j
            prev = columns[-1]
            columns.append((fac * prev[:, 1:] - prev[:, :-1]) / (fac - 1.0))
        tableau = np.hstack(columns)
        # every entry after the rungs, against its two parents at once
        entries = tableau[:, n:]
        a, b = np.abs(entries - tableau[:, upper]), np.abs(entries - tableau[:, lower])
        spreads = np.where(b > a, b, a)
        floor = noise[:, rung]
        scores = np.where(floor > spreads, floor, spreads)
    scores[np.isnan(scores)] = math.inf
    rows = np.arange(values.shape[0])
    k = np.argmin(scores, axis=1)
    best, err, spread = entries[rows, k], scores[rows, k], spreads[rows, k]
    none = err == math.inf
    if none.any():
        empty = np.where((values == values[:, :1]).all(axis=1), 0.0, math.inf)
        best = np.where(none, values[:, -1], best)
        err = np.where(none, empty, err)
        spread = np.where(none, empty, spread)
    return best, err, spread


def _noise(ts) -> list[float]:
    # Roundoff in a rung: the assembly cancels pieces on the scale of
    # the universal 1/t^4 zero-point part down to the renormalized
    # value, so each component carries about eps * 0.15 / t^4 of
    # deterministic cancellation bias.
    return [_RUNG_NOISE / tk**4 for tk in ts]


def _t0_ladder(geometry: Geometry, r, theta) -> list[float]:
    """The halving cutoff ladder of `stress_t0`, after its checks that ignore beta."""
    scale_len = r
    if isinstance(geometry, Wedge):
        gap = min(theta, geometry.theta0 - theta)
        if gap <= 0.0:
            _check_interior(geometry, theta)  # raises: theta is on or past a wall
        # The even-in-t expansion of the renormalized stress converges
        # out to twice the wall distance (the image source sits at 2d,
        # and past a right angle the nearest wall point is its edge on
        # the axis).  A ladder top at that radius keeps the deeper
        # rungs inside the series while staying above the 1/t^4
        # cancellation noise; far from the walls the axis distance r
        # takes over as the scale.
        scale_len = r * min(1.0, 8.0 * math.sin(min(gap, 0.5 * math.pi)))
    _check_point(r, 0.0, 0.0, 0.0)  # the radius, as `stress_at` checks it
    t0 = scale_len / 4.0
    if not t0 > 0.0:  # underflowed: r or the wall gap is near the least double
        raise DomainError(f"t0 must be positive, got {t0!r}")
    ts = [t0 / 2.0**k for k in range(_RUNGS)]
    try:
        ts[0] ** 4  # the rung noise floor divides by it
    except OverflowError:
        raise DomainError(
            f"the t -> 0 ladder from t={ts[0]!r} leaves the range of double "
            "precision (t**4 overflows)"
        ) from None
    if ts[-1] ** 4 == 0.0:
        raise DomainError(
            f"the t -> 0 ladder down to t={ts[-1]!r} leaves the range of double "
            "precision (t**4 underflows)"
        )
    # Last, so that a NaN theta is reported after the ladder's own checks.
    _check_interior(geometry, theta)
    return ts


def _cutoffs(source, renorm, r, theta, z, t, betas) -> list:
    """The cutoffs of one `_stress_cells` entry at each beta in ``betas``, or its error.

    Every check of an entry runs here, once.  A finite cutoff is checked
    after the wedge interior and before the point.  A t -> 0 entry checks
    its renorm mode, then its `_t0_ladder`, then the point's angle and
    height; a nonconformal coupling within 1e-3 of a wedge wall meets its
    own error before all but the renorm mode and the walls, so only the
    other betas see the ladder's or the point's.  An error is a
    DomainError, or the ValueError a `PointPair` raises for a point that
    is not valid, without its traceback.
    """
    gap = math.inf  # to the nearer wall, which only a t -> 0 wedge entry checks
    try:
        if t is not None:
            _check_interior(source, theta)
            if not (math.isfinite(t) and t > 0):
                raise DomainError(f"stress needs a cutoff t > 0, got {t!r}")
            ts = [t]
        elif renorm is not RenormMode.KERNEL_SUBTRACTION:
            raise ValueError("the t -> 0 limit is of the kernel-subtracted "
                             f"stress, not {renorm}")
        else:
            if isinstance(source, Wedge):
                gap = min(theta, source.theta0 - theta)
            ts = _t0_ladder(source, r, theta)
        _check_point(r, theta, z, ts[0])
    except ValueError as exc:  # a DomainError is a ValueError too
        ts = exc.with_traceback(None)
    if not 0.0 < gap < 1e-3:
        return [ts] * len(betas)
    wall = DomainError("nonconformal wedge stress diverges at the walls; "
                       f"theta={theta!r} is too close (gap {gap!r} < 1e-3)")
    return [wall if abs(beta - _CONFORMAL_BETA) > 1e-12 else ts for beta in betas]


def _extrapolate(best, err, spread):
    """The t -> 0 (components, errors) tuples from one ladder's `_richardson` rows."""
    scale = max(map(abs, best))
    for name, value, error, width in zip(COMPONENT_NAMES, best, err, spread):
        # err exceeding the spread means the chosen entry is accurate
        # to the roundoff model rather than to tableau disagreement:
        # the ladder contracted below the noise it carries, which is
        # convergence, just with a noise-dominated error bar.  Only a
        # spread that is both above the noise and a sizable fraction of
        # the answer marks a tableau that never settled.
        if error > width:
            continue
        if width > 0.25 * max(abs(value), 0.05 * scale):
            raise ConvergenceError(
                f"t -> 0 extrapolation did not converge for {name}: "
                f"value {value!r}, error estimate {error!r}"
            )
    return tuple(best), tuple(err)


def _limits(ladders):
    """The t -> 0 limit of every (cutoffs, rungs) ladder, from one vectorised tableau.

    Every component of every ladder is one row of a single `_richardson`
    call (a row's bits do not depend on the others).  Returns per ladder
    its (components, errors) tuples, or its ConvergenceError; a ladder
    whose rungs are an error (a DomainError, say) keeps it.
    """
    out = [rungs for _, rungs in ladders]
    live = [k for k, rungs in enumerate(out) if not isinstance(rungs, ValueError)]
    if not live:
        return out
    m = len(COMPONENT_NAMES)
    values = np.array([out[k] for k in live])
    noise = np.repeat([_noise(ladders[k][0]) for k in live], m, axis=0)
    rows = _richardson(values.transpose(0, 2, 1).reshape(len(live) * m, -1), noise)
    best, err, spread = (a.reshape(len(live), m).tolist() for a in rows)
    for j, k in enumerate(live):
        try:
            out[k] = _extrapolate(best[j], err[j], spread[j])
        except ConvergenceError as exc:
            out[k] = exc.with_traceback(None)
    return out


def stress_t0(
    geometry: Geometry,
    r: float,
    theta: float = 0.0,
    z: float = 0.0,
    *,
    beta: float = 0.0,
) -> ExtrapolatedStress:
    """Renormalized stress in the limit t -> 0.

    Evaluates the kernel-subtracted stress on a fixed ladder of six
    cutoffs, t0, t0/2, ..., t0/32, all in one batched jet pass, and
    Richardson-extrapolates each component.  The top cutoff t0 is a
    quarter of the distance to the nearest geometric feature (the
    axis, or a wedge wall when that is closer), which keeps the ladder
    inside the region where the even-power expansion dominates while
    leaving the deepest rung above the cancellation noise, which grows
    like 1/t^4 and is accounted for in the tableau entry selection.

    Raises ValueError, as `stress_at` does, for a point that is not
    valid, ConvergenceError when the tableau does not contract, and
    DomainError for wedge points so close to a wall that the
    nonconformal stress has no finite limit to extrapolate to, or
    where the ladder leaves the range of doubles.
    """
    best, err = _one_cell(geometry, RenormMode.KERNEL_SUBTRACTION, r, theta, z, None, beta)
    return ExtrapolatedStress(
        stress=StressTensor(*best, renorm_mode=RenormMode.KERNEL_SUBTRACTION, cutoff_t=0.0),
        error=dict(zip(COMPONENT_NAMES, err)),
    )


def _stress_cells(entries):
    """`stress_at`, `stress_from_kernel` or `stress_t0` at every entry, in one batch.

    An entry is (source, renorm, r, theta, z, t, betas): ``source`` a
    geometry, or a kernel expression as `stress_from_kernel` takes it,
    and ``t`` a cutoff, or None for the t -> 0 limit of `stress_t0` (a
    geometry, with ``renorm`` KERNEL_SUBTRACTION, the only mode
    `stress_t0` has).  Each entry is checked once, by `_cutoffs`; the
    entries of one kernel kind (or one expression) and renorm mode share
    one `_pass`, whatever their r, theta, z, cutoffs and angles, and
    every t -> 0 ladder one `_limits` call.  Returns per entry one cell
    per beta: the component tuple of a cutoff, or the (components,
    errors) tuples of a limit, bit for bit what the per-entry call
    returns, or the error it raises, without its traceback.
    """
    cells, groups, targets, limits = [], {}, [], []
    for k, (source, renorm, r, theta, z, t, betas) in enumerate(entries):
        cell = _cutoffs(source, renorm, r, theta, z, t, betas)
        cells.append(cell)  # per beta its error, or its cutoffs until the pass
        js = [j for j, ts in enumerate(cell) if type(ts) is list]
        if js:
            key = (source if callable(source) else kernel_kind(source), renorm)
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [])
            group[0].append((source, r, theta, z, cell[js[0]],
                             betas if len(js) == len(betas) else [betas[j] for j in js]))
            group[1].append((k, js))
    for (_, renorm), (ladders, members) in groups.items():
        for (k, js), ladder, entry in zip(members, ladders, _pass(renorm, ladders)):
            if entries[k][5] is None:  # `_limits` keeps a ladder's error
                targets += [(k, j) for j in js]
                limits += [(ladder[4], rungs) for rungs in entry]
            else:
                for j, rungs in zip(js, entry):
                    cells[k][j] = rungs if isinstance(rungs, Exception) else rungs[0]
    for (k, j), limit in zip(targets, _limits(limits)):
        cells[k][j] = limit
    return cells
