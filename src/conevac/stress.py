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
    meet the assembly.  This is the default and the only mode defined
    for the wedge, whose kernel is stored flat-part-free already.
  * COMPONENT_SUBTRACTION assembles the full kernel and subtracts the
    flat-space stress of the same cutoff componentwise.
  * RAW subtracts nothing.

The renormalized components have finite t -> 0 limits, reached by
`stress_t0` through even-power Richardson extrapolation over a fixed
halving ladder of six cutoffs (`_t0_cutoffs`).

There is one engine, `_ladders`: it takes any list of (geometry, r,
theta, cutoffs, couplings) ladders whose geometries share one kernel
kind (`kernels.kernel_kind`), evaluates the kernel expression once on
batched jets (see `jets`), one element per cutoff, with the cone angle
or wedge opening a batch column when the ladders' geometries differ,
and assembles each ladder elementwise at its own couplings.
`stress_at` and `stress_from_kernel` run it on a ladder of one cutoff,
`stress_t0` on its six-cutoff ladder, and `stress_grid` on blocks of
`_GRID_POINTS` points of any geometries of one kind, each contributing
its finite cutoff and its ladder.  Both the grid and `_stress_points`
(the oracles, and the three radii of `conservation_residual`) plan
their passes in `_stress_cells`: one per kernel kind and renorm mode
over a list of `stress_at`, `stress_from_kernel` and `stress_t0` calls,
and one `_limits` call.  Batching changes no bits: each element
equals `stress_at` at its geometry, point and cutoff.  Inside the engine
a stress is the plain component tuple (t00, t_rr, t_perp, t_zz); the
public functions wrap it in a `StressTensor` once per call.  A batch whose
elements fall on different sides of a kernel branch is split there and
each part rerun (`jets.split`); a pass over several ladders whose
kernel evaluation fails is rerun in halves, down to single ladders, so
each ladder meets its own outcome.
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
from .geometry import Cone, Coupling, Dowker, Geometry, Minkowski, PointPair, Wedge
from .jets import IR, IRP, IT, ITHETA, ITHETAP, IZ, IZP
from .kernels import kernel_expr, kernel_kind, minkowski_expr

# Double-precision epsilon times 3/(2 pi^2), the coefficient of the
# zero-point 1/t^4 piece that the renormalized assembly cancels.
_RUNG_NOISE = 3.4e-17

# Cutoffs in the t -> 0 ladder.
_RUNGS = 6

_CONFORMAL_BETA = Coupling.conformal().beta

# Points per `_ladders` pass and `_richardson` call in `stress_grid`.  A point
# brings its finite cutoff and a six-cutoff ladder, so a pass takes at most
# 448 cutoffs: the jets hold ~1.6 KB per cutoff at their peak, and at this
# size the fixed cost of an evaluation (~0.4 ms) is already a small share.
_GRID_POINTS = 64

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
    the couplings it needs.  Every element is bit for bit what a batch
    of one would give (see `jets`).  Near the axis the arrays meet
    infinities on the way to the error `_ladders` reports; numpy is kept
    quiet about them.
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


def _ladders(kernel_for, z, ladders):
    """Stress components on (geometry, r, theta, cutoffs, betas) ladders, on batched jets.

    ``kernel_for`` maps the list of every batch element's geometry to
    the kernel expression and its `RenormMode` (see `_kernel_for`); the
    geometries share one kernel kind, and their angles become a batch
    column.  Returns, per ladder, one entry per beta of its own: the
    component tuple of each of its cutoffs, or the ladder's own error,
    without its traceback: a DomainError (a cutoff that is not positive,
    or one `_pass` reports), or the ValueError a `PointPair` raises for
    a point that is not valid.  The valid ladders go to `_pass` together.
    """
    out, live = [], []
    for k, (geometry, r, theta, ts, betas) in enumerate(ladders):
        bad = [t for t in ts if not (math.isfinite(t) and t > 0)]
        try:
            if bad:
                raise DomainError(f"stress needs a cutoff t > 0, got {bad[0]!r}")
            _check_point(r, theta, z, ts[0])
        except ValueError as exc:  # a DomainError is a ValueError too
            out.append([exc.with_traceback(None)] * len(betas))
            continue
        out.append(None)
        live.append(k)
    if live:
        for k, entry in zip(live, _pass(kernel_for, z, [ladders[k] for k in live])):
            out[k] = entry
    return out


def _pass(kernel_for, z, ladders):
    """`_ladders` on valid ladders: one kernel evaluation, then each ladder's assembly.

    A ladder is assembled at its own betas only, and one whose assembly
    fails (``r * r`` underflows) meets its own error there.  When the
    kernel evaluation fails (the squared t-slope of the kernels' ``q``
    underflows, a derivative factor overflows), each half of the
    ladders is run on its own, and so on down to single ladders, so each
    meets its own outcome and a grid with one failing point costs about
    two passes, not one per ladder.  A component that comes out NaN is
    out of range too.  Errors are returned without their tracebacks,
    which would keep the batch alive.
    """
    ts_col, r_col, theta_col, geometry_col = [], [], [], []
    for geometry, r, theta, ts, _ in ladders:
        ts_col += ts
        r_col += [r] * len(ts)
        theta_col += [theta] * len(ts)
        geometry_col += [geometry] * len(ts)
    columns = {"t": ts_col, "r": r_col, "rp": r_col, "theta": theta_col,
               "thetap": theta_col, "z": [z] * len(ts_col), "zp": [z] * len(ts_col)}
    expr, mode = kernel_for(geometry_col)
    try:
        rows = _rungs(expr, columns, mode)
    except (DomainError, ArithmeticError) as exc:
        if len(ladders) > 1:
            half = len(ladders) // 2
            return (_pass(kernel_for, z, ladders[:half])
                    + _pass(kernel_for, z, ladders[half:]))
        if isinstance(exc, ArithmeticError):
            # the kernels' own FloatingPointError says why; Python's name their type
            why = str(exc) if type(exc) is FloatingPointError else type(exc).__name__
            exc = DomainError(_OUT_OF_RANGE.format(ladders[0][1], why))
        return [[exc.with_traceback(None)] * len(ladders[0][4])]
    out, start = [], 0
    for _, r, _, ts, betas in ladders:
        span = rows[start:start + len(ts)]
        start += len(ts)
        try:
            # r * r or a cutoff's t**4 fails alike at every beta
            per_beta = [_assemble(span, beta, mode) for beta in betas]
        except ArithmeticError as exc:
            out.append([DomainError(_OUT_OF_RANGE.format(r, type(exc).__name__))]
                       * len(betas))
            continue
        out.append([DomainError(_OUT_OF_RANGE.format(r, "NaN"))
                    if any(map(math.isnan, chain.from_iterable(rungs))) else rungs
                    for rungs in per_beta])
    return out


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
    be built from the `jets` dispatch functions, branching through
    `jets.agree` and `jets.split`.  This is the engine under
    `stress_at`, run on a ladder of one cutoff; it is exposed so
    independently constructed kernels (image sums, cross checks) can be
    pushed through the same assembly.
    """
    return StressTensor(*_at_cutoff(kernel_fn, renorm_mode, r, theta, z, beta, t),
                        renorm_mode=renorm_mode, cutoff_t=t)


def _at_cutoff(kernel_fn, renorm_mode, r, theta, z, beta, t):
    """The component tuple at one point and cutoff, from `_ladders` on a ladder of one."""
    ((rungs,),) = _ladders(lambda _: (kernel_fn, renorm_mode), z,
                           [(None, r, theta, [t], (beta,))])
    if isinstance(rungs, ValueError):
        raise rungs
    return rungs[0]


def _check_interior(geometry: Geometry, theta: float) -> None:
    if isinstance(geometry, Wedge) and not 0.0 < theta < geometry.theta0:
        raise DomainError(
            f"stress point theta={theta!r} must lie strictly inside "
            f"the wedge (0, {geometry.theta0!r})"
        )


def _kernel_for(geometry, renorm: RenormMode):
    """The kernel expression and subtraction mode that give ``renorm`` stress.

    ``geometry`` is a geometry, or a list of one kernel kind, the
    geometry of each batch element (see `kernel_expr`).  The stored
    wedge kernel is flat-part-free: kernel subtraction is the identity
    there, RAW adds the flat kernel back, and component subtraction is
    not defined.
    """
    first = geometry[0] if isinstance(geometry, list) else geometry
    _check_renorm(first, renorm)
    expr = kernel_expr(geometry)
    if not isinstance(first, Wedge):
        return expr, renorm
    if renorm is RenormMode.RAW:
        return (lambda **coords: expr(**coords) + minkowski_expr(**coords)), RenormMode.RAW
    return expr, RenormMode.RAW


def _check_renorm(geometry: Geometry, renorm: RenormMode) -> None:
    if isinstance(geometry, Wedge) and renorm is RenormMode.COMPONENT_SUBTRACTION:
        raise DomainError(
            "component subtraction is not defined for the wedge; "
            "its kernel is stored with the flat part already removed"
        )


def _kernel_subtraction(geometries):
    return _kernel_for(geometries, RenormMode.KERNEL_SUBTRACTION)


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

    For the wedge the point must lie strictly between the walls, and
    only KERNEL_SUBTRACTION and RAW are defined:
    the stored wedge kernel is flat-part-free, so kernel subtraction
    is the identity and RAW adds the flat kernel back.
    """
    _check_interior(geometry, theta)
    expr, mode = _kernel_for(geometry, renorm)
    return StressTensor(*_at_cutoff(expr, mode, r, theta, z, beta, t),
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


def _t0_cutoffs(geometry: Geometry, r, theta, betas) -> list:
    """The ladder of `stress_t0` at each beta in ``betas``, or the error it meets.

    `_t0_ladder` runs once; only the nonconformal near-wall check runs
    per beta, and it comes before every check of the ladder but the
    walls themselves.  The error is a DomainError, or the ValueError a
    `PointPair` raises for a point that is not valid; it comes without
    its traceback.
    """
    try:
        ts = _t0_ladder(geometry, r, theta)
    except ValueError as exc:  # a DomainError is a ValueError too
        ts = exc.with_traceback(None)
    gap = min(theta, geometry.theta0 - theta) if isinstance(geometry, Wedge) else math.inf
    out = []
    for beta in betas:
        if 0.0 < gap < 1e-3 and abs(beta - _CONFORMAL_BETA) > 1e-12:
            out.append(DomainError(
                "nonconformal wedge stress diverges at the walls; "
                f"theta={theta!r} is too close (gap {gap!r} < 1e-3)"
            ))
        else:
            out.append(ts)
    return out


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
    (ts,) = _t0_cutoffs(geometry, r, theta, (beta,))
    if isinstance(ts, ValueError):
        raise ts
    ((rungs,),) = _ladders(_kernel_subtraction, z, [(geometry, r, theta, ts, (beta,))])
    (limit,) = _limits([(ts, rungs)])
    if isinstance(limit, Exception):
        raise limit
    best, err = limit
    return ExtrapolatedStress(
        stress=StressTensor(*best, renorm_mode=RenormMode.KERNEL_SUBTRACTION, cutoff_t=0.0),
        error=dict(zip(COMPONENT_NAMES, err)),
    )


def stress_grid(points, z: float, t: float):
    """`stress_at` at cutoff ``t`` and `stress_t0` at every point, in blocks of points.

    ``points`` lists (geometry, r, theta, betas) entries whose
    geometries share one `kernels.kernel_kind`: cones of any angles,
    say, or wedges of any openings with one wall condition.  Every point
    of a block of `_GRID_POINTS` contributes its cutoff ``t`` and its
    `stress_t0` ladder to one `_stress_cells` call, so to one `_ladders`
    pass, with the angles as a batch column, and each ladder is assembled
    at its own point's couplings only; one `_limits` call then
    extrapolates every ladder of the block at every coupling.  Returns
    one ``(finite, limit)`` pair per point, each a list with one entry
    per beta of that point: the component tuple of what
    ``stress_at(geometry, r, theta, z, beta=beta, t=t)`` or
    ``stress_t0(geometry, r, theta, z, beta=beta).stress`` returns, bit
    for bit, or the DomainError or ConvergenceError it raises, without
    its traceback.  A point that is not valid raises its ValueError, as
    a `PointPair` does.
    """
    if len({kernel_kind(geometry) for geometry, *_ in points}) > 1:
        raise ValueError("a batch of geometries must share one kernel kind")
    out = []
    for start in range(0, len(points), _GRID_POINTS):
        cells = _stress_cells([(geometry, RenormMode.KERNEL_SUBTRACTION, r, theta, cutoff, betas)
                               for geometry, r, theta, betas in points[start:start + _GRID_POINTS]
                               for cutoff in (t, None)], z)
        for cell in chain.from_iterable(cells):
            if type(cell) is ValueError:
                raise cell
        out += zip(cells[::2], cells[1::2])
    return out


def _stress_cells(entries, z: float):
    """`stress_at`, `stress_from_kernel` or `stress_t0` at every entry, in one batch.

    An entry is (source, renorm, r, theta, t, betas): ``source`` a
    geometry, or a kernel expression as `stress_from_kernel` takes it,
    and ``t`` a cutoff, or None for the t -> 0 limit of `stress_t0` (a
    geometry, with ``renorm`` KERNEL_SUBTRACTION, the only mode
    `stress_t0` has).  The entries of one kernel kind (or one
    expression) and renorm mode share one `_ladders` pass, and every
    t -> 0 ladder one `_limits` call.  Returns per entry one cell per
    beta: the component tuple the per-entry call returns, bit for bit,
    or the error it raises, without its traceback.
    """
    cells, groups, limits = [], {}, []
    for k, (source, renorm, r, theta, t, betas) in enumerate(entries):
        expression = callable(source)
        try:
            if t is None:
                if renorm is not RenormMode.KERNEL_SUBTRACTION:
                    raise ValueError("the t -> 0 limit is of the kernel-subtracted "
                                     f"stress, not {renorm}")
                cell = _t0_cutoffs(source, r, theta, betas)
            else:
                if not expression:
                    _check_interior(source, theta)
                    _check_renorm(source, renorm)
                cell = [[t]] * len(betas)
        except ValueError as exc:
            cell = [exc.with_traceback(None)] * len(betas)
        cells.append(cell)  # per beta its error, or its cutoffs until the pass
        js = [j for j, ts in enumerate(cell) if type(ts) is list]
        if js:
            key = (source if expression else kernel_kind(source), renorm)
            group = groups.get(key)
            if group is None:
                group = groups[key] = ((lambda _, e=source, m=renorm: (e, m)) if expression
                                       else (lambda gs, m=renorm: _kernel_for(gs, m)), [], [])
            group[1].append((None if expression else source, r, theta, cell[js[0]],
                             [betas[j] for j in js]))
            group[2].append((k, js))
    for kernel_for, ladders, members in groups.values():
        for (k, js), ladder, entry in zip(members, ladders, _ladders(kernel_for, z, ladders)):
            limit = entries[k][4] is None
            for j, rungs in zip(js, entry):
                if isinstance(rungs, Exception):
                    cells[k][j] = rungs
                elif limit:
                    limits.append((k, j, ladder[3], rungs))
                else:
                    cells[k][j] = rungs[0]
    for (k, j, *_), limit in zip(limits, _limits([(ts, rungs) for *_, ts, rungs in limits])):
        cells[k][j] = limit if isinstance(limit, Exception) else limit[0]
    return cells


def _stress_points(points):
    """`_stress_cells` at z = 0, raising the first error, in point and then beta order.

    The per-point calls would meet that error first, so an oracle that
    batches its points fails as its point-by-point loop would.
    """
    out = _stress_cells(points, 0.0)
    for cell in chain.from_iterable(out):
        if isinstance(cell, Exception):
            raise cell
    return out


def conservation_residual(geometry: Geometry, r: float, beta: float = 0.0) -> float:
    """Relative residual of radial stress conservation at t -> 0.

    For the static, z-independent, azimuthally symmetric geometries the
    only nontrivial conservation law is

        d(t_rr)/dr + (t_rr - t_perp) / r = 0.

    The derivative is a central difference with step 0.01 r of the
    extrapolated stress, so the residual mostly measures the finite
    difference truncation, about 5e-4 for the r^-4 profiles here.
    Normalized by the largest component magnitude over r: individual
    pressures can vanish identically at special couplings (both
    t_rr and t_perp do on the half-turn cone at beta = 0), so the
    tensor's own scale is the only safe yardstick.  Zero when
    everything vanishes.
    """
    if not isinstance(geometry, (Minkowski, Cone, Dowker)):
        raise DomainError(
            "conservation_residual applies to the azimuthally symmetric "
            f"geometries only, not {type(geometry).__name__}"
        )
    h = 0.01 * r
    (mid,), (hi,), (lo,) = _stress_points(
        [(geometry, RenormMode.KERNEL_SUBTRACTION, x, 0.0, None, (beta,))
         for x in (r, r + h, r - h)])
    d_trr = (hi[1] - lo[1]) / (2.0 * h)
    resid = d_trr + (mid[1] - mid[2]) / r
    scale = max(abs(v) for v in mid) / r
    if scale < 1e-280:
        return 0.0 if abs(resid) < 1e-280 else math.inf
    return abs(resid) / scale
