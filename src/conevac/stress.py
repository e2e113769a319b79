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

There is one engine, `_ladders`: it takes any list of (r, theta,
cutoffs) ladders, evaluates the kernel expression once on batched jets
(see `jets`), one element per cutoff, and assembles elementwise, once
per coupling.  `stress_at` and `stress_from_kernel` run it on a ladder
of one cutoff, `stress_t0` on its six-cutoff ladder, and `stress_grid`
on a whole grid of points, each contributing its finite cutoff and its
ladder.  Batching changes no bits: each element equals `stress_at` at
its point and cutoff.  A batch whose elements fall on different sides
of a kernel branch is split there and each part rerun (`jets.split`);
a pass over several ladders that fails is rerun one ladder at a time,
so each ladder meets its own outcome.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import jets
from .errors import ConvergenceError, DomainError
from .geometry import Cone, Coupling, Dowker, Geometry, Minkowski, PointPair, Wedge
from .jets import IR, IRP, IT, ITHETA, ITHETAP, IZ, IZP
from .kernels import kernel_expr, minkowski_expr

# Double-precision epsilon times 3/(2 pi^2), the coefficient of the
# zero-point 1/t^4 piece that the renormalized assembly cancels.
_RUNG_NOISE = 3.4e-17

# Cutoffs in the t -> 0 ladder.
_RUNGS = 6

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
    return -stress.t00 + stress.t_rr + stress.t_perp + stress.t_zz


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


def _assemble(k, rs, beta: float):
    """Stress components from the jet of a kernel expression.

    ``rs`` holds the radius of each batch element.  Returns one
    (t00, t_rr, t_perp, t_zz) tuple per batch element.  The
    arithmetic runs on plain floats, element by element: it is the same
    IEEE arithmetic as on numpy values, cheaper than array operations
    for ladder-sized batches, and keeps numpy scalars out of the JSON
    serialization downstream.
    """
    h = k.hess_entry
    columns = (k.grad[IR], h(IT, IT), h(IR, IR), h(IR, IRP), h(IZ, IZ), h(IZ, IZP),
               h(ITHETA, ITHETA), h(ITHETA, ITHETAP))
    out = []
    for r, d_r, d_t2, d_r2, d_r_rp, d_z2, d_z_zp, d_th2, d_th_thp in zip(
        rs, *(c.tolist() for c in columns)
    ):
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
        out.append((t00, t_rr, t_perp, t_zz))
    return out


def _rungs(kernel_fn, pairs, betas, renorm_mode):
    """Stress components at every point pair, for every beta, from one jet pass.

    ``pairs`` is a batch as `jets.lift` takes it: a list of point pairs,
    or a dict of coordinate columns.  The kernel expression is
    evaluated once, on the whole batch, and assembled once per beta;
    the result holds one list per beta with one component tuple per
    pair.  Every element is bit for bit what a batch of one would give
    (see `jets`).  Near the axis the arrays meet infinities on the way to
    the error `_ladders` reports; numpy is kept quiet about them.
    """
    coords = jets.lift(pairs)
    with np.errstate(all="ignore"):
        k = kernel_fn(**coords)
        if renorm_mode is RenormMode.KERNEL_SUBTRACTION:
            k = k - minkowski_expr(**coords)
    rs = coords["r"].value.tolist()
    out = [_assemble(k, rs, beta) for beta in betas]
    if renorm_mode is RenormMode.COMPONENT_SUBTRACTION:
        for rungs in out:
            for i, t in enumerate(coords["t"].value.tolist()):
                zp = zero_point_stress(t)
                t00, t_rr, t_perp, t_zz = rungs[i]
                rungs[i] = (t00 - zp.t00, t_rr - zp.t_rr, t_perp - zp.t_perp,
                            t_zz - zp.t_zz)
    return out


def _check_point(r, theta, z, t) -> None:
    """Validate a stress point as a `PointPair` at cutoff t would."""
    # The test `PointPair` makes; the pair is built only to raise its error.
    if not (0.0 < r < math.inf and 0.0 <= t < math.inf
            and math.isfinite(theta) and math.isfinite(z)):
        PointPair(t=t, r=r, rp=r, theta=theta, thetap=theta, z=z, zp=z)


def _ladders(kernel_fn, mode, z, betas, ladders):
    """Stress components on every (r, theta, cutoffs) ladder, from one jet pass.

    Returns, per ladder, one entry per beta: the component tuple of each
    of its cutoffs, or the ladder's own DomainError (a cutoff that is not
    positive, or a stress that leaves the range of doubles: ``r * r``
    or the squared t-slope of the kernels' ``q`` underflows, a
    derivative factor overflows, a component comes out NaN).  A point
    that is not valid raises ValueError, as a `PointPair` does.  When
    the pass over several ladders fails, each ladder is run
    alone, so each meets its own outcome.  Errors are returned without
    their tracebacks, which would keep the batch alive.
    """
    out = []
    ts_col, r_col, theta_col = [], [], []
    for r, theta, ts in ladders:
        bad = [t for t in ts if not (math.isfinite(t) and t > 0)]
        if bad:
            exc = DomainError(f"stress needs a cutoff t > 0, got {bad[0]!r}")
            out.append([exc] * len(betas))
            continue
        _check_point(r, theta, z, ts[0])
        # The kernels differentiate sqrt(q), q = (chordal distance / 2)^2 /
        # (r rp), whose t-slope at a coincident pair is t / (2 r^2).  Where
        # that slope squared underflows, the chain rule's f'' (dq/dt)^2 term
        # loses its bits against a huge f'', and d^2 sqrt(q) / dt^2 (exactly
        # 0) comes out O(1) wrong.
        slope = min(ts) / (2.0 * r) / r
        if slope * slope < sys.float_info.min:
            exc = DomainError(_OUT_OF_RANGE.format(r, "t / (2 r**2) squared underflows"))
            out.append([exc] * len(betas))
            continue
        out.append(None)
        ts_col += ts
        r_col += [r] * len(ts)
        theta_col += [theta] * len(ts)
    if not ts_col:
        return out
    columns = {"t": ts_col, "r": r_col, "rp": r_col, "theta": theta_col,
               "thetap": theta_col, "z": [z] * len(ts_col), "zp": [z] * len(ts_col)}
    try:
        per_beta = _rungs(kernel_fn, columns, betas, mode)
    except (DomainError, ArithmeticError) as exc:
        if len(ladders) > 1:
            return [_ladders(kernel_fn, mode, z, betas, [ladder])[0] for ladder in ladders]
        if isinstance(exc, ArithmeticError):
            exc = DomainError(_OUT_OF_RANGE.format(ladders[0][0], type(exc).__name__))
        return [[exc.with_traceback(None)] * len(betas)]
    start = 0
    for k, (r, _, ts) in enumerate(ladders):
        if out[k] is None:
            spans = [rungs[start:start + len(ts)] for rungs in per_beta]
            out[k] = [DomainError(_OUT_OF_RANGE.format(r, "NaN"))
                      if any(map(math.isnan, chain.from_iterable(span))) else span
                      for span in spans]
            start += len(ts)
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
    ((rungs,),) = _ladders(kernel_fn, renorm_mode, z, (beta,), [(r, theta, [t])])
    if isinstance(rungs, DomainError):
        raise rungs
    return StressTensor(*rungs[0], renorm_mode=renorm_mode, cutoff_t=t)


def _check_interior(geometry: Geometry, theta: float) -> None:
    if isinstance(geometry, Wedge) and not 0.0 < theta < geometry.theta0:
        raise DomainError(
            f"stress point theta={theta!r} must lie strictly inside "
            f"the wedge (0, {geometry.theta0!r})"
        )


def _kernel_for(geometry: Geometry, renorm: RenormMode):
    """The kernel expression and subtraction mode that give ``renorm`` stress.

    The stored wedge kernel is flat-part-free: kernel subtraction is
    the identity there, RAW adds the flat kernel back, and component
    subtraction is not defined.
    """
    expr = kernel_expr(geometry)
    if not isinstance(geometry, Wedge):
        return expr, renorm
    if renorm is RenormMode.COMPONENT_SUBTRACTION:
        raise DomainError(
            "component subtraction is not defined for the wedge; "
            "its kernel is stored with the flat part already removed"
        )
    if renorm is RenormMode.RAW:
        return (lambda **coords: expr(**coords) + minkowski_expr(**coords)), RenormMode.RAW
    return expr, RenormMode.RAW


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
    stress = stress_from_kernel(expr, r, theta, z, beta=beta, t=t, renorm_mode=mode)
    return replace(stress, renorm_mode=renorm)


@dataclass(frozen=True)
class ExtrapolatedStress:
    """Extrapolated t -> 0 stress with per-component error estimates."""

    stress: StressTensor
    error: dict[str, float]


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
    entries, spreads, scores = [], [], []
    prev = values
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(1, values.shape[1]):
            fac = 4.0**j
            col = (fac * prev[:, 1:] - prev[:, :-1]) / (fac - 1.0)
            a, b = np.abs(col - prev[:, 1:]), np.abs(col - prev[:, :-1])
            spread = np.where(b > a, b, a)
            floor = noise[:, j:]
            entries.append(col)
            spreads.append(spread)
            scores.append(np.where(floor > spread, floor, spread))
            prev = col
    entries, spreads = np.hstack(entries), np.hstack(spreads)
    scores = np.hstack(scores)
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


def _t0_cutoffs(geometry: Geometry, r, theta, beta) -> list[float]:
    """The halving cutoff ladder of `stress_t0`, after its domain checks."""
    scale_len = r
    if isinstance(geometry, Wedge):
        gap = min(theta, geometry.theta0 - theta)
        if gap <= 0.0:
            _check_interior(geometry, theta)  # raises: theta is on or past a wall
        if abs(beta - Coupling.conformal().beta) > 1e-12 and gap < 1e-3:
            raise DomainError(
                "nonconformal wedge stress diverges at the walls; "
                f"theta={theta!r} is too close (gap {gap!r} < 1e-3)"
            )
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


def _extrapolate(best, err, spread) -> ExtrapolatedStress:
    """The t -> 0 stress from the `_richardson` rows of one ladder's components."""
    best = dict(zip(COMPONENT_NAMES, best.tolist()))
    err = dict(zip(COMPONENT_NAMES, err.tolist()))
    spread = dict(zip(COMPONENT_NAMES, spread.tolist()))
    scale = max(abs(v) for v in best.values())
    for name in COMPONENT_NAMES:
        # err exceeding the spread means the chosen entry is accurate
        # to the roundoff model rather than to tableau disagreement:
        # the ladder contracted below the noise it carries, which is
        # convergence, just with a noise-dominated error bar.  Only a
        # spread that is both above the noise and a sizable fraction of
        # the answer marks a tableau that never settled.
        if err[name] > spread[name]:
            continue
        if spread[name] > 0.25 * max(abs(best[name]), 0.05 * scale):
            raise ConvergenceError(
                f"t -> 0 extrapolation did not converge for {name}: "
                f"value {best[name]!r}, error estimate {err[name]!r}"
            )
    return ExtrapolatedStress(
        stress=StressTensor(
            t00=best["t00"], t_rr=best["t_rr"], t_perp=best["t_perp"],
            t_zz=best["t_zz"],
            renorm_mode=RenormMode.KERNEL_SUBTRACTION, cutoff_t=0.0,
        ),
        error=err,
    )


def _limits(ladders):
    """The t -> 0 limit of every (cutoffs, rungs) ladder, from one tableau.

    Every component of every ladder is one row of a single `_richardson`
    call.  Returns per ladder its `ExtrapolatedStress`, or its
    ConvergenceError; a ladder whose rungs are a DomainError keeps it.
    """
    out = [rungs for _, rungs in ladders]
    live = [k for k, rungs in enumerate(out) if not isinstance(rungs, DomainError)]
    if not live:
        return out
    m = len(COMPONENT_NAMES)
    values = np.array([out[k] for k in live])
    noise = np.repeat([_noise(ladders[k][0]) for k in live], m, axis=0)
    best, err, spread = _richardson(
        values.transpose(0, 2, 1).reshape(len(live) * m, values.shape[1]), noise)
    for j, k in enumerate(live):
        rows = slice(j * m, (j + 1) * m)
        try:
            out[k] = _extrapolate(best[rows], err[rows], spread[rows])
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
    ts = _t0_cutoffs(geometry, r, theta, beta)
    expr, mode = _kernel_for(geometry, RenormMode.KERNEL_SUBTRACTION)
    ((rungs,),) = _ladders(expr, mode, z, (beta,), [(r, theta, ts)])
    (limit,) = _limits([(ts, rungs)])
    if isinstance(limit, Exception):
        raise limit
    return limit


def stress_grid(geometry: Geometry, points, z: float, betas, t: float):
    """`stress_at` at cutoff ``t`` and `stress_t0` at every point, in one jet pass.

    ``points`` lists (r, theta) pairs.  Every point contributes its
    cutoff ``t`` and its `stress_t0` ladder to one `_ladders` pass, so
    the kernel expression is evaluated once for the whole grid and
    assembled once per beta in ``betas``.  Returns one ``(finite,
    limit)`` pair per point, each a list with one entry per beta: the
    tensor that ``stress_at(geometry, r, theta, z, beta=beta, t=t)`` or
    ``stress_t0(geometry, r, theta, z, beta=beta).stress`` returns, bit
    for bit, or the DomainError or ConvergenceError it raises, without
    its traceback.
    """
    expr, mode = _kernel_for(geometry, RenormMode.KERNEL_SUBTRACTION)
    ladders, plan = [], []
    for r, theta in points:
        # Each cell is the index of its ladder, or the DomainError of its plan.
        try:
            _check_interior(geometry, theta)
            finite = len(ladders)
            ladders.append((r, theta, [t]))
        except DomainError as exc:
            finite = exc.with_traceback(None)
        limit, ts = [], None
        for beta in betas:
            # The ladder does not depend on beta, only whether it is allowed.
            try:
                ts = _t0_cutoffs(geometry, r, theta, beta)
                limit.append(len(ladders))
            except DomainError as exc:
                limit.append(exc.with_traceback(None))
        if ts is not None:
            ladders.append((r, theta, ts))
        plan.append((finite, limit))
    results = _ladders(expr, mode, z, betas, ladders)

    def pick(cell, b):
        """(cutoffs, rungs at the b-th beta) of a cell, or (None, its error)."""
        if isinstance(cell, DomainError):
            return None, cell
        return ladders[cell][2], results[cell][b]

    out = [([], []) for _ in points]
    for b in range(len(betas)):
        # One tableau per beta over every ladder of the grid.
        limits = _limits([pick(limit[b], b) for _, limit in plan])
        for (finite, _), (finite_cells, limit_cells), lim in zip(plan, out, limits):
            _, rungs = pick(finite, b)
            finite_cells.append(rungs if isinstance(rungs, DomainError) else StressTensor(
                *rungs[0], renorm_mode=RenormMode.KERNEL_SUBTRACTION, cutoff_t=t))
            limit_cells.append(lim if isinstance(lim, Exception) else lim.stress)
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
    mid = stress_t0(geometry, r, beta=beta).stress
    hi = stress_t0(geometry, r + h, beta=beta).stress
    lo = stress_t0(geometry, r - h, beta=beta).stress
    d_trr = (hi.t_rr - lo.t_rr) / (2.0 * h)
    resid = d_trr + (mid.t_rr - mid.t_perp) / r
    scale = max(abs(v) for v in mid.components().values()) / r
    if scale < 1e-280:
        return 0.0 if abs(resid) < 1e-280 else math.inf
    return abs(resid) / scale
