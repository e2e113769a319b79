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
`stress_t0` through even-power Richardson extrapolation over a
halving ladder of cutoffs.

There is one engine: the kernel expression is evaluated once on
batched jets (see `jets`), one element per point pair, and assembled
elementwise, once per coupling.  `stress_t0` runs it on the whole
ladder; `stress_at` and `stress_from_kernel` run it on a batch of one
cutoff; `stress_grid` runs it once for a whole grid of points, each
contributing its finite cutoff and its ladder, and assembles every
coupling it is asked for from that one pass.  Batching changes no
bits: each element equals `stress_at` at its point and cutoff.  A
batch whose elements fall on different sides of a kernel branch is
split there and each part rerun (`jets.split`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import jets
from .errors import ConvergenceError, DomainError
from .geometry import Cone, Coupling, Dowker, Geometry, Minkowski, PointPair, Wedge
from .jets import IR, IRP, IT, ITHETA, ITHETAP, IZ, IZP
from .kernels import kernel_expr, minkowski_expr

# Double-precision epsilon times 3/(2 pi^2), the coefficient of the
# zero-point 1/t^4 piece that the renormalized assembly cancels.
_RUNG_NOISE = 3.4e-17

# Cutoffs in the default t -> 0 ladder.
_RUNGS = 6


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
    g, h = k.grad, k.hess
    columns = (g[IR], h[IT, IT], h[IR, IR], h[IR, IRP], h[IZ, IZ], h[IZ, IZP],
               h[ITHETA, ITHETA], h[ITHETA, ITHETAP])
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

    The kernel expression is evaluated once, on the batch of all
    ``pairs``, and assembled once per beta; the result holds one list
    per beta with one component tuple per pair.  Every element is bit
    for bit what a batch of one would give (see `jets`).
    """
    coords = jets.lift(pairs)
    k = kernel_fn(**coords)
    if renorm_mode is RenormMode.KERNEL_SUBTRACTION:
        k = k - minkowski_expr(**coords)
    rs = [p.r for p in pairs]
    out = [_assemble(k, rs, beta) for beta in betas]
    if renorm_mode is RenormMode.COMPONENT_SUBTRACTION:
        for rungs in out:
            for i, p in enumerate(pairs):
                zp = zero_point_stress(p.t)
                t00, t_rr, t_perp, t_zz = rungs[i]
                rungs[i] = (t00 - zp.t00, t_rr - zp.t_rr, t_perp - zp.t_perp,
                            t_zz - zp.t_zz)
    return out


def _check_cutoffs(ts) -> None:
    for t in ts:
        if not (math.isfinite(t) and t > 0):
            raise DomainError(f"stress needs a cutoff t > 0, got {t!r}")


def _pair(r, theta, z, t) -> PointPair:
    return PointPair(t=t, r=r, rp=r, theta=theta, thetap=theta, z=z, zp=z)


def _ladder_from_kernel(
    kernel_fn, r, theta, z, beta, ts, renorm_mode
) -> list[tuple[float, float, float, float]]:
    """Stress components at every cutoff in ``ts`` from one batched jet pass.

    A ladder rung equals the `stress_at` value at its cutoff.
    """
    _check_cutoffs(ts)
    (rungs,) = _rungs(kernel_fn, [_pair(r, theta, z, t) for t in ts], (beta,),
                      renorm_mode)
    return rungs


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
    `stress_at`, run on a batch of one cutoff; it is exposed so
    independently constructed kernels (image sums, cross checks) can be
    pushed through the same assembly.
    """
    (comps,) = _ladder_from_kernel(kernel_fn, r, theta, z, beta, [t], renorm_mode)
    return StressTensor(*comps, renorm_mode=renorm_mode, cutoff_t=t)


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
        wedge_expr = expr
        def full(**coords):
            return wedge_expr(**coords) + minkowski_expr(**coords)
        expr = full
    return expr, RenormMode.RAW


def _ladder(
    geometry: Geometry, r, theta, z, beta, ts, renorm: RenormMode
) -> list[StressTensor]:
    """Stress tensors of a geometry at every cutoff in ``ts``, in one pass."""
    _check_interior(geometry, theta)
    expr, mode = _kernel_for(geometry, renorm)
    rungs = _ladder_from_kernel(expr, r, theta, z, beta, ts, mode)
    return [
        StressTensor(*comps, renorm_mode=renorm, cutoff_t=t)
        for t, comps in zip(ts, rungs)
    ]


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
    (stress,) = _ladder(geometry, r, theta, z, beta, [t], renorm)
    return stress


@dataclass(frozen=True)
class ExtrapolatedStress:
    """Extrapolated t -> 0 stress with per-component error estimates."""

    stress: StressTensor
    error: dict[str, float]


def _richardson_even(
    values: list[float], noise: list[float] | None = None
) -> tuple[float, float, float]:
    """Extrapolate a sequence f(t0), f(t0/2), ... assuming even powers of t.

    Builds the standard tableau with ratio 4 per column and returns the
    entry with the smallest error score.  The score is the entry's
    disagreement with its two parents, floored by the roundoff ``noise``
    of the deepest rung feeding it: deep rungs suffer a deterministic
    cancellation bias that entire tableau columns inherit coherently,
    so parent agreement alone would make noise-dominated entries look
    spuriously converged.
    """
    n = len(values)
    if noise is None:
        noise = [0.0] * n
    tab = [list(values)]
    for j in range(1, n):
        fac = 4.0**j
        prev = tab[-1]
        tab.append(
            [(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)]
        )
    best = tab[0][-1]
    best_err = math.inf
    best_spread = math.inf
    for j in range(1, n):
        for i, v in enumerate(tab[j]):
            spread = max(abs(v - tab[j - 1][i + 1]), abs(v - tab[j - 1][i]))
            err = max(spread, noise[i + j])
            if err < best_err:
                best, best_err, best_spread = v, err, spread
    if not math.isfinite(best_err):
        best_err = best_spread = 0.0 if all(v == values[0] for v in values) else math.inf
    return best, best_err, best_spread



def _t0_cutoffs(geometry: Geometry, r, theta, beta, t0, rungs) -> list[float]:
    """The halving cutoff ladder of `stress_t0`, after its domain checks."""
    if rungs < 2:
        raise ValueError(f"need at least 2 rungs, got {rungs!r}")
    scale_len = r
    if isinstance(geometry, Wedge):
        gap = min(theta, geometry.theta0 - theta)
        if gap <= 0.0:
            raise DomainError(
                f"stress point theta={theta!r} must lie strictly inside "
                f"the wedge (0, {geometry.theta0!r})"
            )
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
    if t0 is None:
        t0 = scale_len / 4.0
    if not (math.isfinite(t0) and t0 > 0):
        raise DomainError(f"t0 must be positive, got {t0!r}")
    return [t0 / 2.0**k for k in range(rungs)]


def _extrapolate(rungs, ts) -> ExtrapolatedStress:
    """Richardson-extrapolate the component tuples of a cutoff ladder to t -> 0."""
    # Roundoff in a rung: the assembly cancels pieces on the scale of
    # the universal 1/t^4 zero-point part down to the renormalized
    # value, so each component carries about eps * 0.15 / t^4 of
    # deterministic cancellation bias.
    noise = [_RUNG_NOISE / tk**4 for tk in ts]
    best: dict[str, float] = {}
    err: dict[str, float] = {}
    spread: dict[str, float] = {}
    for i, name in enumerate(COMPONENT_NAMES):
        b, e, sp = _richardson_even([rung[i] for rung in rungs], noise)
        best[name], err[name], spread[name] = float(b), float(e), float(sp)
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


def stress_t0(
    geometry: Geometry,
    r: float,
    theta: float = 0.0,
    z: float = 0.0,
    *,
    beta: float = 0.0,
    t0: float | None = None,
    rungs: int = _RUNGS,
) -> ExtrapolatedStress:
    """Renormalized stress in the limit t -> 0.

    Evaluates the kernel-subtracted stress on the cutoff ladder
    t0, t0/2, ..., t0/2**(rungs-1), all rungs in one batched jet pass,
    and Richardson-extrapolates each component.  The default t0 is a quarter of the distance to the
    nearest geometric feature (the axis, or a wedge wall when that is
    closer), which keeps the ladder inside the region where the
    even-power expansion dominates while leaving the deepest rung
    above the cancellation noise, which grows like 1/t^4 and is
    accounted for in the tableau entry selection.

    Raises ConvergenceError when the tableau does not contract, and
    DomainError for wedge points so close to a wall that the
    nonconformal stress has no finite limit to extrapolate to.
    """
    ts = _t0_cutoffs(geometry, r, theta, beta, t0, rungs)
    _check_interior(geometry, theta)
    expr, mode = _kernel_for(geometry, RenormMode.KERNEL_SUBTRACTION)
    return _extrapolate(_ladder_from_kernel(expr, r, theta, z, beta, ts, mode), ts)


def stress_grid(geometry: Geometry, points, z: float, betas, t: float):
    """`stress_at` at cutoff ``t`` and `stress_t0` at every point, in one jet pass.

    ``points`` lists (r, theta) pairs.  Every point contributes its
    cutoff ``t`` and its `stress_t0` ladder to one batch, so the kernel
    expression is evaluated once for the whole grid and assembled once
    per beta in ``betas``.  Returns one ``(finite, limit)`` pair per
    point, each a list with one entry per beta: the tensor that
    ``stress_at(geometry, r, theta, z, beta=beta, t=t)`` or
    ``stress_t0(geometry, r, theta, z, beta=beta).stress`` returns, bit
    for bit, or the DomainError or ConvergenceError it raises.  Points
    are checked one by one before batching; if the batched pass itself
    raises DomainError or an arithmetic error, the points are evaluated
    one by one instead, so each meets its own outcome in grid order.
    Errors are returned without their tracebacks, which would keep the
    batch alive.
    """
    pairs: list[PointPair] = []
    plan = []
    for r, theta in points:
        try:
            _check_interior(geometry, theta)
            _check_cutoffs([t])
            finite = len(pairs)
            pairs.append(_pair(r, theta, z, t))
        except DomainError as exc:
            finite = exc.with_traceback(None)
        # The ladder does not depend on beta, only whether it is allowed.
        ts = start = None
        starts = []
        for beta in betas:
            try:
                ts = _t0_cutoffs(geometry, r, theta, beta, None, _RUNGS)
                _check_interior(geometry, theta)
                _check_cutoffs(ts)
            except DomainError as exc:
                starts.append(exc.with_traceback(None))
                continue
            if start is None:
                start = len(pairs)
                pairs.extend(_pair(r, theta, z, tk) for tk in ts)
            starts.append(start)
        plan.append((finite, starts, ts))
    rungs = None
    if pairs:
        try:
            expr, mode = _kernel_for(geometry, RenormMode.KERNEL_SUBTRACTION)
            rungs = _rungs(expr, pairs, betas, mode)
        except (DomainError, ArithmeticError):
            pass
        if rungs is None:
            return [_point_cells(geometry, r, theta, z, betas, t) for r, theta in points]
    out = []
    for finite, starts, ts in plan:
        if isinstance(finite, DomainError):
            finite_cells = [finite] * len(betas)
        else:
            finite_cells = [
                StressTensor(*per_beta[finite], renorm_mode=RenormMode.KERNEL_SUBTRACTION,
                             cutoff_t=t)
                for per_beta in rungs
            ]
        limit_cells = []
        for b, start in enumerate(starts):
            if isinstance(start, DomainError):
                limit_cells.append(start)
                continue
            try:
                limit_cells.append(
                    _extrapolate(rungs[b][start:start + len(ts)], ts).stress)
            except ConvergenceError as exc:
                limit_cells.append(exc.with_traceback(None))
        out.append((finite_cells, limit_cells))
    return out


def _point_cells(geometry: Geometry, r, theta, z, betas, t):
    """One `stress_grid` entry from the per-point functions."""
    finite, limit = [], []
    for beta in betas:
        try:
            finite.append(stress_at(geometry, r, theta, z, beta=beta, t=t))
        except DomainError as exc:
            finite.append(exc.with_traceback(None))
        try:
            limit.append(stress_t0(geometry, r, theta, z, beta=beta).stress)
        except (DomainError, ConvergenceError) as exc:
            limit.append(exc.with_traceback(None))
    return finite, limit


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
