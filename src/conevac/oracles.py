"""Independent numerical cross checks for the kernels and the stress.

Every closed form and every derivative path in this package is checked
here against a structurally different computation: finite differences
for jets, image sums and mode sums for the cone, Cartesian reflections
for the wedge, direct quadrature for the dimensional reduction, exact
invariances (scaling, coupling affinity, conservation, tracelessness)
for the assembled stress.  Each check draws its own deterministic
random points and reports the worst relative error it saw.

With `checks`, whose independent numerics it uses, this is the check
tier; the production tier (`kernels`, `jets`, `stress`) never imports it.

An oracle evaluates its points in one batch wherever that keeps every
bit of the per-point calls: all its draws come first, in the order
the per-point loop made them, then the stresses go through
`_stress_points` (one `stress._stress_cells` call: one jet pass per
kernel kind and renorm mode, one t -> 0 tableau), the 3D average's
offsets through one
quadrature (`checks._tbar_3d_many`), and each image sum is one numpy
expression.  Float kernel values at many points (the finite-difference
stencils of `jet_fd`, the z-integrand of `threedim_reduction`) come from
one value-only batched jet pass (`_kernel_values`).  The mode sum stays
point by point: its Bessel recurrence starts at an order set by the
largest argument in the call, so a batch would move its bits.

The stress instruments that only the oracles and the tests use,
`_stress_points` and `conservation_residual`, live here, out of the
production tier.

Run everything with `run_oracle_suite`; the CLI exposes the same suite
as the `verify` subcommand.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from . import SUITE_VERSION, jets, kernels  # SUITE_VERSION: the suite's, importable here too
from .checks import (
    CartesianSeparation,
    _tbar_3d_many,
    integrate_gk21,
    tbar_3d,
    tbar_3d_theta_average,
    tbar_cone_via_images,
    tbar_modesum_4d,
    tbar_periodic_line,
    tbar_periodic_line_closed,
    u_of_pair,
)
from .errors import DomainError
from .geometry import (
    BoundaryCondition,
    Cone,
    Coupling,
    Dowker,
    Geometry,
    Minkowski,
    PointPair,
    Wedge,
)
from .kernels import _mink_term, _tbar, kernel_expr, tbar_cone, tbar_dowker, tbar_wedge
from .stress import RenormMode, _stress_cells, _trace, zero_point_stress


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one named cross check."""

    name: str
    points_tested: int
    max_rel_err: float
    tolerance: float
    passed: bool


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


_KERNEL = RenormMode.KERNEL_SUBTRACTION
_CONFORMAL = Coupling.conformal().beta


def _stress_rel(s1, s2) -> float:
    """Worst component difference normalized by the largest component.

    ``s1`` and ``s2`` are component tuples (t00, t_rr, t_perp, t_zz).
    """
    scale = max(max(abs(v) for v in s1), max(abs(v) for v in s2))
    if scale == 0.0:
        return 0.0
    return max(abs(a - b) for a, b in zip(s1, s2)) / scale


def _stress_points(points):
    """`_stress_cells`, raising the first error, in point and then beta order.

    The per-point calls would meet that error first, so an oracle that
    batches its points fails as its point-by-point loop would.  A t -> 0
    cell gives its components only.
    """
    out = _stress_cells(points)
    for cell in chain.from_iterable(out):
        if isinstance(cell, Exception):
            raise cell
    return [cells if point[5] is not None else [limit[0] for limit in cells]
            for point, cells in zip(points, out)]


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
        [(geometry, RenormMode.KERNEL_SUBTRACTION, x, 0.0, 0.0, None, (beta,))
         for x in (r, r + h, r - h)])
    d_trr = (hi[1] - lo[1]) / (2.0 * h)
    resid = d_trr + (mid[1] - mid[2]) / r
    scale = max(abs(v) for v in mid) / r
    if scale < 1e-280:
        return 0.0 if abs(resid) < 1e-280 else math.inf
    return abs(resid) / scale


def _sample_pair(
    rng,
    u_lo: float,
    u_hi: float,
    *,
    dtheta: float = 0.0,
    t_lo: float = 0.05,
    t_hi: float = 1.2,
    z_span: float = 0.8,
    theta: float | None = None,
    thetap: float | None = None,
) -> PointPair:
    """Random pair whose hyperbolic separation lands in [u_lo, u_hi]."""
    if theta is None:
        theta, thetap = dtheta, 0.0
    for _ in range(10000):
        pair = PointPair(
            t=float(rng.uniform(t_lo, t_hi)),
            r=float(rng.uniform(0.4, 2.2)),
            rp=float(rng.uniform(0.4, 2.2)),
            theta=theta,
            thetap=thetap,
            z=float(rng.uniform(-z_span, z_span)),
            zp=0.0,
        )
        if u_lo <= u_of_pair(pair).u <= u_hi:
            return pair
    raise RuntimeError("pair sampler failed to hit the requested u range")


# ---------------------------------------------------------------------------
# Finite difference machinery (three-level Richardson on even error powers).


def _fd3(d):
    """Richardson's extrapolation of the differences ``d`` at the steps h, h/2
    and h/4 (rows 0-2; elementwise on arrays)."""
    a, b, c = d
    ab = (4.0 * b - a) / 3.0
    bc = (4.0 * c - b) / 3.0
    return (16.0 * bc - ab) / 15.0


@dataclass(frozen=True)
class UConsistencyReport:
    """Cross-check of four textbook expressions for u on one pair."""

    values: dict[str, float]
    max_abs_diff: float
    max_rel_diff: float


def u_consistency(pair: PointPair) -> UConsistencyReport:
    """Evaluate four algebraically equal forms of u and compare them.

    The forms are evaluated exactly as written, without rearrangement,
    so the spread measures how much the naive expressions lose to
    cancellation relative to one another.  The pair must be separated:
    two of the forms are singular expressions at u = 0.
    """
    if pair.is_coincident():
        raise ValueError("u_consistency requires a separated pair")
    r, rp = pair.r, pair.rp
    zeta_sq = pair.t**2 + (pair.z - pair.zp) ** 2

    r1 = math.sqrt((r - rp) ** 2 + zeta_sq)
    r2 = math.sqrt((r + rp) ** 2 + zeta_sq)
    s = r * r + rp * rp + zeta_sq

    values = {
        "half_angle": u_of_pair(pair).u,
        "log_ratio": -math.log((r2 - r1) / (r2 + r1)),
        "acosh": math.acosh(s / (2.0 * r * rp)),
        "asinh": math.asinh(math.sqrt(s * s - 4.0 * r * r * rp * rp) / (2.0 * r * rp)),
    }
    vals = list(values.values())
    max_abs = max(abs(a - b) for a in vals for b in vals)
    scale = max(abs(v) for v in vals)
    return UConsistencyReport(
        values=values,
        max_abs_diff=max_abs,
        max_rel_diff=max_abs / scale if scale > 0 else 0.0,
    )


def _oracle_u_consistency(rng) -> OracleReport:
    tol = 1e-10
    worst = 0.0
    n = 30
    for _ in range(n):
        pair = _sample_pair(rng, 0.05, 3.0, dtheta=float(rng.uniform(-2, 2)))
        worst = max(worst, u_consistency(pair).max_rel_diff)
    return OracleReport("u_consistency_forms", n, worst, tol, worst <= tol)


def _minus_flat(expr):
    """The kernel-subtracted expression, whose jet `stress._rungs` differentiates."""
    def minus_flat(t, r, rp, theta, thetap, z, zp):
        return (expr(t, r, rp, theta, thetap, z, zp)
                - kernels.minkowski_expr(t, r, rp, theta, thetap, z, zp))
    return minus_flat


# The expressions `jet_fd` differentiates: flat space, two cones, the
# sheet and the kernel-subtracted wedges, both walls.
_JET_FD_CASES = (
    kernels.minkowski_expr,
    kernel_expr(Cone(1.8 * math.pi)),
    kernel_expr(Cone(0.6 * math.pi)),
    kernels.dowker_expr,
    _minus_flat(kernel_expr(Wedge(0.5 * math.pi, BoundaryCondition.DIRICHLET))),
    _minus_flat(kernel_expr(Wedge(0.7 * math.pi, BoundaryCondition.NEUMANN))),
)


_FD_S = np.array([1.0, 0.5, 0.25])  # the step multiples of `_fd3`'s rows
_DIAG = np.arange(len(jets.COORDS))
_UPPER_I, _UPPER_J = np.triu_indices(len(jets.COORDS), 1)  # the pairs i < j
# the (i, j) entries of jets.ALL_PAIRS, in its order
_ALL_I, _ALL_J = np.array(jets.ALL_PAIRS.pairs).T


def _fd_steps(pair: PointPair) -> np.ndarray:
    """The finite-difference step of each coordinate at ``pair``, in
    `jets.COORDS` order (t, r, rp, theta, thetap, z, zp)."""
    ell = math.sqrt((pair.r - pair.rp) ** 2 + (pair.z - pair.zp) ** 2 + pair.t**2)
    step = ell / 32.0
    return np.array([min(step, 0.45 * pair.t), step, step, 0.02, 0.02, step, step])


def _fd_points(pair: PointPair) -> np.ndarray:
    """Every point the central differences at ``pair`` read, once each: (295, 7).

    Row 0 is the pair; then, for each step multiple s, coordinate i and
    sign, the pair with coordinate i moved by s h_i (42 rows, which the
    gradient and the Hessian's diagonal share); then, for each s, pair
    i < j and signs (+ +, + -, - +, - -), the pair with both moved (252
    rows).  A moved coordinate is base + s h or base - s h, as a float
    call would compute it.
    """
    base = np.array([getattr(pair, name) for name in jets.COORDS])
    sh = _FD_S[:, None] * _fd_steps(pair)  # (3, 7)
    moved = np.stack([base + sh, base - sh], axis=2)  # [s, i, sign]
    single = np.broadcast_to(base, (3, 7, 2, 7)).copy()
    single[:, _DIAG, :, _DIAG] = moved.transpose(1, 0, 2)
    corner = np.broadcast_to(base, (3, 21, 2, 2, 7)).copy()
    corner[:, np.arange(21), :, :, _UPPER_I] = moved[:, _UPPER_I, :, None].transpose(1, 0, 2, 3)
    corner[:, np.arange(21), :, :, _UPPER_J] = moved[:, _UPPER_J, None, :].transpose(1, 0, 2, 3)
    return np.concatenate([base[None], single.reshape(-1, 7), corner.reshape(-1, 7)])


def _fd_derivatives(values, pair: PointPair):
    """The gradient and the Hessian's upper triangle, in `jets.ALL_PAIRS`
    order, from the function's ``values`` on `_fd_points` (pair).

    Each entry is `_fd3` of the central differences, with the operations
    of their float forms: (f(+) - f(-)) / (2 s h), (f(+) - 2 f(0) + f(-))
    / (s h)^2 and (f(++) - f(+-) - f(-+) + f(--)) / (4 s s h_i h_j).
    """
    h = _fd_steps(pair)
    sh = _FD_S[:, None] * h
    f0 = values[0]
    single = values[1:43].reshape(3, 7, 2)
    corner = values[43:].reshape(3, 21, 4)
    up, down = single[..., 0], single[..., 1]
    grad = _fd3((up - down) / ((2.0 * _FD_S)[:, None] * h))
    hess = np.empty((7, 7))
    hess[_DIAG, _DIAG] = _fd3((up - 2.0 * f0 + down) / jets._power(sh.ravel(), 2).reshape(3, 7))
    hess[_UPPER_I, _UPPER_J] = _fd3(
        (corner[..., 0] - corner[..., 1] - corner[..., 2] + corner[..., 3])
        / ((4.0 * _FD_S * _FD_S)[:, None] * h[_UPPER_I] * h[_UPPER_J]))
    return grad, hess[_ALL_I, _ALL_J]


_NO_ENTRIES = jets.Pairs(())


def _kernel_values(expr, rows) -> np.ndarray:
    """``expr`` at every row of ``rows`` ((n, 7), in `jets.COORDS` order).

    One value-only batched jet pass (`jets.Pairs` of no entries): each
    element is the float call's value, bit for bit.
    """
    return expr(**jets.lift(dict(zip(jets.COORDS, rows.T)), _NO_ENTRIES)).value


def _oracle_jet_fd(rng) -> OracleReport:
    """Each expression's jet against finite differences at two pairs.

    The stencils of both pairs are one value-only batched jet pass
    (`jets.Pairs` of no entries), whose elements are the float kernel's
    values bit for bit, and each difference has the operations of its
    float form.
    """
    tol = 1e-6
    worst = 0.0
    count = 0
    for expr in _JET_FD_CASES:
        pairs = [_sample_pair(
            rng, 0.5, 1.2,
            theta=float(rng.uniform(0.35, 1.05)),
            thetap=float(rng.uniform(0.25, 1.15)),
            t_lo=0.3, t_hi=0.9,
        ) for _ in range(2)]
        values = _kernel_values(expr, np.concatenate([_fd_points(pair) for pair in pairs]))
        jet = expr(**jets.lift(pairs, jets.ALL_PAIRS))
        for k, pair in enumerate(pairs):
            grad, hess = _fd_derivatives(values.reshape(len(pairs), -1)[k], pair)
            for exact, fd in ((jet.grad[:, k], grad), (jet.hess[:, k], hess)):
                scale = 0.01 * np.abs(exact).max()
                worst = max(worst, float((np.abs(exact - fd) / np.fmax(np.abs(exact), scale)).max()))
                count += len(fd)
    return OracleReport("jet_fd", count, float(worst), tol, bool(worst <= tol))


def _oracle_cone_image_sum(rng) -> OracleReport:
    tol = 1e-8
    worst = 0.0
    n = 50
    for _ in range(n):
        theta1 = float(np.exp(rng.uniform(math.log(math.pi / 4), math.log(8 * math.pi))))
        pair = _sample_pair(
            rng, 0.05, 2.5, dtheta=float(rng.uniform(-0.45, 0.45)) * theta1
        )
        closed = tbar_cone(pair, theta1)
        imaged = tbar_cone_via_images(pair, theta1, n_images=1000)
        worst = max(worst, _rel(imaged.value, closed))
    return OracleReport("cone_image_sum", n, worst, tol, worst <= tol)


def _oracle_cone_mode_sum(rng) -> OracleReport:
    tol = 1e-6
    worst = 0.0
    angles = [math.pi / 4, math.pi / 2, 1.3 * math.pi, 2.0 * math.pi, 3.0 * math.pi]
    n = 10
    for k in range(n):
        theta1 = angles[k % len(angles)]
        pair = _sample_pair(
            rng, 0.3, 1.5,
            dtheta=float(rng.uniform(-0.4, 0.4)) * theta1,
            t_lo=0.3, t_hi=0.8, z_span=0.8,
        )
        closed = tbar_cone(pair, theta1)
        summed = tbar_modesum_4d(pair, theta1)
        worst = max(worst, _rel(summed, closed))
    return OracleReport("cone_mode_sum", n, worst, tol, worst <= tol)


def _plane_images(pair: PointPair, sign: int, quarter: bool) -> float:
    # Flat kernels at the primed point and its reflection across the
    # wall y = 0 (half plane); a right wedge (quarter plane) adds the
    # reflections across x = 0.
    x = pair.r * math.cos(pair.theta)
    y = pair.r * math.sin(pair.theta)
    xp = pair.rp * math.cos(pair.thetap)
    yp = pair.rp * math.sin(pair.thetap)
    dz2 = (pair.z - pair.zp) ** 2

    def term(xi, yi):
        d2 = pair.t**2 + (x - xi) ** 2 + (y - yi) ** 2 + dz2
        return -1.0 / (2.0 * math.pi**2 * d2)

    total = term(xp, yp) + sign * term(xp, -yp)
    if quarter:
        # left to right, not total += (...): the sum order fixes the bits
        total = total + sign * term(-xp, yp) + term(-xp, -yp)
    return total


def _right_wedge_image_expr(sign: int):
    # Renormalized right wedge out of three flat images: the doubled
    # cone at 2 theta0 = pi splits into flat kernels at dth and dth + pi.
    def expr(t, r, rp, theta, thetap, z, zp):
        return (
            _mink_term(t, r, rp, theta - thetap + math.pi, z, zp)
            + sign * _mink_term(t, r, rp, theta + thetap, z, zp)
            + sign * _mink_term(t, r, rp, theta + thetap + math.pi, z, zp)
        )
    return expr


def _oracle_wedge_images(rng) -> OracleReport:
    tol = 1e-8
    worst = 0.0
    count = 0
    for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
        sign = bc.image_sign
        # Kernel against Cartesian reflections, right wedge.
        theta0 = 0.5 * math.pi
        for _ in range(6):
            pair = _sample_pair(
                rng, 0.1, 2.0,
                theta=float(rng.uniform(0.08, theta0 - 0.08)),
                thetap=float(rng.uniform(0.08, theta0 - 0.08)),
            )
            full = tbar_wedge(pair, theta0, bc)
            worst = max(worst, _rel(full, _plane_images(pair, sign, quarter=True)))
            count += 1
        # Kernel against a single reflection, half plane.
        for _ in range(4):
            pair = _sample_pair(
                rng, 0.1, 2.0,
                theta=float(rng.uniform(0.1, math.pi - 0.1)),
                thetap=float(rng.uniform(0.1, math.pi - 0.1)),
            )
            full = tbar_wedge(pair, math.pi, bc)
            worst = max(worst, _rel(full, _plane_images(pair, sign, quarter=False)))
            count += 1
        # Stress against the image-built kernel expression.
        imaged = _right_wedge_image_expr(sign)
        points = []
        for _ in range(4):
            r = float(rng.uniform(0.7, 2.0))
            th = float(rng.uniform(0.15, theta0 - 0.15))
            beta = float(rng.uniform(-0.3, 0.3))
            t = 0.4 * r
            points.append((imaged, RenormMode.RAW, r, th, 0.0, t, (beta,)))
            points.append((Wedge(theta0, bc), _KERNEL, r, th, 0.0, t, (beta,)))
        stresses = _stress_points(points)
        for (via_images,), (direct,) in zip(stresses[::2], stresses[1::2]):
            worst = max(worst, _stress_rel(via_images, direct))
            count += 1
    return OracleReport("wedge_images", count, worst, tol, worst <= tol)


def _oracle_periodic_line(rng) -> OracleReport:
    tol = 1e-8
    worst = 0.0
    n = 20
    for _ in range(n):
        sep = CartesianSeparation(
            t=float(rng.uniform(0.1, 1.0)),
            dx=float(rng.uniform(-1.5, 1.5)),
            dy=float(rng.uniform(-1.0, 1.0)),
            dz=float(rng.uniform(-1.0, 1.0)),
        )
        period = float(rng.uniform(0.5, 3.0))
        closed = tbar_periodic_line_closed(sep, period)
        imaged = tbar_periodic_line(sep, period, n_images=1000)
        worst = max(worst, _rel(imaged.value, closed))
    return OracleReport("periodic_line", n, worst, tol, worst <= tol)


def _oracle_threedim_reduction(rng) -> OracleReport:
    """`tbar_3d` against the z' integral of the cone kernel, at five angles.

    The five integrals are one `integrate_gk21` call, each its own
    interval, so each level of the quadrature is one value-only batched
    pass of `tbar_cone`'s expression (`_kernel_values`, the angle a
    column) over the nodes of every angle.
    """
    tol = 1e-6
    worst = 0.0
    angles = [0.7 * math.pi, 1.25 * math.pi, 1.6 * math.pi, 2.0 * math.pi,
              3.1 * math.pi]
    pairs, reduced = [], []
    for theta1 in angles:
        t = float(rng.uniform(0.4, 1.0))
        r = float(rng.uniform(0.7, 1.8))
        rp = float(rng.uniform(0.7, 1.8))
        dth = float(rng.uniform(0.2, 0.9))
        pairs.append([t, r, rp, dth, 0.0, 0.0, 0.0])
        reduced.append(tbar_3d(t, r, rp, dth, theta1))
    pairs = np.array(pairs)
    cones = [Cone(theta1) for theta1 in angles]

    def f(dz, k):
        # row k of dz lies in the integral of angle k, on that angle's pair
        at = np.repeat(k, dz.shape[1])
        rows = pairs[at]
        rows[:, jets.IZ] = dz.ravel()
        expr = kernel_expr([cones[i] for i in at.tolist()])
        return _kernel_values(expr, rows).reshape(dz.shape)

    z_integrals = integrate_gk21(f, [-np.inf] * len(angles), [np.inf] * len(angles),
                                 epsabs=1e-12, epsrel=1e-10, limit=400)
    for z_integral, ref in zip(z_integrals.tolist(), reduced):
        worst = max(worst, _rel(z_integral, ref))
    return OracleReport("threedim_reduction", len(angles), worst, tol, worst <= tol)


def _oracle_threedim_average(rng) -> OracleReport:
    tol = 1e-7
    worst = 0.0
    cases = [(0.8 * math.pi,), (1.7 * math.pi,), (2.6 * math.pi,)]
    n_nodes = 64
    for (theta1,) in cases:
        t = float(rng.uniform(0.6, 1.0))
        r = float(rng.uniform(0.9, 1.5))
        rp = float(rng.uniform(0.7, 1.2))
        nodes = [theta1 * (j + 0.5) / n_nodes for j in range(n_nodes)]
        mean = math.fsum(_tbar_3d_many(t, r, rp, nodes, theta1)) / n_nodes
        closed = tbar_3d_theta_average(t, r, rp, theta1)
        worst = max(worst, _rel(mean, closed))
    return OracleReport("threedim_average", len(cases), worst, tol, worst <= tol)


def _oracle_zero_point_pipeline(rng) -> OracleReport:
    tol = 1e-10
    worst = 0.0
    n = 20
    points = []
    for _ in range(n):
        r = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(-1.0, 1.0))
        points.append((Minkowski(), RenormMode.RAW, r, 0.0, 0.0, t, (beta,)))
    for point, (raw,) in zip(points, _stress_points(points)):
        flat = tuple(zero_point_stress(point[5]).components().values())
        worst = max(worst, _stress_rel(raw, flat))
    return OracleReport("zero_point_pipeline", n, worst, tol, worst <= tol)


def _oracle_flat_zero(rng) -> OracleReport:
    tol = 1e-10
    worst = 0.0
    n = 20
    points = []
    for k in range(n):
        r = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(-1.0, 1.0))
        mode = _KERNEL if k % 2 == 0 else RenormMode.COMPONENT_SUBTRACTION
        points.append((Minkowski(), mode, r, 0.0, 0.0, t, (beta,)))
    for point, (s,) in zip(points, _stress_points(points)):
        worst = max(worst, max(abs(v) for v in s) * point[5]**4)
    return OracleReport("flat_zero", n, worst, tol, worst <= tol)


def _oracle_renorm_paths(rng) -> OracleReport:
    tol = 1e-8
    worst = 0.0
    points = []
    for geometry in (Cone(1.3 * math.pi), Dowker()):
        for _ in range(5):
            r = float(rng.uniform(0.8, 2.0))
            beta = float(rng.uniform(-0.5, 0.5))
            t = 0.7 * r
            for mode in (_KERNEL, RenormMode.COMPONENT_SUBTRACTION):
                points.append((geometry, mode, r, 0.0, 0.0, t, (beta,)))
    stresses = _stress_points(points)
    for (a,), (b,) in zip(stresses[::2], stresses[1::2]):
        worst = max(worst, _stress_rel(a, b))
    return OracleReport("renorm_paths", len(stresses) // 2, worst, tol, worst <= tol)


def _oracle_scaling(rng) -> OracleReport:
    tol = 1e-10
    lam = 1.7
    worst = 0.0
    count = 0
    for geometry in (Minkowski(), Cone(0.77 * math.pi), Dowker()):
        for _ in range(4):
            pair = _sample_pair(rng, 0.1, 2.0, dtheta=float(rng.uniform(-1.0, 1.0)))
            worst = max(
                worst, _rel(_tbar(geometry, pair.scaled(lam)) * lam**2, _tbar(geometry, pair))
            )
            count += 1
        points = []
        for _ in range(3):
            r = float(rng.uniform(0.5, 2.0))
            beta = float(rng.uniform(-0.5, 0.5))
            points.append((geometry, _KERNEL, r, 0.0, 0.0, 0.6 * r, (beta,)))
            points.append((geometry, _KERNEL, lam * r, 0.0, 0.0, 0.6 * lam * r, (beta,)))
        stresses = _stress_points(points)
        for (s1,), (s2,) in zip(stresses[::2], stresses[1::2]):
            worst = max(worst, _stress_rel(tuple(v * lam**4 for v in s2), s1))
            count += 1
    return OracleReport("scaling", count, worst, tol, worst <= tol)


def _oracle_beta_affinity(rng) -> OracleReport:
    tol = 1e-10
    worst = 0.0
    count = 0
    cases = [
        (Cone(0.9 * math.pi), 0.3),
        (Dowker(), 0.3),
        (Wedge(0.5 * math.pi, BoundaryCondition.DIRICHLET), 0.7),
    ]
    points = []
    for geometry, theta in cases:
        for _ in range(4):
            r = float(rng.uniform(0.6, 2.0))
            beta = float(rng.uniform(-0.8, 0.8))
            points.append((geometry, _KERNEL, r, theta, 0.0, 0.5 * r, (0.0, 1.0, beta)))
    for point, (s0, s1, sb) in zip(points, _stress_points(points)):
        beta = point[6][2]
        predicted = tuple(a + beta * (b - a) for a, b in zip(s0, s1))
        worst = max(worst, _stress_rel(predicted, sb))
    return OracleReport("beta_affinity", len(points), worst, tol, worst <= tol)


def _oracle_conservation(rng) -> OracleReport:
    tol = 1e-3
    worst = 0.0
    cases = [
        (Cone(math.pi), 0.0),
        (Cone(4.0 * math.pi), 0.0),
        (Dowker(), 0.0),
        (Cone(math.pi), _CONFORMAL),
    ]
    for geometry, beta in cases:
        worst = max(worst, conservation_residual(geometry, 1.3, beta=beta))
    return OracleReport("conservation", len(cases), worst, tol, worst <= tol)


def _oracle_conformal_trace(rng) -> OracleReport:
    tol = 1e-4
    worst = 0.0
    cases = [Cone(math.pi), Cone(4.0 * math.pi), Dowker()]
    for (s,) in _stress_points([(g, _KERNEL, 1.0, 0.0, 0.0, None, (_CONFORMAL,))
                                for g in cases]):
        worst = max(worst, abs(_trace(s)) / max(abs(v) for v in s))
    return OracleReport("conformal_trace", len(cases), worst, tol, worst <= tol)


def _oracle_conformal_wedge(rng) -> OracleReport:
    tol = 1e-4
    geometry = Wedge(0.5 * math.pi, BoundaryCondition.DIRICHLET)
    angles = [math.pi / 16, math.pi / 8, math.pi / 4]
    values = [s[0] for (s,) in _stress_points(
        [(geometry, _KERNEL, 8.0, th, 0.0, None, (_CONFORMAL,)) for th in angles])]
    mean = math.fsum(values) / len(values)
    worst = max(abs(v - mean) / abs(mean) for v in values)
    return OracleReport("conformal_wedge", len(angles), worst, tol, worst <= tol)


def _oracle_dowker_large_angle(rng) -> OracleReport:
    tol = 1e-6
    theta1 = 1e4 * math.pi
    worst = 0.0
    count = 0
    for _ in range(8):
        pair = _sample_pair(rng, 0.1, 2.0, dtheta=float(rng.uniform(-2.0, 2.0)))
        worst = max(worst, _rel(tbar_cone(pair, theta1), tbar_dowker(pair)))
        count += 1
    stresses = _stress_points([(g, _KERNEL, 1.0, 0.0, 0.0, None, (beta,))
                               for beta in (0.0, -0.25) for g in (Cone(theta1), Dowker())])
    for (a,), (b,) in zip(stresses[::2], stresses[1::2]):
        worst = max(worst, _stress_rel(a, b))
        count += 1
    return OracleReport("dowker_large_angle", count, worst, tol, worst <= tol)


def _oracle_sign_change(rng) -> OracleReport:
    tol = 0.5
    ((sharp, *_),), ((wide, *_),) = _stress_points(
        [(Cone(theta1), _KERNEL, 1.0, 0.0, 0.0, None, (0.0,))
         for theta1 in (math.pi, 4.0 * math.pi)])
    flipped = sharp * wide < 0.0
    return OracleReport("sign_change", 2, 0.0 if flipped else 1.0, tol, flipped)


def _oracle_boundary_dirichlet(rng) -> OracleReport:
    tol = 1e-10
    worst = 0.0
    count = 0
    for theta0 in (0.5 * math.pi, 2.0 * math.pi / 3.0):
        for _ in range(5):
            pair = _sample_pair(
                rng, 0.1, 2.0,
                theta=0.0,
                thetap=float(rng.uniform(0.15, theta0 - 0.15)),
            )
            interior = replace(pair, theta=0.5 * theta0)
            ref = abs(tbar_wedge(interior, theta0))
            for plate_angle in (0.0, theta0):
                plated = replace(pair, theta=plate_angle)
                full = tbar_wedge(plated, theta0)
                worst = max(worst, abs(full) / ref)
                count += 1
    return OracleReport("boundary_dirichlet", count, worst, tol, worst <= tol)


_ORACLES = {
    "u_consistency_forms": _oracle_u_consistency,
    "jet_fd": _oracle_jet_fd,
    "cone_image_sum": _oracle_cone_image_sum,
    "cone_mode_sum": _oracle_cone_mode_sum,
    "wedge_images": _oracle_wedge_images,
    "periodic_line": _oracle_periodic_line,
    "threedim_reduction": _oracle_threedim_reduction,
    "threedim_average": _oracle_threedim_average,
    "zero_point_pipeline": _oracle_zero_point_pipeline,
    "flat_zero": _oracle_flat_zero,
    "renorm_paths": _oracle_renorm_paths,
    "scaling": _oracle_scaling,
    "beta_affinity": _oracle_beta_affinity,
    "conservation": _oracle_conservation,
    "conformal_trace": _oracle_conformal_trace,
    "conformal_wedge": _oracle_conformal_wedge,
    "dowker_large_angle": _oracle_dowker_large_angle,
    "sign_change": _oracle_sign_change,
    "boundary_dirichlet": _oracle_boundary_dirichlet,
}

_ORACLE_INDEX = {name: k for k, name in enumerate(_ORACLES)}


def oracle_names() -> list[str]:
    return list(_ORACLES)


def check_oracle_names(names) -> None:
    """Raise ValueError unless every name in ``names`` is an oracle's."""
    unknown = sorted(set(names) - set(_ORACLES))
    if unknown:
        raise ValueError(
            f"unknown oracle names: {', '.join(unknown)}; "
            f"known: {', '.join(_ORACLES)}"
        )


def run_oracle_suite(selection=None, seed: int = 42) -> list[OracleReport]:
    """Run the named cross checks and return one report per oracle.

    ``selection`` is an iterable of oracle names (default: all of them,
    in registry order).  Each oracle gets its own deterministic
    generator derived from ``seed`` and its registry position, so a
    subset run reproduces exactly what the full run saw.
    """
    names = list(_ORACLES) if selection is None else list(selection)
    check_oracle_names(names)
    reports = []
    for name in names:
        rng = np.random.default_rng([seed, _ORACLE_INDEX[name]])
        reports.append(_ORACLES[name](rng))
    return reports


def format_reports(reports) -> str:
    width = max(len(r.name) for r in reports)
    lines = []
    for r in reports:
        status = "ok  " if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name:<{width}}  points={r.points_tested:<4d} "
            f"max_rel={r.max_rel_err:9.3e}  tol={r.tolerance:.1e}"
        )
    n_pass = sum(r.passed for r in reports)
    lines.append(f"{n_pass}/{len(reports)} oracles passed")
    return "\n".join(lines)


def reports_to_json(reports, wall_s=None) -> str:
    """The reports as a JSON list; ``wall_s``, one time per report, adds a
    ``wall_s`` key to each."""
    rows = [asdict(r) for r in reports]
    for row, wall in zip(rows, wall_s or ()):
        row["wall_s"] = wall
    return json.dumps(rows, indent=2)
