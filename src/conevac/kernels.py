"""Cylinder kernels on flat space, cones, wedges, and related geometries.

The central object is the cylinder kernel tbar(t; x, x'), minus twice
the Euclidean two-point function of a massless scalar field with the
two points split by Euclidean time t > 0.  Second derivatives of tbar
at small t give the regularized stress tensor; its t -> 0 divergence
is the universal flat-space one, so differences of kernels have smooth
coincidence limits.

All closed forms depend on the spatial points through the hyperbolic
separation u of `geometry.u_of_pair` and on the angular offset.  The
kernel expressions are written against the dispatch functions in
`jets`, so the same code evaluates plain floats and second-order jets.
Branches are chosen by magnitude (through `jets.value_of`) to keep
every regime cancellation free.  A batch of point pairs takes one
branch whole when `jets.agree` says its elements agree; one that
straddles a threshold is split by `jets.split`, which reruns the same
function on each part, so every pair is evaluated by its own branch
only.  Plain bools (floats and scalar jets) skip the `jets.agree`
call, because the float path runs inside quadratures:

  * u below _SMALL_U with a*u small: power series for the ratios
    sinh(a*u)/sinh(u) and u/sinh(u), whose direct evaluation loses
    derivative accuracy near coincidence;
  * a*u above _EXP_FORM_MIN_X: exponential form of the angular factor,
    which would otherwise overflow;
  * u above _LARGE_U: exponential form of 1/sinh(u).

Angular denominators are always the half-angle form
2 sinh^2(x/2) + 2 sin^2(y/2), which cannot cancel.

The wedge of opening theta0 is the cone of angle 2 theta0 at the
angular offset theta - thetap plus its reflected image at theta +
thetap (Sommerfeld's images).  Both terms share the separation u and
everything built from u alone, so `_cone_terms` computes that once and
each offset only its own angular part, with the operations of a cone
evaluated at that offset alone; the shared u also puts both terms on
the same side of every branch, so one `jets.split` covers them.

A batch may mix cones of different angles, or wedges of different
openings with one wall condition: `kernel_expr` of a list of
geometries hands `_cone_terms` the angle as an (n,) column, and each
element sees the IEEE operations of its own angle.  `cone_expr` and
`wedge_renormalized_expr` stay the validated one-geometry forms of the
same closures, for `kernel_expr` of one geometry and the float kernels.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConvergenceError, DomainError, SingularPointError
from .geometry import (
    BoundaryCondition,
    Cone,
    Dowker,
    Minkowski,
    PeriodicLine,
    PointPair,
    UVariable,
    Wedge,
    u_of_pair,
)
from .jets import value_of

# Branch thresholds.  The series window additionally requires a*u small
# so that the truncated series stays accurate for very sharp cones.
_SMALL_U = 1e-4
_SMALL_AU = 0.05
_EXP_FORM_MIN_X = 30.0
_LARGE_U = 350.0

_TWO_PI_SQ = 2.0 * math.pi**2


def _separation(t, r, rp, z, zp):
    """Quarter squared chordal distance q and the separation u = 2 asinh(sqrt(q)).

    On jets, sqrt(q) is differentiated, and q = (chordal distance / 2)^2 /
    (r rp) has t-slope t / (2 r^2) at a coincident pair.  Where that slope
    squared underflows, the chain rule's f'' (dq/dt)^2 term loses its bits
    against a huge f'', and d^2 sqrt(q) / dt^2 (exactly 0) comes out O(1)
    wrong, so a jet holding such an element raises FloatingPointError.
    At t = 0 the slope is exactly 0 and nothing is lost.
    """
    if isinstance(t, jets.Jet2):
        tv, rv = value_of(t), value_of(r)
        slope = tv / (2.0 * rv) / rv
        if np.count_nonzero((slope * slope < sys.float_info.min) & (tv != 0.0)):
            raise FloatingPointError("t / (2 r**2) squared underflows")
    q = ((r - rp) ** 2 + (z - zp) ** 2 + t * t) / (4.0 * r * rp)
    return q, 2.0 * jets.asinh(jets.sqrt(q))


def _inv_sinh_u(q, u):
    # sinh(u) = 2 sqrt(q (1 + q)) exactly; exponential form avoids overflow.
    large = value_of(u) > _LARGE_U
    side = large if isinstance(large, bool) else jets.agree(large)
    if side is None:
        return jets.split(large, _inv_sinh_u, q, u)
    if side:
        em = jets.exp(-u)
        return 2.0 * em / (1.0 - em * em)
    return 1.0 / (2.0 * jets.sqrt(q * (1.0 + q)))


def _angular_factor(x, y):
    """sinh(x) / (cosh(x) - cos(y)), stable at small and large x.

    The one-offset form of `_angular_factors`, with the same operations,
    for the float quadratures (`tbar_3d` calls it at every node): there
    the list of the many-offset form costs ~10% of the integrand.
    """
    large = value_of(x) > _EXP_FORM_MIN_X
    side = large if isinstance(large, bool) else jets.agree(large)
    if side is None:
        return jets.split(large, _angular_factor, x, y)
    if side:
        em = jets.exp(-x)
        return (1.0 - em * em) / (1.0 - 2.0 * em * jets.cos(y) + em * em)
    return jets.sinh(x) / (2.0 * jets.sinh(0.5 * x) ** 2 + 2.0 * jets.sin(0.5 * y) ** 2)


def _angular_factors(x, *ys):
    """`_angular_factor` at x and each y, with the parts of x alone computed once.

    The loops are written out: a comprehension costs the float path of
    the kernels, which runs inside quadratures, a function call each.
    """
    large = value_of(x) > _EXP_FORM_MIN_X
    side = large if isinstance(large, bool) else jets.agree(large)
    if side is None:
        return jets.split(large, _angular_factors, x, *ys)
    out = []
    if side:
        em = jets.exp(-x)
        em_sq = em * em
        num, twice = 1.0 - em_sq, 2.0 * em
        for y in ys:
            out.append(num / (1.0 - twice * jets.cos(y) + em_sq))
    else:
        num, den_x = jets.sinh(x), 2.0 * jets.sinh(0.5 * x) ** 2
        for y in ys:
            out.append(num / (den_x + 2.0 * jets.sin(0.5 * y) ** 2))
    return out


def _sinh_ratio_series(u, a):
    # sinh(a u)/sinh(u) through u^4; truncation is O((a u)^6 / 5040).
    u2 = u * u
    return a * (
        1.0
        + (a * a - 1.0) / 6.0 * u2
        + (jets._power(a, 4) / 120.0 - a * a / 36.0 + 7.0 / 360.0) * (u2 * u2)
    )


def _u_over_sinh(q, u):
    small = value_of(u) < _SMALL_U
    side = small if isinstance(small, bool) else jets.agree(small)
    if side is None:
        return jets.split(small, _u_over_sinh, q, u)
    if side:
        u2 = u * u
        return 1.0 - u2 / 6.0 + 7.0 / 360.0 * (u2 * u2)
    return u * _inv_sinh_u(q, u)


def _mink_term(t, r, rp, dth, z, zp):
    # Squared chordal distance, grouped so nothing cancels.
    d = (r - rp) ** 2 + t * t + (z - zp) ** 2 + 4.0 * r * rp * jets.sin(0.5 * dth) ** 2
    return -1.0 / (_TWO_PI_SQ * d)


def _cone_terms(t, r, rp, z, zp, theta1, *dths):
    """Cone kernel at total angle ``theta1``, one term per angular offset in ``dths``.

    ``theta1`` is a float, or for a batch an (n,) column that gives each
    element its own cone; either way each element sees the operations
    of its own angle (libm ``pow`` for ``a**4``, through `jets._power`),
    and `jets.split` divides the column with the jets.  What depends on
    the separation alone (q, u, the prefactor, 1/sinh(u) or the series
    numerator, and the u half of the angular factor) is computed once
    for all offsets.  Each term keeps the operations of the kernel at
    its offset alone, so its bits do not depend on the other offsets.
    The offsets share u and so every branch.
    """
    a = 2.0 * math.pi / theta1
    q, u = _separation(t, r, rp, z, zp)
    uval = value_of(u)
    series = (uval < _SMALL_U) & (a * uval < _SMALL_AU)
    side = series if isinstance(series, bool) else jets.agree(series)
    if side is None:
        return jets.split(series, _cone_terms, t, r, rp, z, zp, theta1, *dths)
    pref = -1.0 / (2.0 * math.pi * theta1 * r * rp)
    out = []
    if side:
        num = pref * _sinh_ratio_series(u, a)
        den_u = 2.0 * jets.sinh(0.5 * a * u) ** 2
        for dth in dths:
            out.append(num / (den_u + 2.0 * jets.sin(0.5 * a * dth) ** 2))
        return out
    scale = pref * _inv_sinh_u(q, u)
    x = a * u
    del q, u, pref  # a batch's memory peaks in the angular factors below
    ys = []
    for dth in dths:
        ys.append(a * dth)
    for f in _angular_factors(x, *ys):
        out.append(scale * f)
    return out


def _dowker_term(t, r, rp, dth, z, zp):
    q, u = _separation(t, r, rp, z, zp)
    return -_u_over_sinh(q, u) / (_TWO_PI_SQ * r * rp * (u * u + dth * dth))


def _wedge_term(t, r, rp, theta, thetap, z, zp, theta0, sign):
    # The doubled cone's direct term and its reflected image share one
    # separation; the image sign leaves the direct term unmultiplied.
    dth = theta - thetap
    direct, image = _cone_terms(t, r, rp, z, zp, 2.0 * theta0, dth, theta + thetap)
    return direct + sign * image - _mink_term(t, r, rp, dth, z, zp)


def minkowski_expr(t, r, rp, theta, thetap, z, zp):
    """Flat-space kernel as an expression over the seven coordinates."""
    return _mink_term(t, r, rp, theta - thetap, z, zp)


def _cone_expr(theta1):
    def expr(t, r, rp, theta, thetap, z, zp):
        return _cone_terms(t, r, rp, z, zp, theta1, theta - thetap)[0]
    return expr


def _wedge_expr(theta0, sign):
    def expr(t, r, rp, theta, thetap, z, zp):
        return _wedge_term(t, r, rp, theta, thetap, z, zp, theta0, sign)
    return expr


def cone_expr(theta1: float):
    """Expression for the cone kernel at total angle ``theta1``."""
    Cone(theta1)  # validate
    return _cone_expr(theta1)


def dowker_expr(t, r, rp, theta, thetap, z, zp):
    """Kernel expression on the infinite-sheeted covering."""
    return _dowker_term(t, r, rp, theta - thetap, z, zp)


def wedge_renormalized_expr(theta0: float, sign: int):
    """Expression for the wedge kernel with the flat part removed.

    Built from the kernel of the doubled cone (total angle 2 theta0)
    by reflection, minus the flat kernel, so its coincidence limit is
    finite everywhere strictly inside the wedge.
    """
    Wedge(theta0)  # validate
    if sign not in (-1, +1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    return _wedge_expr(theta0, sign)


def kernel_kind(geometry):
    """What geometries must share to share a kernel expression up to their angle.

    The type, and for a wedge its boundary condition: cones of any
    angles are one kind, and so are wedges of any openings with one
    wall condition.
    """
    return type(geometry), getattr(geometry, "bc", None)


def kernel_expr(geometry):
    """Kernel expression f(t, r, rp, theta, thetap, z, zp) for a geometry.

    For the wedge this is the renormalized kernel (reflection series
    minus the flat part); for the other cylindrical geometries it is
    the full kernel.  The periodically identified line is not a
    cylindrical geometry and has no expression in these coordinates.

    ``geometry`` may also be a list, the geometry of each element of a
    batch, all of one `kernel_kind`.  When they differ, the cone angle or
    the wedge opening reaches the kernel as an (n,) column, and each
    element is bit for bit its own geometry's expression; a list of one
    geometry gives that geometry's expression, with the angle a float.
    """
    if isinstance(geometry, list):
        return _column_expr(geometry)
    match geometry:
        case Minkowski():
            return minkowski_expr
        case Cone(theta1=theta1):
            return cone_expr(theta1)
        case Dowker():
            return dowker_expr
        case Wedge(theta0=theta0, bc=bc):
            return wedge_renormalized_expr(theta0, bc.image_sign)
        case PeriodicLine():
            raise DomainError(
                "the periodic line has no kernel expression in cylindrical "
                "coordinates; use tbar_periodic_line"
            )
        case _:
            raise TypeError(f"not a geometry: {geometry!r}")


def _column_expr(geometries):
    """`kernel_expr` of a batch whose element k lies in ``geometries[k]``."""
    first = geometries[0]
    if geometries.count(first) == len(geometries):
        return kernel_expr(first)
    kind = kernel_kind(first)
    # the distinct objects, by identity: a pass repeats each ladder's geometry
    if any(kernel_kind(g) != kind for g in {id(g): g for g in geometries}.values()):
        raise ValueError("a batch of geometries must share one kernel kind")
    if kind[0] is Cone:
        return _cone_expr(np.array([g.theta1 for g in geometries]))
    if kind[0] is Wedge:
        return _wedge_expr(np.array([g.theta0 for g in geometries]), first.bc.image_sign)
    return kernel_expr(first)  # raises: not a geometry with a kernel expression


def _evaluate(expr, pair: PointPair, message: str) -> float:
    """Float kernel value at ``pair``; a zero division marks a singular point."""
    try:
        return expr(t=pair.t, r=pair.r, rp=pair.rp, theta=pair.theta,
                    thetap=pair.thetap, z=pair.z, zp=pair.zp)
    except ZeroDivisionError:
        raise SingularPointError(message) from None


def tbar_minkowski(pair: PointPair) -> float:
    """Flat-space cylinder kernel, -1/(2 pi^2 d^2) at squared distance d^2."""
    return _evaluate(minkowski_expr, pair, "coincident points with t = 0")


def tbar_cone(pair: PointPair, theta1: float) -> float:
    """Cylinder kernel on the cone of total angle ``theta1``."""
    return _evaluate(cone_expr(theta1), pair,
                     "pair sits on a singularity of the cone kernel")


def tbar_dowker(pair: PointPair) -> float:
    """Cylinder kernel on the infinite-sheeted covering of the punctured plane.

    The angular offset is not reduced modulo anything; sheets are
    distinguished by the full difference theta - thetap.
    """
    return _evaluate(dowker_expr, pair, "coincident points with t = 0")


def tbar_wedge_renormalized(
    pair: PointPair,
    theta0: float,
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET,
) -> float:
    """Wedge kernel with the flat part removed.

    Both angles must lie in the closed interval [0, theta0]; boundary
    values are allowed (for Dirichlet walls the full kernel, this plus
    the flat kernel, vanishes there).
    """
    Wedge(theta0, bc)  # validate
    for name, ang in (("theta", pair.theta), ("thetap", pair.thetap)):
        if not 0.0 <= ang <= theta0:
            raise DomainError(
                f"{name}={ang!r} outside the wedge [0, {theta0!r}]"
            )
    return _evaluate(wedge_renormalized_expr(theta0, bc.image_sign), pair,
                     "pair sits on a singularity of the wedge kernel")


# ---------------------------------------------------------------------------
# Image sums with Euler-Maclaurin tails.


@dataclass(frozen=True)
class ImageSum:
    """Result of a truncated image sum.

    ``value`` includes ``tail_correction`` when a tail was requested;
    ``tail_correction`` is then the amount that was added for the
    discarded images, and zero otherwise.
    """

    value: float
    tail_correction: float


def _lattice_sum(
    amplitude: float, width: float, offset: float, spacing: float,
    n_images: int, include_tail: bool,
) -> ImageSum:
    """sum_n -amplitude / (width^2 + (offset + n spacing)^2) over |n| <= n_images.

    Both image sums here, the cone's sheets and the periodic line's
    copies, are this Lorentzian lattice.  With ``include_tail`` the
    Euler-Maclaurin estimate of the discarded images, n >= m and
    n <= -m for m = n_images + 1, is added.  It keeps the integral,
    half the boundary term, and the first derivative correction; the
    next correction is smaller by roughly (1 / m)^2 / 60 and is dropped.
    """
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images!r}")
    a, b, d, lam = amplitude, width, offset, spacing
    b_sq = b * b
    total = 0.0
    for n in range(-n_images, n_images + 1):
        x = d + n * lam
        total += -a / (b_sq + x * x)
    tail = 0.0
    if include_tail:
        m_start = n_images + 1
        w = d + m_start * lam
        v = d - m_start * lam
        fw = -a / (b_sq + w * w)
        fv = -a / (b_sq + v * v)
        dfw = 2.0 * a * lam * w / (b_sq + w * w) ** 2
        dfv = -2.0 * a * lam * v / (b_sq + v * v) ** 2
        int_plus = -(a / (b * lam)) * (0.5 * math.pi - math.atan(w / b))
        int_minus = -(a / (b * lam)) * (0.5 * math.pi + math.atan(v / b))
        tail = (int_plus + 0.5 * fw - dfw / 12.0) + (int_minus + 0.5 * fv - dfv / 12.0)
    return ImageSum(value=total + tail, tail_correction=tail)


def _u_over_sinh_float(uv: UVariable) -> float:
    if uv.u < _SMALL_U:
        u2 = uv.u * uv.u
        return 1.0 - u2 / 6.0 + 7.0 / 360.0 * (u2 * u2)
    return uv.u / uv.sinh_u


def tbar_cone_via_images(
    pair: PointPair,
    theta1: float,
    n_images: int = 1000,
    include_tail: bool = True,
) -> ImageSum:
    """Cone kernel as a sum of infinite-sheet kernels over shifted angles.

    Sums the closed-form kernel of the infinite-sheeted covering at
    angular offsets dtheta + n*theta1 for |n| <= n_images, plus an
    Euler-Maclaurin estimate of the discarded tail.  Agrees with
    `tbar_cone` to the tail accuracy; used as an independent check.
    """
    Cone(theta1)  # validate
    uv = u_of_pair(pair)
    if uv.u == 0.0:
        raise SingularPointError("coincident points with t = 0")
    amp = _u_over_sinh_float(uv) / (_TWO_PI_SQ * pair.r * pair.rp)
    return _lattice_sum(amp, uv.u, pair.dtheta, theta1, n_images, include_tail)


@dataclass(frozen=True)
class CartesianSeparation:
    """Separation of two points in Cartesian coordinates plus the cutoff t."""

    t: float
    dx: float
    dy: float = 0.0
    dz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "dx", "dy", "dz"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t!r}")


def _transverse_distance(sep: CartesianSeparation) -> float:
    a = math.sqrt(sep.t**2 + sep.dy**2 + sep.dz**2)
    if a == 0.0:
        raise DomainError(
            "periodic line kernel needs a transverse offset or a cutoff t > 0"
        )
    return a


def tbar_periodic_line(
    sep: CartesianSeparation,
    period: float,
    n_images: int = 1000,
    include_tail: bool = True,
) -> ImageSum:
    """Kernel with x identified modulo ``period``, as a flat image sum."""
    PeriodicLine(period)  # validate
    a = _transverse_distance(sep)
    return _lattice_sum(1.0 / _TWO_PI_SQ, a, sep.dx, period, n_images, include_tail)


def tbar_periodic_line_closed(sep: CartesianSeparation, period: float) -> float:
    """Closed form of the periodic-line kernel.

    Equals -(1/(2 pi a L)) sinh(2 pi a/L) / (cosh(2 pi a/L) - cos(2 pi dx/L))
    with a the transverse distance (cutoff included) and L the period;
    the image sum above converges to this.
    """
    PeriodicLine(period)  # validate
    a = _transverse_distance(sep)
    x = 2.0 * math.pi * a / period
    y = 2.0 * math.pi * sep.dx / period
    return -_angular_factor(x, y) / (2.0 * math.pi * a * period)


# ---------------------------------------------------------------------------
# Angular mode sum with Bessel quadrature.


@dataclass(frozen=True)
class QuadratureControls:
    """Termination controls for the radial mode quadrature."""

    abs_tol: float = 1e-12
    max_panels: int = 8000


_QUAD_EPSREL = 1e-11


def _quad(f, lo, hi, *, epsabs=1e-13, epsrel=_QUAD_EPSREL, limit=300):
    from scipy import integrate

    out = integrate.quad(f, lo, hi, full_output=1, epsabs=epsabs, epsrel=epsrel,
                         limit=limit)
    return out[0]


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21, Piessens et al. 1983),
# the first rule `_quad` applies to a finite interval: the Kronrod
# abscissae in (0, 1) (positions 1, 3, ..., 9 are the 10-point Gauss
# ones), the Kronrod weights of these and of the centre, and the Gauss
# weights of abscissae 1, 3, ..., 9.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = 2.0**-52  # QUADPACK's d1mach(4), the double epsilon
_UFLOW = 2.0**-1022  # d1mach(1), the least normal double


@functools.lru_cache(maxsize=1)  # shared by the modes of one `tbar_modesum_4d` point
def _panel_plan(r, rp, zeta, abs_tol, max_panels):
    """The panels of `mode_integral` and what on them does not depend on nu.

    Returns the panel edges and (panels, 21) arrays of the dqk21 nodes w
    (columns 0-9 centr - hlgth * _XGK, 10 the centre, 11-20 centr +
    hlgth * _XGK), w r, w rp and K_0(w zeta), and the half widths.
    """
    from scipy import special

    width = 4.0 * math.pi / (r + rp + zeta)
    edges = [0.0]
    while True:
        omega = edges[-1] + width
        edges.append(omega)
        if (omega / zeta) * special.kv(1, omega * zeta) < abs_tol:
            break
        if len(edges) - 1 >= max_panels:
            raise ConvergenceError(
                f"mode_integral did not meet abs_tol={abs_tol!r} "
                f"within {max_panels} panels"
            )
    a = np.array(edges[:-1])
    b = np.array(edges[1:])
    centr = (0.5 * (a + b))[:, None]
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK
    w = np.concatenate([centr - absc, centr, centr + absc], axis=1)
    arrays = (w, w * r, w * rp, special.kv(0, w * zeta), hlgth)
    for arr in arrays:
        arr.flags.writeable = False
    return tuple(edges), *arrays


def _first_pass(fv, hlgth, epsabs):
    """dqagse's first pass on every panel at once: dqk21's result, and
    whether dqagse returns it without subdividing.

    A line-for-line copy of QUADPACK's operation order, so that each
    accepted result is the one `_quad` returns.  dqagse names dqk21's
    resabs ``defabs`` and its resasc ``resabs``, so the ``abserr !=
    resabs`` of its test compares with resasc.
    """
    fc = fv[:, 10]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss abscissae first
        fval1, fval2 = fv[:, j], fv[:, 11 + j]
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fval1) + np.abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv[:, j] - reskh) + np.abs(fv[:, 11 + j] - reskh))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    # libm's pow, which QUADPACK calls, not numpy's vectorised one
    ratio = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
    abserr[scaled] = resasc[scaled] * np.fmin(1.0, [math.pow(x, 1.5) for x in ratio])
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floor] = np.fmax((_EPMACH * 50.0) * resabs[floor], abserr[floor])

    errbnd = np.fmax(epsabs, _QUAD_EPSREL * np.abs(result))
    ier2 = (abserr <= 100.0 * _EPMACH * resabs) & (abserr > errbnd)
    accepted = ier2 | ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    # the copy does not follow QUADPACK through NaN and infinity
    accepted &= np.isfinite(result) & np.isfinite(abserr)
    return result, accepted


def mode_integral(
    nu: float, r: float, rp: float, zeta: float,
    controls: QuadratureControls | None = None,
) -> float:
    """Radial integral of one angular mode.

    integral_0^inf  w J_nu(w r) J_nu(w rp) K_0(w zeta) dw,

    which has the closed value exp(-nu u) / (2 r rp sinh u).  Done
    panel by panel with panel width 4 pi/(r + rp + zeta) so each
    panel holds at most a couple of Bessel oscillations.  The loop
    stops once the analytic bound (W/zeta) K_1(W zeta) on the
    remaining tail (using |J_nu| <= 1) drops below ``abs_tol``.

    Each panel's value is what `_quad` (scipy's QUADPACK dqagse) gives
    on it, bit for bit.  dqagse first applies the 21-point Gauss-Kronrod
    rule dqk21 and returns its value when the error estimate passes;
    here that first pass runs on all panels of the mode at once, as one
    numpy evaluation of the integrand on every node and a copy of
    dqk21's operation order and of dqagse's acceptance test.  The few
    panels that fail the test (about 3% in the `cone_mode_sum` oracle)
    go through `_quad` itself.  The panels are summed in order.  The
    nodes and K_0 on them do not depend on nu and are shared by the
    modes of one point.
    """
    if nu < 0 or r <= 0 or rp <= 0:
        raise DomainError("mode_integral needs nu >= 0 and positive radii")
    if zeta <= 0:
        raise DomainError("mode_integral needs zeta > 0 for convergence")
    from scipy import special

    c = controls or QuadratureControls()
    edges, w, wr, wrp, k0, hlgth = _panel_plan(r, rp, zeta, c.abs_tol, c.max_panels)
    epsabs = 0.01 * c.abs_tol
    result, accepted = _first_pass(w * special.jv(nu, wr) * special.jv(nu, wrp) * k0,
                                   hlgth, epsabs)

    def f(w):
        return w * special.jv(nu, w * r) * special.jv(nu, w * rp) * special.kv(0, w * zeta)

    total = 0.0
    for k, (value, ok) in enumerate(zip(result.tolist(), accepted.tolist())):
        if not ok:
            value = _quad(f, edges[k], edges[k + 1], epsabs=epsabs)
        total += value
    return total


def tbar_modesum_4d(
    pair: PointPair,
    theta1: float,
    *,
    n_terms: int | None = None,
    controls: QuadratureControls | None = None,
) -> float:
    """Cone kernel summed mode by mode, each mode a Bessel quadrature.

    Slow but structurally independent of the closed form.  Requires a
    separation zeta = sqrt(t^2 + (z - z')^2) > 0 (the quadratures do
    not converge on the purely radial section) and a hyperbolic
    separation u >= 0.05 (the number of contributing modes grows like
    theta1/u).  Terms decay like exp(-2 pi n u / theta1).
    """
    Cone(theta1)  # validate
    zeta = math.hypot(pair.t, pair.z - pair.zp)
    if zeta <= 0.0:
        raise DomainError("mode sum needs t > 0 or a z offset")
    uv = u_of_pair(pair)
    if uv.u < 0.05:
        raise DomainError(
            f"mode sum needs u >= 0.05, got u={uv.u!r}; "
            "use the closed form near coincidence"
        )
    a = 2.0 * math.pi / theta1
    decay = a * uv.u
    i0 = mode_integral(0.0, pair.r, pair.rp, zeta, controls)
    if n_terms is None:
        # Geometric tail below 1e-10 of the leading mode.
        n_terms = math.ceil(
            (math.log(1e10) - math.log(-math.expm1(-decay))) / decay
        ) + 1
    dth = pair.dtheta
    total = i0
    cutoff = 1e-10 * abs(i0)
    for n in range(1, n_terms + 1):
        mode = mode_integral(a * n, pair.r, pair.rp, zeta, controls)
        total += 2.0 * math.cos(a * n * dth) * mode
        if 2.0 * mode * math.exp(-decay) / -math.expm1(-decay) < cutoff:
            break
    return -total / (math.pi * theta1)


# ---------------------------------------------------------------------------
# Three-dimensional reduction (no z direction).


def _3d_u0(t: float, r: float, rp: float, theta1: float) -> float:
    """Smallest hyperbolic separation u0 over z', after validating the arguments."""
    Cone(theta1)  # validate
    if r <= 0 or rp <= 0:
        raise DomainError("radii must be positive")
    if t < 0:
        raise DomainError("t must be >= 0")
    q0 = ((r - rp) ** 2 + t * t) / (4.0 * r * rp)
    if q0 == 0.0:
        raise SingularPointError("coincident points with t = 0")
    return 2.0 * math.asinh(math.sqrt(q0))


def _v_integral(f) -> float:
    """Integral of f(v) over u = u0 + v^2 from u0 out to u0 + 80."""
    return _quad(f, 0.0, 1.0) + _quad(f, 1.0, math.sqrt(80.0))


def _sinhc_half_sq(v: float) -> float:
    # sinh(v^2/2) / v^2 with its v -> 0 limit.
    if v <= 1e-8:
        return 0.5
    return math.sinh(0.5 * v * v) / (v * v)


def tbar_3d(t: float, r: float, rp: float, dtheta: float, theta1: float) -> float:
    """Cylinder kernel of the cone with no translational direction.

    Equals the z' integral of the four-dimensional kernel and is
    computed as a one-dimensional integral over u from its minimum u0,
    with the substitution u = u0 + v^2 to remove the inverse square
    root at the lower endpoint.  At theta1 = 2 pi this reduces to
    -1/(2 pi d) with d the chordal distance in the plane.
    """
    u0 = _3d_u0(t, r, rp, theta1)
    a = 2.0 * math.pi / theta1

    def f(v):
        w = 0.5 * v * v
        sc = _sinhc_half_sq(v)
        g = _angular_factor(a * (u0 + v * v), a * dtheta)
        return 2.0 * g / math.sqrt(2.0 * math.sinh(u0 + w) * sc)

    return -_v_integral(f) / (math.pi * theta1 * math.sqrt(2.0 * r * rp))


def tbar_3d_theta_average(t: float, r: float, rp: float, theta1: float) -> float:
    """Angular average of `tbar_3d` over one full cone period.

    The average has a closed form in terms of the Legendre function of
    the second kind of degree -1/2, evaluated here through the same
    endpoint-regularized integral used by `tbar_3d`.
    """
    u0 = _3d_u0(t, r, rp, theta1)

    def f(v):
        w = 0.5 * v * v
        return 1.0 / math.sqrt(math.sinh(u0 + w) * _sinhc_half_sq(v))

    return -_v_integral(f) / (math.pi * theta1 * math.sqrt(r * rp))
