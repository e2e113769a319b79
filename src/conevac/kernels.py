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

The independent checks are batched.  The image sums (the cone's sheets,
the periodic line's copies) are one numpy expression over all images,
summed one after another in the order of a running sum
(`_lattice_sum`).  The Bessel mode sum (`mode_integral`,
`tbar_modesum_4d`) and the three-dimensional kernel (`tbar_3d`, and
`_tbar_3d_many` for many angular offsets in one call) go through
`integrate_gk21`, a numpy adaptive Gauss-Kronrod quadrature built on
QUADPACK's dqk21 rule; it adds node pairs elementwise, with no matrix
product, so BLAS cannot change a bit.  The
Bessel functions are numpy too: J_nu of whole families of orders by
Miller's backward recurrence (`_bessel_j`), K_0 and K_1 by the
trapezoid rule (`_bessel_k`).  Nothing here imports scipy.
"""

from __future__ import annotations

import math
import operator
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


def _angular_factors(x, *ys):
    """sinh(x) / (cosh(x) - cos(y)) at x and each y, stable at small and
    large x, with the parts of x alone computed once.

    The loops are written out: a comprehension would cost the float
    path of the kernels a function call each.
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


_IMAGE_BLOCK = 1 << 14  # images per numpy expression in `_lattice_sum`


def _lattice_sum(
    amplitude: float, width: float, offset: float, spacing: float,
    n_images: int, include_tail: bool,
) -> ImageSum:
    """sum_n -amplitude / (width^2 + (offset + n spacing)^2) over |n| <= n_images.

    Both image sums here, the cone's sheets and the periodic line's
    copies, are this Lorentzian lattice.  The terms are numpy
    expressions over blocks of `_IMAGE_BLOCK` images (so a huge
    ``n_images`` costs time, not memory), summed one after another from
    n = -n_images by `np.add.accumulate` after the running total, which
    starts at 0.0: the order and the bits of a running sum over n.  A
    zero denominator raises ZeroDivisionError, as the float division
    does.  With ``include_tail`` the Euler-Maclaurin estimate of the
    discarded images, n >= m and n <= -m for
    m = n_images + 1, is added.  It keeps the integral, half the boundary
    term, and the first derivative correction; the next correction is
    smaller by roughly (1 / m)^2 / 60 and is dropped.
    """
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images!r}")
    n_images = operator.index(n_images)  # a float count is a TypeError
    a, b, d, lam = amplitude, width, offset, spacing
    b_sq = b * b
    total = 0.0
    for start in range(-n_images, n_images + 1, _IMAGE_BLOCK):
        x = d + np.arange(start, min(start + _IMAGE_BLOCK, n_images + 1)) * lam
        with np.errstate(all="ignore"):  # overflow to inf, as float arithmetic does
            den = b_sq + x * x
            if not den.all():
                raise ZeroDivisionError("float division by zero")
            total = float(np.add.accumulate(np.concatenate([[total], -a / den]))[-1])
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


# `_u_over_sinh` of floats, kept apart: that one multiplies u by the
# reciprocal `_inv_sinh_u` (exponential above _LARGE_U) where this divides
# by sinh u, so folding them would move the bits of `tbar_cone_via_images`
# and of the `cone_image_sum` oracle.
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
    return -_angular_factors(x, y)[0] / (2.0 * math.pi * a * period)


# ---------------------------------------------------------------------------
# Angular mode sum with Bessel quadrature.


@dataclass(frozen=True)
class QuadratureControls:
    """Termination controls for the radial mode quadrature."""

    abs_tol: float = 1e-12
    max_panels: int = 8000


_QUAD_EPSREL = 1e-11

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21, Piessens et al. 1983):
# the Kronrod abscissae in (0, 1) (positions 1, 3, ..., 9 are the
# 10-point Gauss ones), the Kronrod weights of these and of the centre,
# and the Gauss weights of abscissae 1, 3, ..., 9.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_EPMACH = 2.0**-52  # QUADPACK's d1mach(4), the double epsilon
_UFLOW = 2.0**-1022  # d1mach(1), the least normal double
_X21 = np.concatenate([-_XGK, [0.0], _XGK])  # the nodes of [-1, 1], in fv's column order


def _pair_rows(order, offset=0, centre=True):
    """Row indices (left, right) of 11 sums over the nodes: [f(centre),
    f(-x_j) + f(x_j) for j in ``order``], zero-padded, for the rows
    ``offset`` to ``offset + 20`` of a node-major array (`_gk21_nodes`'
    column order) whose last row is zero.  Index -1, the zero row, stands
    in for a missing partner; adding an exact zero keeps the bits of the
    term."""
    pad = [-1] * (10 - len(order))
    left = [offset + 10 if centre else -1] + [offset + j for j in order] + pad
    right = [-1] + [offset + 11 + j for j in order] + pad
    return left, right


_GAUSS_FIRST = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]  # dqk21's order for resk and resabs
# [fv, |fv|] node-major, plus a zero row, gathered at _TERMS_LEFT and
# _TERMS_RIGHT and summed, times _W_TERMS, is the terms of resk, resg and
# resabs, 11 each in dqk21's order; |fv - resk / 2| node-major, plus a zero
# row, gathered at _ASC_LEFT and _ASC_RIGHT, times _W_ASC, is those of resasc.
_TERMS_LEFT, _TERMS_RIGHT = (np.array(a + b + c) for a, b, c in zip(
    _pair_rows(_GAUSS_FIRST), _pair_rows([1, 3, 5, 7, 9], centre=False),
    _pair_rows(_GAUSS_FIRST, offset=21)))
_W_TERMS = np.concatenate([[_WGK[10]], _WGK[_GAUSS_FIRST], [0.0], _WG, np.zeros(5),
                           [_WGK[10]], _WGK[_GAUSS_FIRST]]).reshape(3, 11, 1)
_ASC_LEFT, _ASC_RIGHT = (np.array(a) for a in _pair_rows(range(10)))
_W_ASC = np.concatenate([[_WGK[10]], _WGK[:10]])[:, None]


def _in_order(terms):
    """Sum of ``terms`` (..., 11, n) over its 11, one term after another
    (numpy's ``sum`` may add pairwise).  ``np.add.accumulate`` costs
    ~5 ns a term: on the oracles' rows (n <= 30) ~20 us less than a loop
    of row additions, which only overtakes it from n ~ 100."""
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


def _gk21_nodes(a, b):
    """The (n, 21) dqk21 nodes of the intervals [a_k, b_k]: columns 0-9
    centr - hlgth * _XGK, 10 the centre, 11-20 centr + hlgth * _XGK."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _X21


def _dqk21(fv, hlgth):
    """dqk21 on every row of ``fv`` (the integrand on `_gk21_nodes`) at once.

    Returns the Kronrod result, the error estimate, resabs and resasc in
    QUADPACK's operation order: each weight times its node pair's sum
    (gathered rows added elementwise, no matrix product, so no BLAS),
    the terms summed one after another in dqk21's order (`_in_order`),
    and the (200 err / resasc)^1.5 scaling through libm's pow, as
    QUADPACK does, not numpy's.
    """
    n = len(fv)
    rows = np.zeros((43, n))  # fv and |fv| node-major, then the zero row
    rows[:21] = fv.T
    np.abs(rows[:21], out=rows[21:42])
    terms = rows[_TERMS_LEFT]
    terms += rows[_TERMS_RIGHT]
    resk, resg, resabs = _in_order(terms.reshape(3, 11, n) * _W_TERMS)
    dev = np.zeros((22, n))  # |fv - resk / 2| node-major, then the zero row
    np.abs(np.subtract(rows[:21], resk * 0.5, out=dev[:21]), out=dev[:21])
    asc = dev[_ASC_LEFT]
    asc += dev[_ASC_RIGHT]
    resasc = _in_order(asc * _W_ASC)
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = np.divide(200.0 * abserr, resasc, out=np.zeros(n), where=scaled)
    capped = np.fmin(1.0, jets._power(ratio, 1.5))
    abserr = np.where(scaled, resasc * capped, abserr)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    np.fmax((_EPMACH * 50.0) * resabs, abserr, out=abserr, where=floor)
    return result, abserr, resabs, resasc


def _flat_ends(s):
    """w(s) = (15 s - 10 s^3 + 3 s^5) / 8 and w'(s) = 15/8 (1 - s^2)^2.

    w maps [-1, 1] onto itself with w' vanishing to second order at both
    ends (a Sidi-type change of variable): an integrable endpoint
    singularity of f, such as x log x or a non-integer power, becomes
    one whose bisection error falls ~2^6 times per level.
    """
    s2 = s * s
    return s * (15.0 - 10.0 * s2 + 3.0 * s2 * s2) / 8.0, (15.0 / 8.0) * (1.0 - s2) ** 2


def _finite_map(a, half):
    """x(s) = a + half (1 + w(s)) of the intervals [a, a + 2 half], and dx/ds,
    for an (n, 21) array of s and the interval of each row."""
    def x_of(s, k):
        w, dw = _flat_ends(s)
        return a[k][:, None] + half[k][:, None] * (1.0 + w), half[k][:, None] * dw
    return x_of


def _infinite_map(s, k):
    """x = tan(pi w(s) / 2) and dx/ds: (-inf, inf) onto [-1, 1] (``k``,
    the interval of each row, is unused: there is only one)."""
    w, dw = _flat_ends(s)
    y = 0.5 * math.pi * w
    cos_y = np.cos(y)
    return np.tan(y), 0.5 * math.pi * dw / (cos_y * cos_y)


_QUARTERS = np.linspace(-1.0, 1.0, 5)


def integrate_gk21(f, a, b, *, epsabs=1e-13, epsrel=_QUAD_EPSREL, limit=300,
                   groups=None, fv=None):
    """Integrals of ``f`` over the intervals [a_k, b_k], one per group.

    An adaptive 21-point Gauss-Kronrod quadrature, numpy only.
    ``groups[k]`` numbers the integral that interval k is a part of (by
    default each interval is its own).  ``f(x, k)`` maps an (n, 21)
    array of abscissae, a row per piece, and the interval each row lies
    in to the integrand's values; each level calls it once, on the nodes
    of every live piece, and applies `_dqk21` to each piece.  A group's
    tolerance max(``epsabs``, ``epsrel`` |I|), I its current estimate,
    is shared among its intervals and their pieces by width, and a piece
    is accepted by dqagse's first-pass test against its share.

    The first level is the intervals themselves, so an interval that is
    its own group and passes there has the value QUADPACK's dqagse gives
    it, bit for bit (``fv``, if given, is ``f`` on their `_gk21_nodes`).
    An interval that fails is integrated anew from the quarters of s in
    [-1, 1], x = a + (b - a) (1 + w(s)) / 2 (`_flat_ends`), and failing
    pieces are bisected from then on, all at once.  A call with one
    interval may be the whole line (-inf, inf): it starts at the quarters,
    through `_infinite_map`; one infinite endpoint is a ValueError.

    Raises ConvergenceError where the integrand is not finite (NaN or
    infinity at a node) and where the pieces would exceed ``limit`` per
    interval, pooled over the call: no estimate is returned silently.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    n = len(a)
    group = np.arange(n) if groups is None else np.asarray(groups)
    m = int(group.max()) + 1
    values = np.zeros(m)
    if np.isfinite(a).all() and np.isfinite(b).all():
        # the first level, in x: a piece's share of its interval is hlgth / half
        half = 0.5 * (b - a)
        weight = half / np.bincount(group, half, m)[group]
        lo, hi, start, span, x_of = a, b, np.arange(n), half, None
    else:
        whole_line = n == 1 and a[0] == -np.inf and b[0] == np.inf
        if not whole_line or groups is not None or fv is not None:
            raise ValueError("an infinite endpoint needs the single interval "
                             "(-inf, inf), without groups or fv")
        weight = np.ones(1)
        lo, hi, start, span = _QUARTERS[:-1], _QUARTERS[1:], np.zeros(4, int), np.ones(1)
        x_of = _infinite_map
    pieces = len(lo)
    while True:
        hlgth = 0.5 * (hi - lo)
        if fv is None:
            nodes = _gk21_nodes(lo, hi)
            if x_of is None:
                fv = f(nodes, start)
            else:
                x, dx = x_of(nodes, start)
                fv = f(x, start) * dx
        if not np.isfinite(fv).all():
            k = start[np.flatnonzero(~np.isfinite(fv).all(axis=1))[0]]
            raise ConvergenceError(f"integrand not finite on [{a[k]!r}, {b[k]!r}]")
        result, abserr, resabs, resasc = _dqk21(fv, hlgth)
        owner = group[start]
        estimate = values + np.bincount(owner, result, m)
        share = np.fmax(epsabs, epsrel * np.abs(estimate))[owner] * (
            weight[start] * (hlgth / span[start]))
        # dqagse's first-pass test: within the share and not capped at resasc
        # (its "abserr != resabs"), or at the roundoff floor, or zero
        ok = ((abserr <= share) & (abserr != resasc)) | (abserr == 0.0)
        ok |= (abserr <= 100.0 * _EPMACH * resabs) & (abserr > share)
        values += np.bincount(owner, result * ok, m)
        if ok.all():
            return values
        fail = np.flatnonzero(~ok)
        if x_of is None:
            # failing intervals start again from the quarters of s
            start = start[fail]
            lo, hi = np.tile(_QUARTERS[:-1], len(fail)), np.tile(_QUARTERS[1:], len(fail))
            pieces += 3 * len(fail)
            x_of = _finite_map(a, half)
            span = np.ones(n)
            start = np.repeat(start, 4)
        else:
            lo, hi, start = lo[fail], hi[fail], start[fail]
            mid = 0.5 * (lo + hi)
            lo, hi, start = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(start, 2)
            pieces += len(fail)
        if pieces > limit * n:
            raise ConvergenceError(
                f"adaptive quadrature needs more than {limit} pieces per interval"
            )
        fv = None


def _envj(n, x):
    # about -log10 |J_n(x)| (Zhang and Jin's ENVJ), for n >= 1
    return 0.5 * math.log10(6.28 * n) - n * math.log10(1.36 * x / n)


def _msta2(x, n, digits):
    """Zhang and Jin's MSTA2 (1996, ch. 5): an order from which the backward
    recurrence gives J_n(x), n >= 1, with ``digits`` significant digits."""
    half = 0.5 * digits
    ejn = _envj(n, x)
    if ejn <= half:
        obj, n0 = digits, int(1.1 * x) + 1
    else:
        obj, n0 = half + ejn, int(n)
    f0 = _envj(n0, x) - obj
    n1 = n0 + 5
    f1 = _envj(n1, x) - obj
    for _ in range(20):  # the secant method on the integers
        nn = max(1, int(n1 - (n1 - n0) / (1.0 - f0 / f1)))
        if abs(nn - n1) < 1:
            break
        n0, f0, n1, f1 = n1, f1, nn, _envj(nn, x) - obj
    return nn + 10


def _bessel_j(nu0, ks, x):
    """J_{nu0[f] + ks[f, i]}(x) as an (F, m, X) array.

    ``nu0`` is an (F,) array of orders in [0, 1), one per family, ``ks``
    an (F, m) array of integers >= 0, and ``x`` > 0 an (X,) array shared
    by the families or an (F, X) array, a row each.  Miller's backward
    recurrence J_{v-1} = (2v/x) J_v - J_{v+1} (Gautschi 1967) runs down
    every family at once, as the rows of an (F, X) array, from an order
    that Zhang and Jin's MSTA2 picks for the largest x and the top
    order; Neumann's sum
    (x/2)^nu0 / Gamma(nu0 + 1) = sum_k c_k J_{nu0+2k}(x), with c_0 = 1 and
    c_k = (nu0 + 2k) Gamma(nu0 + k) / (Gamma(nu0 + 1) k!), normalizes it.
    Every few orders each element is rescaled by a power of 2 (exactly),
    and keeps the exponent, so nothing overflows however fast J grows
    toward low orders at small x; values below the double range come out
    as 0.  Each value is relatively accurate where J_v(x) cannot vanish
    (x <= v) and accurate relative to the modulus |H_v(x)| beyond.
    """
    nu0 = np.asarray(nu0, dtype=float)
    ks = np.asarray(ks)
    x = np.asarray(x, dtype=float)
    families, members = ks.shape
    col = nu0[:, None]
    start = max(int(ks.max()), _msta2(float(x.max()), max(float((col + ks).max()), 1.0), 17))
    # |f_{s-1}| <= (2 (nu0 + s) / x + 1) max(|f_s|, |f_{s+1}|): rescale well
    # before 2^1023
    every = max(1, int(900.0 // math.log2(2.0 * (start + 1) / float(x.min()) + 1.0)))
    k = np.arange(1.0, start // 2 + 1)
    gammas = np.cumprod(np.concatenate([np.ones((families, 1)), (col + k[:-1]) / k[:-1]], axis=1),
                        axis=1)  # Gamma(nu0 + k) / (Gamma(nu0 + 1) (k - 1)!)
    c = np.concatenate([np.ones((families, 1)), (col + 2.0 * k) / k * gammas], axis=1)
    stores = {}
    for i, s in enumerate(ks.ravel().tolist()):
        stores.setdefault(s, []).append(i)
    family = np.arange(families * members) // members
    two_over_x = 2.0 / x
    cur = np.ones(np.broadcast_shapes((families, 1), x.shape))
    above = np.zeros_like(cur)
    exponent = np.zeros(cur.shape, dtype=int)
    norm = np.zeros_like(cur)
    out = np.empty((families * members, cur.shape[1]))
    out_exponent = np.empty(out.shape, dtype=int)
    for s in range(start, -1, -1):  # cur holds f_{nu0+s}, above f_{nu0+s+1}
        if s % 2 == 0:
            norm += c[:, s // 2, None] * cur
        if s in stores:
            i = np.array(stores[s])
            out[i] = cur[family[i]]
            out_exponent[i] = exponent[family[i]]
        if s == 0:
            break
        cur, above = (col + s) * two_over_x * cur - above, cur
        if s % every == 0:
            _, e = np.frexp(np.fmax(np.abs(cur), np.abs(above)))
            cur, above, norm = np.ldexp(cur, -e), np.ldexp(above, -e), np.ldexp(norm, -e)
            exponent += e
    mantissa, e = np.frexp(norm)
    exponent += e
    lhs = np.power(0.5 * x, col) / np.array([math.gamma(v + 1.0) for v in nu0.tolist()])[:, None]
    scale = lhs / mantissa
    j = np.ldexp(out * scale[family], out_exponent - exponent[family])
    return j.reshape(families, members, -1)


_K_NODES = 160
_K_STEPS = np.arange(1.0, _K_NODES + 1)


def _bessel_k(order, x):
    """K_0 (``order`` 0) or K_1 (1) at an array ``x`` > 0.

    K_v(x) = e^-x int_0^inf exp(-2x sinh^2(s/2)) cosh(v s) ds by the
    trapezoid rule, which converges double-exponentially on it
    (Trefethen and Weideman 2014): _K_NODES steps out to where the
    exponent reaches -40, a step size per element.  Relative error
    ~1e-15 for x in [1e-14, 250].
    """
    x = np.asarray(x, dtype=float)[..., None]
    h = 2.0 * np.arcsinh(np.sqrt(40.0 / x)) / _K_NODES
    s = h * _K_STEPS
    terms = np.exp(-2.0 * x * np.sinh(0.5 * s) ** 2)
    if order:
        terms *= np.cosh(s)
    return (np.exp(-x) * h)[..., 0] * (0.5 + terms.sum(axis=-1))


def _panel_plan(r, rp, zeta, abs_tol, max_panels):
    """The panels of the mode integrals and what on them does not depend on nu.

    Returns the panel starts and ends, the (panels, 21) dqk21 nodes w
    (`_gk21_nodes`) and K_0(w zeta) on them.  The panels are as many as
    it takes the tail bound (W/zeta) K_1(W zeta) at the last end W to
    drop below ``abs_tol``.
    """
    width = 4.0 * math.pi / (r + rp + zeta)
    count = 64
    while True:
        count = min(count, max_panels)
        ends = np.cumsum(np.full(count, width))  # sequential, as one adds panels
        done = (ends / zeta) * _bessel_k(1, ends * zeta) < abs_tol  # the bound falls with W
        if done.any():
            break
        if count == max_panels:
            raise ConvergenceError(
                f"mode_integral did not meet abs_tol={abs_tol!r} "
                f"within {max_panels} panels"
            )
        count *= 8
    b = ends[:int(done.argmax()) + 1]
    a = np.concatenate([[0.0], b[:-1]])
    w = _gk21_nodes(a, b)
    return a, b, w, _bessel_k(0, w * zeta)


def _mode_integrals(nu0, ks, count, r, rp, zeta, controls):
    """`mode_integral` of the modes n < ``count``, as a (count,) array,
    where mode n = f + F i (F families) has the order nu0[f] + ks[f, i].

    One `_bessel_j` table covers every order on every node of every
    panel; the intervals of one `integrate_gk21` call are the (mode,
    panel) pairs, each its own integral, so each panel has the tolerance
    it would have alone.  A panel that fails its first pass is refined
    at its own order only.  Each mode's panels are summed in order.
    """
    c = controls or QuadratureControls()
    a, b, w, k0 = _panel_plan(r, rp, zeta, c.abs_tol, c.max_panels)
    panels, families, half = len(a), len(nu0), w.size
    j = _bessel_j(nu0, ks, np.concatenate([(w * r).ravel(), (w * rp).ravel()]))
    j = j.transpose(1, 0, 2).reshape(-1, 2 * half)[:count]
    fv = w.ravel() * j[:, :half] * j[:, half:] * k0.ravel()
    mode_k = ks.T.ravel()

    def f(x, k):
        # Rows of one piece share their nodes (the same panel of several
        # modes): K_0 once per piece, and one recurrence per piece and
        # family, for just the orders its rows need.
        pieces, piece = np.unique(x, axis=0, return_inverse=True)
        piece = piece.reshape(-1)  # numpy 2.0.0 gave it a trailing axis
        mode = k // panels
        groups, group = np.unique(piece * families + mode % families, return_inverse=True)
        by_group = np.argsort(group, kind="stable")
        slot = np.empty_like(group)
        slot[by_group] = np.arange(len(group)) - np.searchsorted(group[by_group], group[by_group])
        gks = np.zeros((len(groups), slot.max() + 1), dtype=int)
        gks[group, slot] = mode_k[mode]
        gx = pieces[groups // families]
        jx = _bessel_j(nu0[groups % families], gks,
                       np.concatenate([gx * r, gx * rp], axis=1))[group, slot]
        return x * jx[:, :21] * jx[:, 21:] * _bessel_k(0, pieces * zeta)[piece]

    values = integrate_gk21(f, np.tile(a, count), np.tile(b, count),
                            epsabs=0.01 * c.abs_tol, fv=fv.reshape(-1, 21))
    return np.add.accumulate(values.reshape(count, panels), axis=1)[:, -1]


def mode_integral(
    nu: float, r: float, rp: float, zeta: float,
    controls: QuadratureControls | None = None,
) -> float:
    """Radial integral of one angular mode.

    integral_0^inf  w J_nu(w r) J_nu(w rp) K_0(w zeta) dw,

    which has the closed value exp(-nu u) / (2 r rp sinh u).  Done
    panel by panel with panel width 4 pi/(r + rp + zeta) so each
    panel holds at most a couple of Bessel oscillations.  The panels
    end once the analytic bound (W/zeta) K_1(W zeta) on the remaining
    tail (using |J_nu| <= 1) drops below ``abs_tol``.

    The panels are the starting intervals of one `integrate_gk21` call,
    whose first level is the integrand on every node of every panel in
    one numpy evaluation; the Bessel functions are numpy too
    (`_bessel_j`, `_bessel_k`).  A panel that fails dqagse's first test
    there is integrated adaptively.  The panels are summed in order.
    This is the one-order case of what `tbar_modesum_4d` does for all
    its modes at once.
    """
    if nu < 0 or r <= 0 or rp <= 0:
        raise DomainError("mode_integral needs nu >= 0 and positive radii")
    if zeta <= 0:
        raise DomainError("mode_integral needs zeta > 0 for convergence")
    k = math.floor(nu)
    return float(_mode_integrals(np.array([nu - k]), np.array([[k]]), 1, r, rp, zeta,
                                 controls)[0])


def _mode_orders(a, count):
    """The orders a n, n < count, as families nu0 + k of `_bessel_j`.

    With a p an integer q (to a few ulps) for some p < count, mode
    n = f + p i has the order nu0_f + k_f + q i, where nu0_f + k_f = a f
    and k_f is an integer: p families of ceil(count / p) members, the
    last ones past count.  Otherwise each order is a family of its own.
    Returns nu0 (F,) and ks (F, m), as `_mode_integrals` takes them.
    """
    p = next((p for p in range(1, count)
              if abs(a * p - round(a * p)) <= 4.0 * _EPMACH * a * p and round(a * p) > 0),
             count)
    base = a * np.arange(p)
    whole = np.floor(base)
    ks = whole.astype(int)[:, None] + round(a * p) * np.arange(-(-count // p))
    return base - whole, ks


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

    Every mode n <= ``n_terms``, of order a n with a = 2 pi / theta1, is
    integrated in one `_mode_integrals` call; orders a apart by whole
    numbers share one Bessel recurrence (`_mode_orders`).  The modes
    are summed in order until the geometric bound on the rest falls
    below 1e-10 of the leading mode.
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
    if n_terms is None:
        # Geometric tail below 1e-10 of the leading mode.
        n_terms = math.ceil(
            (math.log(1e10) - math.log(-math.expm1(-decay))) / decay
        ) + 1
    nu0, ks = _mode_orders(a, n_terms + 1)
    modes = _mode_integrals(nu0, ks, n_terms + 1, pair.r, pair.rp, zeta, controls).tolist()
    dth = pair.dtheta
    total = modes[0]
    cutoff = 1e-10 * abs(modes[0])
    for n in range(1, n_terms + 1):
        mode = modes[n]
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


# The v ranges of one integral over u = u0 + v^2 from u0 out to u0 + 80: one
# dqk21 level on all five usually meets its tolerance where two ranges
# needed three levels.
_V_EDGES = np.array([0.0, 1.0, 2.0, 3.0, 4.5, math.sqrt(80.0)])


def _v_weight(u0: float, v):
    """(du/dv) / sqrt(2 (cosh u - cosh u0)) at u = u0 + v^2, on an array of v.

    That is 1 / sqrt(sinh(u0 + v^2/2) sinh(v^2/2) / v^2), with 1/sinh
    written as 2 e^-x / (1 - e^-2x), which cannot overflow.
    """
    h = 0.5 * v * v
    sinhc = np.divide(np.sinh(h), v * v, out=np.full_like(v, 0.5), where=v > 1e-8)
    x = u0 + h
    return np.sqrt(2.0 * np.exp(-x) / (-np.expm1(-2.0 * x) * sinhc))


def _tbar_3d_many(t, r, rp, dthetas, theta1) -> list[float]:
    """`tbar_3d` at every angular offset in ``dthetas``, from one quadrature.

    Each offset's integral is a group of its own five v ranges in one
    `integrate_gk21` call, so it has the tolerance and the bits it has
    alone; only the piece limit is pooled over the call.
    """
    u0 = _3d_u0(t, r, rp, theta1)
    a = 2.0 * math.pi / theta1
    gap = np.array([4.0 * math.sin(0.5 * a * dth) ** 2 for dth in dthetas])[:, None]
    count, ranges = len(gap), len(_V_EDGES) - 1

    def f(v, k):
        # sinh(x) / (cosh(x) - cos(a dtheta)), numerator and denominator
        # times 2 e^-x: the denominator is a sum of squares, nothing cancels
        x = a * (u0 + v * v)
        angular = -np.expm1(-2.0 * x) / (np.expm1(-x) ** 2 + gap[k // ranges] * np.exp(-x))
        return angular * _v_weight(u0, v)

    values = integrate_gk21(f, np.tile(_V_EDGES[:-1], count), np.tile(_V_EDGES[1:], count),
                            groups=np.repeat(np.arange(count), ranges))
    scale = math.pi * theta1 * math.sqrt(r * rp)
    return [-v / scale for v in values.tolist()]


def tbar_3d(t: float, r: float, rp: float, dtheta: float, theta1: float) -> float:
    """Cylinder kernel of the cone with no translational direction.

    Equals the z' integral of the four-dimensional kernel and is
    computed as a one-dimensional integral over u from its minimum u0,
    with the substitution u = u0 + v^2 to remove the inverse square
    root at the lower endpoint.  The integrand is numpy on the node
    arrays of `integrate_gk21`.  At theta1 = 2 pi this reduces to
    -1/(2 pi d) with d the chordal distance in the plane.
    """
    return _tbar_3d_many(t, r, rp, [dtheta], theta1)[0]


def tbar_3d_theta_average(t: float, r: float, rp: float, theta1: float) -> float:
    """Angular average of `tbar_3d` over one full cone period.

    The average has a closed form in terms of the Legendre function of
    the second kind of degree -1/2, evaluated here through the same
    endpoint-regularized integral used by `tbar_3d`: averaging over
    dtheta takes its angular factor to 1.
    """
    u0 = _3d_u0(t, r, rp, theta1)
    (total,) = integrate_gk21(lambda v, k: _v_weight(u0, v), _V_EDGES[:-1], _V_EDGES[1:],
                              groups=[0] * 5).tolist()
    return -total / (math.pi * theta1 * math.sqrt(r * rp))
