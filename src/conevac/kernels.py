"""Cylinder kernels on flat space, cones, wedges, and related geometries.

The central object is the cylinder kernel tbar(t; x, x'), minus twice
the Euclidean two-point function of a massless scalar field with the
two points split by Euclidean time t > 0.  Second derivatives of tbar
at small t give the regularized stress tensor; its t -> 0 divergence
is the universal flat-space one, so differences of kernels have smooth
coincidence limits.

All closed forms depend on the spatial points through the hyperbolic
separation u, computed in `_separation`, and on the angular offset.  The
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
  * u above _LARGE_U: exponential form of 1/sinh(u);
  * a cone order a = 2 pi / theta1 below _SHEET_A: the a -> 0 limit,
    where the cone's form loses its bits as (a u)^2 and (a dth)^2 leave
    the normal doubles; an offset with a * dth below _SHEET_Y takes the
    sheet's own form, a farther one the cone's form at a u -> 0
    (`_sheet_term`).

The infinite sheet (Dowker space) is the cone of order a = 0:
`dowker_expr` is `_cone_expr(math.inf)`, so every cylindrical kernel but
flat space's is one `_cone_terms` family.

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
element sees the IEEE operations of its own angle.

This module is the production tier; the independent numerics that check
it (image sums, the Bessel mode sum, the 3D reduction) are in `checks`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import jets
from .errors import DomainError, SingularPointError
from .geometry import (
    BoundaryCondition,
    Cone,
    Dowker,
    Minkowski,
    PointPair,
    Wedge,
)
from .jets import value_of

# Branch thresholds.  The series window additionally requires a*u small
# so that the truncated series stays accurate for very sharp cones.
_SMALL_U = 1e-4
_SMALL_AU = 0.05
_EXP_FORM_MIN_X = 30.0
_LARGE_U = 350.0
# Below this order a = 2 pi / theta1 the cone takes its a -> 0 limit
# (`_sheet_term`).  The cone's own form agrees with the sheet to its
# roundoff from theta1 = 1e10 to 1e152 and breaks from about 1e155, where
# (a u)^2 and (a dth)^2 leave the normal doubles.
_SHEET_A = 1e-99
# Below this a * dth an offset's term is the sheet's, to a relative (a dth)^2 / 12.
_SHEET_Y = 1e-9

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

    For an order a below _SHEET_A each term is its `_sheet_term`.
    """
    a = 2.0 * math.pi / theta1
    q, u = _separation(t, r, rp, z, zp)
    sheet = a < _SHEET_A
    if sheet is not False:  # the float path pays one test for this branch
        side = sheet if sheet is True else jets.agree(sheet)
        if side is None:
            return jets.split(sheet, _cone_terms, t, r, rp, z, zp, theta1, *dths)
        if side:
            num, den, u2 = -_u_over_sinh(q, u), _TWO_PI_SQ * r * rp, u * u
            return [_sheet_term(num, den, u2, a, dth) for dth in dths]
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


def _sheet_term(num, den, u2, a, dth):
    """A cone term at order a below _SHEET_A, from the sheet's -u/sinh(u), 2 pi^2 r rp and u^2.

    With x = a u below ~1e-96, sinh(x) = x and 2 sinh^2(x/2) = x^2/2 to a
    relative x^2/12, and the cone's term is the sheet's with
    (2 sin(a dth / 2) / a)^2 in place of dth^2.  Below a * dth = _SHEET_Y
    that is dth^2 to roundoff, and the term is the sheet's own form; above
    it, numerator and denominator are taken times a^2, which stays finite
    where 1/a^2 would overflow (a^2 underflows to 0 there, with the term).
    """
    far = a * abs(value_of(dth)) >= _SHEET_Y
    side = far if isinstance(far, bool) else jets.agree(far)
    if side is None:
        return jets.split(far, _sheet_term, num, den, u2, a, dth)
    if side:
        a2 = a * a
        return a2 * num / (den * (a2 * u2 + 4.0 * jets.sin(0.5 * a * dth) ** 2))
    return num / (den * (u2 + dth * dth))


def _wedge_term(t, r, rp, theta, thetap, z, zp, theta0, sign):
    # The doubled cone's direct term and its reflected image share one
    # separation; the image sign leaves the direct term unmultiplied.
    direct, image = _cone_terms(t, r, rp, z, zp, 2.0 * theta0, theta - thetap, theta + thetap)
    return direct + sign * image


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


# The infinite-sheeted covering: the cone of order 0.
dowker_expr = _cone_expr(math.inf)


def kernel_kind(geometry):
    """What geometries must share to share a kernel expression up to their angle.

    The type, and for a wedge its boundary condition: cones of any
    angles are one kind, and so are wedges of any openings with one
    wall condition.
    """
    return type(geometry), getattr(geometry, "bc", None)


def kernel_expr(geometry):
    """Kernel expression f(t, r, rp, theta, thetap, z, zp) for a geometry.

    This is the full kernel, flat part included, for every cylindrical
    geometry; renormalization subtracts `minkowski_expr` from it.

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
            return _cone_expr(theta1)
        case Dowker():
            return dowker_expr
        case Wedge(theta0=theta0, bc=bc):
            return _wedge_expr(theta0, bc.image_sign)
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


_SINGULAR = {Cone: "pair sits on a singularity of the cone kernel",
             Wedge: "pair sits on a singularity of the wedge kernel"}


def _tbar(geometry, pair: PointPair) -> float:
    """Float kernel of ``geometry`` at ``pair``; a zero division marks a singular point."""
    if isinstance(geometry, Wedge):
        for name, ang in (("theta", pair.theta), ("thetap", pair.thetap)):
            if not 0.0 <= ang <= geometry.theta0:
                raise DomainError(f"{name}={ang!r} outside the wedge [0, {geometry.theta0!r}]")
    expr = kernel_expr(geometry)
    try:
        return expr(pair.t, pair.r, pair.rp, pair.theta, pair.thetap, pair.z, pair.zp)
    except ZeroDivisionError:
        message = _SINGULAR.get(type(geometry), "coincident points with t = 0")
        raise SingularPointError(message) from None


def tbar_minkowski(pair: PointPair) -> float:
    """Flat-space cylinder kernel, -1/(2 pi^2 d^2) at squared distance d^2."""
    return _tbar(Minkowski(), pair)


def tbar_cone(pair: PointPair, theta1: float) -> float:
    """Cylinder kernel on the cone of total angle ``theta1``."""
    return _tbar(Cone(theta1), pair)


def tbar_dowker(pair: PointPair) -> float:
    """Cylinder kernel on the infinite-sheeted covering of the punctured plane.

    The angular offset is not reduced modulo anything; sheets are
    distinguished by the full difference theta - thetap.
    """
    return _tbar(Dowker(), pair)


def tbar_wedge(
    pair: PointPair,
    theta0: float,
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET,
) -> float:
    """Cylinder kernel in the wedge of opening ``theta0``: the doubled cone plus its image.

    Both angles must lie in the closed interval [0, theta0]; boundary
    values are allowed (for Dirichlet walls the kernel vanishes there).
    """
    return _tbar(Wedge(theta0, bc), pair)
