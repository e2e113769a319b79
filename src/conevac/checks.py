"""Independent numerics that check the production kernels (the check tier).

The kernels in `kernels` are closed forms; these compute the same
kernels in structurally different ways: sums over the sheets of Dowker
space and the copies of a periodic line (`_lattice_sum`, one numpy
expression over all images, summed in the order of a running sum), a
Bessel mode sum (`tbar_modesum_4d`) and the three-dimensional reduction
(`tbar_3d`, and `_tbar_3d_many` for many offsets in one call).  `oracles`
and the tests call them; no production module imports this one.  The
quadratures go through `integrate_gk21`, a numpy adaptive Gauss-Kronrod
quadrature on QUADPACK's dqk21 rule that adds node pairs elementwise,
with no matrix product, so BLAS cannot change a bit.  J_nu comes from
Miller's backward recurrence or, far beyond its orders, Hankel's
expansion and the forward recurrence (`_bessel_j`), K_0 and K_1 from the
trapezoid rule (`_bessel_k`); nothing here imports scipy.

The float separation `u_of_pair`, with cosh u and sinh u (the kernels
and the image sum take theirs from `kernels._separation`), and
`PeriodicLine`, a geometry no production function accepts, live here
too.  `conevac` re-exports every public name of this module, but imports
it only on first use of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularPointError
from .geometry import Cone, PointPair, _require_finite
from .jets import _power
from .kernels import _TWO_PI_SQ, _angular_factors, _separation, _u_over_sinh

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


@dataclass(frozen=True)
class UVariable:
    """The hyperbolic separation u together with its cosh and sinh.

    cosh u and sinh u are computed from the same intermediate as u
    itself, so the three fields are mutually consistent to roundoff
    even when u is tiny.
    """

    u: float
    cosh_u: float
    sinh_u: float


def u_of_pair(pair: PointPair) -> UVariable:
    """Hyperbolic separation of a point pair, as a float.

    cosh u = (r^2 + r'^2 + t^2 + (z - z')^2) / (2 r r'), computed in the
    half-angle form u = 2 asinh(sqrt(q)) with
    q = ((r - r')^2 + (z - z')^2 + t^2) / (4 r r'), which stays accurate
    for nearly coincident points where cosh u - 1 underflows.
    """
    q = ((pair.r - pair.rp) ** 2 + (pair.z - pair.zp) ** 2 + pair.t**2) / (
        4.0 * pair.r * pair.rp
    )
    return UVariable(
        u=2.0 * math.asinh(math.sqrt(q)),
        cosh_u=1.0 + 2.0 * q,
        sinh_u=2.0 * math.sqrt(q * (1.0 + q)),
    )


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
    Each sheet's kernel is `tbar_dowker`'s, on the kernels' own q, u and
    u / sinh(u).
    """
    Cone(theta1)  # validate
    q, u = _separation(pair.t, pair.r, pair.rp, pair.z, pair.zp)
    if u == 0.0:
        raise SingularPointError("coincident points with t = 0")
    amp = _u_over_sinh(q, u) / (_TWO_PI_SQ * pair.r * pair.rp)
    return _lattice_sum(amp, u, pair.dtheta, theta1, n_images, include_tail)


@dataclass(frozen=True)
class CartesianSeparation:
    """Separation of two points in Cartesian coordinates plus the cutoff t."""

    t: float
    dx: float
    dy: float = 0.0
    dz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "dx", "dy", "dz"):
            _require_finite(name, getattr(self, name))
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t!r}")


@dataclass(frozen=True)
class PeriodicLine:
    """Flat space with one Cartesian direction compactified to a circle."""

    period: float

    def __post_init__(self) -> None:
        _require_finite("period", self.period)
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period!r}")


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
    QUADPACK does, not numpy's, on the rows where both are nonzero.
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
    ratio = 200.0 * abserr[scaled] / resasc[scaled]
    abserr[scaled] = resasc[scaled] * np.fmin(1.0, _power(ratio, 1.5))
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
    the interval of each row, is unused: every one is the whole line)."""
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
    pieces are bisected from then on, all at once.  The intervals of a
    call may all be the whole line (-inf, inf), each its own integral:
    they start at the quarters, through `_infinite_map`; any other
    infinite endpoint is a ValueError.

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
        whole_line = (a == -np.inf).all() and (b == np.inf).all()
        if not whole_line or groups is not None or fv is not None:
            raise ValueError("an infinite endpoint needs every interval to be "
                             "(-inf, inf), without groups or fv")
        weight, span = np.ones(n), np.ones(n)
        lo, hi = np.tile(_QUARTERS[:-1], n), np.tile(_QUARTERS[1:], n)
        start = np.repeat(np.arange(n), 4)
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


# Hankel's expansion reaches 2^-56 within 20 terms from this argument on,
# for the orders below 2 it is taken at (k = 0..20 in _HANKEL_K).
_HANKEL_MIN_X = 25.0
_HANKEL_K = np.arange(21.0)


def _bessel_j(nu0, ks, x):
    """J_{nu0[f] + ks[f, i]}(x) as an (F, m, X) array.

    ``nu0`` is an (F,) array of orders in [0, 1), one per family, ``ks``
    an (F, m) array of integers >= 0, and ``x`` > 0 an (X,) array shared
    by the families or an (F, X) array, a row each.

    The crossover is the larger of _HANKEL_MIN_X and the call's top order.
    An argument beyond it takes `_bessel_j_hankel`, whose forward
    recurrence is stable there, since every order is below x; the rest
    take Miller's recurrence, `_bessel_j_miller`, which then starts no
    higher than the crossover asks.  The Hankel path costs about a
    forward step per order up to the top one, plus its terms: about the
    Miller steps of arguments from the crossover to twice it.  So a call
    whose largest argument is below twice the crossover is
    `_bessel_j_miller` alone, and keeps its bits.
    """
    nu0 = np.asarray(nu0, dtype=float)
    ks = np.asarray(ks)
    x = np.asarray(x, dtype=float)
    crossover = max(_HANKEL_MIN_X, float((nu0[:, None] + ks).max()))
    if not float(x.max()) > 2.0 * crossover:
        return _bessel_j_miller(nu0, ks, x)
    far = x > crossover
    out = np.empty((*ks.shape, x.shape[-1]))
    if x.ndim == 1:  # arguments shared by the families: a column takes one path
        if not far.all():
            out[..., ~far] = _bessel_j_miller(nu0, ks, x[~far])
        out[..., far] = _bessel_j_hankel(nu0, ks, x[far])
        return out
    # a row of arguments per family: a row with a near argument takes
    # Miller's path, one with a far argument Hankel's (each clipped to the
    # crossover), and each element keeps its own path's value
    near_rows, far_rows = ~far.all(axis=1), far.any(axis=1)
    if near_rows.any():
        out[near_rows] = _bessel_j_miller(nu0[near_rows], ks[near_rows],
                                          np.fmin(x[near_rows], crossover))
    hankel = _bessel_j_hankel(nu0[far_rows], ks[far_rows], np.fmax(x[far_rows], crossover))
    out[far_rows] = np.where(far[far_rows, None, :], hankel, out[far_rows])
    return out


def _bessel_j_hankel(nu0, ks, x):
    """`_bessel_j` where every order nu0 + k is below x and x >= _HANKEL_MIN_X.

    J_nu0 and J_{nu0+1} from Hankel's expansion (DLMF 10.17.3),
    J_nu(x) = sqrt(2 / (pi x)) (P cos w - Q sin w), w = x - (nu/2 + 1/4) pi,
    with P and Q summed by Horner's rule in 1/x^2 out to the term that the
    least x makes negligible, and cos w and sin w by angle addition on
    libm's cos x and sin x, so no rounding of x - (nu/2 + 1/4) pi enters.
    The forward recurrence J_{v+1} = (2v/x) J_v - J_{v-1} then carries
    every family up to its orders; below x it is stable.  Each value is
    accurate relative to the modulus |H_v(x)|.
    """
    families, members = ks.shape
    lowest = np.concatenate([nu0, nu0 + 1.0])  # rows 0..F-1: nu0, rows F..2F-1: nu0 + 1
    mu = 4.0 * lowest * lowest
    # a_k(nu) = a_{k-1}(nu) (4 nu^2 - (2k - 1)^2) / (8k), k <= 20, kept while
    # a term a_k(nu) / x^k at the least x can exceed 2^-56
    k = _HANKEL_K[1:, None]
    a = np.concatenate([np.ones((1, len(lowest))),
                        np.cumprod((mu - (2.0 * k - 1.0) ** 2) / (8.0 * k), axis=0)])
    small = (np.abs(a) * (1.0 / float(x.min())) ** _HANKEL_K[:, None]).max(axis=1) <= 2.0**-56
    a = a[:int(small.argmax()) + 1]
    a[2::4] *= -1.0  # (-1)^j a_2j: P's coefficients at 2j, Q's at 2j + 1
    a[3::4] *= -1.0
    xs = np.concatenate([x, x]) if x.ndim == 2 else x
    y2 = 1.0 / (xs * xs)
    even, odd = a[0::2], a[1::2]
    p = np.broadcast_to(even[-1][:, None], (2 * families, xs.shape[-1])).copy()
    for c in even[-2::-1]:
        p *= y2
        p += c[:, None]
    q = np.broadcast_to(odd[-1][:, None], p.shape).copy()
    for c in odd[-2::-1]:
        q *= y2
        q += c[:, None]
    q /= xs
    phase = np.pi * (0.5 * lowest + 0.25)
    cos_p, sin_p = np.cos(phase)[:, None], np.sin(phase)[:, None]
    cos_x, sin_x = np.cos(xs), np.sin(xs)
    j = np.sqrt(2.0 / (np.pi * xs)) * (p * (cos_x * cos_p + sin_x * sin_p)
                                       - q * (sin_x * cos_p - cos_x * sin_p))
    below, cur = j[:families], j[families:]
    stores, family = _store_rows(ks)
    top = int(ks.max())
    orders = nu0[:, None] + np.arange(1.0, top + 1)  # the (nu0 + s + 1) of each step
    two_over_x = 2.0 / x
    step = np.empty_like(cur)
    out = np.empty((families * members, x.shape[-1]))
    for s in range(top + 1):  # below holds J_{nu0+s}, cur J_{nu0+s+1}
        if s in stores:
            out[stores[s]] = below[family[stores[s]]]
        if s == top:
            break
        # below, cur = cur, (nu0 + s + 1) * (2 / x) * cur - below, in place
        np.multiply(orders[:, s, None], two_over_x, out=step)
        np.subtract(np.multiply(step, cur, out=step), below, out=below)
        below, cur = cur, below
    return out.reshape(families, members, -1)


def _store_rows(ks):
    """The rows of a flat (F m, X) table that each order step fills, as
    {k: row indices}, and each row's family."""
    stores = {}
    for i, k in enumerate(ks.ravel().tolist()):
        stores.setdefault(k, []).append(i)
    return ({k: np.array(rows) for k, rows in stores.items()},
            np.arange(ks.size) // ks.shape[1])


def _bessel_j_miller(nu0, ks, x):
    """`_bessel_j` by Miller's backward recurrence.

    The recurrence J_{v-1} = (2v/x) J_v - J_{v+1} (Gautschi 1967) runs down
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
    stores, family = _store_rows(ks)
    two_over_x = 2.0 / x
    orders = col + np.arange(start + 1.0)  # the (nu0 + s) of each step
    cur = np.ones(np.broadcast_shapes((families, 1), x.shape))
    above = np.zeros_like(cur)
    step = np.empty_like(cur)
    exponent = np.zeros(cur.shape, dtype=int)
    norm = np.zeros_like(cur)
    out = np.empty((families * members, cur.shape[1]))
    out_exponent = np.empty(out.shape, dtype=int)
    for s in range(start, -1, -1):  # cur holds f_{nu0+s}, above f_{nu0+s+1}
        if s % 2 == 0:
            norm += np.multiply(c[:, s // 2, None], cur, out=step)
        if s in stores:
            i = stores[s]
            out[i] = cur[family[i]]
            out_exponent[i] = exponent[family[i]]
        if s == 0:
            break
        # cur, above = (nu0 + s) * (2 / x) * cur - above, cur, in place
        np.multiply(orders[:, s, None], two_over_x, out=step)
        np.subtract(np.multiply(step, cur, out=step), above, out=above)
        cur, above = above, cur
        if s % every == 0:
            _, e = np.frexp(np.fmax(np.abs(cur), np.abs(above)))
            for v in (cur, above, norm):
                np.ldexp(v, -e, out=v)
            exponent += e
    mantissa, e = np.frexp(norm)
    exponent += e
    lhs = np.power(0.5 * x, col) / np.array([math.gamma(v + 1.0) for v in nu0.tolist()])[:, None]
    scale = lhs / mantissa
    j = np.ldexp(out * scale[family], out_exponent - exponent[family])
    return j.reshape(families, members, -1)


# The trapezoid nodes of `_bessel_k` by argument: x >= 1, 1e-2 <= x < 1,
# 1e-5 <= x < 1e-2 and the rest.  Each count stays within ~1e-15 down to a
# third of its tier's least argument or below (160 down to x = 1e-14).
_K_EDGES = np.array([1e-5, 1e-2, 1.0])
_K_STEPS = [np.arange(1.0, n + 1) for n in (160, 72, 40, 24)]


def _bessel_k(order, x):
    """K_0 (``order`` 0) or K_1 (1) at an array ``x`` > 0.

    K_v(x) = e^-x int_0^inf exp(-2x sinh^2(s/2)) cosh(v s) ds by the
    trapezoid rule, which converges double-exponentially on it
    (Trefethen and Weideman 2014): out to where the exponent reaches
    -40, in a step size per element and a node count set by the
    element's own argument (`_K_EDGES`), so a value does not depend on
    the others in the call.  Relative error ~1e-15 for x in [1e-14, 250].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    tier = np.digitize(x, _K_EDGES)
    for k in np.unique(tier).tolist():
        steps = _K_STEPS[k]
        at = tier == k
        xs = x[at][:, None]
        h = 2.0 * np.arcsinh(np.sqrt(40.0 / xs)) / len(steps)
        s = h * steps
        terms = np.exp(-2.0 * xs * np.sinh(0.5 * s) ** 2)
        if order:
            terms *= np.cosh(s)
        out[at] = (np.exp(-xs) * h)[:, 0] * (0.5 + terms.sum(axis=-1))
    return out


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
                f"the mode integrals did not meet abs_tol={abs_tol!r} "
                f"within {max_panels} panels"
            )
        count *= 8
    b = ends[:int(done.argmax()) + 1]
    a = np.concatenate([[0.0], b[:-1]])
    w = _gk21_nodes(a, b)
    return a, b, w, _bessel_k(0, w * zeta)


def _mode_integrals(nu0, ks, count, r, rp, zeta, *, abs_tol=1e-12, max_panels=8000):
    """Radial integrals of the angular modes n < ``count``, as a (count,) array,

        integral_0^inf  w J_nu(w r) J_nu(w rp) K_0(w zeta) dw,

    where mode n = f + F i (F families) has the order nu = nu0[f] + ks[f, i];
    each has the closed value exp(-nu u) / (2 r rp sinh u).

    The panels have width 4 pi/(r + rp + zeta), so each holds at most a
    couple of Bessel oscillations, and end once the analytic bound
    (W/zeta) K_1(W zeta) on the remaining tail (using |J_nu| <= 1) drops
    below ``abs_tol``; more than ``max_panels`` is a ConvergenceError.
    One `_bessel_j` table covers every order on every node of every
    panel; the intervals of one `integrate_gk21` call are the (mode,
    panel) pairs, each its own integral, so each panel has the tolerance
    epsabs = abs_tol / 100 it would have alone.  A panel that fails its
    first pass is refined at its own order only.  Each mode's panels are
    summed in order.

    An interval whose integral cannot reach epsabs is not integrated and
    counts as 0.  Since |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1) (DLMF
    10.14.4) and integral_0^inf w K_0(w zeta) dw = 1/zeta^2, the panel
    ending at b has |integral| <= B = (r rp b^2 / 4)^nu /
    (Gamma(nu + 1)^2 zeta^2), and those with B < epsabs are dropped: the
    high orders on the first panels, where the integrand is far below
    the tolerance and only roundoff in dqagse's error estimate would
    refine it.  B grows with b, so the dropped panels of a mode start at
    0 and together add at most one epsabs.  The bound is closed form,
    so the sum stays independent of the closed value it checks.
    """
    a, b, w, k0 = _panel_plan(r, rp, zeta, abs_tol, max_panels)
    panels, families, half = len(a), len(nu0), w.size
    epsabs = 0.01 * abs_tol
    nu = (nu0[:, None] + ks).T.ravel()[:count]
    # log B of every (mode, panel) interval, B its bound; B < epsabs counts as 0
    log_b = (nu[:, None] * np.log(0.25 * r * rp * b * b)
             - 2.0 * np.array([math.lgamma(v + 1.0) for v in nu.tolist()])[:, None]
             - 2.0 * math.log(zeta))
    live = np.flatnonzero(log_b.ravel() >= math.log(epsabs))
    if not len(live):
        return np.zeros(count)
    j = _bessel_j(nu0, ks, np.concatenate([(w * r).ravel(), (w * rp).ravel()]))
    j = j.transpose(1, 0, 2).reshape(-1, 2 * half)[:count]
    fv = w.ravel() * j[:, :half] * j[:, half:] * k0.ravel()
    mode_k = ks.T.ravel()

    def f(x, k):
        # Rows of one piece share their nodes (the same panel of several
        # modes): K_0 once per piece, and one recurrence per piece and
        # family, for just the orders its rows need.  The pieces of a
        # level have one depth, so each is told by its centre node alone.
        _, first, piece = np.unique(x[:, 10], return_index=True, return_inverse=True)
        pieces = x[first]
        mode = live[k] // panels
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

    values = np.zeros(count * panels)
    values[live] = integrate_gk21(f, a[live % panels], b[live % panels], epsabs=epsabs,
                                  fv=fv.reshape(-1, 21)[live])
    return np.add.accumulate(values.reshape(count, panels), axis=1)[:, -1]


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


def tbar_modesum_4d(pair: PointPair, theta1: float) -> float:
    """Cone kernel summed mode by mode, each mode a Bessel quadrature.

    Slow but structurally independent of the closed form.  Requires a
    separation zeta = sqrt(t^2 + (z - z')^2) > 0 (the quadratures do
    not converge on the purely radial section) and a hyperbolic
    separation u >= 0.05 (the number of contributing modes grows like
    theta1/u).  Terms decay like exp(-2 pi n u / theta1).

    Every mode n <= n_terms, of order a n with a = 2 pi / theta1, is
    integrated in one `_mode_integrals` call, over every panel that can
    reach its tolerance: a panel ending at b whose bound (r rp b^2 /
    4)^(a n) / (Gamma(a n + 1)^2 zeta^2) is below it counts as 0.  Orders
    a apart by whole numbers share one Bessel recurrence
    (`_mode_orders`).  The modes are summed in order until the geometric
    bound on the rest falls below 1e-10 of the leading mode.
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
    # Geometric tail below 1e-10 of the leading mode.
    n_terms = math.ceil((math.log(1e10) - math.log(-math.expm1(-decay))) / decay) + 1
    nu0, ks = _mode_orders(a, n_terms + 1)
    modes = _mode_integrals(nu0, ks, n_terms + 1, pair.r, pair.rp, zeta).tolist()
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
