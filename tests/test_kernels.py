"""Closed-form kernels against hand values, image sums, and frozen references.

Frozen numbers come from tests/data/reference_values.json (mpmath, 60 digits)
or from values small enough to derive by hand in a docstring.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conevac import (
    BoundaryCondition,
    CartesianSeparation,
    Cone,
    ConvergenceError,
    DomainError,
    Dowker,
    Minkowski,
    PeriodicLine,
    PointPair,
    SingularPointError,
    Wedge,
    kernel_expr,
    tbar_3d,
    tbar_3d_theta_average,
    tbar_cone,
    tbar_cone_via_images,
    tbar_dowker,
    tbar_minkowski,
    tbar_modesum_4d,
    tbar_periodic_line,
    tbar_periodic_line_closed,
    tbar_wedge,
    u_of_pair,
)
from conevac import checks, jets, kernels
from conevac.jets import COORDS, lift

TWO_PI_SQ = 2.0 * math.pi ** 2


def mink_at(t, r, rp, alpha, dz=0.0):
    return tbar_minkowski(PointPair(t=t, r=r, rp=rp, theta=alpha, z=dz))


def separated_pairs():
    # keep u moderate so every branch under test is the generic one
    coord = st.floats(min_value=0.3, max_value=3.0)
    return st.builds(PointPair, t=coord, r=coord, rp=coord,
                     theta=st.floats(min_value=-3.0, max_value=3.0),
                     z=st.floats(min_value=-2.0, max_value=2.0))


class TestMinkowski:
    def test_unit_time_separation(self):
        # D = t^2 = 1 so the kernel is -1/(2 pi^2)
        assert tbar_minkowski(PointPair(t=1.0, r=1.0, rp=1.0)) == pytest.approx(
            -1.0 / TWO_PI_SQ, rel=1e-14)

    def test_angular_separation_enters_through_chord(self):
        # D = 1 + 2 - 2 cos(pi/3) = 2
        got = tbar_minkowski(PointPair(t=1.0, r=1.0, rp=1.0, theta=math.pi / 3))
        assert got == pytest.approx(-1.0 / (2.0 * TWO_PI_SQ), rel=1e-14)

    def test_coincident_pair_is_singular(self):
        with pytest.raises(SingularPointError):
            tbar_minkowski(PointPair(t=0.0, r=1.0, rp=1.0))

    @given(separated_pairs(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_scales_as_inverse_square_length(self, pair, lam):
        base = tbar_minkowski(pair)
        assert tbar_minkowski(pair.scaled(lam)) == pytest.approx(
            base / lam ** 2, rel=1e-11)


class TestCone:
    def test_full_angle_reduces_to_flat(self):
        pair = PointPair(t=0.4, r=1.3, rp=0.9, theta=0.7, z=0.25)
        assert tbar_cone(pair, 2.0 * math.pi) == pytest.approx(
            tbar_minkowski(pair), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_integer_cover_equals_finite_image_sum(self, n):
        # theta1 = 2 pi / n quotients flat space by n rotations, so the
        # kernel is exactly the n-term image sum
        theta1 = 2.0 * math.pi / n
        pair = PointPair(t=0.4, r=1.3, rp=0.9, theta=0.7, z=0.25)
        images = sum(mink_at(0.4, 1.3, 0.9, 0.7 + k * theta1, 0.25)
                     for k in range(n))
        assert tbar_cone(pair, theta1) == pytest.approx(images, rel=1e-13)

    def test_image_sum_tail_included_in_value(self):
        pair = PointPair(t=0.4, r=1.3, rp=0.9, theta=0.7, z=0.25)
        closed = tbar_cone(pair, 3.0)
        with_tail = tbar_cone_via_images(pair, 3.0)
        without = tbar_cone_via_images(pair, 3.0, include_tail=False)
        assert without.tail_correction == 0.0
        assert with_tail.value == pytest.approx(closed, rel=1e-12)
        # the tail is what closes the gap left by truncation
        assert abs(with_tail.value - closed) < abs(without.value - closed)

    def test_image_sum_refuses_coincidence_and_bad_angles(self):
        with pytest.raises(SingularPointError, match="^coincident points with t = 0$"):
            tbar_cone_via_images(PointPair(t=0.0, r=1.0, rp=1.0, theta=0.4, thetap=0.4), 3.0)
        with pytest.raises(ValueError, match="^theta1 must be positive, got 0.0$"):
            tbar_cone_via_images(PointPair(t=0.3, r=1.0, rp=1.0), 0.0)

    def test_small_separation_branch_agrees_with_images(self):
        # u about 5e-5 exercises the series branch; the image sum stays
        # regular because the angular offset keeps every image separated
        pair = PointPair(t=1e-4, r=1.0, rp=1.0, theta=0.3)
        assert u_of_pair(pair).u < 2e-4
        images = tbar_cone_via_images(pair, 2.2, n_images=2000)
        assert tbar_cone(pair, 2.2) == pytest.approx(images.value, rel=1e-9)

    @given(separated_pairs(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_scales_as_inverse_square_length(self, pair, lam):
        base = tbar_cone(pair, 2.2)
        assert tbar_cone(pair.scaled(lam), 2.2) == pytest.approx(
            base / lam ** 2, rel=1e-11)


class TestDowker:
    def test_pure_radial_point(self):
        """u = ln 2 at (r, r') = (2, 1) with t = 0 gives -1/(3 pi^2 ln 2)."""
        got = tbar_dowker(PointPair(t=0.0, r=2.0, rp=1.0))
        assert got == pytest.approx(-1.0 / (3.0 * math.pi ** 2 * math.log(2.0)),
                                    rel=1e-14)

    def test_angular_separation_at_zero_u(self):
        # u -> 0 with dtheta = 0.5: kernel -> -1/(2 pi^2 dtheta^2)
        got = tbar_dowker(PointPair(t=0.0, r=1.0, rp=1.0, theta=0.5))
        assert got == pytest.approx(-1.0 / (TWO_PI_SQ * 0.25), rel=1e-12)

    def test_matches_large_angle_cone(self):
        pair = PointPair(t=0.5, r=1.2, rp=0.8, theta=1.0, z=0.1)
        assert tbar_dowker(pair) == pytest.approx(
            tbar_cone(pair, 1e5 * math.pi), rel=1e-8)


class TestSeriesBranch:
    def test_u_over_sinh_jet_matches_mpmath(self):
        # the u < _SMALL_U series of u/sinh(u): its 7/360 u^4 term shows only in
        # the derivatives, where 7.1/360 is off by ~2e-11 relative
        mp = pytest.importorskip("mpmath")
        us = np.geomspace(1e-6, kernels._SMALL_U, 16, endpoint=False)
        u = lift({name: us for name in COORDS}, jets.Pairs([(0, 0)]))["t"]
        got = kernels._u_over_sinh(jets.sinh(0.5 * u) ** 2, u)
        with mp.workdps(50):
            want = [[float(mp.diff(lambda x: x / mp.sinh(x), mp.mpf(x), n)) for x in us]
                    for n in range(3)]
        for n, column in enumerate((got.value, got.grad[0], got.hess[0])):
            np.testing.assert_allclose(column, want[n], rtol=1e-14, atol=0, err_msg=f"order {n}")


class TestWedge:
    THETA0 = 1.5

    def test_dirichlet_full_kernel_vanishes_on_walls(self):
        for wall in (0.0, self.THETA0):
            pair = PointPair(t=0.3, r=1.0, rp=1.1, theta=wall, thetap=0.9)
            full = tbar_wedge(pair, self.THETA0)
            interior = PointPair(t=0.3, r=1.0, rp=1.1, theta=0.4, thetap=0.9)
            scale = abs(tbar_wedge(interior, self.THETA0))
            assert abs(full) <= 1e-12 * scale

    def test_neumann_full_kernel_does_not_vanish_on_walls(self):
        pair = PointPair(t=0.3, r=1.0, rp=1.1, theta=0.0, thetap=0.9)
        full = tbar_wedge(pair, self.THETA0, bc=BoundaryCondition.NEUMANN)
        assert abs(full) > 1e-3

    def test_right_wedge_equals_four_cartesian_images(self):
        # quarter plane: direct source, two mirror images, one double mirror
        theta0 = math.pi / 2
        t, r, rp, th, thp = 0.3, 1.0, 1.4, 0.5, 1.2
        x, y = r * math.cos(th), r * math.sin(th)

        def flat(xs, ys, sign):
            d2 = t * t + (x - xs) ** 2 + (y - ys) ** 2
            return sign * (-1.0 / (TWO_PI_SQ * d2))

        xp, yp = rp * math.cos(thp), rp * math.sin(thp)
        images = (flat(xp, yp, +1) + flat(xp, -yp, -1)
                  + flat(-xp, yp, -1) + flat(-xp, -yp, +1))
        pair = PointPair(t=t, r=r, rp=rp, theta=th, thetap=thp)
        got = tbar_wedge(pair, theta0)
        assert got == pytest.approx(images, rel=1e-12)

    def test_rejects_angles_outside_the_wedge(self):
        with pytest.raises(DomainError):
            tbar_wedge(
                PointPair(t=0.3, r=1.0, rp=1.0, theta=2.0, thetap=0.5),
                self.THETA0)
        with pytest.raises(DomainError):
            tbar_wedge(
                PointPair(t=0.3, r=1.0, rp=1.0, theta=-0.1), self.THETA0)


def _two_term_angular_factor(x, y):
    """The angular factor at one offset, as the wedge once evaluated it per image."""
    large = jets.value_of(x) > kernels._EXP_FORM_MIN_X
    side = large if isinstance(large, bool) else jets.agree(large)
    if side is None:
        return jets.split(large, _two_term_angular_factor, x, y)
    if side:
        em = jets.exp(-x)
        return (1.0 - em * em) / (1.0 - 2.0 * em * jets.cos(y) + em * em)
    return jets.sinh(x) / (2.0 * jets.sinh(0.5 * x) ** 2 + 2.0 * jets.sin(0.5 * y) ** 2)


def _two_term_cone(t, r, rp, dth, z, zp, theta1):
    """The cone kernel at one offset, each call with its own separation."""
    a = 2.0 * math.pi / theta1
    q = ((r - rp) ** 2 + (z - zp) ** 2 + t * t) / (4.0 * r * rp)
    u = 2.0 * jets.asinh(jets.sqrt(q))
    uval = jets.value_of(u)
    series = (uval < kernels._SMALL_U) & (a * uval < kernels._SMALL_AU)
    side = series if isinstance(series, bool) else jets.agree(series)
    if side is None:
        return jets.split(series, _two_term_cone, t, r, rp, dth, z, zp, theta1)
    pref = -1.0 / (2.0 * math.pi * theta1 * r * rp)
    if side:
        num = kernels._sinh_ratio_series(u, a)
        den = 2.0 * jets.sinh(0.5 * a * u) ** 2 + 2.0 * jets.sin(0.5 * a * dth) ** 2
        return pref * num / den
    return pref * kernels._inv_sinh_u(q, u) * _two_term_angular_factor(a * u, a * dth)


def _two_term_wedge(theta0, sign):
    """The wedge kernel as two independent cone evaluations."""
    def expr(t, r, rp, theta, thetap, z, zp):
        doubled = 2.0 * theta0
        return (_two_term_cone(t, r, rp, theta - thetap, z, zp, doubled)
                + sign * _two_term_cone(t, r, rp, theta + thetap, z, zp, doubled))
    return expr


def _bits(x):
    if isinstance(x, jets.Jet2):
        return np.asarray(x.value).tobytes(), x.d.tobytes()
    return float(x).hex()


class TestWedgeImagesShareOneSeparation:
    """The direct term and the image, built from one separation, keep their bits."""

    OPENINGS = (0.05, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi, 1.7 * math.pi, 6.0)
    BC = {-1: BoundaryCondition.DIRICHLET, +1: BoundaryCondition.NEUMANN}  # by image sign

    @staticmethod
    def pairs(theta0, rng, n):
        out = []
        for _ in range(n):
            r, rp = rng.uniform(0.01, 10.0, 2)
            theta, thetap = rng.uniform(0.0, theta0, 2)
            t = float(rng.choice([0.0, 1e-9, 1e-3, 0.1, 1.0, 50.0]))
            if t == 0.0:
                rp = r * 1.5
            out.append(dict(t=t, r=r, rp=rp, theta=theta, thetap=thetap,
                            z=rng.uniform(-1, 1), zp=rng.uniform(-1, 1)))
        return out

    @staticmethod
    def ladder(theta0, theta, ratios):
        """Coincident pairs at r = 2, one per cutoff t = 2 * ratio."""
        n = len(ratios)
        return {"t": [2.0 * k for k in ratios], "r": [2.0] * n, "rp": [2.0] * n,
                "theta": [theta] * n, "thetap": [theta] * n, "z": [0.0] * n,
                "zp": [0.0] * n}

    @pytest.mark.parametrize("theta0", OPENINGS)
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_floats_and_scalar_jets(self, theta0, sign):
        rng = np.random.default_rng(int(theta0 * 1000) + sign)
        got, want = kernel_expr(Wedge(theta0, self.BC[sign])), _two_term_wedge(theta0, sign)
        for coords in self.pairs(theta0, rng, 40):
            assert _bits(got(**coords)) == _bits(want(**coords)), coords
            lifted = lift(PointPair(**coords))
            assert _bits(got(**lifted)) == _bits(want(**lifted)), coords

    @pytest.mark.parametrize("theta0", OPENINGS)
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_batches_that_straddle_every_branch(self, theta0, sign):
        got, want = kernel_expr(Wedge(theta0, self.BC[sign])), _two_term_wedge(theta0, sign)
        # t / r from the series window through the exponential angular form
        # to the large-u form of 1/sinh(u)
        ratios = [1e-8, 1e-6, 3e-5, 1e-3, 0.1, 0.4, 1.0, 3.0, 30.0, 1e3, 1e4, 1e7, 1e77]
        a = math.pi / theta0
        us = [2.0 * math.asinh(k) for k in ratios]
        assert min(us) < kernels._SMALL_U < max(us)
        assert min(us) * a < kernels._EXP_FORM_MIN_X < max(us) * a
        assert max(us) > kernels._LARGE_U
        rng = np.random.default_rng(7)
        batches = [self.ladder(theta0, theta, ratios)
                   for theta in (1e-3 * theta0, 0.37 * theta0, 0.5 * theta0, 0.98 * theta0)]
        separated = self.pairs(theta0, rng, 24)
        batches.append({name: [p[name] for p in separated] for name in COORDS})
        with np.errstate(all="ignore"):
            for batch in batches:
                lifted = lift(batch)
                assert _bits(got(**lifted)) == _bits(want(**lifted))
                for k in range(len(batch["t"])):
                    one = lift({name: batch[name][k:k + 1] for name in COORDS})
                    assert _bits(got(**one)) == _bits(want(**one))


class TestPeriodicLine:
    def test_closed_matches_frozen_values(self, reference):
        for case in reference["periodic_line"]:
            sep = CartesianSeparation(t=case["t"], dx=case["dx"],
                                      dy=case["dy"], dz=case["dz"])
            assert tbar_periodic_line_closed(sep, case["period"]) == \
                pytest.approx(case["value"], rel=1e-13)

    def test_image_sum_matches_closed(self):
        sep = CartesianSeparation(t=0.3, dx=0.4, dy=0.1, dz=0.2)
        closed = tbar_periodic_line_closed(sep, 1.7)
        images = tbar_periodic_line(sep, 1.7)
        assert images.value == pytest.approx(closed, rel=1e-12)

    def test_zero_axial_offset_is_coth(self):
        # dx = 0 collapses the closed form to -coth(pi a / L)/(2 pi a L)
        sep = CartesianSeparation(t=1.0, dx=0.0)
        want = -1.0 / math.tanh(math.pi) / (2.0 * math.pi)
        assert tbar_periodic_line_closed(sep, 1.0) == pytest.approx(
            want, rel=1e-13)

    def test_rejects_coincident_separation(self):
        with pytest.raises(DomainError):
            tbar_periodic_line_closed(CartesianSeparation(t=0.0, dx=0.0), 1.0)

    def test_separation_rejects_negative_time(self):
        with pytest.raises(ValueError):
            CartesianSeparation(t=-1.0, dx=0.0)


def _running_sum(amplitude, width, offset, spacing, n_images):
    """The lattice image sum as a plain loop, one term after another from n = -n_images."""
    b_sq = width * width
    total = 0.0
    for n in range(-n_images, n_images + 1):
        x = offset + n * spacing
        total += -amplitude / (b_sq + x * x)
    return total


IMAGE_SUMS = {
    "cone": lambda n: tbar_cone_via_images(
        PointPair(t=0.3, r=1.0, rp=1.2, theta=0.4, thetap=0.0, z=0.1, zp=0.0), 2.0, n_images=n),
    "periodic_line": lambda n: tbar_periodic_line(
        CartesianSeparation(t=0.3, dx=0.2), 1.5, n_images=n),
}


class TestLatticeSum:
    """The vectorised image sum against the running-sum loop, bit for bit."""

    @pytest.mark.parametrize("n_images", [1, 1000])
    @pytest.mark.parametrize("offset, spacing", [(0.3, 2.2), (-1.7, 0.45), (-0.0, 3.0),
                                                 (-5.2, 0.01)])
    @pytest.mark.parametrize("include_tail", [False, True])
    def test_equals_the_running_sum(self, n_images, offset, spacing, include_tail):
        amplitude, width = 0.05, 0.4
        got = checks._lattice_sum(amplitude, width, offset, spacing, n_images, include_tail)
        want = _running_sum(amplitude, width, offset, spacing, n_images)
        assert (got.tail_correction != 0.0) is include_tail
        assert got.value.hex() == (want + got.tail_correction).hex()

    def test_blocks_continue_the_running_sum(self, monkeypatch):
        want = checks._lattice_sum(0.05, 0.4, -1.7, 0.45, 1000, True)
        monkeypatch.setattr(checks, "_IMAGE_BLOCK", 7)  # 2001 = 285 * 7 + 6
        got = checks._lattice_sum(0.05, 0.4, -1.7, 0.45, 1000, True)
        assert got.value.hex() == want.value.hex()
        assert got.tail_correction.hex() == want.tail_correction.hex()

    def test_public_sums_equal_the_running_sum(self):
        pair = PointPair(t=0.3, r=1.0, rp=1.2, theta=-0.4, thetap=0.0, z=0.1, zp=0.0)
        uv = u_of_pair(pair)
        amp = uv.u / uv.sinh_u / (TWO_PI_SQ * pair.r * pair.rp)
        got = tbar_cone_via_images(pair, 2.0, n_images=1000, include_tail=False)
        assert got.value.hex() == _running_sum(amp, uv.u, pair.dtheta, 2.0, 1000).hex()
        sep = CartesianSeparation(t=0.3, dx=-0.2, dy=0.5)
        got = tbar_periodic_line(sep, 1.5, n_images=1000, include_tail=False)
        a = math.sqrt(0.3**2 + 0.5**2 + 0.0**2)
        assert got.value.hex() == _running_sum(1.0 / TWO_PI_SQ, a, -0.2, 1.5, 1000).hex()

    def test_zero_denominator_is_a_zero_division(self):
        # width**2 underflows and an image sits on the point
        with pytest.raises(ZeroDivisionError):
            checks._lattice_sum(1.0, 1e-200, 0.0, 1.0, 3, False)

    @pytest.mark.parametrize("image_sum", IMAGE_SUMS.values(), ids=IMAGE_SUMS.keys())
    def test_n_images_is_a_positive_integer(self, image_sum):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            image_sum(2.5)
        for bad in (0, -1, 0.5):
            with pytest.raises(ValueError, match="n_images must be >= 1"):
                image_sum(bad)
        assert image_sum(True).value.hex() == image_sum(1).value.hex()


def mode_integral(nu, r, rp, zeta, **controls):
    """The one-order case of `checks._mode_integrals`: the radial integral at order nu."""
    k = math.floor(nu)
    return float(checks._mode_integrals(np.array([nu - k]), np.array([[k]]), 1, r, rp, zeta,
                                        **controls)[0])


class TestModeIntegral:
    def test_matches_frozen_values(self, reference):
        for case in reference["mode_integral"]:
            got = mode_integral(case["nu"], case["r"], case["rp"], case["zeta"])
            assert got == pytest.approx(case["value"], rel=1e-10)

    def test_matches_exponential_closed_form(self):
        # the Bessel integral collapses to e^{-nu u} / (2 r r' sinh u)
        for nu, r, rp, zeta in ((0.0, 1.0, 0.8, 0.45), (3.5, 1.1, 0.7, 0.6)):
            uv = u_of_pair(PointPair(t=zeta, r=r, rp=rp))
            want = math.exp(-nu * uv.u) / (2.0 * r * rp * uv.sinh_u)
            assert mode_integral(nu, r, rp, zeta) == pytest.approx(
                want, rel=1e-10)

    def test_honors_tighter_tolerance(self):
        loose = mode_integral(1.0, 1.0, 0.8, 0.45, abs_tol=1e-8)
        tight = mode_integral(1.0, 1.0, 0.8, 0.45, abs_tol=1e-13)
        assert loose == pytest.approx(tight, abs=1e-7)

    def test_max_panels_raises(self):
        before = mode_integral(1.0, 1.0, 0.8, 0.45)
        with pytest.raises(ConvergenceError):
            mode_integral(1.0, 1.0, 0.8, 0.45, max_panels=2)
        assert mode_integral(1.0, 1.0, 0.8, 0.45) == before


class TestModeIntegralClosedForm:
    # A panel whose dqk21 abserr equals its resasc under scipy's Bessel
    # functions: dqagse's first-pass test (abserr != resasc) sends it on.
    RESASC_CASE = (78.28429339055853, 0.30752026417350675, 0.6202184233790006,
                   2.483457335927887, 1.9219551846809054e-08)

    def assert_closed(self, cases):
        """`mode_integral` is a float within max(1e-10 |closed|, abs_tol)
        of exp(-nu u) / (2 r rp sinh u)."""
        for nu, r, rp, zeta, abs_tol in cases:
            got = mode_integral(nu, r, rp, zeta, abs_tol=abs_tol)
            assert type(got) is float
            uv = u_of_pair(PointPair(t=zeta, r=r, rp=rp))
            closed = math.exp(-nu * uv.u) / (2.0 * r * rp * uv.sinh_u)
            assert abs(got - closed) <= max(1e-10 * closed, abs_tol), (nu, r, rp, zeta)

    def test_frozen_cases(self, reference):
        self.assert_closed(
            (c["nu"], c["r"], c["rp"], c["zeta"], 1e-12)  # the default abs_tol
            for c in reference["mode_integral"])

    def test_resasc_case(self):
        self.assert_closed([self.RESASC_CASE])

    def test_seeded_cases(self):
        rng = np.random.default_rng(20261018)
        self.assert_closed([(float(rng.uniform(0.0, 120.0)),
                             *(float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(3)),
                             float(10.0 ** rng.uniform(-14.0, -7.0))) for _ in range(50)])


def log_panel_bound(nu, r, rp, zeta, b):
    """log B, B = (r rp b^2 / 4)^nu / (Gamma(nu + 1)^2 zeta^2): by
    |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1) and int_0^inf w K_0(w zeta) dw =
    1/zeta^2, a bound on the mode integral over any panel ending at b."""
    return (nu * math.log(0.25 * r * rp * b * b) - 2.0 * math.lgamma(nu + 1.0)
            - 2.0 * math.log(zeta))


def unpruned_panels(nu, r, rp, zeta, abs_tol=1e-12):
    """The ends of `checks._panel_plan`'s panels and the mode integral at the
    order nu over each, every panel integrated by `integrate_gk21` to the
    tolerance `checks._mode_integrals` gives it."""
    a, b, _, _ = checks._panel_plan(r, rp, zeta, abs_tol, 8000)
    k = math.floor(nu)

    def f(x, _):
        flat = x.ravel()
        j = checks._bessel_j(np.array([nu - k]), np.array([[k]]),
                             np.concatenate([flat * r, flat * rp]))[0, 0]
        return x * (j[:flat.size] * j[flat.size:]).reshape(x.shape) * checks._bessel_k(0, x * zeta)

    return b, checks.integrate_gk21(f, a, b, epsabs=0.01 * abs_tol)


def seeded_orders_and_radii(n, seed=20261020):
    """n cases (nu, r, rp, zeta): nu in [0, 120], the others in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0.0, 120.0)), *(float(10.0 ** rng.uniform(-1.0, 1.0))
                                              for _ in range(3))) for _ in range(n)]


class TestModeIntegralPruning:
    # the intervals whose bound is below the panel tolerance count as 0
    CASES = seeded_orders_and_radii(12)

    @pytest.mark.parametrize("nu, r, rp, zeta", CASES)
    def test_every_panel_is_within_its_bound(self, nu, r, rp, zeta):
        b, values = unpruned_panels(nu, r, rp, zeta)
        for end, value in zip(b.tolist(), values.tolist()):
            assert value == 0.0 or math.log(abs(value)) <= log_panel_bound(nu, r, rp, zeta, end)

    @pytest.mark.parametrize("nu, r, rp, zeta", CASES)
    def test_pruned_sum_is_the_unpruned_sum(self, nu, r, rp, zeta):
        b, values = unpruned_panels(nu, r, rp, zeta)
        epsabs = 0.01 * 1e-12
        assert abs(mode_integral(nu, r, rp, zeta) - math.fsum(values)) <= len(b) * epsabs

    def test_high_orders_pass_fewer_intervals(self, monkeypatch):
        # theta1 = pi/4: the orders 8 n, n < 40, one family
        r, rp, zeta, count = 1.0, 0.8, 0.45, 40
        nu0, ks = checks._mode_orders(8.0, count)
        passed = []
        integrate = checks.integrate_gk21

        def counted(f, a, b, **controls):
            passed.append(len(a))
            return integrate(f, a, b, **controls)

        monkeypatch.setattr(checks, "integrate_gk21", counted)
        got = checks._mode_integrals(nu0, ks, count, r, rp, zeta)
        ends = checks._panel_plan(r, rp, zeta, 1e-12, 8000)[1].tolist()
        live = sum(log_panel_bound(8.0 * n, r, rp, zeta, b) >= math.log(0.01 * 1e-12)
                   for n in range(count) for b in ends)
        assert passed == [live] and live < count * len(ends)
        uv = u_of_pair(PointPair(t=zeta, r=r, rp=rp))
        closed = np.exp(-8.0 * np.arange(count) * uv.u) / (2.0 * r * rp * uv.sinh_u)
        assert (np.abs(got - closed) <= np.fmax(1e-10 * closed, 1e-12)).all()

    def test_all_pruned_returns_float_zeros(self, monkeypatch):
        def never(*args, **controls):
            raise AssertionError("integrate_gk21 called with no live interval")

        monkeypatch.setattr(checks, "integrate_gk21", never)
        nu, r, rp, zeta, abs_tol = TestModeIntegralClosedForm.RESASC_CASE
        k = math.floor(nu)
        got = checks._mode_integrals(np.array([nu - k]), np.array([[k]]), 1, r, rp, zeta,
                                     abs_tol=abs_tol)
        assert got.dtype == np.float64 and got.tolist() == [0.0]


class TestBesselFunctions:
    def test_j_matches_frozen_values(self, reference):
        # relative to |J| where x <= nu, to the modulus sqrt(J^2 + Y^2) beyond
        for entry in reference["bessel_j"]:
            x = np.array(entry["x"])
            orders = entry["orders"]
            nu0 = sorted({o["nu0"] for o in orders})
            members = [[o for o in orders if o["nu0"] == v] for v in nu0]
            ks = np.zeros((len(nu0), max(map(len, members))), dtype=int)
            for f, family in enumerate(members):
                ks[f, :len(family)] = [o["k"] for o in family]
            table = checks._bessel_j(np.array(nu0), ks, x)
            for f, family in enumerate(members):
                for i, o in enumerate(family):
                    value, scale = np.array(o["value"]), np.array(o["scale"])
                    shown = np.abs(value) >= 1e-280
                    err = np.abs(table[f, i] - value)[shown] / scale[shown]
                    bound = np.where(x[shown] <= 100.0, 1e-13, 5e-13)
                    assert (err <= bound).all(), (entry["a"], o["nu0"], o["k"], err.max())

    def test_k0_and_k1_match_frozen_values(self, reference):
        x = np.array([c["x"] for c in reference["bessel_k"]])
        for order, key in ((0, "k0"), (1, "k1")):
            want = np.array([c[key] for c in reference["bessel_k"]])
            np.testing.assert_allclose(checks._bessel_k(order, x), want, rtol=1e-14, atol=0)

    def test_k_does_not_depend_on_the_batch(self):
        # each element's node count is set by its own argument
        x = np.array([3e-6, 1e-5, 0.004, 0.0099, 0.01, 0.3, 1.0, 7.0, 240.0])
        for order in (0, 1):
            alone = [checks._bessel_k(order, np.array([v]))[0].hex() for v in x.tolist()]
            assert [v.hex() for v in checks._bessel_k(order, x).tolist()] == alone
            assert [v.hex() for v in checks._bessel_k(order, x[::-1]).tolist()] == alone[::-1]

    def test_j_splits_at_the_crossover(self):
        # the crossover is max(25, top order) = 40.5; up to twice it the call
        # is Miller's alone, and beyond, each argument past it is Hankel's
        nu0, ks = np.array([0.25, 0.5]), np.array([[0, 3, 30], [1, 2, 40]])
        x = np.linspace(0.1, 2.0 * 40.5, 50)
        assert (checks._bessel_j(nu0, ks, x) == checks._bessel_j_miller(nu0, ks, x)).all()
        x = np.append(x, 81.1)
        far = x > 40.5
        split = checks._bessel_j(nu0, ks, x)
        assert (split[..., far] == checks._bessel_j_hankel(nu0, ks, x[far])).all()
        assert (split[..., ~far] == checks._bessel_j_miller(nu0, ks, x[~far])).all()
        # a row of arguments per family: each element from its own path
        # (Miller's start and Hankel's term count now follow the clipped rows)
        per_row = checks._bessel_j(nu0, ks, np.stack([x, x[::-1]]))
        np.testing.assert_allclose(per_row[0], split[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(per_row[1], split[1, :, ::-1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("theta1, families", [
        (math.pi / 4, 1), (math.pi / 2, 1), (1.3 * math.pi, 13), (2 * math.pi, 1),
        (3 * math.pi, 3), (5.0, 40)])
    def test_mode_orders_are_a_n_in_families(self, theta1, families):
        a = 2.0 * math.pi / theta1
        nu0, ks = checks._mode_orders(a, 40)
        assert len(nu0) == families
        assert ((0.0 <= nu0) & (nu0 < 1.0)).all()
        orders = (nu0[:, None] + ks).T.ravel()[:40]
        np.testing.assert_allclose(orders, a * np.arange(40), rtol=1e-15, atol=0)


def _dqk21_loop(f, hlgth):
    """QUADPACK's dqk21 on one row f of `_gk21_nodes` values, a float at a time.

    Returns (result, abserr, resabs, resasc) in the Fortran's own order:
    the Gauss nodes (x_1, x_3, ..., x_9) first, then the others.
    """
    wgk, wg = checks._WGK.tolist(), checks._WG.tolist()
    epmach, uflow = checks._EPMACH, checks._UFLOW
    fc = f[10]
    resg = 0.0
    resk = wgk[10] * fc
    resabs = abs(resk)
    for j in range(5):
        jtw = 2 * j + 1
        fsum = f[jtw] + f[11 + jtw]
        resg += wg[j] * fsum
        resk += wgk[jtw] * fsum
        resabs += wgk[jtw] * (abs(f[jtw]) + abs(f[11 + jtw]))
    for j in range(5):
        jtwm1 = 2 * j
        fsum = f[jtwm1] + f[11 + jtwm1]
        resk += wgk[jtwm1] * fsum
        resabs += wgk[jtwm1] * (abs(f[jtwm1]) + abs(f[11 + jtwm1]))
    reskh = resk * 0.5
    resasc = wgk[10] * abs(fc - reskh)
    for j in range(10):
        resasc += wgk[j] * (abs(f[j] - reskh) + abs(f[11 + j] - reskh))
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > uflow / (50.0 * epmach):
        abserr = max((epmach * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


class TestIntegrateGK21:
    def test_rule_is_exact_through_degree_31(self):
        a, b = np.array([-0.5]), np.array([1.5])
        nodes = checks._gk21_nodes(a, b)
        for degree in range(32):
            want = (1.5 ** (degree + 1) - (-0.5) ** (degree + 1)) / (degree + 1)
            (got,) = checks._dqk21(nodes ** degree, 0.5 * (b - a))[0]
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15), degree
            (adaptive,) = checks.integrate_gk21(lambda x, k, d=degree: x ** d, a, b)
            assert adaptive == pytest.approx(want, rel=1e-14, abs=1e-15), degree
        # and not beyond: x^32 on [-1, 1] is off by ~7e-11
        one = np.array([1.0])
        (got,) = checks._dqk21(checks._gk21_nodes(-one, one) ** 32, one)[0]
        assert got != pytest.approx(2.0 / 33.0, rel=1e-12)

    def test_dqk21_is_quadpacks_loop(self):
        # each row against dqk21 as the Fortran runs it, by float.hex: no
        # BLAS product or pairwise sum may change a bit
        rng = np.random.default_rng(3)
        fv = rng.standard_normal((64, 21)) * np.exp(rng.uniform(-30.0, 30.0, (64, 1)))
        fv[1] = 0.0
        fv[2, 10] = 0.0
        fv[3] = checks._X21  # odd: every pair sum cancels
        hlgth = rng.uniform(-2.0, 2.0, 64)
        got = [a.tolist() for a in checks._dqk21(fv, hlgth)]
        for k in range(64):
            want = _dqk21_loop(fv[k].tolist(), float(hlgth[k]))
            assert [v.hex() for v in want] == [a[k].hex() for a in got], k

    def test_lorentzian_and_gaussian_over_the_line(self):
        def f(x, k):
            return 1.0 / (1.0 + x * x)
        assert checks.integrate_gk21(f, -np.inf, np.inf)[0] == pytest.approx(math.pi, rel=1e-14)
        gauss = checks.integrate_gk21(lambda x, k: np.exp(-x * x), -np.inf, np.inf)[0]
        assert gauss == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_whole_line_intervals_are_each_their_own(self):
        # several (-inf, inf) intervals in one call: each has the bits it has alone
        def f(x, k):
            return np.where((k == 0)[:, None], 1.0 / (1.0 + x * x), np.exp(-x * x))

        alone = [checks.integrate_gk21(lambda x, _, i=i: f(x, np.full(len(x), i)),
                                       -np.inf, np.inf)[0].hex() for i in (0, 1)]
        together = checks.integrate_gk21(f, [-np.inf] * 2, [np.inf] * 2)
        assert [v.hex() for v in together.tolist()] == alone

    def test_bessel_j0_panels(self):
        # int_0^x J_0 = x J_0(x) + (pi x / 2) (J_1(x) H_0(x) - J_0(x) H_1(x))
        mp = pytest.importorskip("mpmath")

        def j0(x, k):
            return checks._bessel_j(np.zeros(1), np.zeros((1, 1), int), x.ravel())[0, 0].reshape(x.shape)

        edges = np.arange(41) * math.pi
        panels = checks.integrate_gk21(j0, edges[:-1], edges[1:])
        assert panels.shape == (40,)
        with mp.workdps(30):
            closed = [float(x * mp.besselj(0, x) + mp.pi * x / 2 * (
                mp.besselj(1, x) * mp.struveh(0, x) - mp.besselj(0, x) * mp.struveh(1, x)))
                for x in map(mp.mpf, edges[1:].tolist())]
        np.testing.assert_allclose(np.cumsum(panels), closed, rtol=1e-12, atol=1e-14)
        (pooled,) = checks.integrate_gk21(j0, edges[:-1], edges[1:], groups=[0] * 40)
        assert pooled == pytest.approx(closed[-1], rel=1e-11)

    def test_f_is_told_each_rows_interval(self):
        # (k + 1) sqrt(x) on [0, 1] and [1, 2]: the first interval fails its
        # first pass, and its refined rows still see k = 0
        seen = []

        def f(x, k):
            seen.append(k)
            return (k + 1.0)[:, None] * np.sqrt(x)

        got = checks.integrate_gk21(f, [0.0, 1.0], [1.0, 2.0])
        np.testing.assert_allclose(got, [2.0 / 3.0, 2.0 * (2.0 * math.sqrt(8.0) - 2.0) / 3.0],
                                   rtol=1e-13)
        assert [k.tolist() for k in seen[:2]] == [[0, 1], [0] * 4]
        assert all((k == 0).all() for k in seen[1:])

    def test_budget_runs_out(self):
        with np.errstate(divide="ignore"), pytest.raises(ConvergenceError):
            checks.integrate_gk21(lambda x, k: 1.0 / x, 0.0, 1.0)  # not integrable
        with pytest.raises(ConvergenceError):
            checks.integrate_gk21(lambda x, k: np.sin(50.0 * x), 0.0, 10.0, limit=1)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ConvergenceError, match="not finite"):
            checks.integrate_gk21(lambda x, k: np.where(x > 0.7, np.nan, x), 0.0, 1.0)
        with np.errstate(divide="ignore"), pytest.raises(ConvergenceError, match="not finite"):
            checks.integrate_gk21(lambda x, k: 1.0 / x, -1.0, 1.0)  # the centre node is 0

    def test_infinite_endpoints_need_the_whole_line(self):
        with pytest.raises(ValueError):
            checks.integrate_gk21(np.exp, [-np.inf, 0.0], [0.0, 1.0])
        for a, b in [(0.0, np.inf), (-np.inf, 1.0), (np.inf, -np.inf), (np.nan, np.inf)]:
            with pytest.raises(ValueError):
                checks.integrate_gk21(np.exp, a, b)


class TestModeSum:
    def test_matches_closed_cone(self):
        pair = PointPair(t=0.45, r=1.0, rp=0.8, theta=0.6)
        got = tbar_modesum_4d(pair, 3.0)
        assert got == pytest.approx(tbar_cone(pair, 3.0), rel=1e-8)

    def test_irrational_angle_at_small_separation(self):
        # a = 2 pi / 3 is irrational, so every order is a family of its own,
        # and zeta = 0.01 takes the panels out to w ~ 3e3: the Bessel
        # arguments reach ~6e3, where J is Hankel's expansion carried up by
        # the forward recurrence (Miller's recurrence alone took ~30 s)
        pair = PointPair(t=0.01, r=1.0, rp=2.0, theta=0.3)
        assert tbar_modesum_4d(pair, 3.0) == pytest.approx(tbar_cone(pair, 3.0), rel=1e-9, abs=0)

    def test_requires_axial_separation(self):
        with pytest.raises(DomainError):
            tbar_modesum_4d(PointPair(t=0.0, r=1.0, rp=0.8, theta=0.7), 3.0)

    def test_requires_moderate_u(self):
        with pytest.raises(DomainError):
            tbar_modesum_4d(PointPair(t=1e-3, r=1.0, rp=1.0, theta=0.7), 3.0)


class TestThreeDim:
    def test_full_angle_is_coulomb(self):
        t, r, rp, dth = 0.4, 1.3, 0.9, 0.7
        d = math.sqrt(t * t + r * r + rp * rp - 2.0 * r * rp * math.cos(dth))
        assert tbar_3d(t, r, rp, dth, 2.0 * math.pi) == pytest.approx(
            -1.0 / (2.0 * math.pi * d), rel=1e-12)

    @pytest.mark.parametrize("theta1", [0.8 * math.pi, 2.0 * math.pi, 2.6 * math.pi, 9.0])
    def test_many_offsets_equal_one_at_a_time(self, theta1, monkeypatch):
        t, r, rp = 0.7, 1.2, 0.9
        dthetas = [0.0, 0.3, -1.1, 0.5 * theta1, theta1 + 0.2, 3.9]
        want = [tbar_3d(t, r, rp, dth, theta1) for dth in dthetas]
        calls = []
        real = checks.integrate_gk21

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(checks, "integrate_gk21", counting)
        got = checks._tbar_3d_many(t, r, rp, dthetas, theta1)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert calls == [5 * len(dthetas)]

    @pytest.mark.parametrize("args, error, message", [
        ((0.3, -1.0, 1.0, 3.0), DomainError, "radii must be positive"),
        ((0.3, 1.0, 0.0, 3.0), DomainError, "radii must be positive"),
        ((-0.3, 1.0, 1.0, 3.0), DomainError, "t must be >= 0"),
        ((0.0, 1.2, 1.2, 3.0), SingularPointError, "coincident points with t = 0"),
        ((0.3, 1.0, 1.0, -3.0), ValueError, "theta1 must be positive, got -3.0"),
    ], ids=["r", "rp", "t", "coincident", "theta1"])
    def test_arguments_are_checked(self, args, error, message):
        t, r, rp, theta1 = args
        for call in (lambda: tbar_3d(t, r, rp, 0.0, theta1),
                     lambda: tbar_3d_theta_average(t, r, rp, theta1)):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message

    def test_theta_average_is_legendre_q(self, reference):
        # the angular average collapses to Q_{-1/2}(cosh u0)
        for case in reference["legendre_q"]:
            u0, q = case["u0"], case["value"]
            for r, rp in ((1.0, 1.0), (1.3, 0.7)):
                gap2 = 4.0 * r * rp * math.sinh(u0 / 2.0) ** 2 - (r - rp) ** 2
                if gap2 <= 0.0:
                    # unequal radii already separate the pair beyond this u0
                    continue
                t = math.sqrt(gap2)
                got = tbar_3d_theta_average(t, r, rp, 5.0)
                want = -q / (math.pi * 5.0 * math.sqrt(r * rp))
                assert got == pytest.approx(want, rel=1e-11)


def _eval_expr(expr, pair):
    jets = lift(pair)
    return expr(*(jets[name] for name in COORDS)).value


class TestKernelExpr:
    COINCIDENT = PointPair(t=0.0, r=1.2, rp=1.2, theta=0.5, thetap=0.5, z=0.3, zp=0.3)
    SEPARATED = PointPair(t=0.3, r=1.0, rp=1.0, theta=2.0, thetap=0.5)

    # every float kernel's refusals, each in its own words
    REFUSALS = [
        (tbar_minkowski, COINCIDENT, SingularPointError,
         "coincident points with t = 0"),
        (tbar_dowker, COINCIDENT, SingularPointError,
         "coincident points with t = 0"),
        (lambda p: tbar_cone(p, 2.2), COINCIDENT, SingularPointError,
         "pair sits on a singularity of the cone kernel"),
        (lambda p: tbar_cone(p, 0.0), SEPARATED, ValueError, "theta1 must be positive, got 0.0"),
        (lambda p: tbar_wedge(p, 1.0), COINCIDENT, SingularPointError,
         "pair sits on a singularity of the wedge kernel"),
        (lambda p: tbar_wedge(p, 1.5), SEPARATED, DomainError,
         "theta=2.0 outside the wedge [0, 1.5]"),
        (lambda p: tbar_wedge(p, 2.5, BoundaryCondition.NEUMANN),
         PointPair(t=0.3, r=1.0, rp=1.0, theta=0.5, thetap=-0.1), DomainError,
         "thetap=-0.1 outside the wedge [0, 2.5]"),
        (lambda p: tbar_wedge(p, -1.0), SEPARATED, ValueError,
         "theta0 must be positive, got -1.0"),
    ]

    @pytest.mark.parametrize("case", range(len(REFUSALS)))
    def test_refusals_keep_their_messages(self, case):
        call, pair, error, message = self.REFUSALS[case]
        with pytest.raises(error) as info:
            call(pair)
        assert type(info.value) is error and str(info.value) == message

    def test_dispatch_matches_direct_functions(self):
        pair = PointPair(t=0.4, r=1.3, rp=0.9, theta=0.7, z=0.25)
        # off the Dirichlet walls, where the wedge kernel vanishes
        inside = PointPair(t=0.3, r=1.0, rp=1.4, theta=0.5, thetap=1.2)
        cases = [
            (Minkowski(), pair, tbar_minkowski(pair)),
            (Cone(2.2), pair, tbar_cone(pair, 2.2)),
            (Dowker(), pair, tbar_dowker(pair)),
            (Wedge(math.pi / 2), inside, tbar_wedge(inside, math.pi / 2)),
        ]
        for geometry, at, want in cases:
            got = _eval_expr(kernel_expr(geometry), at)
            assert got == pytest.approx(want, rel=1e-13)

    # the periodic line is a check-tier geometry with no cylindrical kernel
    @pytest.mark.parametrize("geometry", ["cone", PeriodicLine(1.0)])
    def test_rejects_unknown_geometry(self, geometry):
        with pytest.raises(TypeError, match="not a geometry"):
            kernel_expr(geometry)
