"""Point pairs, the hyperbolic separation u, and coupling presets."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conevac import (
    BoundaryCondition,
    Cone,
    Coupling,
    Dowker,
    Minkowski,
    PeriodicLine,
    PointPair,
    Wedge,
    u_of_pair,
)
from conevac.oracles import u_consistency

finite = st.floats(allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=1e-3, max_value=1e3)
times = st.floats(min_value=0.0, max_value=1e3)
angles = st.floats(min_value=-10.0, max_value=10.0)
heights = st.floats(min_value=-1e3, max_value=1e3)


def pairs():
    return st.builds(PointPair, t=times, r=radii, rp=radii,
                     theta=angles, thetap=angles, z=heights, zp=heights)


class TestPointPair:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            PointPair(t=-1.0, r=1.0, rp=1.0)

    @pytest.mark.parametrize("r, rp", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
    def test_rejects_nonpositive_radii(self, r, rp):
        with pytest.raises(ValueError):
            PointPair(t=1.0, r=r, rp=rp)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PointPair(t=math.nan, r=1.0, rp=1.0)

    def test_dtheta(self):
        pair = PointPair(t=1.0, r=1.0, rp=1.0, theta=0.7, thetap=0.2)
        assert pair.dtheta == pytest.approx(0.5)

    def test_scaled_leaves_angles_alone(self):
        pair = PointPair(t=0.5, r=2.0, rp=1.0, theta=0.3, z=0.4)
        big = pair.scaled(3.0)
        assert big.t == pytest.approx(1.5)
        assert big.r == pytest.approx(6.0)
        assert big.rp == pytest.approx(3.0)
        assert big.z == pytest.approx(1.2)
        assert big.theta == pair.theta

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            PointPair(t=1.0, r=1.0, rp=1.0).scaled(0.0)

    def test_coincidence(self):
        assert PointPair(t=0.0, r=1.0, rp=1.0).is_coincident()
        assert not PointPair(t=1e-9, r=1.0, rp=1.0).is_coincident()
        assert not PointPair(t=0.0, r=1.0, rp=1.0, z=0.0, zp=0.1).is_coincident()


class TestU:
    def test_pure_radial_separation_is_log_ratio(self):
        # t = z - z' = 0 collapses q to (r-r')^2/(4rr'), so u = |ln(r/r')|.
        uv = u_of_pair(PointPair(t=0.0, r=2.0, rp=1.0))
        assert uv.u == pytest.approx(math.log(2.0), rel=1e-14)

    def test_coincident_pair_gives_zero(self):
        uv = u_of_pair(PointPair(t=0.0, r=1.0, rp=1.0))
        assert uv.u == 0.0
        assert uv.cosh_u == 1.0
        assert uv.sinh_u == 0.0

    def test_consistency_report_forms(self):
        pair = PointPair(t=0.5, r=2.0, rp=1.0, z=0.2, zp=-0.1)
        report = u_consistency(pair)
        assert sorted(report.values) == ["acosh", "asinh", "half_angle",
                                         "log_ratio"]
        assert report.max_rel_diff < 1e-12

    def test_consistency_requires_separation(self):
        with pytest.raises(ValueError):
            u_consistency(PointPair(t=0.0, r=1.0, rp=1.0))

    @given(pairs())
    @settings(max_examples=50, deadline=None)
    def test_u_nonnegative_with_consistent_hyperbolics(self, pair):
        # cosh^2 - sinh^2 cancels catastrophically at large u, so check the
        # cached values against the angle itself instead.
        uv = u_of_pair(pair)
        assert uv.u >= 0.0
        assert uv.cosh_u == pytest.approx(math.cosh(uv.u), rel=1e-9)
        assert uv.sinh_u == pytest.approx(math.sinh(uv.u), rel=1e-9, abs=1e-12)

    @given(pairs())
    @settings(max_examples=50, deadline=None)
    def test_u_symmetric_under_swap(self, pair):
        swapped = replace(pair, r=pair.rp, rp=pair.r, theta=pair.thetap,
                          thetap=pair.theta, z=pair.zp, zp=pair.z)
        assert u_of_pair(swapped).u == pytest.approx(
            u_of_pair(pair).u, rel=1e-12, abs=1e-15)

    @given(pairs(), st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=50, deadline=None)
    def test_u_invariant_under_scaling(self, pair, factor):
        assert u_of_pair(pair.scaled(factor)).u == pytest.approx(
            u_of_pair(pair).u, rel=1e-10, abs=1e-14)


class TestGeometries:
    def test_cone_order(self):
        assert Cone(math.pi).order == pytest.approx(2.0)
        assert Cone(2.0 * math.pi).order == pytest.approx(1.0)

    def test_cone_rejects_nonpositive_angle(self):
        with pytest.raises(ValueError):
            Cone(0.0)

    @pytest.mark.parametrize("theta0", [0.0, -1.0])
    def test_wedge_rejects_nonpositive_opening(self, theta0):
        with pytest.raises(ValueError, match=f"^theta0 must be positive, got {theta0!r}$"):
            Wedge(theta0)

    def test_wedge_defaults_to_dirichlet(self):
        assert Wedge(1.0).bc is BoundaryCondition.DIRICHLET

    def test_wedge_rejects_string_condition(self):
        with pytest.raises(TypeError):
            Wedge(1.0, "dirichlet")

    def test_image_signs(self):
        assert BoundaryCondition.DIRICHLET.image_sign == -1
        assert BoundaryCondition.NEUMANN.image_sign == +1

    def test_periodic_line_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicLine(0.0)

    def test_plain_geometries_construct(self):
        Minkowski()
        Dowker()


class TestCoupling:
    def test_presets(self):
        assert Coupling.minimal().beta == pytest.approx(-0.25)
        assert Coupling.conformal().beta == pytest.approx(1.0 / 6.0 - 0.25)
        assert Coupling.quarter().beta == 0.0

    def test_xi_round_trip(self):
        assert Coupling.from_xi(0.25).beta == 0.0
        assert Coupling(beta=-0.1).xi == pytest.approx(0.15)

    def test_from_name(self):
        assert Coupling.from_name("conformal").beta == pytest.approx(
            Coupling.conformal().beta)
        with pytest.raises(ValueError):
            Coupling.from_name("bogus")
