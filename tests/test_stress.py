"""Stress assembly, renormalization modes, and the cutoff extrapolation.

The frozen table in tests/data/reference_values.json stores each component as
const + beta * beta_coeff at the listed point, so one table checks every
coupling.  Tolerances here were set from measured headroom: the extrapolator's
own error estimate covered the true deviation in every tabulated case, worst
ratio 0.97, and the worst relative deviation was 7.4e-6 (near the wedge wall).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conevac import (
    BoundaryCondition,
    Cone,
    ConvergenceError,
    Coupling,
    DomainError,
    Dowker,
    Minkowski,
    PointPair,
    RenormMode,
    Wedge,
    conservation_residual,
    kernel_expr,
    stress_at,
    stress_from_kernel,
    stress_t0,
    trace,
    zero_point_stress,
)
from conevac import jets, kernels
from conevac.kernels import minkowski_expr
from conevac.stress import COMPONENT_NAMES, _assemble, _ladder

CONFORMAL_BETA = Coupling.conformal().beta

FROZEN_GEOMETRIES = {
    "cone_eighth_turn": Cone(math.pi / 8),
    "cone_half_turn": Cone(math.pi),
    "cone_two_turns": Cone(4.0 * math.pi),
    "infinite_sheet": Dowker(),
}

# conformal coupling at these wall distances needs more digits than the
# cutoff ladder has: the component cancels to ~1e-7 of its beta terms
NONCONVERGENT = {
    ("wedge_right_dirichlet_r8_th0.001pi", CONFORMAL_BETA),
    ("wedge_right_dirichlet_r8_th0.005pi", CONFORMAL_BETA),
}


def _case_target(reference, name):
    case = reference["stress_t0"][name]
    if name in FROZEN_GEOMETRIES:
        return case, FROZEN_GEOMETRIES[name], 0.0
    return case, Wedge(case["theta0"]), case["theta"]


class TestZeroPoint:
    def test_unit_cutoff_values(self):
        s = zero_point_stress(1.0)
        c = 1.0 / (2.0 * math.pi ** 2)
        assert s.t00 == pytest.approx(3.0 * c, rel=1e-14)
        for name in ("t_rr", "t_perp", "t_zz"):
            assert s.components()[name] == pytest.approx(c, rel=1e-14)

    def test_scales_as_inverse_fourth_power(self):
        assert zero_point_stress(2.0).t00 == pytest.approx(
            zero_point_stress(1.0).t00 / 16.0, rel=1e-14)

    def test_is_traceless(self):
        assert trace(zero_point_stress(0.7)) == pytest.approx(0.0, abs=1e-15)

    def test_mode_is_raw(self):
        assert zero_point_stress(1.0).renorm_mode is RenormMode.RAW

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(DomainError):
            zero_point_stress(0.0)


class TestMinkowski:
    @pytest.mark.parametrize("beta", [0.0, 0.3, CONFORMAL_BETA])
    @pytest.mark.parametrize("renorm", [RenormMode.KERNEL_SUBTRACTION,
                                        RenormMode.COMPONENT_SUBTRACTION])
    def test_renormalized_vacuum_is_empty(self, beta, renorm):
        for t in (0.3, 0.7, 2.0):
            s = stress_at(Minkowski(), 1.3, beta=beta, t=t, renorm=renorm)
            floor = 1e-12 / t ** 4
            for value in s.components().values():
                assert abs(value) <= floor

    def test_raw_mode_recovers_zero_point(self):
        raw = stress_at(Minkowski(), 1.3, t=0.7, renorm=RenormMode.RAW)
        zp = zero_point_stress(0.7)
        for name, value in raw.components().items():
            assert value == pytest.approx(zp.components()[name], rel=1e-11)

    def test_conserved(self):
        assert conservation_residual(Minkowski(), 1.3) <= 1e-12


class TestFrozenReferences:
    """Cutoff extrapolation against the 60-digit table."""

    NAMES = (
        "cone_eighth_turn",
        "cone_half_turn",
        "cone_two_turns",
        "infinite_sheet",
        "wedge_right_dirichlet_r8_th0.001pi",
        "wedge_right_dirichlet_r8_th0.005pi",
        "wedge_right_dirichlet_r8_th0.0625pi",
        "wedge_right_dirichlet_r8_th0.125pi",
        "wedge_right_dirichlet_r8_th0.25pi",
    )

    @pytest.mark.parametrize("beta", [0.0, 0.3, CONFORMAL_BETA],
                             ids=["beta0", "beta03", "conformal"])
    @pytest.mark.parametrize("name", NAMES)
    def test_extrapolated_stress(self, reference, name, beta):
        case, geometry, theta = _case_target(reference, name)
        if (name, beta) in NONCONVERGENT:
            with pytest.raises(ConvergenceError):
                stress_t0(geometry, case["r"], theta=theta, beta=beta)
            return
        ex = stress_t0(geometry, case["r"], theta=theta, beta=beta)
        got = ex.stress.components()
        scale = max(abs(case[c]["const"]) + abs(case[c]["beta_coeff"])
                    for c in COMPONENT_NAMES)
        for c in COMPONENT_NAMES:
            want = case[c]["const"] + beta * case[c]["beta_coeff"]
            diff = abs(got[c] - want)
            assert diff <= max(2e-5 * abs(want), 1e-10 * scale), \
                f"{c}: got {got[c]!r}, want {want!r}"
            # the reported bar must cover the true deviation
            assert diff <= 3.0 * ex.error[c] + 1e-14 * scale

    def test_wedge_stress_symmetric_about_bisector(self):
        lo = stress_t0(Wedge(math.pi / 2), 8.0, theta=math.pi / 8)
        hi = stress_t0(Wedge(math.pi / 2), 8.0, theta=3.0 * math.pi / 8)
        for c in COMPONENT_NAMES:
            assert lo.stress.components()[c] == pytest.approx(
                hi.stress.components()[c], rel=1e-6)


class TestRenormModes:
    def test_kernel_and_component_paths_agree(self):
        for geometry in (Cone(2.2), Dowker()):
            a = stress_at(geometry, 1.3, beta=0.3, t=0.5,
                          renorm=RenormMode.KERNEL_SUBTRACTION)
            b = stress_at(geometry, 1.3, beta=0.3, t=0.5,
                          renorm=RenormMode.COMPONENT_SUBTRACTION)
            for name in COMPONENT_NAMES:
                assert a.components()[name] == pytest.approx(
                    b.components()[name], rel=1e-10, abs=1e-15)

    def test_raw_is_renormalized_plus_zero_point(self):
        for geometry in (Cone(2.2), Wedge(math.pi / 2)):
            theta = 0.6
            raw = stress_at(geometry, 1.3, theta, t=0.5, renorm=RenormMode.RAW)
            ren = stress_at(geometry, 1.3, theta, t=0.5)
            zp = zero_point_stress(0.5)
            for name in COMPONENT_NAMES:
                assert raw.components()[name] == pytest.approx(
                    ren.components()[name] + zp.components()[name], rel=1e-12)

    def test_wedge_rejects_componentwise_subtraction(self):
        # the wedge kernel is already renormalized, so only the flat-kernel
        # subtraction path is defined
        with pytest.raises(DomainError):
            stress_at(Wedge(math.pi / 2), 1.0, 0.5, t=0.4,
                      renorm=RenormMode.COMPONENT_SUBTRACTION)

    def test_custom_kernel_matches_dispatch(self):
        got = stress_from_kernel(kernel_expr(Cone(2.2)), 1.3, t=0.4, beta=0.3)
        want = stress_at(Cone(2.2), 1.3, t=0.4, beta=0.3)
        for name in COMPONENT_NAMES:
            assert got.components()[name] == want.components()[name]


class TestTrace:
    def test_trace_combines_components(self):
        s = stress_at(Cone(math.pi), 1.3, t=0.5, beta=0.3)
        want = -s.t00 + s.t_rr + s.t_perp + s.t_zz
        assert trace(s) == pytest.approx(want, rel=1e-15)

    def test_conformal_coupling_kills_extrapolated_trace(self):
        ex = stress_t0(Cone(math.pi), 1.0, beta=CONFORMAL_BETA)
        scale = max(abs(v) for v in ex.stress.components().values())
        assert abs(trace(ex.stress)) <= 1e-4 * scale

    def test_minimal_coupling_does_not(self):
        ex = stress_t0(Cone(math.pi), 1.0, beta=0.0)
        scale = max(abs(v) for v in ex.stress.components().values())
        assert abs(trace(ex.stress)) > 1e-2 * scale


class TestScalingAndAffinity:
    @given(st.floats(min_value=0.15, max_value=1.5),
           st.floats(min_value=0.5, max_value=3.0),
           st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_joint_scaling_is_inverse_fourth_power(self, ratio, r, lam):
        # t is drawn relative to r: far below that the cancellation noise in
        # the second derivatives exceeds the tolerance under test
        t = ratio * r
        base = stress_at(Cone(2.2), r, t=t, beta=0.3)
        scaled = stress_at(Cone(2.2), lam * r, t=lam * t, beta=0.3)
        for name in COMPONENT_NAMES:
            assert scaled.components()[name] == pytest.approx(
                base.components()[name] / lam ** 4, rel=1e-10, abs=1e-18)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_stress_is_affine_in_coupling(self, beta):
        at = lambda b: stress_at(Dowker(), 1.3, t=0.5, beta=b).components()
        s0, s1, sb = at(0.0), at(1.0), at(beta)
        for name in COMPONENT_NAMES:
            want = s0[name] + beta * (s1[name] - s0[name])
            assert sb[name] == pytest.approx(want, rel=1e-10, abs=1e-16)

    def test_extrapolated_stress_scales_too(self):
        base = stress_t0(Dowker(), 1.0)
        scaled = stress_t0(Dowker(), 2.0)
        for name in COMPONENT_NAMES:
            assert scaled.stress.components()[name] == pytest.approx(
                base.stress.components()[name] / 16.0, rel=1e-6)


class TestConservation:
    @pytest.mark.parametrize("geometry", [Cone(math.pi), Cone(4.0 * math.pi),
                                          Dowker()],
                             ids=["half_turn", "two_turns", "sheet"])
    def test_radial_balance_closes(self, geometry):
        assert conservation_residual(geometry, 1.0) <= 1e-3

    def test_wedge_needs_full_divergence(self):
        # theta dependence breaks the radial-only balance used here
        with pytest.raises(DomainError):
            conservation_residual(Wedge(math.pi / 2), 1.0)


class TestValidation:
    def test_extrapolation_needs_two_rungs(self):
        with pytest.raises(ValueError):
            stress_t0(Dowker(), 1.0, rungs=1)

    def test_extrapolation_needs_positive_start(self):
        with pytest.raises(DomainError):
            stress_t0(Dowker(), 1.0, t0=0.0)

    def test_wedge_wall_is_out_of_domain(self):
        with pytest.raises(DomainError):
            stress_at(Wedge(math.pi / 2), 1.0, 0.0, t=0.4)
        with pytest.raises(DomainError):
            stress_t0(Wedge(math.pi / 2), 1.0, theta=math.pi / 2)

    def test_nonconformal_wall_graze_is_rejected(self):
        # beta terms diverge at the wall; refuse rather than extrapolate noise
        with pytest.raises(DomainError):
            stress_t0(Wedge(math.pi / 2), 1.0, theta=5e-4, beta=0.0)

    def test_stress_needs_positive_cutoff(self):
        with pytest.raises(DomainError):
            stress_at(Cone(2.2), 1.0, t=0.0)


def _scalar_rung(geometry, r, theta, beta, t):
    """Kernel-subtracted stress at one cutoff through scalar jets.

    The per-rung path that the batched ladder replaces, kept as its
    reference: the wedge kernel is stored flat-part-free and takes the
    general tangential form.
    """
    coords = jets.lift(PointPair(t=t, r=r, rp=r, theta=theta, thetap=theta))
    k = kernel_expr(geometry)(**coords)
    wedge = isinstance(geometry, Wedge)
    if not wedge:
        k = k - minkowski_expr(**coords)
    one = jets.Jet2(np.array([k.value]), k.grad[:, None], k.hess[:, :, None])
    (rung,) = _assemble(one, r, beta)
    return rung


LADDERS = {
    "cone": (Cone(2.2), 1.3, 0.0, 0.325),
    "cone_sharp": (Cone(0.3), 0.7, 0.0, 0.175),
    "cone_surplus": (Cone(40.0), 2.0, 0.0, 0.5),
    "sheet": (Dowker(), 1.1, 0.0, 0.275),
    "flat": (Minkowski(), 0.9, 0.0, 0.225),
    "wedge_dirichlet": (Wedge(math.pi / 2), 8.0, math.pi / 8, 2.0),
    "wedge_neumann": (Wedge(2.0 * math.pi / 3, BoundaryCondition.NEUMANN), 3.0, 0.4, 0.6),
    "wedge_near_wall": (Wedge(math.pi / 3), 8.0, 0.02, 0.32),
    # a*u is ~44 on rung 0 and ~25 below it: the angular factor's
    # exponential form (a*u > 30) and half-angle form share one ladder
    "straddles_exp_form": (Cone(0.3), 1.0, 0.0, 2.5),
    # u is ~1.6e-4 on rung 0 and below the 1e-4 series window after it
    "straddles_series_cone": (Cone(2.0 * math.pi), 1.0, 0.0, 1.6e-4),
    "straddles_series_sheet": (Dowker(), 1.0, 0.0, 1.6e-4),
}


class TestBatchedLadder:
    """Each rung of the one-pass ladder is bit for bit its scalar-jet stress."""

    @pytest.mark.parametrize("beta", [CONFORMAL_BETA, -0.25, 0.7],
                             ids=["conformal", "minimal", "beta07"])
    @pytest.mark.parametrize("name", list(LADDERS))
    def test_rungs_equal_scalar_jet_stress(self, name, beta):
        geometry, r, theta, t0 = LADDERS[name]
        ts = [t0 / 2.0 ** k for k in range(6)]
        ladder = _ladder(geometry, r, theta, 0.0, beta, ts,
                         RenormMode.KERNEL_SUBTRACTION)
        for t, rung in zip(ts, ladder):
            want = _scalar_rung(geometry, r, theta, beta, t)
            got = (rung.t00, rung.t_rr, rung.t_perp, rung.t_zz)
            assert [v.hex() for v in got] == [float(v).hex() for v in want]
            single = stress_at(geometry, r, theta, beta=beta, t=t)
            assert single == rung

    @pytest.mark.parametrize("name, threshold", [
        ("straddles_exp_form", kernels._EXP_FORM_MIN_X),
        ("straddles_series_cone", kernels._SMALL_U),
        ("straddles_series_sheet", kernels._SMALL_U),
    ])
    def test_straddling_ladders_straddle(self, name, threshold):
        geometry, r, _, t0 = LADDERS[name]
        a = geometry.order if isinstance(geometry, Cone) else 1.0
        au = [a * 2.0 * math.asinh(t0 / 2.0 ** k / (2.0 * r)) for k in range(6)]
        assert au[0] > threshold > au[1]

    def test_extrapolation_reads_one_batched_pass(self, monkeypatch):
        calls = []
        real = kernel_expr

        def counting(geometry):
            expr = real(geometry)

            def counted(**coords):
                calls.append(coords["t"].value.tolist())
                return expr(**coords)
            return counted

        monkeypatch.setattr("conevac.stress.kernel_expr", counting)
        stress_t0(Cone(2.2), 1.3, t0=0.4, rungs=4)
        assert calls == [[0.4, 0.2, 0.1, 0.05]]
