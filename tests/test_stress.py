"""Stress assembly, renormalization modes, and the cutoff extrapolation.

The frozen table in tests/data/reference_values.json stores each component as
const + beta * beta_coeff at the listed point, so one table checks every
coupling.  Tolerances here were set from measured headroom: the extrapolator's
own error estimate covered the true deviation in every tabulated case, worst
ratio 0.97, and the worst relative deviation was 7.4e-6 (near the wedge wall).
"""

import math
from itertools import chain

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
    ExtrapolatedStress,
    Minkowski,
    PointPair,
    RenormMode,
    SingularPointError,
    StressTensor,
    Wedge,
    conservation_residual,
    kernel_expr,
    stress_at,
    stress_from_kernel,
    stress_t0,
    tbar_cone,
    tbar_dowker,
    tbar_wedge,
    trace,
    zero_point_stress,
)
from conevac import cli, jets, kernels, stress
from conevac.kernels import minkowski_expr
from conevac.stress import (
    COMPONENT_NAMES,
    _assemble,
    _derivatives,
    _noise,
    _pass,
    _richardson,
    _rungs,
    _stress_cells,
)
from conevac.oracles import _stress_points

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


def _cells(points, z, t):
    """`_stress_cells` at cutoff ``t`` and at t -> 0 of (geometry, r, theta, betas) points.

    Two entries per point, as the CLI makes them; returns per point its
    (finite, limit) cells, each a list over its betas, and raises the
    first plain ValueError (a point that is not valid), as the CLI does.
    """
    cells = _stress_cells([(geometry, RenormMode.KERNEL_SUBTRACTION, r, theta, z, cutoff, betas)
                           for geometry, r, theta, betas in points for cutoff in (t, None)])
    for cell in chain.from_iterable(cells):
        if type(cell) is ValueError:
            raise cell
    return list(zip(cells[::2], cells[1::2]))


def _grid(geometry, points, z, betas, t):
    """`_cells` over (r, theta) points of one geometry, each at every beta."""
    return _cells([(geometry, r, theta, betas) for r, theta in points], z, t)


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
    # (geometry, theta): the wedges at a point inside both
    WEDGES = ((Wedge(math.pi / 2), 0.6),
              (Wedge(2.0 * math.pi / 3, BoundaryCondition.NEUMANN), 0.6))

    def test_kernel_and_component_paths_agree(self):
        for geometry, theta in ((Cone(2.2), 0.0), (Dowker(), 0.0), *self.WEDGES):
            a = stress_at(geometry, 1.3, theta, beta=0.3, t=0.5,
                          renorm=RenormMode.KERNEL_SUBTRACTION)
            b = stress_at(geometry, 1.3, theta, beta=0.3, t=0.5,
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

    def test_custom_kernel_matches_dispatch(self):
        for geometry, theta in ((Cone(2.2), 0.0), *self.WEDGES):
            got = stress_from_kernel(kernel_expr(geometry), 1.3, theta, t=0.4, beta=0.3)
            want = stress_at(geometry, 1.3, theta, t=0.4, beta=0.3)
            for name in COMPONENT_NAMES:
                assert got.components()[name] == want.components()[name], geometry


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


class TestWedgeImages:
    """Sommerfeld's images: a Dirichlet and a Neumann wedge sum to twice the doubled cone.

    The wedge kernel is `Cone(2 theta0)` at theta - thetap plus or minus
    its reflected image, so the two walls' images cancel in the sum, and
    so does each wall's kernel subtraction against the cone's.
    """

    @pytest.mark.parametrize("theta0", [math.pi / 8, math.pi / 3, math.pi / 2,
                                        2.0 * math.pi / 3, 1.5 * math.pi],
                             ids=["pi/8", "pi/3", "pi/2", "2pi/3", "3pi/2"])
    def test_dirichlet_plus_neumann_is_twice_the_cone(self, theta0):
        cone = Cone(2.0 * theta0)
        dirichlet = Wedge(theta0, BoundaryCondition.DIRICHLET)
        neumann = Wedge(theta0, BoundaryCondition.NEUMANN)
        for frac in (0.1, 0.37, 0.5):
            for t in (0.05, 0.3, 1.0):
                for beta in (-0.25, -1.0 / 12.0, 0.7):
                    at = [stress_at(g, 1.3, frac * theta0, beta=beta, t=t).components()
                          for g in (dirichlet, neumann, cone)]
                    scale = max(abs(v) for comps in at for v in comps.values())
                    for name in COMPONENT_NAMES:
                        got = at[0][name] + at[1][name]
                        assert abs(got - 2.0 * at[2][name]) <= 1e-12 * scale, \
                            (frac, t, beta, name)


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

    @pytest.mark.parametrize("geometry, r, want", [
        (Minkowski(), 1.3, "0x0.0p+0"),
        (Cone(math.pi), 1.3, "0x1.0bcd86f8204e2p-35"),
    ], ids=["flat", "half_turn"])
    def test_residual_is_pinned(self, geometry, r, want):
        assert conservation_residual(geometry, r).hex() == want

    @pytest.mark.parametrize("geometry, r, error, message", [
        # only the upper radius r + h overflows its ladder's t**4
        (Cone(2.0), 4.6e77, DomainError,
         "the t -> 0 ladder from t=1.1614999999999999e+77 leaves the range of "
         "double precision (t**4 overflows)"),
        (Cone(2.0 * math.pi), 0.7, ConvergenceError,
         "t -> 0 extrapolation did not converge for t00: value -1.8284633066893243e-12, "
         "error estimate 1.8568850161197284e-12"),
    ], ids=["upper_ladder_overflows", "flat_cone_does_not_converge"])
    def test_errors_are_pinned(self, geometry, r, error, message):
        with pytest.raises(error) as info:
            conservation_residual(geometry, r)
        assert str(info.value) == message


class TestValidation:
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
        # the planner reads t = None as the t -> 0 limit; a cutoff must be a number
        for call in (lambda: stress_at(Cone(2.2), 1.0, t=None),
                     lambda: stress_from_kernel(minkowski_expr, 1.0, t=None)):
            with pytest.raises(TypeError, match="must be real number, not NoneType"):
                call()

    @pytest.mark.parametrize("r", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_radius_is_rejected_alike_everywhere(self, r):
        calls = {
            "stress_at": lambda: stress_at(Cone(2.2), r, t=0.5),
            "stress_t0": lambda: stress_t0(Cone(2.2), r),
            "_stress_cells": lambda: _grid(Cone(2.2), [(r, 0.0)], 0.0, (0.0,), 0.5),
        }
        messages = set()
        for call in calls.values():
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError
            messages.add(str(info.value))
        assert len(messages) == 1
        assert ("must be positive" if r == r and abs(r) < math.inf
                else "must be finite") in messages.pop()

    @pytest.mark.parametrize("geometry, r, theta", [
        (Cone(2.0), 5e-324, 0.0),
        (Wedge(math.pi / 2), 1e-5, 5e-324),
    ], ids=["radius", "wall_gap"])
    def test_underflowing_ladder_top_is_out_of_range(self, geometry, r, theta):
        # a quarter of the least radius, or of r times the least wall gap, is 0
        with pytest.raises(DomainError, match=r"^t0 must be positive, got 0\.0$"):
            stress_t0(geometry, r, theta, beta=CONFORMAL_BETA)

    @pytest.mark.parametrize("geometry", [Dowker(), Cone(2.0), Wedge(1.0)],
                             ids=["sheet", "cone", "wedge"])
    def test_huge_radii_are_finite_or_out_of_range(self, geometry):
        # the ladder's t**4 once overflowed as a bare OverflowError
        theta = 0.5 if isinstance(geometry, Wedge) else 0.0
        assert all(math.isfinite(v) for v in
                   stress_t0(geometry, 1e70, theta).stress.components().values())
        for r in (1e78, 1e100, 1e300):
            with pytest.raises(DomainError, match=r"t\*\*4 overflows"):
                stress_t0(geometry, r, theta)

    # numpy warns about the infinities on the way to the exception
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("geometry", [Dowker(), Cone(2.0)], ids=["sheet", "cone"])
    def test_tiny_radii_are_finite_or_out_of_range(self, geometry):
        # t / r beyond ~1e32 once gave NaN components here
        outcomes = set()
        for k in range(30, 41):
            try:
                s = stress_at(geometry, 10.0 ** -k, t=1.0)
            except DomainError as exc:
                assert "leaves the range of double precision" in str(exc)
                outcomes.add("error")
            else:
                assert all(math.isfinite(v) for v in s.components().values())
                outcomes.add("finite")
        assert outcomes == {"finite", "error"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("geometry", [Dowker(), Cone(2.0)], ids=["sheet", "cone"])
    def test_huge_radii_are_tiny_or_out_of_range(self, geometry):
        # the exact stress is below 1e-300 here; t00 once read -1/(2 pi^2)
        # at r = 1e100, because (t / 2r^2)^2 underflows in the chain rule
        outcomes = set()
        for k in range(60, 161):
            try:
                s = stress_at(geometry, 10.0 ** k, t=1.0)
            except DomainError as exc:
                assert "leaves the range of double precision" in str(exc)
                outcomes.add("error")
            else:
                assert all(abs(v) <= 1e-12 for v in s.components().values()), k
                outcomes.add("tiny")
        assert outcomes == {"tiny", "error"}

    def test_flat_space_keeps_its_values_at_huge_radii(self):
        # only sqrt(q) loses the underflowing slope, and the flat kernel
        # has none: kernel subtraction is exactly 0, RAW the zero-point stress
        # (from r ~ 1e155 on, r * r overflows and the components are NaN)
        zp = zero_point_stress(1.0).components()
        for k in range(60, 151, 10):
            r = 10.0 ** k
            flat = stress_at(Minkowski(), r, t=1.0)
            assert all(v == 0.0 for v in flat.components().values()), k
            raw = stress_at(Minkowski(), r, t=1.0, renorm=RenormMode.RAW).components()
            assert raw == pytest.approx(zp, rel=1e-15), k
        with pytest.raises(DomainError, match=r"t / \(2 r\*\*2\) squared underflows"):
            stress_at(Dowker(), 1e100, t=1.0)

    # (geometry, r, theta, t) where the kernel pass fails: in the jets sqrt
    # rule at q = 0 (t * t underflows against r * r), in a rule whose
    # derivative factor overflows, or with a component that comes out NaN
    KERNEL_PASS_FAILURES = {
        "cone_sqrt": ((Cone(2.0), 1e-100, 0.0, 1e-170), "the stress at r=1e-100 leaves the "
                      "range of double precision (sqrt of a jet requires a positive value, "
                      "got 0.0)"),
        "wedge_sqrt": ((Wedge(1.0), 1e-100, 0.5, 1e-170), "the stress at r=1e-100 leaves the "
                       "range of double precision (sqrt of a jet requires a positive value, "
                       "got 0.0)"),
        "cone_overflow": ((Cone(2.0), 1.0, 0.0, 1e150), "the stress at r=1.0 leaves the "
                          "range of double precision (OverflowError)"),
        "sheet_overflow": ((Dowker(), 1.0, 0.0, 1e150), "the stress at r=1.0 leaves the "
                           "range of double precision (OverflowError)"),
        "flat_nan": ((Minkowski(), 1e-100, 0.0, 1e-170), "the stress at r=1e-100 leaves "
                     "the range of double precision (NaN)"),
    }

    @pytest.mark.parametrize("name", list(KERNEL_PASS_FAILURES))
    def test_kernel_pass_failures_are_pinned(self, name):
        (geometry, r, theta, t), message = self.KERNEL_PASS_FAILURES[name]
        with pytest.raises(DomainError) as info:
            stress_at(geometry, r, theta, t=t)
        assert type(info.value) is DomainError and str(info.value) == message

    def test_a_kernel_expression_keeps_its_rule_error(self):
        # a user kernel's failing jets rule is its own error, not the range's
        with pytest.raises(DomainError) as info:
            stress_from_kernel(kernel_expr(Cone(2.0)), 1e-100, t=1e-170)
        assert str(info.value) == "sqrt of a jet requires a positive value, got 0.0"

    def test_kernel_pass_failures_keep_their_cells_among_good_entries(self):
        # each failing entry shares its pass with good ones of its kernel
        # kind, finite and t -> 0, and meets exactly the cell it has alone
        entries = []
        for (geometry, r, theta, t), _ in self.KERNEL_PASS_FAILURES.values():
            entries += [(geometry, RenormMode.KERNEL_SUBTRACTION, rg, theta, 0.0, tg,
                         (0.0, CONFORMAL_BETA))
                        for rg, tg in ((1.5, 0.5), (r, t), (2.0, None), (3.0, 0.25))]
        mixed = _stress_cells(entries)
        for k, entry in enumerate(entries):
            (alone,) = _stress_cells([entry])
            assert all(map(_same, mixed[k], alone)), entry
        messages = [message for _, message in self.KERNEL_PASS_FAILURES.values()]
        assert [str(cells[0]) for cells in mixed[1::4]] == messages


def _scalar_rung(geometry, r, theta, beta, t):
    """Kernel-subtracted stress at one cutoff through scalar jets.

    The per-rung path that the batched ladder replaces, kept as its
    reference.
    """
    coords = jets.lift(PointPair(t=t, r=r, rp=r, theta=theta, thetap=theta))
    k = kernel_expr(geometry)(**coords) - minkowski_expr(**coords)
    (rung,) = _assemble([(r, t, *map(float, _derivatives(k)))], beta,
                        RenormMode.KERNEL_SUBTRACTION)
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


def _ladder(geometry, r, theta, beta, ts):
    """Kernel-subtracted stress tensors on one cutoff ladder, from one engine pass."""
    ((rungs,),) = _pass(RenormMode.KERNEL_SUBTRACTION, [(geometry, r, theta, 0.0, ts, (beta,))])
    return [StressTensor(*comps, renorm_mode=RenormMode.KERNEL_SUBTRACTION, cutoff_t=t)
            for t, comps in zip(ts, rungs)]


class TestBatchedLadder:
    """Each rung of the one-pass ladder is bit for bit its scalar-jet stress."""

    @pytest.mark.parametrize("beta", [CONFORMAL_BETA, -0.25, 0.7],
                             ids=["conformal", "minimal", "beta07"])
    @pytest.mark.parametrize("name", list(LADDERS))
    def test_rungs_equal_scalar_jet_stress(self, name, beta):
        geometry, r, theta, t0 = LADDERS[name]
        ts = [t0 / 2.0 ** k for k in range(6)]
        ladder = _ladder(geometry, r, theta, beta, ts)
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
        stress_t0(Cone(2.2), 1.3)
        assert calls == [[1.3 / 4.0 / 2.0 ** k for k in range(6)]]

    # One batch of points at different r, theta and t: the cone batch
    # holds a*u ~44 and ~25 (both sides of the exponential form), the
    # wedge batch points at two angles, one near a wall.
    MIXED = {
        "cone_sharp": (Cone(0.3), [(1.0, 0.0, 2.5), (0.7, 0.0, 0.175), (1.0, 0.0, 1.25),
                                   (2.0, 0.0, 0.3)]),
        "sheet": (Dowker(), [(1.0, 0.0, 1.6e-4), (1.1, 0.0, 0.275), (3.0, 0.0, 5e-5)]),
        "wedge": (Wedge(math.pi / 3), [(8.0, 0.02, 0.32), (2.0, 0.5, 0.2),
                                       (5.0, 1.0, 0.01)]),
    }

    @pytest.mark.parametrize("name", list(MIXED))
    def test_mixed_batch_equals_scalar_jet_stress(self, name):
        geometry, points = self.MIXED[name]
        pairs = [PointPair(t=t, r=r, rp=r, theta=th, thetap=th) for r, th, t in points]
        mode = RenormMode.KERNEL_SUBTRACTION
        betas = (CONFORMAL_BETA, -0.25, 0.7)
        rows = _rungs(kernel_expr(geometry), pairs, mode)
        batch = [_assemble(rows, beta, mode) for beta in betas]
        for beta, rungs in zip(betas, batch):
            for (r, theta, t), got in zip(points, rungs):
                want = _scalar_rung(geometry, r, theta, beta, t)
                assert [v.hex() for v in got] == [float(v).hex() for v in want]

    def test_mixed_cone_batch_straddles_the_exponential_form(self):
        _, points = self.MIXED["cone_sharp"]
        au = [Cone(0.3).order * 2.0 * math.asinh(t / (2.0 * r)) for r, _, t in points]
        assert max(au) > kernels._EXP_FORM_MIN_X > min(au)


def _hexes(cell):
    """float.hex of each value of a cell or of what a public function returns.

    A cell is a component tuple, or a t -> 0 cell's (components, errors)
    tuples; a tensor gives its components, an extrapolated stress its
    components and then its errors.
    """
    if isinstance(cell, ExtrapolatedStress):
        return _hexes(cell.stress) + [v.hex() for v in cell.error.values()]
    if type(cell) is tuple and type(cell[0]) is tuple:
        return [v.hex() for part in cell for v in part]
    return [v.hex() for v in (cell if type(cell) is tuple else cell.components().values())]


def _same(got, want):
    """A cell equal to a public result or cell by float.hex, or errors of one type and message."""
    if isinstance(want, Exception):
        return (type(got) is type(want) and str(got) == str(want)
                and "np.float64(" not in str(got))
    return type(got) is tuple and _hexes(got) == _hexes(want)


class TestStressGrid:
    """Each cell of a grid's `_stress_cells` call is bit for bit `stress_at` / `stress_t0`."""

    @staticmethod
    def per_point(geometry, r, theta, beta, t):
        try:
            finite = stress_at(geometry, r, theta, beta=beta, t=t)
        except DomainError as exc:
            finite = exc
        try:
            limit = stress_t0(geometry, r, theta, beta=beta)
        except (DomainError, ConvergenceError) as exc:
            limit = exc
        return finite, limit

    @pytest.mark.parametrize("geometry, points", [
        # r * r underflows at 1e-200, a float power overflows at 1e-150,
        # and the finite cutoff's components are NaN at 1e-33
        (Cone(2.2), [(r, 0.0) for r in (0.25, 1.0, 3.0, 8.0, 1e-200, 1e-150, 1e-33)]),
        (Dowker(), [(r, 0.0) for r in (0.5, 2.0, 1e-33, 1e-150, 1e-200)]),
        # both walls, a nonconformal near-wall point, conformal points
        # that do not converge, and interior points
        (Wedge(math.pi / 2), [(8.0, th) for th in
                              (0.0, 0.0005, 0.001 * math.pi, 0.3, 1.2, math.pi / 2)]),
        (Wedge(2.0 * math.pi / 3, BoundaryCondition.NEUMANN),
         [(3.0, 0.4), (6.0, 1.9), (1e-33, 0.4), (1e-150, 0.4), (1e-200, 0.4)]),
    ], ids=["cone", "sheet", "wedge_dirichlet", "wedge_neumann"])
    @pytest.mark.parametrize("betas", [(0.0,), (CONFORMAL_BETA, CONFORMAL_BETA + 1.0)],
                             ids=["one", "correction"])
    # numpy warns about the infinities on the way to the out-of-range errors
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_grid_equals_per_point_functions(self, geometry, points, betas):
        grid = _grid(geometry, points, 0.0, betas, 0.5)
        assert len(grid) == len(points)
        for (r, theta), (finite, limit) in zip(points, grid):
            for b, beta in enumerate(betas):
                want_finite, want_limit = self.per_point(geometry, r, theta, beta, 0.5)
                assert _same(finite[b], want_finite)
                assert _same(limit[b], want_limit)

    def test_grid_cells_cover_every_outcome(self):
        points = [(8.0, th) for th in (0.0, 0.0005, 0.001 * math.pi, 0.3)]
        grid = _grid(Wedge(math.pi / 2), points, 0.0,
                           (CONFORMAL_BETA, CONFORMAL_BETA + 1.0), 0.5)
        kinds = {type(cell).__name__ for finite, limit in grid for cell in finite + limit}
        assert kinds == {"DomainError", "ConvergenceError", "tuple"}

    def test_cells_are_float_tuples_built_without_tensors(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("_stress_cells built a result object")

        monkeypatch.setattr("conevac.stress.StressTensor", refused)
        monkeypatch.setattr("conevac.stress.ExtrapolatedStress", refused)
        points = [(8.0, th) for th in (0.0, 0.0005, 0.001 * math.pi, 0.3, 1.2)]
        grid = _grid(Wedge(math.pi / 2), points, 0.0,
                     (CONFORMAL_BETA, CONFORMAL_BETA + 1.0), 0.5)
        grid += _grid(Cone(2.2), [(0.5, 0.0), (2.0, 0.0)], 0.0, (0.0,), 0.5)
        finite, limit = ([cell for pair in grid for cell in pair[k]
                          if not isinstance(cell, Exception)] for k in (0, 1))
        assert finite and limit
        # a limit is its components and their errors
        for cell in finite + [part for pair in limit for part in pair]:
            assert type(cell) is tuple and len(cell) == 4
            assert all(type(v) is float for v in cell)
        assert all(type(pair) is tuple and len(pair) == 2 for pair in limit)

    def test_convergence_message_is_pinned(self):
        # the values are Python floats, so no numpy repr leaks into the text
        want = ("t -> 0 extrapolation did not converge for t00: "
                "value -3.2555390459450737, error estimate 2000.2329059268109")
        wedge, r, theta = Wedge(math.pi / 2), 4.0, 0.0005
        with pytest.raises(ConvergenceError) as info:
            stress_t0(wedge, r, theta, beta=CONFORMAL_BETA)
        assert str(info.value) == want
        ((_, (limit,)),) = _grid(wedge, [(r, theta)], 0.0, (CONFORMAL_BETA,), 0.5)
        assert type(limit) is ConvergenceError and str(limit) == want

    def test_near_wall_couplings_fail_before_the_ladder_checks(self):
        # one plan serves both couplings: the nonconformal one is refused for
        # the wall, the conformal one meets the ladder's own underflow
        wedge, r, theta = Wedge(math.pi / 2), 1e-300, 5e-4
        ((_, limit),) = _grid(wedge, [(r, theta)], 0.0, (0.0, CONFORMAL_BETA), 0.5)
        for cell, beta in zip(limit, (0.0, CONFORMAL_BETA)):
            assert _same(cell, self.per_point(wedge, r, theta, beta, 0.5)[1])
        assert "nonconformal" in str(limit[0])
        assert "underflows" in str(limit[1])

    def test_grid_reads_one_kernel_pass(self, monkeypatch):
        calls = []
        real = kernel_expr

        def counting(geometry):
            expr = real(geometry)

            def counted(**coords):
                calls.append(len(coords["t"].value))
                return expr(**coords)
            return counted

        monkeypatch.setattr("conevac.stress.kernel_expr", counting)
        _grid(Cone(2.2), [(1.0, 0.0), (2.0, 0.0), (4.0, 0.0)], 0.0, (0.0, 1.0), 0.5)
        assert calls == [3 * 7]

    def test_a_grid_over_the_batch_size_runs_in_batches(self, monkeypatch):
        # the CLI's grid, whose points go to `_stress_cells` in calls of
        # `cli._PASS_POINTS`; its two curves share each point, over both
        # couplings, and its rows hold every component of every cell
        spec = cli._FileSpec("grid.csv", "r", 0.5, 8.0, True,
                             series=(cli._Series("b0", Cone(2.2), 0.0),
                                     cli._Series("b1", Cone(2.2), 1.0)),
                             cutoff_t=0.5)
        points = [[0.5, 1.0, 2.0, 4.0, 8.0]]
        whole = list(cli._file_rows([spec], points))
        calls = []
        real = kernel_expr

        def counting(geometry):
            expr = real(geometry)

            def counted(**coords):
                calls.append(len(coords["t"].value))
                return expr(**coords)
            return counted

        tableaux = []

        def counted_richardson(values, noise):
            tableaux.append(len(values))
            return _richardson(values, noise)

        monkeypatch.setattr("conevac.stress.kernel_expr", counting)
        monkeypatch.setattr("conevac.stress._richardson", counted_richardson)
        monkeypatch.setattr("conevac.cli._PASS_POINTS", 2)
        batched = list(cli._file_rows([spec], points))
        # blocks of 2, 2 and 1 points, each one kernel pass and one tableau
        # of 4 component rows per ladder and coupling
        assert calls == [14, 14, 7]
        assert tableaux == [2 * 2 * 4, 2 * 2 * 4, 2 * 4]
        ((rows, notes),), ((want_rows, want_notes),) = batched, whole
        assert len(rows) == 5 and len(rows[0]) == 1 + 2 * 2 * 4 and notes == want_notes
        assert ([[v.hex() for v in row] for row in rows]
                == [[v.hex() for v in row] for row in want_rows])

    # numpy warns about the infinities on the way to the exception
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batch_failing_in_arithmetic_gives_each_point_its_domain_error(self):
        # r * r underflows at the first point (a ZeroDivisionError in the
        # assembly) and a float power overflows at the second, which the
        # batched kernel pass meets first; neither stress is representable
        points = [(1e-200, 0.5), (1e-150, 0.5)]
        causes = ["ZeroDivisionError", "OverflowError"]
        grid = _grid(Wedge(1.0), points, 0.0, (0.0,), 1.0)
        for (r, theta), cause, (finite, limit) in zip(points, causes, grid):
            want_finite, want_limit = self.per_point(Wedge(1.0), r, theta, 0.0, 1.0)
            assert isinstance(want_finite, DomainError) and cause in str(want_finite)
            assert isinstance(want_limit, DomainError)
            assert _same(finite[0], want_finite)
            assert _same(limit[0], want_limit)

    def test_failing_batch_falls_back_to_points(self):
        # t * t underflows to 0, so the finite cutoff's jet sqrt fails for
        # the whole batch; each point then runs on its own
        points = [(1.0, 0.0), (2.0, 0.0)]
        grid = _grid(Cone(2.2), points, 0.0, (0.0,), 1e-200)
        for (r, theta), (finite, limit) in zip(points, grid):
            want_finite, want_limit = self.per_point(Cone(2.2), r, theta, 0.0, 1e-200)
            assert isinstance(want_finite, DomainError)
            assert _same(finite[0], want_finite)
            assert _same(limit[0], want_limit)

    def test_invalid_points_raise_as_per_point(self):
        # the bad cutoff makes the finite cell a DomainError; the ladder
        # still validates the point, as stress_t0 does
        with pytest.raises(ValueError, match="theta must be finite"):
            stress_t0(Cone(2.2), 1.0, math.nan)
        with pytest.raises(ValueError, match="theta must be finite"):
            _grid(Cone(2.2), [(1.0, math.nan)], 0.0, (0.0,), 0.0)


_MERGE_BETAS = (CONFORMAL_BETA, 0.0, -0.25, 0.7)


@st.composite
def _cone(draw):
    # sharp cones at small r put a * u on both sides of the exponential form
    return Cone(math.exp(draw(st.floats(math.log(0.05), math.log(1e4 * math.pi)))))


@st.composite
def _cone_point(draw, geometry):
    return draw(st.one_of(st.floats(0.02, 8.0), st.sampled_from([1e-3, 2e4]))), 0.0


@st.composite
def _wedge(draw, bc):
    return Wedge(draw(st.floats(0.2, 2.0 * math.pi)), bc)


@st.composite
def _wedge_point(draw, geometry):
    theta0 = geometry.theta0
    # on the walls, too close for nonconformal couplings, near them, inside
    theta = draw(st.one_of(st.floats(0.0, 1.0).map(lambda f: f * theta0),
                           st.sampled_from([0.0, 5e-4, 2e-3, theta0 - 5e-4, theta0])))
    return draw(st.floats(0.1, 8.0)), theta


@st.composite
def _merged_points(draw, geometries, positions):
    """(geometry, r, theta, betas) points on up to three geometries of one kind."""
    shapes = draw(st.lists(geometries, min_size=1, max_size=3))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        geometry = draw(st.sampled_from(shapes))
        r, theta = draw(positions(geometry))
        betas = draw(st.lists(st.sampled_from(_MERGE_BETAS), min_size=1, max_size=2,
                              unique=True))
        points.append((geometry, r, theta, tuple(betas)))
    return points


def _check_merged_pass(points, t):
    """One pass over ``points`` equals one pass per geometry and the per-point functions."""
    merged = _cells(points, 0.0, t)
    alone = {}
    for geometry in {p[0] for p in points}:
        mine = [k for k, p in enumerate(points) if p[0] == geometry]
        alone.update(zip(mine, _cells([points[k] for k in mine], 0.0, t)))
    for k, (geometry, r, theta, betas) in enumerate(points):
        for b, beta in enumerate(betas):
            want = TestStressGrid.per_point(geometry, r, theta, beta, t)
            for cells in (merged[k], alone[k]):
                assert _same(cells[0][b], want[0]), (geometry, r, theta, beta)
                assert _same(cells[1][b], want[1]), (geometry, r, theta, beta)


def _per_point(source, renorm, r, theta, z, t, beta):
    """What the public per-point call returns at one point and beta, or raises.

    `stress_t0` takes no renorm mode; a t -> 0 entry in another mode
    gets what a batch of that entry alone gives, its refusal.
    """
    try:
        if t is None and renorm is not KERNEL:
            ((cell,),) = _stress_cells([(source, renorm, r, theta, z, t, (beta,))])
            return cell
        if t is None:
            return stress_t0(source, r, theta, z, beta=beta).stress
        if callable(source):
            return stress_from_kernel(source, r, theta, z, beta=beta, t=t, renorm_mode=renorm)
        return stress_at(source, r, theta, z, beta=beta, t=t, renorm=renorm)
    except (ValueError, ConvergenceError) as exc:
        return exc


KERNEL, COMPONENT, RAW = (RenormMode.KERNEL_SUBTRACTION, RenormMode.COMPONENT_SUBTRACTION,
                          RenormMode.RAW)


class TestStressPoints:
    """`_stress_points` is bit for bit the per-point calls, in one pass per kind and mode."""

    POINTS = [
        (Cone(2.2), KERNEL, 1.0, 0.0, 0.0, 0.5, (0.0, 1.0, 0.3)),
        (Cone(0.9 * math.pi), COMPONENT, 1.5, 0.2, 0.0, 0.4, (0.0, -0.2)),
        (Dowker(), RAW, 0.8, 0.0, 0.0, 0.3, (0.1,)),
        (Wedge(math.pi / 2), KERNEL, 2.0, 0.7, 0.0, 0.5, (0.0, 1.0)),
        (Wedge(math.pi / 2), RAW, 2.0, 0.7, 0.0, 0.5, (0.0,)),
        (Minkowski(), COMPONENT, 1.3, 0.0, 0.0, 0.6, (0.5,)),
        (minkowski_expr, RAW, 1.0, 0.3, 0.0, 0.5, (0.2,)),
        (Cone(2.2), KERNEL, 3.0, 0.0, 0.0, 1e-3, (0.0,)),
        (Wedge(2.0 * math.pi / 3, BoundaryCondition.NEUMANN), KERNEL, 3.0, 0.4, 0.0, None,
         (0.0, CONFORMAL_BETA)),
        (Cone(math.pi), KERNEL, 1.0, 0.0, 0.0, None, (0.0, CONFORMAL_BETA)),
        (Cone(4.0 * math.pi), KERNEL, 1.0, 0.0, 0.0, None, (CONFORMAL_BETA,)),
        (Dowker(), KERNEL, 2.0, 0.0, 0.0, None, (0.0,)),
        # z is a batch column like r and theta, and a second cutoff shares the pass
        (Cone(2.2), KERNEL, 1.0, 0.0, 0.7, 0.5, (0.0, 1.0, 0.3)),
        (Wedge(math.pi / 2), KERNEL, 2.0, 0.7, 0.7, None, (0.0, CONFORMAL_BETA)),
        (Dowker(), RAW, 0.8, 0.0, 0.0, 0.45, (0.1,)),
        (minkowski_expr, RAW, 1.0, 0.3, 0.7, 0.35, (0.2,)),
    ]

    def test_points_equal_per_point_calls(self, monkeypatch):
        passes, limits = [], []
        real_pass, real_limits = stress._pass, stress._limits

        def counting_pass(renorm, ladders):
            passes.append(len(ladders))
            return real_pass(renorm, ladders)

        def counting_limits(ladders):
            limits.append(len(ladders))
            return real_limits(ladders)

        monkeypatch.setattr(stress, "_pass", counting_pass)
        monkeypatch.setattr(stress, "_limits", counting_limits)
        got = _stress_points(self.POINTS)
        monkeypatch.undo()
        # cones kernel / component, sheet raw / kernel, Dirichlet wedge
        # kernel / raw, Neumann wedge, flat component, one expression
        assert sorted(passes) == [1] * 5 + [2] * 3 + [5]
        assert limits == [8]
        for point, cells in zip(self.POINTS, got):
            source, renorm, r, theta, z, t, betas = point
            assert len(cells) == len(betas)
            for cell, beta in zip(cells, betas):
                assert type(cell) is tuple and all(type(v) is float for v in cell)
                assert _hexes(cell) == _hexes(_per_point(source, renorm, r, theta, z, t, beta))

    FAILING = [
        (Cone(2.0 * math.pi), KERNEL, 0.707, 0.0, 0.0, None, (0.0,)),  # ConvergenceError
        (Cone(2.0), KERNEL, 4.6e77 * 1.01, 0.0, 0.0, None, (0.0,)),  # t**4 overflows
        (Cone(2.0), KERNEL, -1.0, 0.0, 0.0, None, (0.0,)),  # not a valid radius
        (Wedge(math.pi / 2), KERNEL, 1.0, 0.0, 0.0, 0.5, (0.0,)),  # on the wall
        (Wedge(math.pi / 2), COMPONENT, 1.0, 0.7, 0.0, None, (0.0,)),  # t -> 0 of no such mode
        (Cone(2.0), KERNEL, 1.0, math.nan, 0.0, 0.5, (0.0,)),  # not a valid angle
    ]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3, 4, 5), (1, 0, 2, 3, 5, 4),
                                       (2, 3, 0, 1, 4, 5), (3, 2, 1, 0, 5, 4),
                                       (4, 5, 3, 2, 1, 0), (5, 4, 0, 1, 2, 3)])
    # numpy warns about the infinities on the way to the overflow
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_error_in_call_order_is_raised(self, order):
        points = ([(Cone(2.2), KERNEL, 1.0, 0.0, 0.0, 0.5, (0.0,))]
                  + [self.FAILING[k] for k in order])
        want = _per_point(*self.FAILING[order[0]][:6], 0.0)
        assert isinstance(want, Exception)
        with pytest.raises(type(want)) as info:
            _stress_points(points)
        assert str(info.value) == str(want)

    @pytest.mark.parametrize("renorm", [COMPONENT, RAW])
    def test_t0_points_take_kernel_subtraction_only(self, renorm):
        # stress_t0 has no renorm mode: another one is refused, in call order
        point = (Cone(2.2), renorm, 1.0, 0.0, 0.0, None, (0.0,))
        with pytest.raises(ValueError, match="kernel-subtracted") as info:
            _stress_points([point])
        assert type(info.value) is ValueError
        with pytest.raises(ConvergenceError):
            _stress_points([self.FAILING[0], point])

    def test_errors_per_beta_come_in_beta_order(self):
        # the nonconformal coupling is refused at the wall, the conformal
        # one meets the ladder's own underflow
        wedge, r, theta = Wedge(math.pi / 2), 1e-300, 5e-4
        for betas in [(0.0, CONFORMAL_BETA), (CONFORMAL_BETA, 0.0)]:
            want = _per_point(wedge, KERNEL, r, theta, 0.0, None, betas[0])
            with pytest.raises(DomainError) as info:
                _stress_points([(wedge, KERNEL, r, theta, 0.0, None, betas)])
            assert str(info.value) == str(want)

    @pytest.mark.parametrize("r, theta, z, error, message", [
        (1.0, 5e-4, math.inf, ValueError, "z must be finite, got inf"),
        (-1.0, 5e-4, 0.0, ValueError, "radii must be positive, got r=-1.0, rp=-1.0"),
        (1e-5, 5e-324, 0.0, DomainError, "t0 must be positive, got 0.0"),
    ], ids=["height", "radius", "ladder"])
    def test_near_wall_coupling_meets_its_own_error_first(self, r, theta, z, error, message):
        # a nonconformal coupling this close to a wall is refused before the
        # ladder and the point are checked; only the conformal one meets those
        wedge = Wedge(math.pi / 2)
        for betas in [(0.0, CONFORMAL_BETA), (CONFORMAL_BETA, 0.0)]:
            (cells,) = _stress_cells([(wedge, KERNEL, r, theta, z, None, betas)])
            for cell, beta in zip(cells, betas):
                if beta == CONFORMAL_BETA:
                    assert type(cell) is error and str(cell) == message
                else:
                    assert type(cell) is DomainError
                    assert str(cell).startswith("nonconformal wedge stress diverges")
                assert _same(cell, _per_point(wedge, KERNEL, r, theta, z, None, beta))

    def test_z_is_checked_per_entry(self):
        # a z that is not finite fails its own entries only, as per point
        entries = [(Cone(2.2), KERNEL, 1.0, 0.0, z, t, (0.0,))
                   for z in (0.7, math.inf, -3.0, math.nan) for t in (0.5, None)]
        for entry, (cell,) in zip(entries, _stress_cells(entries)):
            source, renorm, r, theta, z, t, (beta,) = entry
            want = _per_point(source, renorm, r, theta, z, t, beta)
            if t is None and not isinstance(cell, Exception):
                cell = cell[0]
            assert _same(cell, want)
            assert (type(want) is ValueError and "z must be finite" in str(want)) is (
                not math.isfinite(z))

    @pytest.mark.parametrize("call, entry", [
        (lambda: stress_at(Cone(2.2), 1.0, 0.0, 0.7, beta=0.3, t=0.5, renorm=COMPONENT),
         (Cone(2.2), COMPONENT, 1.0, 0.0, 0.7, 0.5, (0.3,))),
        (lambda: stress_from_kernel(minkowski_expr, 1.0, 0.3, t=0.5, renorm_mode=RAW),
         (minkowski_expr, RAW, 1.0, 0.3, 0.0, 0.5, (0.0,))),
        (lambda: stress_t0(Wedge(math.pi / 2), 2.0, 0.7, 0.7, beta=CONFORMAL_BETA),
         (Wedge(math.pi / 2), KERNEL, 2.0, 0.7, 0.7, None, (CONFORMAL_BETA,))),
        (lambda: stress_at(Wedge(math.pi / 2), 1.0, 0.0, t=0.5),
         (Wedge(math.pi / 2), KERNEL, 1.0, 0.0, 0.0, 0.5, (0.0,))),
    ], ids=["stress_at", "stress_from_kernel", "stress_t0", "error"])
    def test_public_functions_are_one_entry_calls(self, monkeypatch, call, entry):
        calls = []
        real = stress._stress_cells

        def recorded(entries):
            calls.append(entries)
            return real(entries)

        monkeypatch.setattr(stress, "_stress_cells", recorded)
        try:
            result = call()
        except DomainError as exc:
            result = exc
        assert calls == [[entry]]
        ((cell,),) = real([entry])
        assert _same(cell, result)


def _dowker_term(t, r, rp, dth, z, zp):
    """The sheet's kernel in its own closed form, -u / (2 pi^2 r rp sinh(u) (u^2 + dth^2))."""
    q, u = kernels._separation(t, r, rp, z, zp)
    return -kernels._u_over_sinh(q, u) / (kernels._TWO_PI_SQ * r * rp * (u * u + dth * dth))


class TestHugeAngles:
    """Cones of order a = 2 pi / theta1 below `kernels._SHEET_A` are the sheet, bit for bit.

    The cone's own form breaks from theta1 ~ 1e155, where (a u)^2 leaves
    the normal doubles: at 1e160 t00 read -106 where the sheet has
    7.7e-4, and from 1e200 on it raised.  An offset with a * dth above
    `kernels._SHEET_Y` keeps the cone's value.
    """

    ANGLES = [1e100, 1e155, 1e160, 1e200, 1e300]

    @pytest.mark.parametrize("theta1", ANGLES)
    def test_cone_is_the_sheet(self, theta1):
        cone, sheet = Cone(theta1), Dowker()
        for beta in (0.0, CONFORMAL_BETA, 0.7):
            for renorm in RenormMode:
                assert _hexes(stress_at(cone, 1.0, 0.3, 0.2, beta=beta, t=0.05, renorm=renorm)) \
                    == _hexes(stress_at(sheet, 1.0, 0.3, 0.2, beta=beta, t=0.05, renorm=renorm))
            assert _hexes(stress_t0(cone, 1.3, beta=beta)) \
                == _hexes(stress_t0(sheet, 1.3, beta=beta))
        for pair in (PointPair(t=0.3, r=1.0, rp=1.2, theta=0.4),
                     PointPair(t=1e-5, r=1.0, rp=1.0, theta=2e-5),
                     PointPair(t=0.0, r=2.0, rp=1.0, theta=-3.0, z=0.5)):
            assert tbar_cone(pair, theta1).hex() == tbar_dowker(pair).hex()

    def test_float_pairs_are_the_sheet(self):
        # the sheet is the cone of order 0: on floats too, its kernel is the
        # huge cone's and the sheet's own closed form, bit for bit
        rng = np.random.default_rng(26)
        for k in range(2000):
            r = float(10.0 ** rng.uniform(-5, 5))
            pair = PointPair(t=float(10.0 ** rng.uniform(-9, 1)) if k % 5 else 0.0, r=r,
                             rp=r if k % 3 == 0 else float(r * 10.0 ** rng.uniform(-2, 2)),
                             theta=float(rng.uniform(-40, 40)),
                             thetap=float(rng.uniform(-40, 40)) if k % 4 else 0.0,
                             z=float(rng.uniform(-2, 2)) if k % 2 else 0.0)
            want = tbar_dowker(pair).hex()
            assert tbar_cone(pair, 1e150).hex() == want, pair
            assert _dowker_term(pair.t, pair.r, pair.rp, pair.dtheta,
                                pair.z, pair.zp).hex() == want, pair
        coincident = PointPair(t=0.0, r=1.3, rp=1.3, theta=0.4, thetap=0.4, z=0.2, zp=0.2)
        with pytest.raises(SingularPointError, match="^coincident points with t = 0$"):
            tbar_dowker(coincident)

    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("theta0", ANGLES)
    def test_wedge_is_the_sheet_and_its_signed_image(self, theta0, bc):
        sign = bc.image_sign

        def images(t, r, rp, theta, thetap, z, zp):
            return (_dowker_term(t, r, rp, theta - thetap, z, zp)
                    + sign * _dowker_term(t, r, rp, theta + thetap, z, zp))

        wedge = Wedge(theta0, bc)
        for theta in (0.5, 2.0, 40.0):
            for beta in (0.0, CONFORMAL_BETA):
                assert _hexes(stress_at(wedge, 1.0, theta, beta=beta, t=0.05)) \
                    == _hexes(stress_from_kernel(images, 1.0, theta, beta=beta, t=0.05))
        # far from both walls the image is below the sheet's last bit; it
        # once read t00 = 3376 at theta0 = 1e160
        assert _hexes(stress_at(wedge, 1.0, 0.2 * theta0, t=0.05)) \
            == _hexes(stress_at(Dowker(), 1.0, t=0.05))
        pair = PointPair(t=0.3, r=1.0, rp=1.2, theta=0.4, thetap=1.1)
        assert tbar_wedge(pair, theta0, bc).hex() == images(
            pair.t, pair.r, pair.rp, pair.theta, pair.thetap, pair.z, pair.zp).hex()

    def test_angle_columns_split_at_the_sheet(self):
        # one pass per kind over angles on both sides of the threshold
        geometries = [(Cone(2.2), 0.0), (Cone(1e160), 0.0), (Cone(1e4 * math.pi), 0.0),
                      (Cone(1e300), 0.0), (Wedge(1.0), 0.5), (Wedge(1e160), 0.5),
                      (Wedge(1e10), 0.5), (Wedge(1e200), 2.0), (Wedge(1e160), 2e159),
                      (Wedge(1e120), 3e119)]
        orders = [2.0 * math.pi / (g.theta1 if isinstance(g, Cone) else 2.0 * g.theta0)
                  for g, _ in geometries]
        assert min(orders) < kernels._SHEET_A < max(orders)
        entries = [(g, KERNEL, r, theta, 0.0, t, (0.0, 0.7)) for g, theta in geometries
                   for r in (0.7, 2.0) for t in (0.5, None)]
        for entry, cells in zip(entries, _stress_cells(entries)):
            for cell, beta in zip(cells, entry[6]):
                if entry[5] is None and not isinstance(cell, Exception):
                    cell = cell[0]
                assert _same(cell, _per_point(*entry[:6], beta))

    def test_far_offsets_keep_the_cone_value(self):
        # at a * dth ~ pi / 2 the sheet's form is 23% off
        mp = pytest.importorskip("mpmath")
        theta1, pair = 1e100, PointPair(t=0.3, r=1.0, rp=1.2, theta=2.5e99)
        with mp.workdps(40):
            a, rp, t = 2 * mp.pi / theta1, mp.mpf(pair.rp), mp.mpf(pair.t)
            u = 2 * mp.asinh(mp.sqrt(((1 - rp) ** 2 + t * t) / (4 * rp)))
            x, y = a * u, a * mp.mpf(pair.theta)
            want = (-1 / (2 * mp.pi * theta1 * rp) / mp.sinh(u) * mp.sinh(x)
                    / (2 * mp.sinh(x / 2) ** 2 + 2 * mp.sin(y / 2) ** 2))
        got = tbar_cone(pair, theta1)
        assert got == pytest.approx(float(want), rel=1e-14)
        assert abs(tbar_dowker(pair) / got - 1) > 0.1


class TestMergedPasses:
    """A pass over many angles gives each point the bits of its own geometry."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_merged_pass_equals_per_geometry_and_per_point(self, data):
        t = data.draw(st.sampled_from([0.05, 0.5, 1.0]))
        kinds = [(_cone(), _cone_point)] + [
            (_wedge(bc), _wedge_point) for bc in BoundaryCondition]
        for geometries, positions in kinds:
            _check_merged_pass(data.draw(_merged_points(geometries, positions)), t)

    def test_sharp_cones_straddle_the_exponential_form(self):
        points = [(Cone(0.3), 0.5, 0.0, (0.0,)), (Cone(0.3), 0.2, 0.0, (0.7,)),
                  (Cone(0.05), 0.05, 0.0, (CONFORMAL_BETA, 0.0)),
                  (Cone(2.0 * math.pi), 1.0, 0.0, (-0.25,)), (Cone(0.3), 0.5, 0.0, (0.7,))]
        au = [g.order * 2.0 * math.asinh(0.5 / (2.0 * r)) for g, r, _, _ in points]
        assert max(au) > kernels._EXP_FORM_MIN_X > min(au)
        _check_merged_pass(points, 0.5)

    def test_a_pass_holds_one_kernel_kind(self):
        ladders = [(Wedge(1.0), 2.0, 0.5, 0.0, [1.0], (0.0,)),
                   (Wedge(2.0, BoundaryCondition.NEUMANN), 2.0, 0.5, 0.0, [1.0], (0.0,))]
        with pytest.raises(ValueError, match="one kernel kind"):
            _pass(KERNEL, ladders)
        # the planner gives each kind its own pass
        points = [(g, r, theta, betas) for g, r, theta, _, _, betas in ladders]
        for (geometry, r, theta, betas), (finite, limit) in zip(points, _cells(points, 0.0, 1.0)):
            want = TestStressGrid.per_point(geometry, r, theta, betas[0], 1.0)
            assert _same(finite[0], want[0]) and _same(limit[0], want[1])


def _richardson_even(values, noise):
    """The scalar tableau that `_richardson` replaces, kept as its reference."""
    n = len(values)
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


def _adversarial_rows():
    """(values, noise) ladders of six rungs that stress every rule of the tableau."""
    nan, inf = math.nan, math.inf
    quiet = [1e-30] * 6
    rows = [
        # NaN and infinite rungs, alone and together, at every depth
        *(([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125][:k] + [bad]
           + [0.1, 0.2, 0.3, 0.4, 0.5][k:], quiet)
          for bad in (nan, inf, -inf) for k in range(6)),
        ([inf, -inf, inf, -inf, inf, -inf], quiet),
        ([nan, 1.0, inf, 2.0, -inf, 3.0], quiet),
        ([1.0, 2.0, 3.0, 4.0, 5.0, nan], quiet),
        ([nan] * 6, quiet),
        # constant rows, where every spread is 0 or the noise decides
        ([1.5] * 6, quiet), ([0.0] * 6, quiet), ([-0.0] * 6, [0.0] * 6),
        ([inf] * 6, quiet), ([-inf] * 6, [0.0] * 6), ([2.0] * 6, [inf] * 6),
        # tied scores: the noise floor or exact entries equal everywhere
        ([3.0, 1.0, 4.0, 1.0, 5.0, 9.0], [1e9] * 6),
        ([t * t for t in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)], [0.0] * 6),
        ([1.0, -1.0, 1.0, -1.0, 1.0, -1.0], [0.0] * 6),
        # every score infinite or NaN: no entry can be chosen
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [inf] * 6),
        ([1.0, 1.0, 1.0, 1.0, 1.0, 2.0], [inf] * 6),
        ([1e308, -1e308, 1e308, -1e308, 1e308, -1e308], quiet),
        # NaN noise never wins against a finite spread, and vice versa
        ([1.0, 0.9, 0.8, 0.7, 0.6, 0.5], [nan] * 6),
        ([1.0, 0.9, 0.8, 0.7, 0.6, 0.5], [0.0, nan, 0.0, inf, 0.0, nan]),
    ]
    rng = np.random.default_rng(2026)
    specials = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, 5e-324])
    for _ in range(400):
        values = rng.normal(size=6) * 10.0 ** rng.integers(-5, 5)
        noise = np.abs(rng.normal(size=6)) * 10.0 ** rng.integers(-12, 2)
        for arr in (values, noise):
            hit = rng.random(6) < 0.15
            arr[hit] = rng.choice(specials, size=int(hit.sum()))
        noise = np.abs(noise)
        rows.append((values.tolist(), noise.tolist()))
    return rows


def _ladder_rows():
    """Component ladders of real cones and wedges at their `stress_t0` cutoffs."""
    rows = []
    for geometry, r, theta, t0 in LADDERS.values():
        ts = [t0 / 2.0 ** k for k in range(6)]
        for beta in (CONFORMAL_BETA, 0.0, 0.7):
            ladder = _ladder(geometry, r, theta, beta, ts)
            for name in COMPONENT_NAMES:
                rows.append(([getattr(rung, name) for rung in ladder], _noise(ts)))
    return rows


class TestTableau:
    """The array tableau is bit for bit the scalar one, row by row."""

    @pytest.mark.parametrize("rows", [_adversarial_rows, _ladder_rows],
                             ids=["adversarial", "ladders"])
    def test_rows_equal_the_scalar_tableau(self, rows):
        rows = rows()
        got = _richardson([v for v, _ in rows], [n for _, n in rows])
        for k, (values, noise) in enumerate(rows):
            want = _richardson_even(values, noise)
            assert [float(a[k]).hex() for a in got] == [float(w).hex() for w in want], (
                values, noise)

    def test_single_rows_equal_a_stack(self):
        rows = _adversarial_rows()
        stacked = _richardson([v for v, _ in rows], [n for _, n in rows])
        for k, (values, noise) in enumerate(rows[:40]):
            alone = _richardson([values], [noise])
            assert [float(a[0]).hex() for a in alone] == [float(a[k]).hex() for a in stacked]
