"""Regenerate reference_values.json with high-precision arithmetic.

Everything in that file is computed here from first principles with
mpmath, independently of the package code: kernels are written out as
plain formulas, derivatives are taken with mpmath's numerical
differentiation at 60 significant digits, and integrals use mpmath
quadrature.  The package tests then compare fast double-precision
results against these frozen values.

Run from the repository root:

    python3 tests/data/make_reference_values.py

The output is deterministic, so the JSON file only changes when the
definitions below change.
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60

OUT = Path(__file__).with_name("reference_values.json")

# Probe cutoff for the t -> 0 stress limits.  Components approach
# their limits with even powers of t; at 1e-6 the residual is ~1e-12
# relative, far below the double-precision comparisons that use this
# data.
T_PROBE = mp.mpf("1e-6")


def hyperbolic_u(t, r, rp, z, zp):
    q = ((r - rp) ** 2 + (z - zp) ** 2 + t**2) / (4 * r * rp)
    return 2 * mp.asinh(mp.sqrt(q))


def kernel_flat(t, r, rp, th, thp, z, zp):
    d = (r - rp) ** 2 + t**2 + (z - zp) ** 2 + 4 * r * rp * mp.sin((th - thp) / 2) ** 2
    return -1 / (2 * mp.pi**2 * d)


def kernel_cone(theta1):
    a = 2 * mp.pi / theta1

    def k(t, r, rp, th, thp, z, zp):
        u = hyperbolic_u(t, r, rp, z, zp)
        return (
            -1
            / (2 * mp.pi * theta1 * r * rp)
            / mp.sinh(u)
            * mp.sinh(a * u)
            / (mp.cosh(a * u) - mp.cos(a * (th - thp)))
        )

    return k


def kernel_infinite_sheet(t, r, rp, th, thp, z, zp):
    u = hyperbolic_u(t, r, rp, z, zp)
    return -(u / mp.sinh(u)) / (2 * mp.pi**2 * r * rp * (u**2 + (th - thp) ** 2))


def kernel_wedge(theta0, sign):
    """Reflected cone combination minus the flat part."""
    cone = kernel_cone(2 * theta0)

    def k(t, r, rp, th, thp, z, zp):
        direct = cone(t, r, rp, th, thp, z, zp)
        mirrored = cone(t, r, rp, th, -thp, z, zp)
        return direct + sign * mirrored - kernel_flat(t, r, rp, th, thp, z, zp)

    return k


def renormalized(kernel):
    def g(t, r, rp, th, thp, z, zp):
        return kernel(t, r, rp, th, thp, z, zp) - kernel_flat(t, r, rp, th, thp, z, zp)

    return g


def second_derivatives(g, t, r, theta):
    """The seven derivative combinations the stress assembly needs.

    Evaluated at the coincidence point (r, theta, z=0) with points
    split only in Euclidean time.
    """
    point = (t, r, r, theta, theta, mp.mpf(0), mp.mpf(0))

    def d(orders):
        return mp.diff(g, point, orders)

    return {
        "d_t2": d((2, 0, 0, 0, 0, 0, 0)),
        "d_r": d((0, 1, 0, 0, 0, 0, 0)),
        "d_r2": d((0, 2, 0, 0, 0, 0, 0)),
        "d_r_rp": d((0, 1, 1, 0, 0, 0, 0)),
        "d_th2": d((0, 0, 0, 2, 0, 0, 0)),
        "d_th_thp": d((0, 0, 0, 1, 1, 0, 0)),
        "d_z2": d((0, 0, 0, 0, 0, 2, 0)),
        "d_z_zp": d((0, 0, 0, 0, 0, 1, 1)),
    }


def assemble(dd, r):
    """Stress components as (constant, beta coefficient) pairs.

    The angular second-derivative sum enters the coupling coefficient;
    it vanishes identically for kernels that depend only on the angle
    difference but not for the wedge.
    """
    radial = dd["d_r_rp"] + dd["d_r2"] + dd["d_r"] / r
    angular = (dd["d_th2"] + dd["d_th_thp"]) / r**2
    t00 = (-dd["d_t2"] / 2, radial + angular)
    t_rr = (-(dd["d_r_rp"] - dd["d_r2"]) / 4, -dd["d_r"] / r - angular)
    t_perp = (
        dd["d_r"] / (4 * r) + (dd["d_th2"] - dd["d_th_thp"]) / (4 * r**2),
        -(dd["d_r_rp"] + dd["d_r2"]),
    )
    t_zz = (-(dd["d_z_zp"] - dd["d_z2"]) / 4, -radial - angular)
    return {"t00": t00, "t_rr": t_rr, "t_perp": t_perp, "t_zz": t_zz}


def stress_limit(kernel, r, theta=mp.mpf(0)):
    dd = second_derivatives(renormalized(kernel), T_PROBE, r, theta)
    parts = assemble(dd, r)
    return {
        name: {"const": float(c), "beta_coeff": float(b)}
        for name, (c, b) in parts.items()
    }


def wedge_stress_limit(theta0, sign, r, theta):
    # The wedge kernel already has the flat part removed.
    dd = second_derivatives(kernel_wedge(theta0, sign), T_PROBE, r, theta)
    parts = assemble(dd, r)
    return {
        name: {"const": float(c), "beta_coeff": float(b)}
        for name, (c, b) in parts.items()
    }


def mode_integral_reference(nu, r, rp, zeta):
    """integral_0^inf w J_nu(w r) J_nu(w rp) K_0(w zeta) dw."""

    def f(w):
        return w * mp.besselj(nu, w * r) * mp.besselj(nu, w * rp) * mp.besselk(0, w * zeta)

    cut = 80 / zeta
    pieces = mp.linspace(0, cut, 33)
    with mp.workdps(30):
        return float(mp.quad(f, pieces))


def legendre_q_reference(u0):
    """Legendre function Q_{-1/2} on the cut-free branch at cosh(u0)."""
    with mp.workdps(30):
        return float(mp.legenq(mp.mpf(-0.5), 0, mp.cosh(u0), type=3).real)


def periodic_line_reference(t, dx, dy, dz, period):
    """Direct image sum for the periodic line, fully converged."""
    a2 = mp.mpf(t) ** 2 + mp.mpf(dy) ** 2 + mp.mpf(dz) ** 2
    with mp.workdps(40):
        total = mp.nsum(
            lambda n: -1 / (2 * mp.pi**2) / (a2 + (dx + n * period) ** 2),
            [-mp.inf, mp.inf],
        )
    return float(total)


# Bessel functions for the numpy J_nu, K_0 and K_1 of the mode integral.
# J at the orders a n <= 100 of the mode-sum oracle's cone angles pi/4,
# pi/2, 1.3 pi, 2 pi and 3 pi (a = 2 pi / theta1 = 8, 4, 20/13, 1, 2/3) and
# of one irrational a.  Each order is written as nu0 + k, nu0 in [0, 1) a
# double and k an integer, and J is taken at exactly that order: a
# rational a = q/p gives p families of one nu0, an irrational a one
# family per order.
BESSEL_J_A = [
    ("8", mp.mpf(8)),
    ("4", mp.mpf(4)),
    ("20/13", mp.mpf(20) / 13),
    ("1", mp.mpf(1)),
    ("2/3", mp.mpf(2) / 3),
    ("sqrt(2)", mp.sqrt(2)),
]
BESSEL_J_X = [1e-12, 1e-6, 0.01, 0.5, 2.0, 8.0, 25.0, 60.0, 100.0, 170.0, 250.0]
BESSEL_K_X = [float(mp.mpf(10) ** (-13 + i * (mp.log10(200) + 13) / 29)) for i in range(30)]


# Appended: J out to x = 1e4, where `_bessel_j` takes Hankel's expansion
# and the forward recurrence, at irrational a and around its crossover,
# the larger of 25 and the call's top order, taken once the largest x
# exceeds twice it.  Each entry is one call of the test: the orders
# a n <= top on BESSEL_J_FAR_X plus x at the top order and twice it, a
# tenth of a percent either side.  2 pi / 3 is the cone theta1 = 3, whose
# mode sum reaches x ~ 6e3; e / 2 tops out below 25, so its crossover is 25.
BESSEL_J_FAR = [
    ("2pi/3", 2 * mp.pi / 3, 40),
    ("sqrt(3)", mp.sqrt(3), 60),
    ("e/2", mp.e / 2, 20),
]
BESSEL_J_FAR_X = [1e-3, 0.5, 5.0, 24.0, 25.0, 26.0, 49.0, 51.0, 101.0, 300.0, 1000.0,
                  2345.6, 6000.0, 9999.7, 1e4]
# Appended: K_0 and K_1 on both sides of each edge of `_bessel_k`'s node
# tiers (1e-5, 1e-2 and 1), and across the mode sum's arguments w zeta,
# 1e-4 to 250.
BESSEL_K_EDGES = [1e-5, 1e-2, 1.0]
BESSEL_K_MODE_X = [float(mp.mpf(10) ** (-4 + i * (mp.log10(250) + 4) / 24)) for i in range(25)]


def bessel_k_far_x():
    """BESSEL_K_MODE_X and, at each tier edge e, e, the double below it and
    e (1 +- 1e-3)."""
    xs = []
    for e in BESSEL_K_EDGES:
        xs += [e * (1 - 1e-3), float(mp.mpf(e) - mp.mpf(e) * mp.mpf(2) ** -53), e, e * (1 + 1e-3)]
    return xs + BESSEL_K_MODE_X


def bessel_j_far_x(a, top):
    """BESSEL_J_FAR_X and x at a's top order a n <= top, and twice it,
    times 1 - 1e-3 and 1 + 1e-3, in increasing order."""
    high = float(a * mp.floor(top / a))
    return sorted(BESSEL_J_FAR_X + [c * high * (1 + d) for c in (1, 2) for d in (-1e-3, 1e-3)])


def bessel_j_reference(a, xs=BESSEL_J_X, top=100):
    """J_{nu0 + k}(x) on ``xs`` for the orders a n <= ``top``, with its
    scale: |J| where x <= nu (J has no zero there), and the modulus
    sqrt(J^2 + Y^2) beyond, where J oscillates and its zeros make a
    relative error meaningless."""
    orders = []
    n = 0
    with mp.workdps(40):
        while a * n <= top:
            k = int(mp.floor(a * n))
            nu0 = float(a * n - k)
            nu = mp.mpf(nu0) + k
            values, scales = [], []
            for x in map(mp.mpf, xs):
                j = mp.besselj(nu, x)
                values.append(float(j))
                scales.append(float(abs(j) if x <= nu else mp.sqrt(j**2 + mp.bessely(nu, x) ** 2)))
            orders.append({"nu0": nu0, "k": k, "value": values, "scale": scales})
            n += 1
    return orders


def main():
    data = {
        "meta": {
            "dps": mp.mp.dps,
            "t_probe": float(T_PROBE),
            "note": "stress entries are component = const + beta * beta_coeff at the listed point",
        },
        "stress_t0": {},
        "mode_integral": [],
        "legendre_q": [],
        "periodic_line": [],
        "bessel_j": [],
        "bessel_k": [],
    }

    cases = {
        "cone_half_turn": (kernel_cone(mp.pi), mp.mpf(1)),
        "cone_two_turns": (kernel_cone(4 * mp.pi), mp.mpf(1)),
        "cone_eighth_turn": (kernel_cone(mp.pi / 8), mp.mpf(1)),
        "infinite_sheet": (kernel_infinite_sheet, mp.mpf(1)),
    }
    for name, (kern, r) in cases.items():
        data["stress_t0"][name] = {"r": float(r), **stress_limit(kern, r)}
        print(name, "done")

    # Right-angle wedge, Dirichlet walls, at the angle-independence
    # test radius plus two near-wall angles (the innermost points of
    # the angular sweep datasets).
    for theta in (mp.pi / 16, mp.pi / 8, mp.pi / 4, mp.pi / 200, mp.pi / 1000):
        key = f"wedge_right_dirichlet_r8_th{mp.nstr(theta / mp.pi, 4)}pi"
        entry = wedge_stress_limit(mp.pi / 2, -1, mp.mpf(8), theta)
        data["stress_t0"][key] = {
            "r": 8.0,
            "theta": float(theta),
            "theta0": float(mp.pi / 2),
            "sign": -1,
            **entry,
        }
        print(key, "done")

    for nu, r, rp, zeta in [
        (mp.mpf(0), mp.mpf(1), mp.mpf("0.8"), mp.mpf("0.45")),
        (mp.mpf(1), mp.mpf(1), mp.mpf("0.8"), mp.mpf("0.45")),
        (mp.mpf("2.857142857142857"), mp.mpf(1), mp.mpf("0.8"), mp.mpf("0.45")),
        (mp.mpf(7), mp.mpf("1.3"), mp.mpf("0.6"), mp.mpf("0.3")),
    ]:
        data["mode_integral"].append(
            {
                "nu": float(nu),
                "r": float(r),
                "rp": float(rp),
                "zeta": float(zeta),
                "value": mode_integral_reference(nu, r, rp, zeta),
            }
        )
    print("mode integrals done")

    for u0 in (mp.mpf("0.1"), mp.mpf("0.7"), mp.mpf(2), mp.mpf(5)):
        data["legendre_q"].append(
            {"u0": float(u0), "value": legendre_q_reference(u0)}
        )

    for t, dx, dy, dz, period in [
        (0.3, 0.4, 0.1, 0.2, 1.7),
        (0.05, 0.9, 0.0, 0.0, 2.0),
    ]:
        data["periodic_line"].append(
            {
                "t": t,
                "dx": dx,
                "dy": dy,
                "dz": dz,
                "period": period,
                "value": periodic_line_reference(t, dx, dy, dz, period),
            }
        )
    print("scalar references done")

    for label, a in BESSEL_J_A:
        data["bessel_j"].append({"a": label, "x": BESSEL_J_X, "orders": bessel_j_reference(a)})
        print("J_nu, a =", label, "done")
    with mp.workdps(30):
        for x in BESSEL_K_X:
            data["bessel_k"].append({"x": x, "k0": float(mp.besselk(0, mp.mpf(x))),
                                     "k1": float(mp.besselk(1, mp.mpf(x)))})
    print("K_0 and K_1 done")

    for label, a, top in BESSEL_J_FAR:
        xs = bessel_j_far_x(a, top)
        data["bessel_j"].append({"a": label, "x": xs, "orders": bessel_j_reference(a, xs, top)})
        print("J_nu to x = 1e4, a =", label, "done")
    with mp.workdps(30):
        for x in bessel_k_far_x():
            data["bessel_k"].append({"x": x, "k0": float(mp.besselk(0, mp.mpf(x))),
                                     "k1": float(mp.besselk(1, mp.mpf(x)))})
    print("K_0 and K_1 at the tier edges done")

    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print("wrote", OUT)


if __name__ == "__main__":
    main()
