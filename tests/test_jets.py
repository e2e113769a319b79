"""Second-order forward-mode jets against high-precision derivatives."""

import math
import operator

import mpmath as mp
import numpy as np
import pytest

from conevac import DomainError, PointPair
from conevac.jets import (
    ALL_PAIRS,
    ASSEMBLY_PAIRS,
    COORDS,
    IR,
    IRP,
    IT,
    Jet2,
    Pairs,
    _jet,
    agree,
    asinh,
    cos,
    exp,
    lift,
    sin,
    sinh,
    split,
    sqrt,
    value_of,
)

M = len(COORDS)


def const(value, pairs=ASSEMBLY_PAIRS):
    # the constant jet of a float, or of a batch given as a list
    value = np.array(value, dtype=float) if isinstance(value, list) else float(value)
    return _jet(value, np.zeros((M + pairs.n, *np.shape(value))), M, pairs)


def var(value, index=IR, pairs=ALL_PAIRS):
    # the jet of coordinate slot ``index``: a unit gradient there
    jet = const(value, pairs)
    jet.d[index] = 1.0
    return jet


class TestStructure:
    def test_variable_seeds_unit_gradient(self):
        # `lift` makes every coordinate a variable of its own slot
        jets = lift(PointPair(t=0.5, r=2.0, rp=1.0, theta=0.3), ALL_PAIRS)
        for k, name in enumerate(COORDS):
            assert jets[name].grad.tolist() == np.eye(M)[k].tolist()
            assert not jets[name].hess.any()

    def test_constant_has_no_derivatives(self):
        # a number operand enters the rules as a constant jet
        j = var(2.0)._promote(3.5)
        assert j.value == 3.5
        assert not j.grad.any()
        assert not j.hess.any()

    def test_value_of_unwraps_jets_and_passes_floats(self):
        assert value_of(var(2.0)) == 2.0
        assert value_of(2.5) == 2.5

    def test_lift_covers_all_coordinates(self):
        pair = PointPair(t=0.5, r=2.0, rp=1.0, theta=0.3, z=0.2, zp=-0.1)
        jets = lift(pair)
        assert sorted(jets) == sorted(COORDS)
        assert jets["r"].value == 2.0
        assert jets["r"].grad[IR] == 1.0

    def test_lift_carries_the_requested_hessian_entries(self):
        pair = PointPair(t=0.5, r=2.0, rp=1.0)
        assert lift(pair)["rp"].hess.shape == (len(ASSEMBLY_PAIRS.pairs),)
        jets = lift(pair, ALL_PAIRS)
        assert jets["rp"].hess.shape == (M * (M + 1) // 2,)
        assert jets["rp"].hess_entry(IRP, IR) == jets["rp"].hess_entry(IR, IRP)

    def test_jets_with_different_entries_do_not_mix(self):
        with pytest.raises(ValueError):
            var(1.0, IR, ALL_PAIRS) * var(2.0, IR, ASSEMBLY_PAIRS)


def _composite_jet(r, t):
    # exercises every dispatcher and the square in one expression
    return (exp(sin(r) * t) / r + asinh(t / r) - sqrt(r) * (t - r) ** 2
            + sinh(r) * cos(t) + sinh(t))


def _composite_mp(r, t):
    return (mp.e ** (mp.sin(r) * t) / r + mp.asinh(t / r)
            - mp.sqrt(r) * (t - r) ** 2 + mp.sinh(r) * mp.cos(t) + mp.sinh(t))


@pytest.fixture(scope="module")
def jet_and_truth():
    r0, t0 = 2.0, 0.5
    f = _composite_jet(var(r0, IR), var(t0, IT))
    mp.mp.dps = 30
    g = lambda r, t: _composite_mp(mp.mpf(r), mp.mpf(t))
    truth = {
        "value": g(r0, t0),
        "dr": mp.diff(g, (r0, t0), (1, 0)),
        "dt": mp.diff(g, (r0, t0), (0, 1)),
        "drr": mp.diff(g, (r0, t0), (2, 0)),
        "dtt": mp.diff(g, (r0, t0), (0, 2)),
        "drt": mp.diff(g, (r0, t0), (1, 1)),
    }
    return f, {k: float(v) for k, v in truth.items()}


class TestDerivatives:
    """Compare against mpmath.diff on the same composite expression."""

    def test_value(self, jet_and_truth):
        f, truth = jet_and_truth
        assert f.value == pytest.approx(truth["value"], rel=1e-13)

    def test_gradient(self, jet_and_truth):
        f, truth = jet_and_truth
        assert f.grad[IR] == pytest.approx(truth["dr"], rel=1e-12)
        assert f.grad[IT] == pytest.approx(truth["dt"], rel=1e-12)

    def test_hessian(self, jet_and_truth):
        f, truth = jet_and_truth
        assert f.hess_entry(IR, IR) == pytest.approx(truth["drr"], rel=1e-11)
        assert f.hess_entry(IT, IT) == pytest.approx(truth["dtt"], rel=1e-11)
        assert f.hess_entry(IR, IT) == pytest.approx(truth["drt"], rel=1e-11)

    def test_hessian_exactly_symmetric(self):
        # carry both orders of every entry, as a full (m, m) Hessian would
        full = Pairs((i, j) for i in range(M) for j in range(M))
        f = _composite_jet(var(2.0, IR, full), var(0.5, IT, full))
        assert all(f.hess_entry(i, j) == f.hess_entry(j, i)
                   for i in range(M) for j in range(M))

    def test_quotient_rule_cross_terms(self):
        x, y = var(3.0, IR), var(2.0, IRP)
        q = x / y
        assert q.hess_entry(IR, IRP) == pytest.approx(-0.25)
        assert q.hess_entry(IRP, IRP) == pytest.approx(2 * 3.0 / 2.0 ** 3)


class TestPowers:
    def test_integer_power_at_zero(self):
        z = var(0.0)
        assert (z ** 2).value == 0.0
        assert (z ** 2).grad[IR] == 0.0
        assert (z ** 2).hess_entry(IR, IR) == 2.0

    def test_the_square_is_the_only_power(self):
        with pytest.raises(TypeError):
            var(2.0) ** 3


class TestDomains:
    @pytest.mark.parametrize("fn", [sqrt])
    def test_rejects_nonpositive_argument(self, fn):
        with pytest.raises(DomainError):
            fn(var(-1.0))
        with pytest.raises(DomainError):
            fn(var(0.0))

    def test_reciprocal_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            1.0 / var(0.0)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _raises(fn, v):
    try:
        fn(const(v))
    except (DomainError, ArithmeticError):
        return True
    return False


def _element(jet, k):
    # the scalar jet that element k of a batch stands for
    return _jet(float(jet.value[k]), jet.d[:, k].copy(), jet.m, jet.pairs)


def _assert_batch_is_scalars(batched, scalars):
    assert batched.value.shape == (len(scalars),)
    for k, want in enumerate(scalars):
        assert float(batched.value[k]).hex() == want.value.hex()
        assert _bits(batched.grad[..., k]) == _bits(want.grad)
        assert _bits(batched.hess[..., k]) == _bits(want.hess)


def square(x):
    return x ** 2


LIBM_PROBES = {
    "exp": ("0x1.33bc0fd903316p+2", "-0x1.2612b99ec51a2p+2"),
    "sinh": ("-0x1.8e88c184e71d0p-1", "-0x1.b5050c90b9b6ap+0"),
    "asinh": ("0x1.57062019c90a8p-1", "0x1.76ee3b20eab40p+1"),
    # libm pow(x, 2) rounds differently from x * x here
    "square": ("0x1.886f19c3f47dfp-1", "0x1.6935a1183847ap+0", "0x1.62c72424e1c92p+2"),
}
LIBM_POWERS = {"square": lambda v: math.pow(v, 2)}


class TestBatch:
    """A batched jet is bit for bit the scalar jets of its elements."""

    @pytest.fixture(scope="class")
    def batch(self):
        # positive values with nontrivial gradients and Hessians
        rng = np.random.default_rng(5)
        pairs = [PointPair(t=float(t), r=float(r), rp=float(rp), theta=float(th))
                 for t, r, rp, th in rng.uniform(0.2, 1.7, size=(256, 4))]
        j = lift(pairs)
        return j["t"] * j["r"] + j["rp"] / j["r"] + 0.4 * j["theta"] ** 2

    def _check(self, batch, fn):
        scalars = [fn(_element(batch, k)) for k in range(batch.value.shape[0])]
        _assert_batch_is_scalars(fn(batch), scalars)

    @pytest.mark.parametrize("fn", [exp, sqrt, sinh, asinh, sin, cos, square],
                             ids=lambda f: f.__name__)
    def test_dispatch_functions(self, batch, fn):
        self._check(batch, fn)
        # values come from libm, as for plain floats: numpy's exp, sinh,
        # asinh and power can round differently on a few percent of
        # arguments, which 256 elements would show
        got = fn(batch).value.tolist()
        assert [v.hex() for v in got] == [fn(v).hex() for v in batch.value.tolist()]
        # fixed arguments on which numpy's function rounds differently
        # from libm (numpy 2.4, x86-64 Xeon)
        if fn.__name__ in LIBM_PROBES:
            probes = [float.fromhex(h) for h in LIBM_PROBES[fn.__name__]]
            ref = LIBM_POWERS.get(fn.__name__) or getattr(math, fn.__name__)
            libm = [ref(v).hex() for v in probes]
            batched = fn(const(probes)).value.tolist()
            assert [v.hex() for v in batched] == libm
            assert [fn(const(v)).value.hex() for v in probes] == libm
            assert [fn(v).hex() for v in probes] == libm

    @pytest.mark.parametrize("op", [
        lambda x: x + 0.7, lambda x: 0.7 + x, lambda x: x - 0.7, lambda x: 0.7 - x,
        lambda x: -x, lambda x: 2.5 * x, lambda x: x * x, lambda x: x / 1.3,
        lambda x: 1.3 / x, lambda x: x / sin(x), lambda x: x ** 2,
    ], ids=["add", "radd", "sub", "rsub", "neg", "rmul", "mul", "div", "rdiv",
            "div_jet", "pow2"])
    def test_arithmetic(self, batch, op):
        self._check(batch, op)

    @pytest.mark.parametrize("jet_first", [True, False], ids=["jet_left", "array_left"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv], ids=lambda op: op.__name__)
    def test_array_operands_act_as_their_floats(self, batch, op, jet_first):
        # an (n,) array is a batch constant: element k gets the bits of the
        # scalar jet of element k with the float c[k], in either order
        c = np.random.default_rng(11).uniform(-3.0, 3.0, size=batch.value.shape[0])
        c[:2] = (2.0, -1.0)
        got = op(batch, c) if jet_first else op(c, batch)
        assert isinstance(got, Jet2)
        scalars = [op(_element(batch, k), float(c[k])) if jet_first
                   else op(float(c[k]), _element(batch, k)) for k in range(len(c))]
        _assert_batch_is_scalars(got, scalars)

    def test_array_operands_must_match_the_batch(self, batch):
        for other in (np.ones(3), np.ones((batch.value.shape[0], 1))):
            with pytest.raises(TypeError):
                batch * other
            with pytest.raises(TypeError):
                other + batch
        with pytest.raises(TypeError):
            np.ones(2) * const(1.0)

    def test_lift_batches_every_coordinate(self):
        pairs = [PointPair(t=t, r=2.0, rp=1.0, theta=0.3) for t in (0.5, 0.25)]
        jets = lift(pairs)
        assert jets["t"].value.tolist() == [0.5, 0.25]
        assert jets["r"].value.tolist() == [2.0, 2.0]
        assert jets["r"].grad.shape == (M, 2)
        assert jets["r"].hess.shape == (len(ASSEMBLY_PAIRS.pairs), 2)
        assert jets["t"].grad[IT].tolist() == [1.0, 1.0]

    def test_domain_checks_see_every_element(self):
        # and name the first bad one, as a float, as the element alone would
        bad = const([1.0, -2.0, 3.0, 0.0, -1.0])
        with pytest.raises(DomainError, match=r"^sqrt of a jet requires a positive value, "
                                              r"got -2\.0$"):
            sqrt(bad)
        with pytest.raises(DomainError, match=r"^sqrt of a jet .* got 0\.0$"):
            sqrt(const([1.0, 0.0, -2.0]))
        with pytest.raises(DomainError, match=r"^sqrt of a jet .* got -0\.0$"):
            sqrt(const([1.0, -0.0, -2.0]))

    @pytest.mark.parametrize("values, fn, error", [
        # s * v underflows to a zero divisor
        ([2.0, 1e-300], sqrt, ZeroDivisionError),
        # the square overflows, alone or before an element that would not
        ([1e300, -1.0], lambda x: x ** 2, OverflowError),
    ], ids=["sqrt_zero_divisor", "pow_overflow"])
    def test_a_batch_fails_as_its_first_failing_element(self, values, fn, error):
        with pytest.raises(error):
            fn(const(values))
        failing = next(v for v in values if _raises(fn, v))
        with pytest.raises(error):
            fn(const(failing))

    @pytest.mark.parametrize("fn, v", [(exp, 800.0), (sinh, 800.0), (asinh, 1e103)],
                             ids=["exp", "sinh", "asinh"])
    def test_overflow_raises_as_for_a_float(self, fn, v):
        # libm raises for exp and sinh; for asinh it is w**3, w = sqrt(1 + v*v)
        with pytest.raises(OverflowError):
            fn(const([1.0, v, 2.0]))
        with pytest.raises(OverflowError):
            fn(const(v))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_asinh_of_a_huge_value_stays_finite(self):
        # 1 + v*v is inf at v = 1e200, and inf ** 3 does not raise
        x = var([1.0, 1e200], IR, ASSEMBLY_PAIRS)
        got = asinh(x)
        assert got.value.tolist() == [math.asinh(1.0), math.asinh(1e200)]
        _assert_batch_is_scalars(got, [asinh(_element(x, k)) for k in range(2)])

    @pytest.mark.parametrize("fn", [exp, sqrt, sinh, asinh, sin, cos, lambda x: x ** 2,
                                    lambda x: x * x, lambda x: 1.0 / x],
                             ids=["exp", "sqrt", "sinh", "asinh", "sin", "cos", "pow2", "mul",
                                  "rdiv"])
    def test_nan_elements_pass_through(self, fn):
        x = (var([0.5, math.nan, 1.5], IR, ASSEMBLY_PAIRS)
             * var([1.2] * 3, IT, ASSEMBLY_PAIRS))
        got = fn(x)
        assert math.isnan(got.value[1]) and np.isnan(got.d[:, 1]).all()
        for k in (0, 2):
            want = fn(_element(x, k))
            assert float(got.value[k]).hex() == want.value.hex()
            assert _bits(got.d[:, k]) == _bits(want.d)

    def test_grad_and_hess_are_views_of_one_array(self):
        jets = lift([PointPair(t=t, r=2.0, rp=1.0) for t in (0.5, 0.25, 0.125)])
        for jet in (jets["r"], jets["r"] * jets["t"] / jets["rp"], sqrt(jets["t"])):
            assert jet.d.shape == (M + ASSEMBLY_PAIRS.n, 3)
            assert np.shares_memory(jet.grad, jet.d) and np.shares_memory(jet.hess, jet.d)
            assert _bits(jet.grad) == _bits(jet.d[:M])
            assert _bits(jet.hess) == _bits(jet.d[M:])


class _DenseJet:
    """The full (m, m) Hessian jet that `Jet2` replaces, kept as its reference."""

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = value, grad, hess

    def _promote(self, other):
        if isinstance(other, _DenseJet):
            return other
        return _DenseJet(float(other), np.zeros(self.grad.shape), np.zeros(self.hess.shape))

    def __add__(self, other):
        o = self._promote(other)
        return _DenseJet(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._promote(other)
        return _DenseJet(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return self._promote(other) - self

    def __mul__(self, other):
        o = self._promote(other)
        cross = self.grad[:, None] * o.grad[None]
        return _DenseJet(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + cross + cross.swapaxes(0, 1),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._promote(other)
        val = self.value / o.value
        grad = (self.grad - val * o.grad) / o.value
        cross = grad[:, None] * o.grad[None]
        hess = (self.hess - val * o.hess - cross - cross.swapaxes(0, 1)) / o.value
        return _DenseJet(val, grad, hess)

    def __rtruediv__(self, other):
        return self._promote(other) / self

    def __pow__(self, n):
        return self.chain(lambda v: (v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2)))

    def chain(self, rule):
        f0, f1, f2 = np.array([rule(e) for e in self.value.tolist()]).T
        g = self.grad
        return _DenseJet(f0, f1 * g, f1 * self.hess + f2 * (g[:, None] * g[None]))


_DENSE_FUNCTIONS = {
    "exp": lambda x: x.chain(lambda v: (math.exp(v),) * 3),
    "sqrt": lambda x: x.chain(lambda v: (math.sqrt(v), 0.5 / math.sqrt(v),
                                         -0.25 / (math.sqrt(v) * v))),
    "sin": lambda x: x.chain(lambda v: (math.sin(v), math.cos(v), -math.sin(v))),
}


def _mixed_expression(c, f):
    # products, quotients, both orders of each, squares of sums and a
    # cube, and functions of all of them, on every coordinate
    x = c["r"] * c["rp"] + c["t"] * c["t"] + (c["z"] - c["zp"]) ** 2
    y = f["sin"](c["theta"] - c["thetap"]) * c["r"] / c["rp"]
    w = 2.0 / (c["t"] + y ** 2) - (0.5 - c["z"]) ** 2 * (0.5 - c["z"])
    return f["exp"](f["sqrt"](x) / (1.5 + w * y)) - x * y / (3.0 - c["thetap"] * w)


class TestDenseReference:
    """Every carried entry is bit for bit the full symmetric Hessian's."""

    # both orders of every entry (so the lower triangle is checked too),
    # and the seven the stress reads carried on their own
    @pytest.mark.parametrize("pairs", [
        Pairs((i, j) for i in range(M) for j in range(M)), ASSEMBLY_PAIRS,
    ], ids=["every", "assembly"])
    def test_entries_equal_the_dense_hessian(self, pairs):
        rng = np.random.default_rng(11)
        columns = {name: rng.uniform(0.2, 1.7, size=256).tolist() for name in COORDS}
        sparse = _mixed_expression(lift(columns, pairs),
                                   {"exp": exp, "sqrt": sqrt, "sin": sin})
        dense = _mixed_expression(
            {name: _DenseJet(np.array(columns[name]), np.eye(M)[:, k][:, None]
                             * np.ones(256), np.zeros((M, M, 256)))
             for k, name in enumerate(COORDS)}, _DENSE_FUNCTIONS)
        assert _bits(sparse.value) == _bits(dense.value)
        assert _bits(sparse.grad) == _bits(dense.grad)
        for i, j in pairs.pairs:
            assert _bits(sparse.hess_entry(i, j)) == _bits(dense.hess[i, j]), (i, j)


class TestBranch:
    @staticmethod
    def _pick(x):
        # a function branching on a batch the way the kernels do
        big = value_of(x) > 1.0
        side = agree(big)
        if side is None:
            return split(big, TestBranch._pick, x)
        if side:
            return exp(-x) * 2.0
        return sinh(x) / x

    def test_split_batch_runs_each_element_through_its_own_branch(self):
        x = lift([PointPair(t=t, r=1.0, rp=1.0) for t in (0.3, 3.0, 0.7, 5.0)])["t"]
        got = self._pick(x)
        _assert_batch_is_scalars(got, [self._pick(_element(x, k)) for k in range(4)])

    def test_split_reruns_once_per_side(self):
        x = lift([PointPair(t=t, r=1.0, rp=1.0) for t in (0.3, 3.0, 0.7, 5.0)])["t"]
        parts = []

        def record(v, scale):
            parts.append(v.value.tolist())
            return v * scale

        split(value_of(x) > 1.0, record, x, 2.0)
        assert parts == [[3.0, 5.0], [0.3, 0.7]]

    def test_agree(self):
        assert agree(True) is True and agree(False) is False
        assert agree(np.array([True, True])) is True
        assert agree(np.array([False, False])) is False
        assert agree(np.array([True, False])) is None
