"""Second-order forward-mode differentiation on a fixed coordinate set.

The stress tensor needs values, gradients, and a few Hessian entries
of the two-point kernels with respect to the seven coordinates of a
point pair.  A `Jet2` carries (value, gradient, Hessian entries)
through arithmetic and the handful of elementary functions the
kernels use.  Kernel expressions are written once against the dispatch
functions below, which pass plain floats through to `math`, so the
same code path produces values and derivatives.

A jet carries the full gradient but only the Hessian entries (i, j)
listed in its `Pairs`, one row each.  Under every rule the entry
(i, j) depends only on the old (i, j) entries and on the gradient
slots i and j, so a jet needs no entry beyond those it is asked for:
`lift` defaults to the seven `ASSEMBLY_PAIRS` the stress assembly
reads, and `ALL_PAIRS` gives the whole upper triangle.  Each entry is
computed with the terms and their order of a full symmetric Hessian
update, so its bits do not depend on which other entries are carried.

A jet may carry a trailing batch axis: value (n,), gradient (m, n),
Hessian entries (P, n), one element per point pair (the cutoff ladder
of `stress.stress_t0` is one batch).  Every operation broadcasts over
that axis with the same code as for a scalar jet, and its arithmetic
is elementwise IEEE, so each element of a batched result is bit for
bit the scalar jet of its own pair.  Elementary functions are the
exception that keeps this true: their values and derivative factors
are computed with `math`, one element at a time, because numpy's
exp, sinh, arcsinh, log and array powers can round differently from
the C library in the last bit.  The arrays those factors multiply
stay vectorised.

Branching on the magnitude of a jet must go through `value_of`; jets
deliberately do not define ordering.  A batch takes a branch whole
when `agree` finds its elements on one side; a batch that straddles
the threshold goes through `split`, which reruns the branching
function on each part, so each element is evaluated by its own branch
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Coordinate order shared with the stress assembly.  Slot k of every
# gradient refers to COORDS[k].
COORDS = ("t", "r", "rp", "theta", "thetap", "z", "zp")
IT, IR, IRP, ITHETA, ITHETAP, IZ, IZP = range(len(COORDS))


class Pairs:
    """The Hessian entries a jet carries: (i, j) slot pairs, one row each."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        i = [i for i, _ in self.pairs]
        j = [j for _, j in self.pairs]
        # gradient rows i then j, and j then i: one gather yields both
        # factors of every cross term
        self.ij = np.array(i + j, dtype=np.intp)
        self.ji = np.array(j + i, dtype=np.intp)
        self.n = len(self.pairs)
        self._rows = {p: k for k, p in enumerate(self.pairs)}

    def row(self, i: int, j: int) -> int:
        """Row of entry (i, j), or of (j, i) when only that order is carried."""
        k = self._rows.get((i, j))
        return self._rows[(j, i)] if k is None else k


# The entries `stress._assemble` reads, and the whole upper triangle.
ASSEMBLY_PAIRS = Pairs(((IT, IT), (IR, IR), (IR, IRP), (IZ, IZ), (IZ, IZP),
                        (ITHETA, ITHETA), (ITHETA, ITHETAP)))
ALL_PAIRS = Pairs((i, j) for i in range(len(COORDS)) for j in range(i, len(COORDS)))


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, gradient, and the Hessian entries ``pairs`` of one scalar quantity.

    Batched jets hold n such quantities along a trailing axis; a float
    ``value`` marks a scalar jet.  Row k of ``hess`` is the entry
    ``pairs.pairs[k]``.
    """

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    pairs: Pairs

    @classmethod
    def constant(cls, value, m: int, pairs: Pairs = ASSEMBLY_PAIRS) -> "Jet2":
        if isinstance(value, (list, tuple, np.ndarray)):
            value = np.array(value, dtype=float)
            return cls(value, np.zeros((m, *value.shape)),
                       np.zeros((pairs.n, *value.shape)), pairs)
        return cls(float(value), np.zeros(m), np.zeros(pairs.n), pairs)

    @classmethod
    def variable(cls, value, index: int, m: int, pairs: Pairs = ASSEMBLY_PAIRS) -> "Jet2":
        jet = cls.constant(value, m, pairs)
        jet.grad[index] = 1.0
        return jet

    def hess_entry(self, i: int, j: int):
        """Hessian entry (i, j): a float, or (n,) for a batch."""
        return self.hess[self.pairs.row(i, j)]

    def _compose(self, f0, f1, f2) -> "Jet2":
        """Chain rule for an outer function with derivatives f1, f2 at self."""
        g, p = self.grad, self.pairs
        gg = g[p.ij]
        return Jet2(f0, f1 * g, f1 * self.hess + f2 * (gg[:p.n] * gg[p.n:]), p)

    def _chain(self, rule) -> "Jet2":
        """Compose with the outer function ``rule(v) -> (f, f', f'')``.

        ``rule`` works on plain floats with `math`; a batch is fed to it
        one element at a time.
        """
        v = self.value
        if isinstance(v, float):
            return self._compose(*rule(v))
        f0, f1, f2 = map(np.array, zip(*map(rule, v.tolist())))
        return self._compose(f0, f1, f2)

    def _promote(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            if other.pairs is not self.pairs and other.pairs.pairs != self.pairs.pairs:
                raise ValueError("jets carry different Hessian entries")
            return other
        if isinstance(other, (int, float)):
            return Jet2(float(other), np.zeros(self.grad.shape),
                        np.zeros(self.hess.shape), self.pairs)
        return None

    def __add__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess,
                    self.pairs)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess, self.pairs)

    def __sub__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess,
                    self.pairs)

    def __rsub__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        # entry (i, j) sums the terms of a full symmetric update in its
        # order: g[i] o.g[j], then g[j] o.g[i]
        p = self.pairs
        cross = self.grad[p.ij] * o.grad[p.ji]
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + cross[:p.n] + cross[p.n:],
            p,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        val = self.value / o.value
        grad = (self.grad - val * o.grad) / o.value
        p = self.pairs
        cross = grad[p.ij] * o.grad[p.ji]
        hess = (self.hess - val * o.hess - cross[:p.n] - cross[p.n:]) / o.value
        return Jet2(val, grad, hess, p)

    def __rtruediv__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n) -> "Jet2":
        if n == 2 and isinstance(n, int):
            # The integer rule below gives (v ** 2, 2 * v, 2.0) exactly here,
            # since v ** 1 is v and v ** 0 is 1: only the value needs libm.
            v = self.value
            f0 = v**2 if isinstance(v, float) else np.array([e**2 for e in v.tolist()])
            return self._compose(f0, 2 * v, 2.0)
        if isinstance(n, int):
            # Valid at v = 0 for n >= 2 (0.0 ** 0 == 1.0 covers f2 there).
            def rule(v):
                return v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2)
        else:
            def rule(v):
                if v <= 0.0:
                    raise DomainError(
                        f"jet ** {n!r} requires a positive base, got {v!r}"
                    )
                return v**n, n * v ** (n - 1.0), n * (n - 1.0) * v ** (n - 2.0)
        return self._chain(rule)


def value_of(x):
    """Plain value of a jet or number; use this for branching.

    A float for numbers and scalar jets, an (n,) array for a batch.
    """
    return x.value if isinstance(x, Jet2) else float(x)


def _take(x, mask):
    if not isinstance(x, Jet2):
        return x
    return Jet2(x.value[mask], x.grad[:, mask], x.hess[:, mask], x.pairs)


def _put(mask, hit, miss):
    out = np.empty(hit.shape[:-1] + mask.shape)
    out[..., mask] = hit
    out[..., ~mask] = miss
    return out


def agree(cond):
    """The branch a whole batch takes, or None when its elements disagree.

    ``cond`` is a bool, returned as is, or for batched jets one bool per
    element (a comparison of `value_of` results).  A kernel branches on
    the returned bool and hands a batch that disagrees to `split`.
    """
    if not isinstance(cond, np.ndarray):
        return cond
    hits = np.count_nonzero(cond)
    if hits == cond.size:
        return True
    if hits == 0:
        return False
    return None


def split(cond, fn, *args):
    """``fn(*args)`` for a batch whose elements disagree on ``cond``.

    ``fn`` runs once on the elements where ``cond`` holds and once on
    the rest, and the parts are merged back in order.  Each part then
    agrees, so no element is ever evaluated by the other branch (which
    may overflow or lose accuracy there), and each element keeps the
    bits it has alone.  Arguments that are not jets pass through whole.
    """
    hit = fn(*(_take(a, cond) for a in args))
    miss = fn(*(_take(a, ~cond) for a in args))
    return Jet2(
        _put(cond, hit.value, miss.value),
        _put(cond, hit.grad, miss.grad),
        _put(cond, hit.hess, miss.hess),
        hit.pairs,
    )


def exp(x):
    if isinstance(x, Jet2):
        def rule(v):
            e = math.exp(v)
            return e, e, e
        return x._chain(rule)
    return math.exp(x)


def log(x):
    if isinstance(x, Jet2):
        def rule(v):
            if v <= 0.0:
                raise DomainError(f"log of a jet requires a positive value, got {v!r}")
            return math.log(v), 1.0 / v, -1.0 / (v * v)
        return x._chain(rule)
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet2):
        def rule(v):
            if v <= 0.0:
                raise DomainError(f"sqrt of a jet requires a positive value, got {v!r}")
            s = math.sqrt(v)
            return s, 0.5 / s, -0.25 / (s * v)
        return x._chain(rule)
    return math.sqrt(x)


def sinh(x):
    if isinstance(x, Jet2):
        def rule(v):
            s, c = math.sinh(v), math.cosh(v)
            return s, c, s
        return x._chain(rule)
    return math.sinh(x)


def cosh(x):
    if isinstance(x, Jet2):
        def rule(v):
            s, c = math.sinh(v), math.cosh(v)
            return c, s, c
        return x._chain(rule)
    return math.cosh(x)


def asinh(x):
    if isinstance(x, Jet2):
        def rule(v):
            w = math.sqrt(1.0 + v * v)
            return math.asinh(v), 1.0 / w, -v / w**3
        return x._chain(rule)
    return math.asinh(x)


def sin(x):
    if isinstance(x, Jet2):
        def rule(v):
            s, c = math.sin(v), math.cos(v)
            return s, c, -s
        return x._chain(rule)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        def rule(v):
            s, c = math.sin(v), math.cos(v)
            return c, -s, -c
        return x._chain(rule)
    return math.cos(x)


def atan(x):
    if isinstance(x, Jet2):
        def rule(v):
            d = 1.0 + v * v
            return math.atan(v), 1.0 / d, -2.0 * v / (d * d)
        return x._chain(rule)
    return math.atan(x)


def lift(pair, pairs: Pairs = ASSEMBLY_PAIRS) -> dict:
    """Turn a point pair into a dict of jets keyed by coordinate name.

    Every coordinate becomes an independent variable in its `COORDS`
    slot, carrying the Hessian entries ``pairs``.  The pair is read by
    attribute name, so anything with t, r, rp, theta, thetap, z, zp
    attributes works.  A list of n pairs gives batched jets whose
    element k belongs to pair k, and so does a dict mapping every
    coordinate name to a sequence of n values.
    """
    if isinstance(pair, list):
        pair = {name: [getattr(p, name) for p in pair] for name in COORDS}
    elif not isinstance(pair, dict):
        pair = {name: getattr(pair, name) for name in COORDS}
    m = len(COORDS)
    return {name: Jet2.variable(pair[name], k, m, pairs) for k, name in enumerate(COORDS)}
