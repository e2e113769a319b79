"""Second-order forward-mode differentiation on a fixed coordinate set.

The stress tensor needs values, gradients, and a few Hessian entries
of the two-point kernels with respect to the seven coordinates of a
point pair.  A `Jet2` carries (value, gradient, Hessian entries)
through arithmetic, the square and the six elementary functions the
kernels use: exp, sqrt, sinh, asinh, sin and cos.  Kernel expressions
are written once against the dispatch functions below, which pass
plain floats through to `math`, so the same code path produces values
and derivatives.

A jet carries the full gradient but only the Hessian entries (i, j)
listed in its `Pairs`, one row each.  Under every rule the entry
(i, j) depends only on the old (i, j) entries and on the gradient
slots i and j, so a jet needs no entry beyond those it is asked for:
`lift` defaults to the seven `ASSEMBLY_PAIRS` the stress assembly
reads, and `ALL_PAIRS` gives the whole upper triangle.  Each entry is
computed with the terms and their order of a full symmetric Hessian
update, so its bits do not depend on which other entries are carried.

A jet keeps its derivatives in one array ``d``: the m gradient rows,
then one row per Hessian entry (`grad` and `hess` are views of it).
Each rule updates both blocks in one numpy call where their terms have
one form, then adds the Hessian cross terms, gathered with `take`.  A
jet may carry a trailing batch axis: value (n,), ``d`` (m + P, n), one
element per point pair (the cutoff ladder of `stress.stress_t0` is one
batch).  Every operation broadcasts over that axis with the same code
as for a scalar jet, in the scalar rule's operand order and with
elementwise IEEE arithmetic, so each element of a batched result is
bit for bit the scalar jet of its own pair.  Only libm needs care:
numpy's exp, sinh, arcsinh and powers can round differently from the C
library in the last bit, so the rules call `math` through `_libm` and
``**`` through `_power`, one element at a time, and write the rest as
+ - * / that act alike on floats and arrays.  A batch that fails a
rule raises once, with a float's message; a domain check names the
first element that is not positive.  An (n,) array operand of a
batched jet is a batch constant, element k acting as the float at k
would, in either operand order.

Branching on the magnitude of a jet must go through `value_of`; jets
deliberately do not define ordering.  A batch takes a branch whole
when `agree` finds its elements on one side; a batch that straddles
the threshold goes through `split`, which reruns the branching
function on each part, so each element is evaluated by its own branch
only.
"""

from __future__ import annotations

import functools
import itertools
import math

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


class Jet2:
    """Value, gradient, and the Hessian entries ``pairs`` of one scalar quantity.

    ``d`` holds the m gradient rows, then the Hessian entries (row k of
    ``hess`` is ``pairs.pairs[k]``), with a trailing batch axis when
    ``value`` is not a float.  `lift` and the operations build jets with
    `_jet`; none writes into an operand's ``d``.
    """

    __slots__ = ("value", "d", "m", "pairs")
    # numpy defers every operator to the jet, so ``array * jet`` reaches
    # `__rmul__` instead of making an object array of jets
    __array_ufunc__ = None

    @property
    def grad(self) -> np.ndarray:
        return self.d[:self.m]

    @property
    def hess(self) -> np.ndarray:
        return self.d[self.m:]

    def hess_entry(self, i: int, j: int):
        """Hessian entry (i, j): a float, or (n,) for a batch."""
        return self.d[self.m + self.pairs.row(i, j)]

    def _compose(self, f0, f1, f2) -> "Jet2":
        """Chain rule for an outer function with derivatives f1, f2 at self."""
        p, m = self.pairs, self.m
        gg = self.d.take(p.ij, 0)
        d = f1 * self.d
        d[m:] += f2 * (gg[:p.n] * gg[p.n:])
        return _jet(f0, d, m, p)

    def _promote(self, other) -> "Jet2 | None":
        if isinstance(other, Jet2):
            if other.pairs is not self.pairs and other.pairs.pairs != self.pairs.pairs:
                raise ValueError("jets carry different Hessian entries")
            return other
        if isinstance(other, (int, float)):
            return _jet(float(other), np.zeros(self.d.shape), self.m, self.pairs)
        if isinstance(other, np.ndarray) and other.shape == self.d.shape[1:] != ():
            # a batch constant: element k acts as the float other[k] would
            return _jet(np.asarray(other, dtype=float), np.zeros(self.d.shape), self.m,
                        self.pairs)
        return None

    def __add__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return _jet(self.value + o.value, self.d + o.d, self.m, self.pairs)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return _jet(-self.value, -self.d, self.m, self.pairs)

    def __sub__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return _jet(self.value - o.value, self.d - o.d, self.m, self.pairs)

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
        # order: v h_o + w h, then g[i] o.g[j], then g[j] o.g[i]
        p, m = self.pairs, self.m
        cross = self.d.take(p.ij, 0) * o.d.take(p.ji, 0)
        d = self.value * o.d
        d += o.value * self.d
        d[m:] += cross[:p.n]
        d[m:] += cross[p.n:]
        return _jet(self.value * o.value, d, m, p)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        # entry (i, j): h - v h_o, then the cross terms of the new
        # gradient, g[i] o.g[j] and g[j] o.g[i], then / w
        p, m = self.pairs, self.m
        val = self.value / o.value
        d = self.d - val * o.d
        d[:m] /= o.value
        cross = d.take(p.ij, 0) * o.d.take(p.ji, 0)
        d[m:] -= cross[:p.n]
        d[m:] -= cross[p.n:]
        d[m:] /= o.value
        return _jet(val, d, m, p)

    def __rtruediv__(self, other) -> "Jet2":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n) -> "Jet2":
        # the square, the only power a kernel takes; any other is a TypeError
        if n == 2 and isinstance(n, int):
            v = self.value
            return self._compose(_power(v, 2), 2 * v, 2.0)
        return NotImplemented


def _jet(value, d, m: int, pairs: Pairs) -> Jet2:
    """The jet with value ``value`` and derivative rows ``d``."""
    jet = object.__new__(Jet2)
    jet.value, jet.d, jet.m, jet.pairs = value, d, m, pairs
    return jet


def _libm(f, v):
    """``f(v)`` for a float; for a batch, ``f`` on each element in turn."""
    return f(v) if isinstance(v, float) else np.array(list(map(f, v.tolist())))


def _power(v, n):
    """``v ** n`` for a float; for a batch, builtin ``pow`` (``**``) on each element."""
    if isinstance(v, float):
        return v**n
    return np.array(list(map(pow, v.tolist(), itertools.repeat(n))))


def _nonzero(x):
    """``x``, as a divisor: a batch with a zero raises as a float zero would."""
    if isinstance(x, np.ndarray) and np.count_nonzero(x) < x.size:
        raise ZeroDivisionError("float division by zero")
    return x


def _require_positive(what: str, v) -> None:
    """Raise DomainError unless ``v`` is positive; a batch names its first bad element."""
    bad = v <= 0.0
    if np.count_nonzero(bad):
        raise DomainError(f"{what}, got {v if isinstance(v, float) else v[bad][0].item()!r}")


def _elementary(f):
    """Decorate ``rule(v) -> (f, f', f'')`` (v a float or a batch value) into
    the dispatch function: ``f`` on a number, the chain rule on a jet."""
    def wrap(rule):
        def dispatch(x):
            if isinstance(x, Jet2):
                return x._compose(*rule(x.value))
            return f(x)
        return functools.update_wrapper(dispatch, rule)
    return wrap


def value_of(x):
    """Plain value of a jet or number; use this for branching.

    A float for numbers and scalar jets, an (n,) array for a batch.
    """
    return x.value if isinstance(x, Jet2) else float(x)


def _take(x, mask):
    if isinstance(x, Jet2):
        return _jet(x.value[mask], x.d[:, mask], x.m, x.pairs)
    return x[mask] if isinstance(x, np.ndarray) else x


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
    bits it has alone.  An (n,) array argument, a batch column such as a
    per-element cone angle, is split with the jets; any other argument
    that is not a jet passes through whole.
    ``fn`` returns a jet, or a list of jets that are merged one by one.
    """
    hit = fn(*(_take(a, cond) for a in args))
    miss = fn(*(_take(a, ~cond) for a in args))
    if isinstance(hit, Jet2):
        return _merge(cond, hit, miss)
    return [_merge(cond, h, m) for h, m in zip(hit, miss)]


def _merge(cond, hit, miss):
    return _jet(_put(cond, hit.value, miss.value), _put(cond, hit.d, miss.d),
                hit.m, hit.pairs)


@_elementary(math.exp)
def exp(v):
    e = _libm(math.exp, v)
    return e, e, e


@_elementary(math.sqrt)
def sqrt(v):
    _require_positive("sqrt of a jet requires a positive value", v)
    s = _libm(math.sqrt, v)
    return s, 0.5 / s, -0.25 / _nonzero(s * v)


@_elementary(math.sinh)
def sinh(v):
    s, c = _libm(math.sinh, v), _libm(math.cosh, v)
    return s, c, s


@_elementary(math.asinh)
def asinh(v):
    w = _libm(math.sqrt, 1.0 + v * v)
    return _libm(math.asinh, v), 1.0 / w, -v / _power(w, 3)


@_elementary(math.sin)
def sin(v):
    s, c = _libm(math.sin, v), _libm(math.cos, v)
    return s, c, -s


@_elementary(math.cos)
def cos(v):
    s, c = _libm(math.sin, v), _libm(math.cos, v)
    return c, -s, -c


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
    batch = isinstance(pair["t"], (list, tuple, np.ndarray))
    values = [np.array(pair[name], dtype=float) if batch else float(pair[name])
              for name in COORDS]
    m = len(COORDS)
    seeds = np.eye(m, m + pairs.n)  # row k: the d column of coordinate k
    if batch:
        # each row repeated along the batch by a zero stride: no memory per element
        seeds = np.ndarray((*seeds.shape, len(values[0])), buffer=seeds,
                           strides=(*seeds.strides, 0))
        seeds.flags.writeable = False
    return {name: _jet(values[k], seeds[k], m, pairs) for k, name in enumerate(COORDS)}
