"""Regularly varying test functions and their compositional inverses.

A member h of the class handled here has the shape

    h(x) = x**c * exp(integral of theta(t)/t)

with index c in (1, 2) and a slowly decaying perturbation theta.  Each
catalog kind stores theta and its first derivative in closed form, so the
derivatives of h that construction and the inverse need follow from exact
algebraic relations rather than numerical differentiation:

    h'(x)   = h(x) * (c + theta(x)) / x
    h''(x)  = h(x) * ((c+theta)*(c+theta-1) + x*theta') / x**2

Below x0 every member is extended by the constant h(x0); the domain of
interest is [x0, infinity) where h' > 0, h'' > 0 and |theta| < c - 1.

The compositional inverse phi = h^{-1} and its derivative phi', on which
the approximant, the smooth integral and the Waring main term rest, come
from InverseHandle alone.  For pure powers they are in closed form.  For
every other kind they are read off Chebyshev interpolants of degree 16,
one pair per dyadic block 2**j <= y < 2**(j+1), of the slowly varying
log phi(y) - gamma log y and log phi'(y) - (gamma - 1) log y, evaluated by
Clenshaw's recurrence.  Newton on h runs only at the 17 nodes of each
block, in np.longdouble through value_and_d1; a block whose coefficients
have not decayed to 2**-52 (near a singularity of phi just below h(x0))
is halved until they have.  Against 40-digit values phi and phi' are
within 5e-16 relative over the tested kinds and parameters, y from h(x0)
to 2**60.  See Trefethen, Approximation Theory and Approximation Practice
(SIAM 2013), chapters 2-8.

Higher derivatives of phi, which the approximant's Euler-Maclaurin tail
needs at its two ends, come from InverseHandle.taylor: _from_log runs
once on truncated Taylor series (_Jet) and the series is reverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import mpmath
import numpy as np

KINDS = ("pure", "logpow", "explog", "itlog")

# type-level ceiling on |theta| past 10**6, enforced at construction
_THETA_CEIL = 0.1
_THETA_CHECKPOINT = 1.0e6


def _as_array(x) -> tuple[np.ndarray, bool]:
    """x as a float64 array, or as long double if it is one; and whether
    it was a scalar."""
    a = np.asarray(x)
    if a.dtype != np.longdouble:
        a = a.astype(np.float64, copy=False)
    return a, (a.ndim == 0)


@dataclass(frozen=True)
class RegVarFunction:
    """One catalog member.  Equal parameters make equal functions; the
    tables of each object (`tables`) are its own."""

    kind: str
    c: float
    a: float = 0.0
    b: float = 0.0
    depth: int = 0
    x0: float = field(default=1.0)

    @property
    def gamma(self) -> float:
        """Inverse index 1/c."""
        return 1.0 / self.c

    @cached_property
    def tables(self) -> FunctionTables:
        """The one FunctionTables record of this function, made on first
        use and freed with it."""
        return FunctionTables(self)

    @property
    def inverse(self) -> InverseHandle:
        """The one InverseHandle of this function, so every caller reads
        the same interpolant blocks."""
        return self.tables.inverse

    # -- theta and derivatives, closed form per kind --------------------

    def theta(self, x):
        x, scalar = _as_array(x)
        x = np.maximum(x, self.x0)
        L = np.log(x)
        if self.kind == "pure":
            t = np.zeros_like(x)
        elif self.kind == "logpow":
            t = self.a / L
        elif self.kind == "explog":
            t = self.a * self.b * L ** (self.b - 1.0)
        else:
            t = 1.0 / self._logprod(x)[-1]
        return t.item() if scalar else t

    def theta_d1(self, x):
        x, scalar = _as_array(x)
        x = np.maximum(x, self.x0)
        L = np.log(x)
        if self.kind == "pure":
            t = np.zeros_like(x)
        elif self.kind == "logpow":
            t = -self.a / (x * L * L)
        elif self.kind == "explog":
            t = self.a * self.b * (self.b - 1.0) * L ** (self.b - 2.0) / x
        else:
            q = self._logprod(x)
            s = sum(1.0 / qi for qi in q)
            t = -(1.0 / q[-1]) * s / x
        return t.item() if scalar else t

    def _logprod(self, x: np.ndarray) -> list[np.ndarray]:
        """Cumulative products Q_j = L_1*...*L_j of iterated logarithms."""
        out = []
        lj = np.log(x)
        q = lj.copy()
        out.append(q)
        for _ in range(1, self.depth):
            lj = np.log(lj)
            q = q * lj
            out.append(q)
        return out

    # -- h and derivatives ----------------------------------------------

    def _from_log(self, L, log, exp):
        """h as an expression in L = log x, given the log and exp to use;
        value and eval_mp share it, so the formula of each kind is written
        once."""
        if self.kind == "logpow":
            return exp(self.c * L + self.a * log(L))
        if self.kind == "explog":
            return exp(self.c * L + self.a * L ** self.b)
        h = exp(self.c * L)
        if self.kind == "itlog":
            lk = L
            for _ in range(1, self.depth):
                lk = log(lk)
            h = h * lk
        return h

    def value(self, x):
        x, scalar = _as_array(x)
        x = np.maximum(x, self.x0)
        h = self._from_log(np.log(x), np.log, np.exp)
        return h.item() if scalar else h

    def d1(self, x):
        x, scalar = _as_array(x)
        d = self.value_and_d1(x)[1]
        return d.item() if scalar else d

    def value_and_d1(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused h and h' for Newton on h, in the dtype of x: long double
        in gives long double out, anything else float64."""
        xx = np.maximum(_as_array(x)[0], self.x0)
        h = self.value(xx)
        return h, h * (self.c + self.theta(xx)) / xx

    def eval_mp(self, x: float) -> mpmath.mpf:
        """High-precision h(x) used by the guarded floor.

        The exponential is mpmath.e ** t, not mpmath.exp: the two differ in
        the 40th digit, which moves floors where h is an integer.
        """
        with mpmath.workdps(40):
            L = mpmath.log(mpmath.mpf(max(float(x), self.x0)))
            return +self._from_log(L, mpmath.log, lambda t: mpmath.e ** t)

    def label(self) -> str:
        if self.kind == "pure":
            return f"x^{self.c:g}"
        if self.kind == "logpow":
            return f"x^{self.c:g} log^{self.a:g} x"
        if self.kind == "explog":
            return f"x^{self.c:g} e^({self.a:g} log^{self.b:g} x)"
        return f"x^{self.c:g} log_{self.depth} x"


# -- construction ---------------------------------------------------------


def _probe_ok(h: RegVarFunction, x: np.ndarray) -> bool:
    """|theta| < c - 1, c + theta > 0 and h'' > 0 at every point of x."""
    th = h.theta(x)
    ct = h.c + th
    g = ct * (ct - 1.0) + x * h.theta_d1(x)
    return bool(np.all((np.abs(th) < h.c - 1.0) & (ct > 0.0) & (g > 0.0)))


def _scan_x0(h: RegVarFunction) -> float:
    """Smallest power of two past which h' > 0, h'' > 0, |theta| < c-1.

    For every kind here |theta|, |x*theta'| and |x^2*theta''| decay
    monotonically once defined, so a geometric probe grid above the
    candidate suffices.
    """
    # smallest admissible abscissa for the logarithm tower
    floor = 0.5
    if h.kind == "logpow" or h.kind == "explog":
        floor = math.nextafter(1.0, 2.0)
    elif h.kind == "itlog":
        t = 1.0
        try:
            for _ in range(h.depth):
                t = math.exp(t)
        except OverflowError:
            raise ValueError(f"depth={h.depth}: log_depth is defined only "
                             "above exp applied depth times to 1, which "
                             "overflows a double") from None
        floor = t  # L_depth barely positive just above this
    for j in range(0, 64):
        cand = float(2 ** j)
        if cand <= floor:
            continue
        probe = replace(h, x0=cand)
        if probe.value(cand) < 1.0:
            continue
        grid = cand * 2.0 ** (np.arange(0, 161) / 4.0)
        if _probe_ok(probe, grid):
            return cand
    raise ValueError(f"no admissible x0 for {h.kind} with given parameters")


def _finish(h: RegVarFunction) -> RegVarFunction:
    if not 1.0 < h.c < 2.0:
        raise ValueError("index c must lie in (1, 2)")
    out = replace(h, x0=_scan_x0(h))
    chk = max(_THETA_CHECKPOINT, out.x0)
    worst = np.abs(out.theta(chk * 2.0 ** (np.arange(41) / 2.0))).max()
    if not worst < _THETA_CEIL:
        raise ValueError(
            f"|theta| = {worst:.4f} at x >= {chk:g} exceeds the {_THETA_CEIL} "
            "ceiling; shrink the perturbation parameters")
    return out


def pure_power(c: float) -> RegVarFunction:
    """h(x) = x**c."""
    return _finish(RegVarFunction("pure", c))


def log_power(c: float, a: float = 0.5) -> RegVarFunction:
    """h(x) = x**c * log(x)**a,  theta(x) = a/log(x)."""
    return _finish(RegVarFunction("logpow", c, a=a))


def exp_log(c: float, a: float = 0.3, b: float = 0.5) -> RegVarFunction:
    """h(x) = x**c * exp(a*log(x)**b) with 0 < b < 1."""
    if not 0.0 < b < 1.0:
        raise ValueError("need 0 < b < 1")
    return _finish(RegVarFunction("explog", c, a=a, b=b))


def iterated_log(c: float, depth: int = 2) -> RegVarFunction:
    """h(x) = x**c * log_depth(x), the depth-times iterated log."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _finish(RegVarFunction("itlog", c, depth=depth))


def make_catalog() -> list[RegVarFunction]:
    """Default members exercised by the analytic test batteries."""
    return [
        pure_power(1.2),
        pure_power(1.1),
        log_power(1.15, a=0.5),
        exp_log(1.1, a=0.3, b=0.5),
        iterated_log(1.2, depth=2),
    ]


# -- Taylor jets ----------------------------------------------------------


class _Jet:
    """Truncated Taylor series: row k of `a` is the coefficient of t^k, and
    the other axes index independent series.  It has the arithmetic that
    _from_log applies to L; _jet_log and _jet_exp are its log and exp."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray):
        self.a = a

    def __add__(self, other):
        return _Jet(self.a + other.a)

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.a * other)
        a, b = self.a, other.a
        c = np.empty_like(a)
        for k in range(len(a)):
            c[k] = (a[:k + 1] * b[k::-1]).sum(axis=0)
        return _Jet(c)

    __rmul__ = __mul__

    def __pow__(self, e: float):
        return _jet_exp(e * _jet_log(self))


def _jet_exp(s: _Jet) -> _Jet:
    """exp of a series: b' = a' b, so k b_k = sum_{1<=j<=k} j a_j b_{k-j}."""
    a = s.a
    ja = a * np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
    b = np.empty_like(a)
    b[0] = np.exp(a[0])
    for k in range(1, len(a)):
        b[k] = (ja[1:k + 1] * b[k - 1::-1]).sum(axis=0) / k
    return _Jet(b)


def _jet_log(s: _Jet) -> _Jet:
    """log of a series: a b' = a', so
    a_0 b_k = a_k - sum_{1<=j<k} (j/k) b_j a_{k-j}."""
    a = s.a
    b, jb = np.empty_like(a), np.empty_like(a)
    b[0] = np.log(a[0])
    for k in range(1, len(a)):
        b[k] = (a[k] - (jb[1:k] * a[k - 1:0:-1]).sum(axis=0) / k) / a[0]
        jb[k] = k * b[k]
    return _Jet(b)


# -- compositional inverse ------------------------------------------------

# Non-pure kinds: per dyadic block of y, degree _DEGREE Chebyshev
# interpolants from _DEGREE + 1 first-kind nodes.  Degree 16 leaves the
# last coefficients at 1e-18 on every block of the catalog kinds; near a
# singularity a piece is halved, at most _MAX_SPLITS times, until its last
# two coefficients are within _TAIL
_DEGREE = 16
_TAIL = 2.0 ** -52
_MAX_SPLITS = 30
_MAX_NODE_STEPS = 40
# calls with at most this many points gather per-point coefficients
_GATHER = 4096


class InverseHandle:
    """phi = h^{-1} on [h(x0), infinity), clamped to x0 below that.

    A pure power x**c has phi(y) = y**gamma and
    phi'(y) = gamma * y**(gamma - 1) in closed form.

    Every other kind reads phi and phi' off Chebyshev interpolants, one
    pair per dyadic block 2**j <= y < 2**(j+1) (the first block starts at
    h(x0)).  On a block they interpolate, in r = log2(y) - j,

        log phi(y) - gamma log y    and    log phi'(y) - (gamma - 1) log y,

    smooth slowly varying functions, so phi(y) = exp(.) * y**gamma and
    phi'(y) = exp(.) * y**(gamma - 1).  Both come from the same 17 nodes:
    at each, h(x) = y is solved by Newton in np.longdouble from the
    pure-power start, and phi' = 1/h'(x).  A block whose last two
    coefficients exceed 2**-52 is split in halves until they do not.
    The handle holds the pieces of blocks j0 ... top (j0 the block of
    h(x0)) as one prefix, in y order; a call whose largest point lies
    above block top builds the blocks up to that point's, in one pass per
    split round, and appends them.  h keeps one handle (h.inverse), so
    each block is built once per function.  phi and phi' depend on y
    alone: the same y gives the same bits whatever else a call asks for
    and however the prefix grew.  At and below h(x0), phi(y) = x0 and
    phi'(y) = 1/h'(x0) exactly.  A nan or +-inf y is refused, and so,
    before any block is built, is a y above h(2**53) for every kind but
    the pure power: no floor of h is taken past 2**53, and the blocks up
    to y = 1e300 would be about a thousand.
    """

    def __init__(self, h: RegVarFunction):
        self.h = h
        self._ylo = h.value(h.x0)          # h(x0): phi is clamped at and below it
        self._d1_lo = 1.0 / h.d1(h.x0)     # phi' there
        self._yhi = h.value(2.0 ** 53)     # largest y an interpolant takes
        self._j0 = math.frexp(self._ylo)[1] - 1
        self._top = self._j0 - 1           # no block yet
        self._edges, self._scales, self._shifts = np.empty((3, 0))
        self._coef = np.empty((0, 2, _DEGREE + 1))
        self.node_evals = 0  # long-double evaluations of h and h' by node solves

    def value(self, y):
        y, scalar = _as_array(y)
        if not np.isfinite(y).all():  # the clamp would read nan as x0
            raise ValueError("the inverse takes finite y only")
        h, y1 = self.h, np.atleast_1d(y).ravel()
        if h.kind == "pure":
            x = np.maximum(np.maximum(y1, self._ylo) ** h.gamma, h.x0)
            x = np.where(y1 <= self._ylo, h.x0, x)
        else:
            x = self._interpolate(y1, 0, h.gamma, h.x0)
        return x[0].item() if scalar else x.reshape(y.shape)

    def d1(self, y):
        """phi'(y): the closed form for pure powers, the interpolant otherwise."""
        y, scalar = _as_array(y)
        if not np.isfinite(y).all():
            raise ValueError("the inverse takes finite y only")
        h, y1 = self.h, np.atleast_1d(y)
        if h.kind == "pure":
            with np.errstate(divide="ignore", invalid="ignore"):
                d = y1 ** (h.gamma - 1.0)  # y <= 0 is overwritten below
            d *= h.gamma
            np.putmask(d, y1 <= self._ylo, self._d1_lo)
        else:
            d = self._interpolate(y1.ravel(), 1, h.gamma - 1.0, self._d1_lo)
        return d[0].item() if scalar else d.reshape(y.shape)

    def taylor(self, y: np.ndarray, order: int) -> np.ndarray:
        """Scaled Taylor coefficients of phi: row k, column i is
        phi^(k)(y_i) y_i^k / k!, for k <= order and every y_i > h(x0).

        One truncated-Taylor pass of _from_log at x = phi(y), in
        t = x (1 + tau), gives A(tau) = h(x (1 + tau)) / h(x) - 1.  Its
        series reversion by Lagrange's formula,
        beta_k = [tau^(k-1)] (tau / A(tau))^k / k, gives
        phi(h(x) (1 + s)) = x (1 + sum beta_k s^k); all the powers
        (tau / A)^k = exp(-k log(A / tau)) come from one exp pass.  Every
        point and power runs in the same vectorized recurrences, O(order)
        array operations in all.  The expansion point h(x) is y to within
        the rounding of phi.  The scaled rows do not underflow where
        phi^(k)(y) does.
        """
        y = np.asarray(y, dtype=np.float64)
        x = self.value(y)
        k = np.arange(1.0, order + 1.0)
        L = np.empty((order + 1, y.size))  # log x + log(1 + tau)
        L[0] = np.log(x)
        L[1:] = (np.where(k % 2 == 1, 1.0, -1.0) / k)[:, None]
        H = self.h._from_log(_Jet(L), _jet_log, _jet_exp).a
        ell = _jet_log(_Jet(H[1:] / H[0])).a
        powers = _jet_exp(_Jet(-k[:, None] * ell[:, None, :])).a
        beta = powers[np.arange(order), np.arange(order)] / k[:, None]
        return np.vstack([x[None, :], x * beta])

    @property
    def blocks_built(self) -> int:
        """Dyadic blocks this handle holds interpolants for."""
        return self._top - self._j0 + 1

    def _interpolate(self, y: np.ndarray, row: int, power: float,
                     clamp: float) -> np.ndarray:
        """exp(p(r)) * y**power, p interpolant `row` of y's piece, and
        clamp at and below h(x0).

        A piece holds y if its left edge is the last edge at or below y,
        so the result depends on y alone.  A call of more than _GATHER
        points runs the recurrence once per piece over its contiguous
        slice of the sorted y; a smaller one, where that per-piece loop
        would cost more than the arithmetic, gathers each point's
        coefficients and runs it once.  The arithmetic is the same either
        way.
        """
        big = y.size > _GATHER
        order = None
        if big and np.any(y[1:] < y[:-1]):
            order = np.argsort(y, kind="stable")
            y = y[order]
        out = np.empty(y.size)
        above = (slice(int(np.searchsorted(y, self._ylo, side="right")), None)
                 if big else np.flatnonzero(y > self._ylo))
        out[...] = clamp
        tail = y[above]
        if tail.size:
            ymax = tail[-1] if big else tail.max()
            if ymax > self._yhi:
                raise ValueError(f"y={ymax:g} above h(2^53)={self._yhi:g}: "
                                 "the inverse is not interpolated there")
            top = int(np.frexp(ymax)[1]) - 1
            if top > self._top:
                self._build(top)
            scales, shifts, coef = self._scales, self._shifts, self._coef
            r = np.frexp(tail)[0]
            r *= 2.0
            np.log2(r, out=r)            # r = log2(y) - j, in [0, 1)
            u, v, w = np.empty_like(r), np.empty_like(r), np.empty_like(r)
            if big:
                cuts = [*np.searchsorted(tail, self._edges), tail.size]
                for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
                    if b > a:
                        _clenshaw(coef[i, row], scales[i], shifts[i], r[a:b],
                                  u[a:b], v[a:b], w[a:b])
            else:
                i = np.searchsorted(self._edges, tail, side="right") - 1
                _clenshaw(coef[i, row].T, scales[i], shifts[i], r, u, v, w)
            np.exp(r, out=r)
            np.power(tail, power, out=u)
            np.multiply(r, u, out=r)
            out[above] = r
        if order is None:
            return out
        back = np.empty_like(out)
        back[order] = out
        return back

    def _build(self, top: int) -> None:
        """Append blocks self._top + 1 ... top.  Each round fits the pending
        pieces by one long-double Newton solve at their nodes, and halves in
        place each piece whose last two coefficients exceed _TAIL."""
        h, ylo, n = self.h, self._ylo, _DEGREE + 1
        ld = np.longdouble
        # first-kind nodes cos(theta_k) and T_i(cos theta_k) = cos(i theta_k),
        # with pi in long double: the discrete orthogonality needs it
        theta = (2 * np.arange(n) + 1) * (np.arccos(ld(-1)) / (2 * n))
        tk = np.cos(theta)
        to_coef = np.cos(np.outer(theta, np.arange(n))) * (ld(2) / n)
        to_coef[:, 0] *= 0.5
        j0 = self._j0
        left = math.log2(ylo) - j0       # h(x0) in r, for block j0
        pieces = [(j, left if j == j0 else 0.0, 1.0, None)
                  for j in range(self._top + 1, top + 1)]
        for split in range(_MAX_SPLITS + 1):
            todo = [p for p in pieces if p[3] is None]
            if not todo:
                break
            js, a, b = (np.array(v) for v in list(zip(*todo))[:3])
            y = np.exp2(js[:, None] + a[:, None] + (b - a)[:, None] * (tk + 1) / 2)
            x, hd = self._solve_nodes(y)
            ly = np.log(y)
            logs = np.stack([np.log(x) - h.gamma * ly,
                             -np.log(hd) - (h.gamma - 1.0) * ly])
            coef = (logs @ to_coef).astype(np.float64)
            tails = np.abs(coef[:, :, -2:]).sum(axis=2).max(axis=0)
            fits = iter(zip(coef.transpose(1, 0, 2), tails))
            grown = []
            for j, lo, hi, c in pieces:
                if c is None:
                    c, tail = next(fits)
                    if tail > _TAIL and split < _MAX_SPLITS:
                        mid = 0.5 * (lo + hi)
                        grown += [(j, lo, mid, None), (j, mid, hi, None)]
                        continue
                grown.append((j, lo, hi, c))
            pieces = grown
        # t = 2 (r - lo) / (hi - lo) - 1; _clenshaw takes 2t = r scale - shift
        js, lo, hi, coefs = zip(*pieces)
        edges = [ylo if (j, a) == (j0, left) else 2.0 ** (j + a)
                 for j, a in zip(js, lo)]
        lo, hi = np.array(lo), np.array(hi)
        self._edges = np.concatenate([self._edges, edges])
        self._scales = np.concatenate([self._scales, 4.0 / (hi - lo)])
        self._shifts = np.concatenate([self._shifts, 4.0 * lo / (hi - lo) + 2.0])
        self._coef = np.concatenate([self._coef, coefs])
        self._top = top

    def _solve_nodes(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi(y) and h'(phi(y)) in long double, by Newton on h from the
        pure-power start.

        h is convex increasing, so after one step the iterates sit above
        the root and descend, quadratically once close.  Once a step
        moves a node's x by at most 1e-10 relative, the next evaluation
        sees only rounding: that x and its h' are the node's answer.  Each
        node stops on its own steps, so its answer does not depend on the
        other nodes solved with it.
        """
        h = self.h
        x = np.maximum(y ** h.gamma, h.x0)
        root, slope = np.empty_like(x), np.empty_like(x)
        close = done = np.zeros(x.shape, dtype=bool)
        for _ in range(_MAX_NODE_STEPS):
            hv, hd = h.value_and_d1(x)
            self.node_evals += x.size
            now = close & ~done
            root[now], slope[now] = x[now], hd[now]
            done = done | now
            if done.all():
                break
            dx = (hv - y) / hd
            x = np.maximum(x - dx, h.x0)
            close = np.abs(dx) <= 1e-10 * x
        else:
            root[~done], slope[~done] = x[~done], hd[~done]
        return root, slope

    def doubling_constant(self) -> float:
        """Upper bound 2**(-gamma/2) for phi(y)/phi(2y) at large y."""
        return 2.0 ** (-self.h.gamma / 2.0)


class FunctionTables:
    """Everything derived from one function h alone, made on first use
    (h.tables) and freed with h: the InverseHandle of phi = h^{-1}, and
    floor(h(p)) over the first primes of primes.primes_upto, read-only,
    which expsum.prime_floors grows."""

    def __init__(self, h: RegVarFunction):
        self.inverse = InverseHandle(h)
        self.prime_floors = np.empty(0, dtype=np.int64)
        self.prime_floors.flags.writeable = False


def _clenshaw(c: list[float], scale: float, shift: float, r: np.ndarray,
              u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """sum_k c[k] T_k(t) at t = (r scale - shift) / 2, by Clenshaw's
    recurrence, written over r; u, v, w are scratch of r's size.  The c[k],
    scale and shift are scalars, or arrays with one entry per point."""
    t2 = r
    t2 *= scale
    t2 -= shift
    n = len(c) - 1
    np.multiply(t2, c[n], out=u)
    u += c[n - 1]
    v[...] = c[n]
    for k in range(n - 2, 0, -1):
        np.multiply(t2, u, out=w)
        w -= v
        w += c[k]
        u, v, w = w, u, v
    t2 *= u
    t2 *= 0.5
    t2 -= v
    t2 += c[0]
