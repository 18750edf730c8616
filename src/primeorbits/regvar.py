"""Regularly varying test functions and their compositional inverses.

A member h of the class handled here has the shape

    h(x) = coeff * x**c * exp(integral of theta(t)/t)

with index c in (1, 2) and a slowly decaying perturbation theta.  Each
catalog kind stores theta and its first two derivatives in closed form,
so all derivatives of h up to order three follow from exact algebraic
relations rather than numerical differentiation:

    h'(x)   = h(x) * (c + theta(x)) / x
    h''(x)  = h(x) * ((c+theta)*(c+theta-1) + x*theta') / x**2
    h'''(x) = h(x) * (g*(c+theta-2) + x*g') / x**3,
              g = (c+theta)*(c+theta-1) + x*theta',  g' = 2*(c+theta)*theta' + x*theta''

Below x0 every member is extended by the constant h(x0); the domain of
interest is [x0, infinity) where h' > 0, h'' > 0 and |theta| < c - 1.

The compositional inverse phi = h^{-1} and its derivative phi', on which
the approximant, the smooth integral and the Waring main term rest, come
from InverseHandle alone: in closed form for pure powers, by Newton on h
for every other kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import mpmath
import numpy as np

KINDS = ("pure", "logpow", "explog", "itlog")

# type-level ceiling on |theta| past 10**6, enforced at construction
_THETA_CEIL = 0.1
_THETA_CHECKPOINT = 1.0e6


def _as_array(x) -> tuple[np.ndarray, bool]:
    a = np.asarray(x, dtype=np.float64)
    return a, (a.ndim == 0)


@dataclass(frozen=True)
class RegVarFunction:
    """One catalog member; hashable so downstream caches can key on it."""

    kind: str
    c: float
    coeff: float = 1.0
    a: float = 0.0
    b: float = 0.0
    depth: int = 0
    x0: float = field(default=1.0)

    @property
    def gamma(self) -> float:
        """Inverse index 1/c."""
        return 1.0 / self.c

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
            return self.coeff * exp(self.c * L + self.a * log(L))
        if self.kind == "explog":
            return self.coeff * exp(self.c * L + self.a * L ** self.b)
        h = self.coeff * exp(self.c * L)
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
        xx = np.maximum(x, self.x0)
        d = self.value(xx) * (self.c + self.theta(xx)) / xx
        return d.item() if scalar else d

    def d2(self, x):
        x, scalar = _as_array(x)
        xx = np.maximum(x, self.x0)
        ct = self.c + self.theta(xx)
        g = ct * (ct - 1.0) + xx * self.theta_d1(xx)
        d = self.value(xx) * g / (xx * xx)
        return d.item() if scalar else d

    def index(self, x):
        """Local index x*h'(x)/h(x) = c + theta(x)."""
        return self.c + self.theta(x)

    def value_and_d1(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused h and h' for the Newton inner loop."""
        xx = np.maximum(np.asarray(x, dtype=np.float64), self.x0)
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


def _probe_ok(h: RegVarFunction, x: float) -> bool:
    th = h.theta(x)
    if not abs(th) < h.c - 1.0:
        return False
    ct = h.c + th
    if not ct > 0.0:
        return False
    g = ct * (ct - 1.0) + x * h.theta_d1(x)
    return g > 0.0


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
        for _ in range(h.depth):
            t = math.exp(t)
        floor = t  # L_depth barely positive just above this
    for j in range(0, 64):
        cand = float(2 ** j)
        if cand <= floor:
            continue
        probe = replace(h, x0=cand)
        if probe.value(cand) < 1.0:
            continue
        grid = cand * 2.0 ** (np.arange(0, 161) / 4.0)
        if all(_probe_ok(probe, float(x)) for x in grid):
            return cand
    raise ValueError(f"no admissible x0 for {h.kind} with given parameters")


def _finish(h: RegVarFunction) -> RegVarFunction:
    if not 1.0 < h.c < 2.0:
        raise ValueError("index c must lie in (1, 2)")
    if h.coeff <= 0.0:
        raise ValueError("leading coefficient must be positive")
    out = replace(h, x0=_scan_x0(h))
    chk = max(_THETA_CHECKPOINT, out.x0)
    worst = max(abs(out.theta(float(chk * 2.0 ** (j / 2.0)))) for j in range(0, 41))
    if not worst < _THETA_CEIL:
        raise ValueError(
            f"|theta| = {worst:.4f} at x >= {chk:g} exceeds the {_THETA_CEIL} "
            "ceiling; shrink the perturbation parameters")
    return out


def pure_power(c: float, coeff: float = 1.0) -> RegVarFunction:
    """h(x) = coeff * x**c."""
    return _finish(RegVarFunction("pure", c, coeff))


def log_power(c: float, a: float = 0.5, coeff: float = 1.0) -> RegVarFunction:
    """h(x) = coeff * x**c * log(x)**a,  theta(x) = a/log(x)."""
    return _finish(RegVarFunction("logpow", c, coeff, a=a))


def exp_log(c: float, a: float = 0.3, b: float = 0.5,
            coeff: float = 1.0) -> RegVarFunction:
    """h(x) = coeff * x**c * exp(a*log(x)**b) with 0 < b < 1."""
    if not 0.0 < b < 1.0:
        raise ValueError("need 0 < b < 1")
    return _finish(RegVarFunction("explog", c, coeff, a=a, b=b))


def iterated_log(c: float, depth: int = 2, coeff: float = 1.0) -> RegVarFunction:
    """h(x) = coeff * x**c * log_depth(x), the depth-times iterated log."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _finish(RegVarFunction("itlog", c, coeff, depth=depth))


def make_catalog() -> list[RegVarFunction]:
    """Default members exercised by the analytic test batteries."""
    return [
        pure_power(1.2),
        pure_power(1.1),
        log_power(1.15, a=0.5),
        exp_log(1.1, a=0.3, b=0.5),
        iterated_log(1.2, depth=2),
    ]


# -- compositional inverse ------------------------------------------------


@dataclass(frozen=True)
class InverseHandle:
    """phi = h^{-1} on [h(x0), infinity), clamped to x0 below that.

    A pure power coeff * x**c has phi(y) = (y/coeff)**gamma and
    phi'(y) = gamma * coeff**-gamma * y**(gamma - 1) in closed form.  Every
    other kind starts from that closed form and takes ten Newton steps on
    h, and phi'(y) = 1/h'(phi(y)).  At and below h(x0), phi'(y) = 1/h'(x0).
    """

    h: RegVarFunction

    def value(self, y):
        y, scalar = _as_array(y)
        x = self._solve(np.atleast_1d(y))
        return x[0].item() if scalar else x.reshape(y.shape)

    def d1(self, y):
        """phi'(y): the closed form for pure powers, 1/h'(phi(y)) otherwise."""
        y, scalar = _as_array(y)
        h, y1 = self.h, np.atleast_1d(y)
        if h.kind == "pure":
            with np.errstate(divide="ignore", invalid="ignore"):
                d = y1 ** (h.gamma - 1.0)  # y <= 0 is overwritten below
            d *= h.gamma * h.coeff ** -h.gamma
            np.putmask(d, y1 <= h.value(h.x0), 1.0 / h.d1(h.x0))
        else:
            d = 1.0 / h.d1(self._solve(y1))
        return d[0].item() if scalar else d.reshape(y.shape)

    def _solve(self, y: np.ndarray) -> np.ndarray:
        h = self.h
        y = y.ravel()
        ylo = h.value(h.x0)
        # the pure-power inverse: the answer for kind "pure", else the start
        x = np.maximum((np.maximum(y, ylo) / h.coeff) ** h.gamma, h.x0)
        if h.kind != "pure":
            # h convex increasing, so after one step the iterates sit above
            # the root and descend, monotone and quadratic
            for _ in range(10):
                hv, hd = h.value_and_d1(x)
                x = np.maximum(x - (hv - y) / hd, h.x0)
        return np.where(y <= ylo, h.x0, x)

    def doubling_constant(self) -> float:
        """Upper bound 2**(-gamma/2) for phi(y)/phi(2y) at large y."""
        return 2.0 ** (-self.h.gamma / 2.0)
