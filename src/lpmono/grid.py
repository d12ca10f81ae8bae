"""Discrete functions on [0,1] under trapezoidal quadrature.

A :class:`GridFunction` holds samples at the uniform nodes ``t_i = i/M``,
``i = 0..M``.  Integrals, norms and pairings are weighted sums with the
trapezoid weights, so the sampled functions form a genuine weighted
little-l_p space and the duality identities used by :mod:`lpmono.duality`
hold to machine precision in the discrete norms.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


def _number(name: str, value, kind: type):
    """``value`` as a Python ``kind``; a str, a bool or a fractional int is refused by name."""
    ok = (int, np.integer) if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, ok):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return kind(value)


class GridMismatchError(ValueError):
    """Two grid functions with different subinterval counts were combined."""


class NonFiniteValuesError(ValueError):
    """A grid function acquired NaN or infinite samples."""


@lru_cache(maxsize=None)
def nodes(M: int) -> np.ndarray:
    """Uniform nodes t_i = i/M on [0,1] (read-only array of length M+1)."""
    t = np.linspace(0.0, 1.0, M + 1)
    t.flags.writeable = False
    return t


@lru_cache(maxsize=None)
def trapezoid_weights(M: int) -> np.ndarray:
    """Trapezoid weights (1/M)*[1/2, 1, ..., 1, 1/2] (read-only, length M+1)."""
    w = np.full(M + 1, 1.0 / M)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


class GridFunction:
    """A real-valued function on [0,1] sampled at the M+1 uniform nodes.

    Values are copied on construction and frozen; every arithmetic
    operation returns a new instance.  Binary operations require equal
    grids and raise :class:`GridMismatchError` otherwise.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d sample array, got shape {v.shape}")
        if v.size < 3:
            raise ValueError("need at least M = 2 subintervals (3 nodes)")
        if not np.isfinite(v).all():
            raise NonFiniteValuesError("grid function has NaN or Inf samples")
        v.flags.writeable = False
        self.values = v

    @classmethod
    def from_callable(cls, fn: Callable, M: int) -> "GridFunction":
        """Sample ``fn`` at the nodes of an M-subinterval grid."""
        t = nodes(M)
        try:
            vals = np.asarray(fn(t), dtype=float)
            if vals.shape != t.shape:
                raise TypeError
        except (TypeError, ValueError):  # scalar-only callables
            vals = np.array([fn(ti) for ti in t], dtype=float)
        return cls(vals)

    @classmethod
    def zeros(cls, M: int) -> "GridFunction":
        return cls(np.zeros(M + 1))

    @classmethod
    def full(cls, M: int, value: float) -> "GridFunction":
        return cls(np.full(M + 1, float(value)))

    @property
    def M(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return nodes(self.M)

    def _check_grid(self, other: "GridFunction") -> None:
        if self.values.size != other.values.size:
            raise GridMismatchError(f"grid mismatch: M = {self.M} vs M = {other.M}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_grid(other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_grid(other)
        return GridFunction(self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_grid(other)
            return GridFunction(self.values * other.values)
        return GridFunction(self.values * float(other))

    def __rmul__(self, scalar) -> "GridFunction":
        return GridFunction(self.values * float(scalar))

    def __truediv__(self, scalar) -> "GridFunction":
        return GridFunction(self.values / float(scalar))

    def __neg__(self) -> "GridFunction":
        return GridFunction(-self.values)

    def __repr__(self) -> str:
        return f"GridFunction(M={self.M})"


@dataclass(frozen=True)
class LpContext:
    """Exponent pair and grid geometry for one L_p setting.

    Parameters
    ----------
    p : float
        Primal exponent, 1 < p <= 2.
    M : int
        Number of grid subintervals (M >= 2).
    """

    p: float
    M: int = 100

    def __post_init__(self) -> None:
        if not 1.0 < _number("p", self.p, float) <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {self.p}")
        if _number("M", self.M, int) < 2:
            raise ValueError(f"M must be an integer >= 2, got {self.M!r}")

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)

    @property
    def lipschitz_L(self) -> float:
        """Lipschitz constant 1/(p-1) of the inverse duality map."""
        return 1.0 / (self.p - 1.0)


def weighted_sum(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> float:
    """Sum of the M+1 nodal values ``a`` under the grid's trapezoid weights ``w``.

    Every integral, norm and pairing on the grid reduces through here.
    numpy's pairwise sum fixes the summation order; a BLAS dot would sum
    in an order that follows its thread count, so results would change
    bitwise with the number of BLAS threads.  ``out`` receives the terms.
    """
    return float(np.add.reduce(np.multiply(w, a, out)))


def abs_norm(m: np.ndarray, r: float, w: np.ndarray, out: np.ndarray) -> float:
    """(weighted sum of m^r)^(1/r), the r-norm of a from m = |a|; overflow reads inf.

    ``out`` (which may be m) receives the terms.
    """
    return weighted_sum(np.power(m, r, out), w, out) ** (1.0 / r)


def trapezoid_integral(f: GridFunction) -> float:
    """Trapezoid-rule integral of ``f`` over [0,1]."""
    return weighted_sum(f.values, trapezoid_weights(f.M))


def lp_norm(f: GridFunction, r: float) -> float:
    """Weighted r-norm (integral of |f|^r, trapezoid weights)^(1/r), r >= 1."""
    if r < 1.0:
        raise ValueError(f"norm exponent must be >= 1, got {r}")
    m = np.abs(f.values)
    with np.errstate(over="ignore"):  # inf norms feed the non-finite guards
        return abs_norm(m, r, trapezoid_weights(f.M), m)


def pairing(f: GridFunction, g: GridFunction) -> float:
    """Duality pairing: the trapezoid integral of the product f*g."""
    f._check_grid(g)
    return weighted_sum(f.values * g.values, trapezoid_weights(f.M))


def random_smooth(rng: np.random.Generator, M: int, scale: float = 1.0) -> GridFunction:
    """A random smooth function with sup-norm roughly in (0.1, 1) * scale.

    Built from a fixed low-order polynomial/trigonometric basis with
    normal coefficients; used by sampled-monotonicity checks and tests.
    """
    t = nodes(M)
    c = rng.standard_normal(6)
    vals = (
        c[0]
        + c[1] * t
        + c[2] * t * t
        + c[3] * np.sin(2.0 * np.pi * t)
        + c[4] * np.cos(np.pi * t)
        + c[5] * np.sin(3.0 * np.pi * t)
    )
    peak = float(np.max(np.abs(vals)))
    if peak < 1e-12:
        vals = vals + 1.0
        peak = float(np.max(np.abs(vals)))
    amplitude = scale * rng.uniform(0.1, 1.0)
    return GridFunction(vals * (amplitude / peak))
