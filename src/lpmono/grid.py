"""Discrete functions on [0,1] under trapezoidal quadrature.

A :class:`GridFunction` holds samples at the uniform nodes ``t_i = i/M``,
``i = 0..M``.  Integrals, norms and pairings are weighted sums with the
trapezoid weights, so the sampled functions form a genuine weighted
little-l_p space and the duality identities used by :mod:`lpmono.duality`
hold to machine precision in the discrete norms.

Only :func:`_weigher` decides how a term is weighted.  The weight array
of :func:`trapezoid_weights` exists only below ``_SCALAR_WEIGHTS_FROM``
subintervals, where multiplying by it is fastest, and in
:func:`~lpmono.operators.hammerstein_kernel_op`, which folds it into its
kernel matrix; larger grids weigh by the scalar 1/M, to the same bits.
Only :func:`_power` decides how a nodal power is taken.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
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


def _check_grid(M: int, size: int, owner: str = "grid function", what: str = "a function") -> None:
    """Refuse ``what``, ``size`` nodal values, where ``owner`` needs the M-subinterval grid."""
    if size != M + 1:
        raise GridMismatchError(f"{owner} built for M = {M}, got {what} on a grid of M = {size - 1}")


def _grid_size(M) -> int:
    """``M`` as a Python int; anything but an integer >= 2 (3 nodes) is refused by name."""
    M = _number("M", M, int)
    if M < 2:
        raise ValueError(f"M must be an integer >= 2, got {M!r}")
    return M


def nodes(M: int) -> np.ndarray:
    """Uniform nodes t_i = i/M on [0,1] (read-only array of length M+1)."""
    t = np.linspace(0.0, 1.0, _grid_size(M) + 1)
    t.flags.writeable = False
    return t


def trapezoid_weights(M: int) -> np.ndarray:
    """Trapezoid weights (1/M)*[1/2, 1, ..., 1, 1/2] (read-only, length M+1)."""
    w = np.full(_grid_size(M) + 1, 1.0 / M)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


# From this many subintervals on, a term is weighted by the scalar h = 1/M, not by the weight
# array.  Best of 21 in-place weighted sums (weight, then np.add.reduce), 2-core x86-64 with
# AVX-512, numpy 2.4: the array form takes 1.3 against 1.7 us at M = 100, the two are level
# within noise from M = 4000 to 10^4, and the scalar form takes 70 against 83 us at M = 10^5
_SCALAR_WEIGHTS_FROM = 4000


def _weigher(M: int) -> Callable[[np.ndarray, np.ndarray | None], np.ndarray]:
    """The trapezoid weighting of an M-subinterval grid, made once per solve or operator, as
    ``weigh(t, out)``: the terms w*t of nodal values ``t`` into ``out`` (which may be t) or a
    new array.  From ``_SCALAR_WEIGHTS_FROM`` on it multiplies by a 0-d h = 1/M and writes the
    end terms as (h/2)*t_0 and (h/2)*t_M from values read before ``out`` is written, so every
    term equals the weight array's bit for bit, also where an end term is subnormal.
    """
    M = _grid_size(M)
    if M < _SCALAR_WEIGHTS_FROM:
        return partial(np.multiply, trapezoid_weights(M))
    h = 1.0 / M
    h_, end, multiply = np.array(h), h * 0.5, np.multiply  # h * 0.5 is trapezoid_weights' end

    def weigh(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        t0, tm = t.item(0), t.item(-1)
        out = multiply(t, h_, out)
        out[0], out[-1] = end * t0, end * tm
        return out

    return weigh


def _power(r: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The power m^r of nodal values m >= 0, made once per solve or operator, as ``pw(m, out)``,
    written into ``out`` (not m).  At r = 3/2 and 3, p and q at the paper's p = 3/2, it is
    m*sqrt(m) and (m*m)*m: IEEE 754 rounds sqrt and multiply correctly, so their bits do not
    follow the float64 power loop that numpy picks from the CPU.  Any other r takes np.power.
    """
    multiply, sqrt, power = np.multiply, np.sqrt, np.power
    if r == 1.5:
        return lambda m, out: multiply(sqrt(m, out), m, out)
    if r == 3.0:
        return lambda m, out: multiply(multiply(m, m, out), m, out)
    r_ = np.array(r)  # numpy takes a 0-d exponent faster than a float
    return lambda m, out: power(m, r_, out)


class GridFunction:
    """A real-valued function on [0,1] sampled at the M+1 uniform nodes.

    Values are frozen: :meth:`zeros` and :meth:`full` are read-only zero-stride
    views of one float; everything else is copied on construction, and every
    arithmetic operation returns a new instance.  Binary operations require
    equal grids and raise :class:`GridMismatchError` otherwise.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d sample array, got shape {v.shape}")
        _grid_size(v.size - 1)
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
    def _frozen(cls, v: np.ndarray, size: int | None = None) -> "GridFunction":
        """Float64 ``v`` checked and frozen in place, or its one value viewed at ``size`` nodes."""
        if not np.isfinite(v).all():
            raise NonFiniteValuesError("grid function has NaN or Inf samples")
        v.flags.writeable = False
        f = cls.__new__(cls)
        f.values = v if size is None else np.broadcast_to(v, size)
        return f

    @classmethod
    def zeros(cls, M: int) -> "GridFunction":
        return cls.full(M, 0.0)

    @classmethod
    def full(cls, M: int, value: float) -> "GridFunction":
        return cls._frozen(np.array(_number("value", value, float)), _grid_size(M) + 1)

    @property
    def M(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return nodes(self.M)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_grid(self.M, other.values.size)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_grid(self.M, other.values.size)
        return GridFunction(self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _check_grid(self.M, other.values.size)
            return GridFunction(self.values * other.values)
        return GridFunction(self.values * _number("scalar", other, float))

    def __rmul__(self, scalar) -> "GridFunction":
        return GridFunction(self.values * _number("scalar", scalar, float))

    def __truediv__(self, scalar) -> "GridFunction":
        return GridFunction(self.values / _number("scalar", scalar, float))

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
        object.__setattr__(self, "p", _number("p", self.p, float))
        object.__setattr__(self, "M", _grid_size(self.M))
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {self.p}")

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)

    @property
    def lipschitz_L(self) -> float:
        """Lipschitz constant 1/(p-1) of the inverse duality map."""
        return 1.0 / (self.p - 1.0)


def weighted_sum(a: np.ndarray, weigh: Callable, out: np.ndarray | None = None) -> float:
    """Sum of the M+1 nodal values ``a`` under the trapezoid weighting ``weigh`` (:func:`_weigher`).

    Every integral, norm and pairing on the grid sums this way.
    numpy's pairwise sum fixes the summation order; a BLAS dot would sum
    in an order that follows its thread count, so results would change
    bitwise with the number of BLAS threads.  ``out`` receives the terms.
    """
    return float(np.add.reduce(weigh(a, out)))


def weighted_norm(r: float, weigh: Callable) -> Callable[[np.ndarray, np.ndarray], float]:
    """The r-norm weighted by ``weigh``, as ``norm(m, out)``: (weighted sum of m^r)^(1/r) for m = |a|.

    Overflow reads inf.  ``out`` (not m) receives m^r, a :func:`_power`, and the terms.
    """
    pw, inv_r, add_reduce = _power(r), 1.0 / r, np.add.reduce

    def norm(m: np.ndarray, out: np.ndarray) -> float:
        return float(add_reduce(weigh(pw(m, out), out))) ** inv_r

    return norm


def trapezoid_integral(f: GridFunction) -> float:
    """Trapezoid-rule integral of ``f`` over [0,1]."""
    return weighted_sum(f.values, _weigher(f.M))


def lp_norm(f: GridFunction, r: float) -> float:
    """Weighted r-norm (integral of |f|^r, trapezoid weights)^(1/r), for a finite r >= 1."""
    r = _number("r", r, float)
    if not (math.isfinite(r) and r >= 1.0):
        raise ValueError(f"norm exponent r must be finite and >= 1, got {r}")
    m = np.abs(f.values)
    with np.errstate(over="ignore"):  # inf norms feed the non-finite guards
        return weighted_norm(r, _weigher(f.M))(m, np.empty_like(m))


def pairing(f: GridFunction, g: GridFunction) -> float:
    """Duality pairing: the trapezoid integral of the product f*g."""
    _check_grid(f.M, g.values.size)
    return weighted_sum(f.values * g.values, _weigher(f.M))


def _smooth_basis(M: int) -> np.ndarray:
    """t, sin 2 pi t, cos pi t and sin 3 pi t at the nodes, shape (4, M+1): the node row and
    the rows of :func:`_smooth_values` that are not polynomials in t."""
    t = nodes(M)
    b = np.empty((4, t.size))
    b[0] = t
    for row, k, fn in zip(b[1:], (2.0, 1.0, 3.0), (np.sin, np.cos, np.sin)):
        fn(np.multiply(t, k * np.pi, row), row)
    return b


def _smooth_values(basis: np.ndarray, c, amplitude: float) -> np.ndarray:
    """c0 + c1 t + c2 t^2 + c3 sin 2 pi t + c4 cos pi t + c5 sin 3 pi t at the nodes of
    ``basis`` (:func:`_smooth_basis`), plus 1 where that is all but 0, scaled to sup-norm
    ``amplitude``."""
    t = basis[0]
    vals = (c[2] * t + c[1]) * t + c[0]
    vals += np.dot(c[3:], basis[1:])
    peak = max(vals.max(), -vals.min())
    if peak < 1e-12:
        vals += 1.0
        peak = max(vals.max(), -vals.min())
    vals *= amplitude / peak
    return vals


def random_smooth(rng: np.random.Generator, M: int, scale: float = 1.0) -> GridFunction:
    """A random smooth function with sup-norm in (0.1, 1) * scale.

    Normal coefficients over the basis of :func:`_smooth_values`; used by tests.
    """
    c = rng.standard_normal(6)
    return GridFunction(_smooth_values(_smooth_basis(M), c, scale * rng.uniform(0.1, 1.0)))
