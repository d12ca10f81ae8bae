"""Acceptably-paired step/regularization sequences.

The solver consumes two sequences in (0,1): steps alpha_n and
regularization weights theta_n with theta_n decreasing to 0, tied by
alpha_n <= gamma * theta_n.  "Acceptably paired" additionally asks, over
the blocks [n(i), n(i+1)] cut by n(i) = i^i, that

    S1(i) = sum alpha_j^2                    -> 0,
    S2(i) = theta_{n(i)} * sum alpha_j       stays bounded away from 0,
    S3(i) = (theta_{n(i)} - theta_{n(i+1)}) * sum alpha_j -> 0.

:func:`check_acceptably_paired` reports these statistics on a finite
prefix together with pass/fail flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import _number

_BLOCK_I_MAX = 8  # i = 9 would sum 10^10 terms, about 6 minutes

_CHUNK = 1 << 20  # chunk length for prefix sums over large blocks
_STEP_CHUNK = 4096  # steps of a solve per array evaluation of alpha and theta
_S2_MIN = 0.1  # the bound S2 must stay above to count as bounded away from 0


@dataclass(frozen=True)
class ParamSchedule:
    """Parameter sequences for the one-step iteration.

    ``alpha`` and ``theta`` map an iteration index n >= 1 (scalar or
    integer array) to values in (0,1); ``theta`` must be non-increasing
    with limit 0, and alpha_n <= gamma * theta_n must hold.  ``block``
    maps i >= 1 to the strictly increasing block index n(i).  :meth:`steps`
    checks these rules (all but the limit) on every chunk it evaluates.
    """

    alpha: Callable
    theta: Callable
    gamma: float
    block: Callable[[int], int]
    meta: dict = field(default_factory=dict)

    def steps(self, count: int):
        """(n, alpha_n, theta_n) for n = 1..count, read from array chunks of alpha and theta.

        Each chunk is checked when it is evaluated, before its first step: both
        rules return a float64 array of the chunk's length, with values in
        (0, 1); alpha_n <= gamma * theta_n; theta_n <= theta_{n-1}, across
        chunks too.  A broken rule raises a ``ValueError`` naming n.
        """
        prev = 1.0  # theta_1's bound: the range check already holds it below 1
        for start in range(1, count + 1, _STEP_CHUNK):
            stop = min(start + _STEP_CHUNK, count + 1)
            n = np.arange(start, stop)
            alpha = _chunk("alpha", self.alpha(n), start, stop)
            theta = _chunk("theta", self.theta(n), start, stop)
            _first_false("alpha_n <= gamma * theta_n", alpha <= self.gamma * theta, start)
            _first_false("theta_n <= theta_{n-1}", theta <= np.append(prev, theta[:-1]), start)
            prev = theta[-1]
            yield from zip(range(start, stop), memoryview(alpha), memoryview(theta))


def _first_false(rule: str, holds: np.ndarray, start: int) -> None:
    """Raise naming the first n = start + i where ``holds[i]`` is False."""
    if not holds.all():
        raise ValueError(f"schedule breaks {rule} at n = {start + int(np.argmin(holds))}")


def _chunk(name: str, values, start: int, stop: int) -> np.ndarray:
    """``values`` of rule ``name`` at n = start..stop-1, checked: float64, in (0, 1)."""
    got = (getattr(values, "dtype", type(values).__name__), np.shape(values))
    if got != (np.float64, (stop - start,)):
        raise ValueError(
            f"schedule {name} returned {got[0]} of shape {got[1]} for n = {start}..{stop - 1}, "
            f"not a float64 array of shape ({stop - start},)"
        )
    _first_false(f"0 < {name}_n < 1", (values > 0.0) & (values < 1.0), start)
    return values


def default_schedule(
    gamma: float = 1.0,
    theta_offset: int = 16,
    theta_log_base: float = math.e,
) -> ParamSchedule:
    """The reference pairing: alpha_n = 1/(n+1), theta_n = 1/log(log(n + n0)).

    The bare double logarithm is nonpositive for small arguments, so the
    argument is shifted by ``theta_offset`` (default 16, the smallest
    integer with ln ln of it above 1) to keep theta in (0, 1) and
    decreasing from n = 1.  ``alpha`` is clipped to gamma * theta_n so the
    pairing hypothesis holds mechanically for any gamma.  Blocks are
    n(i) = i^i.  Offset and base are recorded in ``meta`` and may be
    varied for sensitivity studies.
    """
    gamma = _number("gamma", gamma, float)
    theta_offset = _number("theta_offset", theta_offset, int)
    theta_log_base = _number("theta_log_base", theta_log_base, float)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not (math.isfinite(theta_log_base) and theta_log_base > 1.0):
        raise ValueError(f"log base must be finite and exceed 1, got {theta_log_base}")
    ln_b = math.log(theta_log_base)

    def theta(n):
        arg = np.asarray(n, dtype=float) + float(theta_offset)
        inner = np.log(arg) / ln_b
        vals = ln_b / np.log(inner)
        return float(vals) if vals.ndim == 0 else vals

    with np.errstate(divide="ignore", invalid="ignore"):  # a bad offset gives nan or -0.0
        t1 = theta(1)
    if not 0.0 < t1 < 1.0:
        raise ValueError(
            f"theta_offset {theta_offset} leaves theta_1 = {t1:.4g} outside (0,1) "
            f"for log base {theta_log_base}"
        )

    def alpha(n):
        base = 1.0 / (np.asarray(n, dtype=float) + 1.0)
        vals = np.minimum(base, gamma * theta(n))
        return float(vals) if vals.ndim == 0 else vals

    def block(i: int) -> int:
        if i < 1:
            raise ValueError(f"block index must be >= 1, got {i}")
        return i**i

    meta = {
        "alpha": "min(1/(n+1), gamma*theta(n))",
        "theta": "1/log_b(log_b(n + n0))",
        "n0": theta_offset,
        "log_base": theta_log_base,
        "gamma": gamma,
        "block": "i^i",
    }
    return ParamSchedule(alpha=alpha, theta=theta, gamma=gamma, block=block, meta=meta)


@dataclass(frozen=True)
class PairingReport:
    """Block statistics S1, S2, S3 for i in [2, i_max] plus flags.

    ``s1_decreasing_to_zero`` requires strict decrease across the sampled
    blocks; ``s2_bounded_away`` requires min(S2) >= 0.1;
    ``s3_decreasing_to_zero`` is a trend flag: the final value must be
    the sample minimum and lie below the first (blocks at the start of
    the prefix are transient under a shifted theta).
    """

    i_values: tuple
    s1: tuple
    s2: tuple
    s3: tuple
    s1_decreasing_to_zero: bool
    s2_bounded_away: bool
    s3_decreasing_to_zero: bool


def _block_alpha_sums(schedule: ParamSchedule, a: int, b: int) -> tuple[float, float]:
    """(sum alpha_j^2, sum alpha_j) over the inclusive range j = a..b."""
    total_sq = total = 0.0
    for start in range(a, b + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, b + 1), dtype=np.int64)
        al = np.asarray(schedule.alpha(j), dtype=float)
        total_sq += float(np.add.reduce(al * al))  # pairwise, as grid.weighted_sum
        total += float(np.sum(al))
    return total_sq, total


def check_acceptably_paired(schedule: ParamSchedule, i_max: int) -> PairingReport:
    """Evaluate the block statistics of the pairing over i = 2..i_max.

    The first block is skipped: with a shifted theta it is not
    representative of the limiting behavior.  ``i_max`` is capped at 8, which
    sums alpha over 9^9 terms in about 13 s (7: 8^8 terms, about 1 s).
    """
    i_max = _number("i_max", i_max, int)
    if i_max < 2:
        raise ValueError(f"i_max must be >= 2, got {i_max}")
    if i_max > _BLOCK_I_MAX:
        raise OverflowError(
            f"i_max = {i_max} exceeds the supported block range (<= {_BLOCK_I_MAX})"
        )
    i_values, s1, s2, s3 = [], [], [], []
    for i in range(2, i_max + 1):
        a, b = int(schedule.block(i)), int(schedule.block(i + 1))
        if b <= a:
            raise ValueError(f"block sequence is not strictly increasing at i = {i}")
        sum_sq, sum_a = _block_alpha_sums(schedule, a, b)
        th_a, th_b = float(schedule.theta(a)), float(schedule.theta(b))
        i_values.append(i)
        s1.append(sum_sq)
        s2.append(th_a * sum_a)
        s3.append((th_a - th_b) * sum_a)

    s1_flag = all(x > y for x, y in zip(s1, s1[1:])) and s1[-1] > 0.0
    s2_flag = min(s2) >= _S2_MIN
    s3_flag = s3[-1] < s3[0] and s3[-1] <= min(s3)
    return PairingReport(
        i_values=tuple(i_values),
        s1=tuple(s1),
        s2=tuple(s2),
        s3=tuple(s3),
        s1_decreasing_to_zero=s1_flag,
        s2_bounded_away=s2_flag,
        s3_decreasing_to_zero=s3_flag,
    )
