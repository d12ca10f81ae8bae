"""Parameter sequences: ranges, clipping, blocks, the rules ``steps`` checks on
each chunk, and the acceptably-paired block statistics with brute-force
oracles."""

import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lpmono
from lpmono import (
    GridFunction,
    LpContext,
    ParamSchedule,
    SolveConfig,
    check_acceptably_paired,
    default_schedule,
    mult_op,
    solve_zero,
)


def degenerate_schedule():
    """alpha_n = theta_n = 1/n: violates the bounded-away-from-zero condition."""

    def rule(n):
        v = 1.0 / np.asarray(n, dtype=float)
        return float(v) if v.ndim == 0 else v

    return ParamSchedule(alpha=rule, theta=rule, gamma=1.0, block=lambda i: i**i)


class TestDefaultSchedule:
    def test_theta_one(self):
        s = default_schedule(1.0)
        assert s.theta(1) == pytest.approx(1.0 / math.log(math.log(17.0)), rel=1e-15)
        assert 0.95 < s.theta(1) < 0.97

    def test_theta_decreasing_in_unit_interval(self):
        s = default_schedule(1.0)
        n = np.arange(1, 1_000_001)
        th = s.theta(n)
        assert np.all((th > 0.0) & (th < 1.0))
        assert np.all(np.diff(th) < 0.0)

    def test_alpha_within_gamma_theta(self):
        s = default_schedule(1.0)
        n = np.arange(1, 1_000_001)
        al = s.alpha(n)
        assert np.all((al > 0.0) & (al < 1.0))
        assert np.all(al <= s.gamma * s.theta(n) + 1e-15)

    def test_alpha_clipping_binds_for_small_gamma(self):
        s = default_schedule(1e-3)
        # 1/(n+1) > gamma * theta_n for small n, so the clip is active
        assert s.alpha(1) == pytest.approx(1e-3 * s.theta(1), rel=1e-15)
        assert s.alpha(5000) == pytest.approx(1.0 / 5001.0, rel=1e-15)

    def test_block_is_i_to_the_i(self):
        s = default_schedule(1.0)
        assert [s.block(i) for i in range(1, 6)] == [1, 4, 27, 256, 3125]
        blocks = [s.block(i) for i in range(1, 13)]
        assert all(a < b for a, b in zip(blocks, blocks[1:]))
        with pytest.raises(ValueError):
            s.block(0)

    def test_scalar_and_array_rules_agree(self):
        s = default_schedule(1.0)
        n = np.arange(1, 50)
        assert np.allclose(s.alpha(n), [s.alpha(int(k)) for k in n], rtol=0, atol=0)
        assert np.allclose(s.theta(n), [s.theta(int(k)) for k in n], rtol=0, atol=0)

    @pytest.mark.parametrize("base", [math.e, 2.0], ids=["e", "2"])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_chunked_steps_equal_scalar_calls(self, gamma, base):
        # bit for bit across three array chunks, and sampled out to n = 2e5
        s = default_schedule(gamma, theta_log_base=base)
        assert list(s.steps(10_000)) == [(n, s.alpha(n), s.theta(n)) for n in range(1, 10_001)]
        steps = list(s.steps(200_000))
        for n in range(1, 200_001, 997):
            assert steps[n - 1] == (n, s.alpha(n), s.theta(n))

    def test_steps_evaluate_chunks_capped_at_count(self):
        s = default_schedule(1.0)
        sizes = []

        def alpha(n):
            sizes.append(np.size(n))
            return s.alpha(n)

        counted = dataclasses.replace(s, alpha=alpha)
        assert len(list(counted.steps(5))) == 5
        assert sizes == [5]
        sizes.clear()
        assert [n for n, _, _ in counted.steps(4097)] == list(range(1, 4098))
        assert sizes == [4096, 1]

    def test_steps_check_theta_across_chunks(self):
        # theta rises at n = 4097, the second chunk's first step: the first chunk runs
        s = default_schedule(1.0)
        bumped = dataclasses.replace(s, theta=lambda n: s.theta(n) + (n > 4096) * 1e-3)
        assert len(list(bumped.steps(4096))) == 4096
        steps = bumped.steps(4097)
        for _ in range(4096):
            next(steps)
        with pytest.raises(ValueError, match=r"theta_n <= theta_\{n-1\} at n = 4097$"):
            next(steps)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_schedule(0.0)
        with pytest.raises(ValueError):
            default_schedule(1.0, theta_offset=5)  # theta_1 > 1
        with pytest.raises(ValueError):
            default_schedule(1.0, theta_log_base=1.0)
        with pytest.raises(ValueError):
            default_schedule(1.0, theta_log_base=10.0)  # needs n0 > 10^10
        for offset in (0, -20):  # ln ln of 1 is -inf and of -19 nan; neither may warn
            with pytest.raises(ValueError, match="theta_1"):
                default_schedule(1.0, theta_offset=offset)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            default_schedule(gamma)

    @pytest.mark.parametrize("base", [float("nan"), float("inf")])
    def test_non_finite_log_base_rejected(self, base):
        with pytest.raises(ValueError, match="log base must be finite"):
            default_schedule(1.0, theta_log_base=base)

    def test_theta_offset_must_be_an_integer(self):
        with pytest.raises(ValueError, match="theta_offset must be an integer"):
            default_schedule(1.0, theta_offset=16.5)
        with pytest.raises(ValueError, match="theta_offset must be an integer"):
            default_schedule(1.0, theta_offset=True)
        n0 = default_schedule(1.0, theta_offset=np.int64(17)).meta["n0"]
        assert (n0, type(n0)) == (17, int)

    def test_meta_records_choices(self):
        s = default_schedule(0.5, theta_offset=20)
        assert s.meta["n0"] == 20
        assert s.meta["gamma"] == 0.5
        assert s.meta["block"] == "i^i"


def constant(c):
    return lambda n: np.full(np.shape(n), c)


def inv_n_plus_1(n):
    return 1.0 / (np.asarray(n, dtype=float) + 1.0)


# schedules that break one of ParamSchedule's rules, each from its first step
BROKEN = {
    "alpha-2": (dict(alpha=constant(2.0)), "0 < alpha_n < 1 at n = 1$"),
    "alpha-above-gamma-theta": (
        dict(alpha=constant(0.9), theta=inv_n_plus_1), r"alpha_n <= gamma \* theta_n at n = 1$"),
    "alpha-negative": (dict(alpha=constant(-0.1)), "0 < alpha_n < 1 at n = 1$"),
    "alpha-nan": (dict(alpha=constant(float("nan"))), "0 < alpha_n < 1 at n = 1$"),
    "alpha-scalar-only": (
        dict(alpha=lambda n: 0.1),
        r"alpha returned float of shape \(\) for n = 1..4096, not a float64 array of shape \(4096,\)"),
    "theta-increasing": (dict(theta=lambda n: 0.5 + 1e-3 * (n >= 10)), r"theta_\{n-1\} at n = 10$"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_solve_refuses_broken_schedule_before_step_1(name):
    fields, message = BROKEN[name]
    schedule = dataclasses.replace(default_schedule(1.0), **fields)
    ctx = LpContext(1.5, 100)
    x1 = GridFunction.from_callable(lambda t: 1.0 / (1.0 + t * t), ctx.M)
    steps = []
    with pytest.raises(ValueError, match=message):
        solve_zero(mult_op(), x1, SolveConfig(ctx, schedule), callback=lambda n, x: steps.append(n))
    assert steps == []


def test_degenerate_schedule_builds_and_fails_in_steps():
    # alpha_1 = theta_1 = 1: check_acceptably_paired still reads it, a solve may not run it
    s = degenerate_schedule()
    assert check_acceptably_paired(s, 3).s1
    with pytest.raises(ValueError, match="0 < alpha_n < 1 at n = 1$"):
        next(s.steps(10))


def brute_block_stats(schedule, i):
    """Independent pure-Python evaluation of (S1, S2, S3) for block i."""
    a, b = schedule.block(i), schedule.block(i + 1)
    alphas = [float(schedule.alpha(j)) for j in range(a, b + 1)]
    s1 = sum(x * x for x in alphas)
    s_a = sum(alphas)
    th_a, th_b = float(schedule.theta(a)), float(schedule.theta(b))
    return s1, th_a * s_a, (th_a - th_b) * s_a


class TestCheckAcceptablyPaired:
    def test_against_brute_force(self):
        s = default_schedule(1.0)
        report = check_acceptably_paired(s, 4)
        for idx, i in enumerate(report.i_values):
            s1, s2, s3 = brute_block_stats(s, i)
            assert report.s1[idx] == pytest.approx(s1, rel=1e-12)
            assert report.s2[idx] == pytest.approx(s2, rel=1e-12)
            assert report.s3[idx] == pytest.approx(s3, rel=1e-12)

    def test_default_schedule_statistics(self):
        report = check_acceptably_paired(default_schedule(1.0), 6)
        assert report.i_values == (2, 3, 4, 5, 6)
        assert all(a > b for a, b in zip(report.s1, report.s1[1:]))
        assert min(report.s2) >= 0.1
        assert report.s1_decreasing_to_zero
        assert report.s2_bounded_away
        assert report.s3_decreasing_to_zero
        assert report.s3[-1] < report.s3[0]

    def test_degenerate_pair_fails_second_condition(self):
        report = check_acceptably_paired(degenerate_schedule(), 6)
        assert not report.s2_bounded_away
        # the failure is specific: the other two statistics still behave
        assert report.s1_decreasing_to_zero
        assert report.s3_decreasing_to_zero
        assert report.s2[-1] < 1e-3

    def test_i_max_limits(self):
        s = default_schedule(1.0)
        with pytest.raises(OverflowError):
            check_acceptably_paired(s, 13)
        t0 = time.perf_counter()
        with pytest.raises(OverflowError):
            check_acceptably_paired(s, 9)  # 10^10 terms: refused, not summed
        assert time.perf_counter() - t0 < 0.1
        with pytest.raises(ValueError):
            check_acceptably_paired(s, 1)

    @pytest.mark.parametrize("i_max, message", [
        (3.0, "i_max must be an integer, got 3.0"),
        ("3", "i_max must be an integer, got '3'"),
    ], ids=["float", "str"])
    def test_i_max_must_be_an_integer(self, i_max, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_acceptably_paired(default_schedule(1.0), i_max)


S1_HEX = """
import sys
from lpmono import check_acceptably_paired, default_schedule
report = check_acceptably_paired(default_schedule(1.0), 5)
sys.stdout.write(" ".join(s.hex() for s in report.s1))
"""


def test_pairing_independent_of_blas_threads():
    # block 5 sums alpha_j^2 over j = 5^5..6^6; a BLAS dot sums in an order set by its threads
    src = str(Path(lpmono.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", S1_HEX], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        outs.append(proc.stdout)
    assert len(outs[0].split()) == 4  # i = 2..5
    assert outs[0] == outs[1]
