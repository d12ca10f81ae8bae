import math

import numpy as np
import pytest

from lpmono import LpContext


@pytest.fixture
def ctx():
    """The default setting used by the bundled examples: p = 3/2, M = 100."""
    return LpContext(p=1.5, M=100)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# numpy picks its float64 power loop from the CPU at import: an AVX-512
# (X86_V4) loop where the CPU has it, else one whose results equal libm's
# pow.  The loops round differently at the exponents the runs use, 3/2 and
# 3 (p and q at p = 3/2), so the golden traces and export pins hold one
# set for each loop.
POWER_PROBE = np.linspace(0.0, 2.0, 2001)


@pytest.fixture(scope="session")
def power_loop():
    """``"libm"`` when ``np.power`` equals ``math.pow`` on a fixed vector, else ``"avx512"``."""
    xs = POWER_PROBE.tolist()
    for e in (1.5, 3.0):
        if np.power(POWER_PROBE, e).tolist() != [math.pow(x, e) for x in xs]:
            return "avx512"
    return "libm"
