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
