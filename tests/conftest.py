import math

import numpy as np
import pytest
from hypothesis import strategies as st

from framealign import GroupSpec, validate_state
from framealign.core import _FSUM_VECTOR_MIN


@pytest.fixture
def z4_psi():
    return validate_state([13 / 64, 18 / 64, 19 / 64, 14 / 64], GroupSpec.cyclic(4))


@pytest.fixture
def z4_phi():
    return validate_state([7 / 20, 3 / 20, 6 / 20, 4 / 20], GroupSpec.cyclic(4))


@pytest.fixture
def qubit_half():
    return validate_state([0.5, 0.5], GroupSpec.u1(2))


@st.composite
def prob_vectors(draw, min_len=2, max_len=8):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ).filter(lambda xs: sum(xs) > 1e-3)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


@st.composite
def graded_prob_vectors(draw, min_len=2, max_len=8):
    """Entries are exactly zero or substantial.  Amplitude-based quantities
    amplify the ~1e-16 absolute error of a distribution entry by
    1/sqrt(entry), so sub-precision masses cannot honor 1e-12 bounds."""
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    raw = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        ).filter(lambda xs: sum(xs) > 0)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


# Lengths on both sides of _fsum's vector-path cutoff, and a long one.
EXACT_SUM_SIZES = (7, _FSUM_VECTOR_MIN - 1, _FSUM_VECTOR_MIN, 1 << 16)


def spread_simplex(rng, n):
    """A probability vector whose entries span many orders of magnitude,
    about one in eight of them exactly zero."""
    p = rng.dirichlet(np.full(n, 0.1))
    p[rng.integers(0, n, n // 8)] = 0.0
    return p / p.sum()


def random_simplex(rng, n):
    p = rng.exponential(size=n)
    return p / p.sum()


def refuse_long_fsum(monkeypatch):
    """Make math.fsum raise on any list long enough for _fsum's vector path,
    so that what runs afterwards passes only if it builds no such list."""
    fsum = math.fsum

    def guarded(values):
        if len(values) >= _FSUM_VECTOR_MIN:
            raise AssertionError(f"math.fsum over a {len(values)}-entry list")
        return fsum(values)

    monkeypatch.setattr(math, "fsum", guarded)
