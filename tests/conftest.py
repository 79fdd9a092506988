import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from turan_matroids.acceptance import random_linear_matroid
from turan_matroids.geometry import (
    matroid_from_vectors,
    projective_geometry,
    rank3_multiline,
    two_disjoint_lines,
)

settings.register_profile(
    "toolkit",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("toolkit")


@st.composite
def linear_matroids(draw, min_n=2, max_n=7, max_dim=4):
    """Random representable matroid from a random small matrix over GF(2)/GF(3)."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, min(max_dim, n)))
    cols = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim).map(tuple),
            min_size=n,
            max_size=n,
        ).filter(lambda cs: any(any(c) for c in cs))
    )
    return matroid_from_vectors(cols, q)


@pytest.fixture
def rng():
    return random.Random(987654321)


def oracle_matroids():
    """200 random linear matroids on at most 9 elements, then PG(3,3),
    PG(4,2) and two rank-3 line arrangements: the inputs on which fast
    paths are compared with their references in ``oracles``."""
    rng = random.Random(20240607)
    out = [random_linear_matroid(rng, max_n=9) for _ in range(200)]
    return out + [
        projective_geometry(3, 3),
        projective_geometry(4, 2),
        two_disjoint_lines(5, 6),
        rank3_multiline([4, 4, 3], 2),
    ]
