"""Statistics kernel against frozen high-precision references.

T_CDF_REFERENCE was produced once by tools/gen_t_cdf_reference.py (mpmath at
50 digits, regularized incomplete beta route) and frozen here before the
production kernel was written.
"""

from __future__ import annotations

import math
import random

import pytest

from ruleweave import stats
from ruleweave.errors import StatsError, ZeroVarianceError
from ruleweave.stats import (
    paired_t_test,
    regularized_incomplete_beta,
    student_t_cdf,
    two_sided_p,
)

T_CDF_REFERENCE = [
    (-3.5, 1, 0.088585532782904749),
    (-1.0, 1, 0.25),
    (0.0, 1, 0.5),
    (1.0, 1, 0.75),
    (2.0, 1, 0.85241638234956673),
    (-2.0, 2, 0.091751709536136984),
    (0.3, 2, 0.60375716957991119),
    (1.5, 2, 0.86380343755449946),
    (-0.5, 5, 0.3191494358204645),
    (0.7, 5, 0.74242552584259178),
    (2.88, 5, 0.98270595527763529),
    (5.0, 5, 0.99794764200997334),
    (-1.5, 10, 0.08225366322272009),
    (0.0, 10, 0.5),
    (1.0, 10, 0.82955343384897006),
    (3.69, 10, 0.99791157731872316),
    (-2.88, 32, 0.0035192113928090167),
    (0.5, 32, 0.68975191252155305),
    (2.88, 32, 0.99648078860719098),
    (3.69, 32, 0.9995852786361528),
]

# Same provenance (see the generator script's trailing check).
P_TWO_POINT_EXAMPLE = 0.29516723530086655


def test_t_cdf_matches_reference_to_1e6():
    for t, df, expected in T_CDF_REFERENCE:
        assert student_t_cdf(t, df) == pytest.approx(expected, abs=1e-6)


def test_incomplete_beta_boundaries():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(StatsError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(StatsError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_incomplete_beta_refuses_a_zero_b():
    with pytest.raises(StatsError, match="must be positive"):
        regularized_incomplete_beta(1.0, 0.0, 0.5)


def test_incomplete_beta_uniform_case_is_identity():
    # I_x(1, 1) = x exactly.
    for x in (0.1, 0.25, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_cdf_symmetry():
    for t in (0.5, 1.7, 3.2):
        for df in (1, 4, 32):
            assert student_t_cdf(-t, df) == pytest.approx(
                1.0 - student_t_cdf(t, df), abs=1e-12
            )


def test_two_point_example():
    # d = {1, 3}: mean 2, sd sqrt(2), t = 2 with df = 1.
    result = paired_t_test([1.0, 3.0], [0.0, 0.0])
    assert result.t == pytest.approx(2.0, abs=1e-12)
    assert result.n == 2
    assert result.p == pytest.approx(P_TWO_POINT_EXAMPLE, abs=1e-9)
    assert round(result.p, 3) == 0.295
    assert result.dz == pytest.approx(2.0 / math.sqrt(2.0), abs=1e-12)


def test_zero_variance_is_an_error():
    with pytest.raises(ZeroVarianceError):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVarianceError):
        paired_t_test([3.0, 4.0, 5.0], [1.0, 2.0, 3.0])  # constant shift


def test_input_validation():
    with pytest.raises(StatsError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(StatsError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(StatsError):
        student_t_cdf(1.0, 0)


@pytest.mark.parametrize("df", [0, -1.5])
def test_two_sided_p_refuses_non_positive_degrees_of_freedom(df):
    with pytest.raises(StatsError, match="degrees of freedom must be positive"):
        two_sided_p(1.0, df)


def test_a_continued_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(stats, "_MAX_ITERATIONS", 1)
    with pytest.raises(StatsError, match="failed to converge"):
        regularized_incomplete_beta(5.0, 0.5, 0.3)


def test_zero_mean_difference_gives_t_zero_p_one():
    result = paired_t_test([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0])
    assert result.t == 0.0
    assert result.p == 1.0
    assert result.dz == 0.0


def test_antisymmetry_swapping_samples():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 12)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        try:
            forward = paired_t_test(xs, ys)
            backward = paired_t_test(ys, xs)
        except ZeroVarianceError:
            continue
        assert forward.t == pytest.approx(-backward.t, abs=1e-9)
        assert forward.p == pytest.approx(backward.p, abs=1e-9)
        assert abs(forward.dz) == pytest.approx(abs(backward.dz), abs=1e-9)


def test_dz_equals_t_over_sqrt_n():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 20)
        xs = [rng.uniform(0, 100) for _ in range(n)]
        ys = [rng.uniform(0, 100) for _ in range(n)]
        try:
            result = paired_t_test(xs, ys)
        except ZeroVarianceError:
            continue
        assert result.dz == pytest.approx(result.t / math.sqrt(n), abs=1e-12)


def test_p_monotone_in_t():
    previous = 1.0
    for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        p = two_sided_p(t, 12)
        assert p <= previous + 1e-15
        previous = p
