"""Paired-samples statistics with a self-contained Student-t CDF.

The p-value machinery avoids numeric-library dependence: the regularized
incomplete beta function I_x(a, b) is evaluated with the modified Lentz
continued-fraction scheme plus math.lgamma, and the t distribution's CDF
and two-sided tail probabilities are expressed through it:

    P(|T| >= t) = I_{nu/(nu+t^2)}(nu/2, 1/2)

Zero-variance differences are a defined error (ZeroVarianceError), never a
silent NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import StatsError, ZeroVarianceError

_MAX_ITERATIONS = 300
_EPS = 3e-15
_TINY = 1e-300


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _nonzero(v: float) -> float:
    """Lentz's clamp: _TINY in place of a v nearer zero than it; a NaN passes."""
    return _TINY if abs(v) < _TINY else v


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for I_x(a, b)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for numerator in (even, odd):
            d = 1.0 / _nonzero(1.0 + numerator * d)
            c = _nonzero(1.0 + numerator / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:  # tested after the odd step
            return h
    raise StatsError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise StatsError(f"beta parameters must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise StatsError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    )
    # Choose the representation whose continued fraction converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise StatsError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|), the two-sided p-value for an observed statistic."""
    if df <= 0:
        raise StatsError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    dz: float
    n: int


def _paired_differences(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    if len(xs) != len(ys):
        raise StatsError(f"paired samples differ in length: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise StatsError(f"need at least 2 pairs, got {len(xs)}")
    return [float(x) - float(y) for x, y in zip(xs, ys)]


def _mean_sd(diffs: list[float]) -> tuple[float, float]:
    n = len(diffs)
    mean = sum(diffs) / n
    variance = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(variance)
    if sd == 0.0:
        raise ZeroVarianceError("paired differences have zero variance")
    return mean, sd


def paired_t_test(xs: Sequence[float], ys: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test: t = mean(d) / (sd(d)/sqrt(n)), sample sd."""
    diffs = _paired_differences(xs, ys)
    n = len(diffs)
    mean, sd = _mean_sd(diffs)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p=two_sided_p(t, n - 1), dz=t / math.sqrt(n), n=n)
