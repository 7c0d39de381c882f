"""Parametric sensor-state distributions and the statistical tests built on them.

A sensor state is a probability law from a small closed family (normal,
uniform, degenerate).  Window-level questions -- "does this sample still look
like state X?", "did the law shift between these two windows?" -- are answered
with Kolmogorov-Smirnov tests.  P-values come from the asymptotic series

    p = 2 * sum_{k>=1} (-1)^(k-1) * exp(-2 k^2 n d^2)

truncated once a term drops below 1e-10 or after 100 terms, and clamped to
[0, 1].  Against a degenerate (point-mass) law the KS statistic is undefined,
so an exact-match test with absolute tolerance 1e-9 is used instead.

The one-sample test runs on many windows of one sample array at once.
``gof_windows`` takes the array and, per window, the positions of its
samples in ascending order of value.  It evaluates the law's CDF once per
element of the array, as one array expression, gathers each window's sorted
CDF row through those positions, and takes each row's KS statistic with a
row-wise maximum.  Windows that overlap share their CDF values, and the
gathered row is the CDF of the sorted window, since equal samples get
equal CDF values.  The KS series is then evaluated once per distinct
statistic, as many windows share one (``1.0`` most often, for a window far
outside a state's law), and with ``math.exp``: numpy's ``exp`` rounds some
arguments differently, and ``report.csv`` writes p-values by ``repr``.
``gof_block`` tests the rows of a sorted block, and ``gof_test`` is the
block test of a single row, so each law's statistic is defined in one
place; ``state_p_values`` sorts its window once for all states.  The array
CDF is the only definition of each law's CDF -- ``cdf`` evaluates it at a
single point -- and it performs the scalar formula's IEEE operations in the
same order, element by element, so it gives the same values as calling
``cdf`` on each sample.

A normal law's CDF is ``0.5 * (1 + erf(z))``, and ``math.erf`` is called
only where ``|z| < ERF_SATURATION`` (6.0); everywhere else erf is taken as
``sign(z)``, i.e. +-1.0.  This assumes that ``math.erf`` itself returns
exactly +-1.0 there.  CPython's ``math.erf`` is the C library's ``erf``,
and the libms derived from fdlibm (glibc, musl, the BSDs) return
``one - tiny``, which rounds to 1.0, on their branch for
``|x| >= 6`` (``ix >= 0x40180000``).  CPython's own fallback computes
``1 - erfc(x)``, and erfc(6) ~ 2.2e-17 is below 2**-54, so that also
rounds to 1.0.  With glibc, ``math.erf`` first returns exactly 1.0 near
x = 5.9216.  On a platform where the assumption fails, the shortcut would
change CDF values in the last bits, as the simulator's no-FMA assumption
would (see ``simulation``); ``test_distributions`` checks it bit for bit.

Every parameter of a law, and the width ``hi - lo`` of a uniform one, must
be finite; the constructors raise ValueError otherwise.  So a uniform value
``lo + (hi - lo) * u`` never meets an infinite width, which numpy's
``uniform`` would refuse with OverflowError but the affine map would not.

Sampling uses numpy's default bit generator (PCG64) seeded explicitly, so a
fixed (distribution, seed, n) always reproduces the same sequence on a given
platform.  ``draw`` calls numpy's ``normal`` and ``uniform``; the simulator
draws standard variates (``standard_normal``, and ``random_sample`` of a
``RandomState`` on the same bit generator) and applies each law's affine
map itself, which gives the same values bit for bit (see ``simulation``),
so ``draw`` is the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Verdict returned by match_state when no state fits.  Reserved: a sensor
# state label may never equal this token.
ANOMALOUS = "ANOMALOUS"

# Absolute tolerance of the exact-match test against a point mass.
DEGENERATE_TOLERANCE = 1e-9

# math.erf returns exactly +-1.0 at and beyond this |z| (module docstring).
ERF_SATURATION = 6.0

_SERIES_MAX_TERMS = 100
_SERIES_EPS = 1e-10


def _check_finite(kind: str, name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{kind} {name} must be finite, got {value}")


@dataclass(frozen=True)
class Normal:
    mean: float
    stddev: float

    def __post_init__(self):
        _check_finite("normal", "mean", self.mean)
        _check_finite("normal", "stddev", self.stddev)
        if not self.stddev > 0:
            raise ValueError(f"normal stddev must be > 0, got {self.stddev}")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        _check_finite("uniform", "lo", self.lo)
        _check_finite("uniform", "hi", self.hi)
        if not self.lo < self.hi:
            raise ValueError(f"uniform bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        _check_finite("uniform", "width", float(self.hi) - float(self.lo))


@dataclass(frozen=True)
class Degenerate:
    value: float

    def __post_init__(self):
        _check_finite("degenerate", "value", self.value)


Distribution = Normal | Uniform | Degenerate


@dataclass(frozen=True)
class TestResult:
    """Outcome of a goodness-of-fit or two-sample test."""

    statistic: float
    p_value: float
    sample_size: int


def draw(dist: Distribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` values from ``dist`` using an existing generator."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if isinstance(dist, Normal):
        return rng.normal(dist.mean, dist.stddev, n)
    if isinstance(dist, Uniform):
        return rng.uniform(dist.lo, dist.hi, n)
    if isinstance(dist, Degenerate):
        return np.full(n, dist.value, dtype=float)
    raise TypeError(f"not a distribution: {dist!r}")


def sample(dist: Distribution, seed: int, n: int) -> np.ndarray:
    """Draw ``n`` values from ``dist``; deterministic for a fixed seed."""
    return draw(dist, np.random.default_rng(seed), n)


def cdf(dist: Distribution, x: float) -> float:
    """Cumulative distribution function of ``dist`` at ``x``."""
    return float(_cdf_array(dist, np.array([x], dtype=float))[0])


def _cdf_array(dist: Distribution, xs: np.ndarray) -> np.ndarray:
    """The CDF of ``dist`` at every element of the float array ``xs`` (any shape)."""
    if isinstance(dist, Normal):
        z = (xs - dist.mean) / (dist.stddev * math.sqrt(2.0))
        # erf is +-1.0 from |z| = ERF_SATURATION on (module docstring); NaN stays NaN.
        erf = np.sign(z)
        inside = np.abs(z) < ERF_SATURATION
        erf[inside] = list(map(math.erf, z[inside].tolist()))
        return 0.5 * (1.0 + erf)
    if isinstance(dist, Uniform):
        return np.where(
            xs <= dist.lo,
            0.0,
            np.where(xs >= dist.hi, 1.0, (xs - dist.lo) / (dist.hi - dist.lo)),
        )
    if isinstance(dist, Degenerate):
        return np.where(xs >= dist.value, 1.0, 0.0)
    raise TypeError(f"not a distribution: {dist!r}")


def _ks_p_value(d: float, n_eff: float) -> float:
    """Asymptotic KS p-value for statistic ``d`` at effective sample size ``n_eff``."""
    if d <= 0.0:
        return 1.0
    t = n_eff * d * d
    total = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = math.exp(-2.0 * k * k * t)
        total += term if k % 2 == 1 else -term
        if term < _SERIES_EPS:
            break
    return min(1.0, max(0.0, 2.0 * total))


def _as_sample(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    return arr


def gof_windows(
    values: np.ndarray, positions: np.ndarray, dist: Distribution
) -> tuple[list[float], list[float]]:
    """One-sample goodness-of-fit test of every window of ``values`` against ``dist``.

    ``values`` is a 1-D float array and ``positions`` a k x n integer array
    (k, n >= 1) whose row i holds the positions in ``values`` of window i's
    samples in ascending order of value, so ``values[positions]`` is the
    block of sorted windows.  Returns the k statistics and the k p-values,
    in row order.  Kolmogorov-Smirnov for continuous laws; against a
    Degenerate law the statistic is the largest absolute deviation from the
    point mass and the p-value is 1.0 within DEGENERATE_TOLERANCE, else 0.0.
    The CDF is evaluated once per element of ``values``, however many
    windows share it, and the KS series once per distinct statistic.
    """
    n = positions.shape[1]
    if isinstance(dist, Degenerate):
        stats = np.abs(values - dist.value)[positions].max(axis=1)
        return stats.tolist(), np.where(stats <= DEGENERATE_TOLERANCE, 1.0, 0.0).tolist()
    f = _cdf_array(dist, values)[positions]
    grid = np.arange(1, n + 1) / n
    d_plus = (grid - f).max(axis=1)
    d_minus = (f - (grid - 1.0 / n)).max(axis=1)
    stats = np.maximum(np.maximum(d_plus, d_minus), 0.0).tolist()
    by_stat = {d: _ks_p_value(d, n) for d in set(stats)}
    return stats, [by_stat[d] for d in stats]


def gof_block(ordered: np.ndarray, dist: Distribution) -> tuple[list[float], list[float]]:
    """One-sample goodness-of-fit test of every row of ``ordered`` against ``dist``.

    ``ordered`` is a k x n float array (k, n >= 1) whose rows are sorted
    ascending.  Returns the k statistics and the k p-values, in row order,
    as ``gof_windows`` gives them for the rows laid end to end.
    """
    positions = np.arange(ordered.size).reshape(ordered.shape)
    return gof_windows(ordered.ravel(), positions, dist)


def _gof_row(ordered: np.ndarray, dist: Distribution) -> TestResult:
    stats, p_values = gof_block(ordered[np.newaxis], dist)
    return TestResult(statistic=stats[0], p_value=p_values[0], sample_size=ordered.size)


def gof_test(values: Sequence[float], dist: Distribution) -> TestResult:
    """One-sample goodness-of-fit test of ``values`` against ``dist``: the
    block test (see gof_block) of a single window."""
    return _gof_row(np.sort(_as_sample(values)), dist)


def two_sample_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sample KS test for a distribution shift between ``a`` and ``b``.

    Symmetric in its arguments; the p-value uses the effective sample size
    n_a * n_b / (n_a + n_b).
    """
    xs = np.sort(_as_sample(a))
    ys = np.sort(_as_sample(b))
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_y = np.searchsorted(ys, pooled, side="right") / ys.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = xs.size * ys.size / (xs.size + ys.size)
    return TestResult(statistic=d, p_value=_ks_p_value(d, n_eff), sample_size=xs.size + ys.size)


def _check_state_set(states: Sequence[tuple[str, Distribution]]) -> None:
    if not states:
        raise ValueError("state set must not be empty")
    labels = [label for label, _ in states]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate state labels: {labels}")
    if ANOMALOUS in labels:
        raise ValueError(f"state label {ANOMALOUS!r} is reserved")


def state_p_values(
    values: Sequence[float], states: Sequence[tuple[str, Distribution]]
) -> dict[str, TestResult]:
    """Goodness-of-fit result of ``values`` against every labeled state."""
    _check_state_set(states)
    ordered = np.sort(_as_sample(values))
    return {label: _gof_row(ordered, dist) for label, dist in states}


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless ``alpha`` is a significance level in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def select_state(p_values: Mapping[str, float], alpha: float) -> str:
    """The verdict on a sample given its p-value against every labeled state.

    Each state is tested at the Bonferroni-corrected level alpha/len(p_values).
    Returns the label with the highest p-value among the non-rejected states,
    or ANOMALOUS if every state is rejected.
    """
    check_alpha(alpha)
    level = alpha / len(p_values)
    survivors = [(label, p) for label, p in p_values.items() if p >= level]
    if not survivors:
        return ANOMALOUS
    return max(survivors, key=lambda pair: pair[1])[0]


def match_state(
    values: Sequence[float],
    states: Sequence[tuple[str, Distribution]],
    alpha: float,
) -> str:
    """Match a sample to one state of a finite state set, or declare it anomalous
    (see select_state for the decision rule)."""
    results = state_p_values(values, states)
    return select_state({label: r.p_value for label, r in results.items()}, alpha)
