"""Windowed distribution-shift and anomaly detection on traces.

Windows slide inside maximal runs of a constant ground-truth label.  Windows
that straddle a label change mix two laws and would be rejected against every
state by construction, so they are skipped; localizing a change finer than the
window stride is out of scope.  For scan_anomalies the segmentation comes from
the trace's own labels, for expected_state_check from the fault-free reference
run being compared against.

Both functions test all windows of a sensor in one array pass.  The windows
are gathered from the span they cover, ``values[starts[0] : starts[-1] +
window]``, into one k x window block (no window is sliced out on its own),
and each row is argsorted once.  Every state's law is then tested with one
``distributions.gof_windows`` call on the span and those positions, which
evaluates the CDF once per sample of the span: at the default window 50 and
stride 25 every sample sits in two windows, so that halves the CDF
evaluations.  The p-values are those ``state_p_values`` gives window by
window.

The verdicts of a block are one array step: the first state of highest
p-value (``argmax`` keeps the first maximum in state order), or ANOMALOUS
where that p-value is below ``alpha / len(states)``.  That is
``select_state``'s rule: it keeps the states whose p-value reaches that
level and picks the first of highest p-value among them, and the states of
highest p-value are kept exactly when the highest p-value reaches it.  A
verdict's ``p_values`` are its window's row of that matrix, as Python
floats, and ``WindowVerdict`` has slots.  Both functions reject a bad
window, stride or alpha on entry, even when there is no window to test.

A window that both functions cover is tested once when the check is handed
the scan's report (``scan=``): a window's statistics depend only on its own
samples, so its p-values, and hence its verdict, do not depend on the other
windows of its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .distributions import (
    ANOMALOUS,
    Distribution,
    TestResult,
    check_alpha,
    gof_windows,
    two_sample_test,
)
from .model import SystemModel
from .simulation import Trace

DEFAULT_WINDOW = 50
DEFAULT_STRIDE = 25
DEFAULT_ALPHA = 0.01


@dataclass(frozen=True, slots=True)
class WindowVerdict:
    """Outcome of matching one window of one sensor against its state set."""

    sensor: str
    start: int
    length: int
    matched: str
    p_values: dict[str, float]
    alpha: float

    @property
    def anomalous(self) -> bool:
        return self.matched == ANOMALOUS

    @property
    def p_best(self) -> float:
        return max(self.p_values.values())


@dataclass(frozen=True)
class AnomalyReport:
    window: int
    stride: int
    alpha: float
    verdicts: tuple[WindowVerdict, ...]

    def anomalous_verdicts(self) -> list[WindowVerdict]:
        return [v for v in self.verdicts if v.anomalous]


@dataclass(frozen=True)
class Deviation:
    """A window whose matched state differs from the expected one."""

    sensor: str
    start: int
    expected: str
    matched: str


def _check_window(window: int, stride: int) -> None:
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")


def constant_label_windows(
    labels: Sequence[str] | np.ndarray, window: int, stride: int
) -> Iterator[tuple[int, str | int]]:
    """Yield (start, label) for every stride-aligned window inside a maximal
    constant-label segment.  ``labels`` may be labels or label codes; the
    segment boundaries come from one comparison of adjacent entries."""
    _check_window(window, stride)
    labels = np.asarray(labels)
    if not len(labels):
        return
    bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(labels)]
    for seg_start, seg_end, label in zip(bounds, bounds[1:], labels[bounds[:-1]].tolist()):
        for start in range(seg_start, seg_end - window + 1, stride):
            yield start, label


def detect_effect(
    trace: Trace, sensor: str, t: int, window: int, alpha: float
) -> tuple[bool, TestResult]:
    """Test for a distribution shift of ``sensor`` at tick ``t``.

    Compares the windows [t-window, t) and [t, t+window) with the two-sample
    test; an effect is declared iff p < alpha.  A window below 1 or an alpha
    outside (0, 1) is rejected with ValueError.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    check_alpha(alpha)
    if t - window < 0 or t + window > len(trace):
        raise ValueError(
            f"windows [{t - window}, {t + window}) out of range for trace of length {len(trace)}"
        )
    values = trace.values_for(sensor)
    result = two_sample_test(values[t - window : t], values[t : t + window])
    return result.p_value < alpha, result


def _window_verdicts(
    values: np.ndarray,
    starts: list[int],
    window: int,
    states: Sequence[tuple[str, Distribution]],
    alpha: float,
) -> tuple[list[str], list[list[float]]]:
    """The verdict on every window ``values[start : start + window]``, one
    per start (``starts`` ascending), and each window's p-values against
    every labeled state, one row per window in state order (see the module
    docstring)."""
    if not starts:
        return [], []
    first = starts[0]
    span = values[first : starts[-1] + window]
    offsets = np.subtract(starts, first)[:, np.newaxis]
    positions = span[offsets + np.arange(window)].argsort(axis=1)
    positions += offsets
    p_values = np.array([gof_windows(span, positions, dist)[1] for _, dist in states])
    fits = (p_values.max(axis=0) >= alpha / len(states)).tolist()
    labels = [label for label, _ in states]
    matched = [
        labels[best] if fit else ANOMALOUS
        for best, fit in zip(p_values.argmax(axis=0).tolist(), fits)
    ]
    return matched, p_values.T.tolist()


def scan_anomalies(
    trace: Trace,
    model: SystemModel,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    alpha: float = DEFAULT_ALPHA,
) -> AnomalyReport:
    """Match every constant-label window of every sensor against its state set.

    Each window's goodness-of-fit tests run once; the verdict is chosen from
    their p-values.  Sensors are taken in sorted id order, whatever the order
    of the trace's columns."""
    _check_window(window, stride)
    check_alpha(alpha)
    verdicts = []
    for sensor_id in sorted(trace.sensor_ids):
        codes = trace.codes_for(sensor_id)
        starts = [start for start, _ in constant_label_windows(codes, window, stride)]
        states = model.sensor(sensor_id).states
        matched, rows = _window_verdicts(
            trace.values_for(sensor_id), starts, window, states, alpha
        )
        labels = [label for label, _ in states]
        p_values = [dict(zip(labels, row)) for row in rows]
        # Fields in declaration order: sensor, start, length, matched,
        # p_values, alpha.
        verdicts.extend(
            map(
                WindowVerdict,
                repeat(sensor_id), starts, repeat(window), matched, p_values, repeat(alpha),
            )
        )
    return AnomalyReport(window=window, stride=stride, alpha=alpha, verdicts=tuple(verdicts))


def expected_state_check(
    trace: Trace,
    reference: Trace,
    model: SystemModel,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    alpha: float = DEFAULT_ALPHA,
    *,
    scan: AnomalyReport | None = None,
) -> list[Deviation]:
    """Compare a trace against the time-dependent expectations of a reference run.

    The reference trace must come from a fault-free run of the same scenario.
    For every window in which the reference holds a constant label, the trace's
    values are matched against the sensor's state set; a deviation is emitted
    whenever the matched state differs from the reference label or is
    ANOMALOUS.  Sensors are taken in sorted id order.

    ``scan`` may be ``scan_anomalies``'s report on the same trace with the
    same window, stride and alpha (else ValueError): a window it judged takes
    its verdict and is not tested again.  The deviations are the same, since
    a window's p-values do not depend on which other windows are tested
    with it.
    """
    _check_window(window, stride)
    check_alpha(alpha)
    if len(trace) != len(reference):
        raise ValueError(
            f"trace/reference length mismatch: {len(trace)} vs {len(reference)}"
        )
    if set(trace.sensor_ids) != set(reference.sensor_ids):
        raise ValueError("trace and reference cover different sensor sets")
    judged: dict[str, dict[int, str]] = {}
    if scan is not None:
        if (scan.window, scan.stride, scan.alpha) != (window, stride, alpha):
            raise ValueError(
                f"scan has window {scan.window}, stride {scan.stride}, alpha {scan.alpha}; "
                f"the check has window {window}, stride {stride}, alpha {alpha}"
            )
        for verdict in scan.verdicts:
            judged.setdefault(verdict.sensor, {})[verdict.start] = verdict.matched
    deviations = []
    for sensor_id in sorted(trace.sensor_ids):
        table = reference.label_table(sensor_id)
        windows = list(constant_label_windows(reference.codes_for(sensor_id), window, stride))
        matched = judged.get(sensor_id, {})
        untested = [start for start, _ in windows if start not in matched]
        states = model.sensor(sensor_id).states
        verdicts, _ = _window_verdicts(trace.values_for(sensor_id), untested, window, states, alpha)
        matched.update(zip(untested, verdicts))
        for start, code in windows:
            expected, state = table[code], matched[start]
            if state != expected:
                deviations.append(
                    Deviation(sensor=sensor_id, start=start, expected=expected, matched=state)
                )
    return deviations
