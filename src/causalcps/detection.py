"""Windowed distribution-shift and anomaly detection on traces.

Windows slide inside maximal runs of a constant ground-truth label.  Windows
that straddle a label change mix two laws and would be rejected against every
state by construction, so they are skipped; localizing a change finer than the
window stride is out of scope.  For scan_anomalies the segmentation comes from
the trace's own labels, for expected_state_check from the fault-free reference
run being compared against.

Both functions test all windows of a sensor in one array pass: the windows
are gathered from a sliding-window view of the sensor's values into one
k x window block (no window is sliced out on its own), each row is sorted
once, and every state's law is tested over the whole block with
``distributions.gof_block``.  The p-values are those ``state_p_values`` gives
window by window; each verdict is chosen from them by ``select_state``.  Both
functions reject a bad window, stride or alpha on entry, even when there is
no window to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import (
    ANOMALOUS,
    Distribution,
    TestResult,
    check_alpha,
    gof_block,
    select_state,
    two_sample_test,
)
from .model import SystemModel
from .simulation import Trace

DEFAULT_WINDOW = 50
DEFAULT_STRIDE = 25
DEFAULT_ALPHA = 0.01


@dataclass(frozen=True)
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
    test; an effect is declared iff p < alpha.
    """
    if t - window < 0 or t + window > len(trace):
        raise ValueError(
            f"windows [{t - window}, {t + window}) out of range for trace of length {len(trace)}"
        )
    values = trace.values_for(sensor)
    result = two_sample_test(values[t - window : t], values[t : t + window])
    return result.p_value < alpha, result


def _window_p_values(
    values: np.ndarray,
    starts: list[int],
    window: int,
    states: Sequence[tuple[str, Distribution]],
) -> list[dict[str, float]]:
    """The p-value of every window ``values[start : start + window]`` against
    every labeled state, one dict per start: one sort per window, one block
    test per state."""
    if not starts:
        return []
    block = np.sort(sliding_window_view(values, window)[starts], axis=1)
    labels = [label for label, _ in states]
    columns = [gof_block(block, dist)[1] for _, dist in states]
    return [dict(zip(labels, row)) for row in zip(*columns)]


def scan_anomalies(
    trace: Trace,
    model: SystemModel,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    alpha: float = DEFAULT_ALPHA,
) -> AnomalyReport:
    """Match every constant-label window of every sensor against its state set.

    Each window's goodness-of-fit tests run once; the verdict is chosen from
    their p-values."""
    _check_window(window, stride)
    check_alpha(alpha)
    verdicts = []
    for sensor_id in trace.sensor_ids:
        codes = trace.codes_for(sensor_id)
        starts = [start for start, _ in constant_label_windows(codes, window, stride)]
        states = model.sensor(sensor_id).states
        p_values = _window_p_values(trace.values_for(sensor_id), starts, window, states)
        verdicts.extend(
            WindowVerdict(
                sensor=sensor_id,
                start=start,
                length=window,
                matched=select_state(window_p, alpha),
                p_values=window_p,
                alpha=alpha,
            )
            for start, window_p in zip(starts, p_values)
        )
    return AnomalyReport(window=window, stride=stride, alpha=alpha, verdicts=tuple(verdicts))


def expected_state_check(
    trace: Trace,
    reference: Trace,
    model: SystemModel,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    alpha: float = DEFAULT_ALPHA,
) -> list[Deviation]:
    """Compare a trace against the time-dependent expectations of a reference run.

    The reference trace must come from a fault-free run of the same scenario.
    For every window in which the reference holds a constant label, the trace's
    values are matched against the sensor's state set; a deviation is emitted
    whenever the matched state differs from the reference label or is
    ANOMALOUS.
    """
    _check_window(window, stride)
    check_alpha(alpha)
    if len(trace) != len(reference):
        raise ValueError(
            f"trace/reference length mismatch: {len(trace)} vs {len(reference)}"
        )
    if set(trace.sensor_ids) != set(reference.sensor_ids):
        raise ValueError("trace and reference cover different sensor sets")
    deviations = []
    for sensor_id in trace.sensor_ids:
        table = reference.label_table(sensor_id)
        windows = list(constant_label_windows(reference.codes_for(sensor_id), window, stride))
        starts = [start for start, _ in windows]
        states = model.sensor(sensor_id).states
        p_values = _window_p_values(trace.values_for(sensor_id), starts, window, states)
        for (start, code), window_p in zip(windows, p_values):
            expected = table[code]
            matched = select_state(window_p, alpha)
            if matched != expected:
                deviations.append(
                    Deviation(sensor=sensor_id, start=start, expected=expected, matched=matched)
                )
    return deviations
