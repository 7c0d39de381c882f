"""Output checks computed apart from the package.

Everything here reads the CLI's CSV artifacts with the standard ``csv``
module and the scenario text with plain ``yaml``; nothing imports
``causalcps``.  The window enumeration, the plant detection checks and the
brute-force planner are independent re-implementations of what the method
must produce, so they can be compared with the program's outputs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def trace_labels(text: str) -> dict[str, list[str]]:
    """Per-sensor label sequence of a trace CSV, checking ticks are contiguous."""
    labels: dict[str, list[str]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        sequence = labels.setdefault(row["sensor_id"], [])
        if int(row["tick"]) != len(sequence):
            raise ValueError(f"trace CSV: sensor {row['sensor_id']} skips to tick {row['tick']}")
        sequence.append(row["state_label"])
    return labels


def label_windows(labels: list[str], window: int, stride: int) -> list[tuple[int, str]]:
    """(start, label) of every stride-aligned window inside a maximal constant-label run."""
    found = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[run_start]:
            found.extend((s, labels[run_start]) for s in range(run_start, i - window + 1, stride))
            run_start = i
    return found


def plant_detection(
    reference: dict[str, list[str]],
    faulty: dict[str, list[str]],
    deviations: list[dict[str, str]],
    window: int,
    stride: int,
) -> tuple[list[tuple[str, int]], int, int]:
    """Compare reported deviations with the generator's schedules.

    Returns the departing windows without a deviation (a window departs when
    the faulty label differs from the reference label on every tick of it),
    the number of agreeing windows (faulty label equals the reference label
    on every tick) that report a deviation anyway, and the number of
    agreeing windows.
    """
    reported = {(d["sensor_id"], int(d["window_start"])) for d in deviations}
    missed, false_alarms, agreeing = [], 0, 0
    for sensor, expected_labels in reference.items():
        actual = faulty[sensor]
        for start, expected in label_windows(expected_labels, window, stride):
            span = actual[start : start + window]
            if all(label != expected for label in span):
                if (sensor, start) not in reported:
                    missed.append((sensor, start))
            elif all(label == expected for label in span):
                agreeing += 1
                false_alarms += (sensor, start) in reported
    return missed, false_alarms, agreeing


def _product_problem(raw: dict) -> tuple[dict[str, str], int, list]:
    sensors = {s["id"]: s for s in raw["sensors"]}
    product = [
        sid
        for sub in raw["subsystems"]
        if sub["kind"] == "product"
        for sid in sub["sensors"]
    ]
    initial = {sid: sensors[sid]["initial"] for sid in product}
    n_states = math.prod(len(sensors[sid]["states"]) for sid in initial)
    actions = [
        (f, float(p)) for f in raw.get("functionalities", []) for p in f["parameters"]
    ]
    return initial, n_states, actions


def _apply(functionality: dict, param: float, state: dict[str, str]) -> dict[str, str]:
    for entry in functionality.get("transitions", []):
        if float(entry["param"]) == param and all(
            state[k] == v for k, v in entry.get("when", {}).items()
        ):
            return {**state, **entry.get("then", {})}
    return state


def brute_force_minimum(raw: dict, goal: dict[str, str]) -> int | None:
    """Least total duration of any action sequence reaching ``goal``.

    A cheapest plan never revisits a product state, so sequences longer than
    the number of product states minus one need not be tried.
    """
    initial, n_states, actions = _product_problem(raw)
    best = None
    for length in range(n_states):
        for sequence in itertools.product(actions, repeat=length):
            state, duration = initial, 0
            for functionality, param in sequence:
                state = _apply(functionality, param, state)
                duration += functionality["duration"]
            if all(state[k] == v for k, v in goal.items()) and (best is None or duration < best):
                best = duration
    return best
