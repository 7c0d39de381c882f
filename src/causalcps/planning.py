"""Production planning over product states.

A module's functionality transforms product properties: for a given parameter
value it maps a matching partial product state to a new partial product state,
taking a fixed number of ticks.  Planning is uniform-cost search over total
product states with (functionality, parameter) as the action set and duration
as the cost; ties break on plan length, then on the per-step keys
(module id, functionality name, parameter position), so the returned plan does
not depend on the order functionalities were declared in.  A heap entry holds
a partial plan as its step keys alone; steps are built once, for the plan
returned.  Transition tables are checked and applied by the model's guard code:
each functionality indexes its transitions by parameter value and by their
label on the pivot sensor (``model.pivot_groups``), with the grouping that
its overlap check computes, so applying it tests only the guards that can
match.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import first_overlap, holds, pivot_groups


@dataclass(frozen=True)
class TransitionEntry:
    """One row of a functionality's transition table for one parameter value."""

    param: float
    guard: dict[str, str]
    effect: dict[str, str]

    def applies(self, state: Mapping[str, str]) -> bool:
        return holds(self.guard, state)


# The index entry of a parameter value without transitions.
_NO_TRANSITIONS: tuple[None, dict, list] = (None, {}, [])


@dataclass(frozen=True)
class Functionality:
    module: str
    name: str
    parameter_domain: tuple[float, ...]
    transitions: tuple[TransitionEntry, ...]
    duration: int

    def transition(self, param: float, state: Mapping[str, str]) -> TransitionEntry | None:
        """The transition for ``param`` whose guard ``state`` matches, or None.
        At most one matches, since the guards of one parameter value are
        disjoint, and only those with the state's label on the pivot, or
        none, are tried."""
        pivot, by_label, free = self._index.get(param, _NO_TRANSITIONS)
        for entry in by_label.get(state.get(pivot), free):
            if entry.applies(state):
                return entry
        return None

    def __post_init__(self):
        if not self.parameter_domain:
            raise ValueError(f"functionality {self.module}.{self.name}: empty parameter domain")
        for value in (*self.parameter_domain, *(entry.param for entry in self.transitions)):
            if not math.isfinite(value):
                raise ValueError(
                    f"functionality {self.module}.{self.name}: parameter {value} is not finite"
                )
        if len(set(self.parameter_domain)) != len(self.parameter_domain):
            raise ValueError(f"functionality {self.module}.{self.name}: duplicate parameters")
        if self.duration < 1:
            raise ValueError(f"functionality {self.module}.{self.name}: duration must be >= 1")
        for entry in self.transitions:
            if entry.param not in self.parameter_domain:
                raise ValueError(
                    f"functionality {self.module}.{self.name}: transition parameter "
                    f"{entry.param} outside domain"
                )
        by_param: dict[float, list[TransitionEntry]] = {}
        for entry in self.transitions:
            by_param.setdefault(entry.param, []).append(entry)
        # Per parameter value: the pivot of its transitions' guards, the
        # transitions that can match a state of each label on the pivot (those
        # with the label, then those whose guards do not read the pivot), and
        # the latter alone, for a label no guard has.  Not a dataclass field,
        # so eq, hash and repr skip it.
        index: dict[float, tuple[str | None, dict, list[TransitionEntry]]] = {}
        for param, entries in by_param.items():
            guards = [entry.guard for entry in entries]
            pivot, groups = grouping = pivot_groups(guards)
            # Determinism: for one parameter, no two guards may match the same state.
            if first_overlap(guards, grouping) is not None:
                raise ValueError(
                    f"functionality {self.module}.{self.name}: overlapping "
                    f"transition guards for parameter {param}"
                )
            free = [entries[i] for i in groups.pop(None, [])]
            by_label = {
                label: [entries[i] for i in group] + free for label, group in groups.items()
            }
            index[param] = pivot, by_label, free
        object.__setattr__(self, "_index", index)


@dataclass(frozen=True)
class PlanStep:
    module: str
    functionality: str
    parameter: float


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]
    total_duration: int


@dataclass(frozen=True)
class PlanningProblem:
    functionalities: tuple[Functionality, ...]
    initial: dict[str, str]
    goal: dict[str, str]

    def __post_init__(self):
        unknown = set(self.goal) - set(self.initial)
        if unknown:
            raise ValueError(f"goal references sensors missing from the initial state: {sorted(unknown)}")
        check_distinct_names(self.functionalities)


def check_distinct_names(functionalities: Sequence[Functionality]) -> None:
    """Refuse two functionalities of one module with one name: their steps
    would tie in the search heap on every key."""
    named: set[tuple[str, str]] = set()
    for functionality in functionalities:
        key = (functionality.module, functionality.name)
        if key in named:
            raise ValueError(f"functionality {key[0]}.{key[1]}: declared more than once")
        named.add(key)


def apply_functionality(
    functionality: Functionality, param: float, state: Mapping[str, str]
) -> dict[str, str]:
    """Apply one functionality call to a total product state.

    The matching transition entry's effect overwrites the state; sensors it
    does not mention are unchanged, and with no matching entry the state is
    returned as-is.
    """
    if param not in functionality.parameter_domain:
        raise ValueError(
            f"parameter {param} outside domain of "
            f"{functionality.module}.{functionality.name}"
        )
    entry = functionality.transition(param, state)
    return dict(state) if entry is None else {**state, **entry.effect}


def plan(problem: PlanningProblem) -> Plan | None:
    """Minimum-total-duration plan from the initial state to the goal, or None.

    Uniform-cost search; the product state space is finite, so exhausting the
    frontier proves the goal unreachable.
    """
    actions = sorted(
        (
            ((f.module, f.name, idx), f, param)
            for f in problem.functionalities
            for idx, param in enumerate(f.parameter_domain)
        ),
        key=lambda item: item[0],
    )

    start = tuple(sorted(problem.initial.items()))
    # Heap entries are fully ordered: (duration, length, step keys) is unique
    # per action sequence, strictly increases along expansions, and equal
    # sequences produce equal states.  The first pop of a state is therefore
    # its minimum, independent of functionality declaration order.
    heap: list[tuple[int, int, tuple, tuple]] = [(0, 0, (), start)]
    settled: set[tuple] = set()
    while heap:
        duration, length, keys, state_key = heapq.heappop(heap)
        if state_key in settled:
            continue
        settled.add(state_key)
        state = dict(state_key)
        if holds(problem.goal, state):
            param_of = {key: param for key, _, param in actions}
            steps = tuple(PlanStep(key[0], key[1], param_of[key]) for key in keys)
            return Plan(steps=steps, total_duration=duration)
        for key, functionality, param in actions:
            successor = apply_functionality(functionality, param, state)
            new_key = tuple(sorted(successor.items()))
            if new_key == state_key or new_key in settled:
                continue
            heapq.heappush(
                heap,
                (duration + functionality.duration, length + 1, keys + (key,), new_key),
            )
    return None


def validate_plan(the_plan: Plan | None, problem: PlanningProblem) -> bool:
    """Check a plan by folding apply_functionality from the initial state."""
    if the_plan is None:
        return False
    lookup = {(f.module, f.name): f for f in problem.functionalities}
    state = dict(problem.initial)
    total = 0
    for step in the_plan.steps:
        functionality = lookup.get((step.module, step.functionality))
        if functionality is None:
            return False
        try:
            state = apply_functionality(functionality, step.parameter, state)
        except ValueError:
            return False
        total += functionality.duration
    if total != the_plan.total_duration:
        return False
    return holds(problem.goal, state)
