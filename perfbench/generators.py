"""Seeded scenario generators for the relay-diagnose and plant-monitor workloads.

Each generator returns the scenario as a YAML-ready mapping plus the label
schedule every sensor must follow in the fault-free reference run and in the
faulty run.  The schedules are derived from the generator's own rule design
(every rule is "upstream label x -> downstream label f(x) after d ticks", with
a rule for every upstream label), never from the package's simulator, so the
benchmark can check the program's traces against them.

The seed changes values, levels, loop phases and which cells fail; it never
changes the size or the timing structure of a scenario, so the amount of
work per pass is the same for every seed.

Regenerate the inputs of one seed with::

    python3 perfbench/generators.py --workload plant-monitor --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

WINDOW = 50
STRIDE = 25
ALPHA = 0.01


@dataclass(frozen=True)
class Generated:
    """A generated scenario and its expected label schedules."""

    scenario: dict
    reference: dict[str, list[str]]
    faulty: dict[str, list[str]]
    facts: dict

    def yaml_text(self) -> str:
        return yaml.safe_dump(self.scenario, sort_keys=False)


def _rule(guard: dict[str, str], target: str, state: str, delay: int) -> dict:
    return {"when": guard, "then": [{"sensor": target, "state": state, "delay": delay}]}


def _follow(upstream: list[str], mapping: dict[str, str], delay: int, initial: str) -> list[str]:
    """Labels of a sensor whose rules copy ``mapping[upstream]`` after ``delay`` ticks."""
    return [initial if t < delay else mapping[upstream[t - delay]] for t in range(len(upstream))]


# ---------------------------------------------------------------------------
# relay-diagnose
# ---------------------------------------------------------------------------

RELAY_STAGES = 10
RELAY_LOOPS = 3
RELAY_HORIZON = 200
RELAY_SWITCH_TICK = 20
_LOOP_PHASES = (("Hot", "Open"), ("Hot", "Closed"), ("Cold", "Closed"), ("Cold", "Open"))


def relay_diagnose(seed: int) -> Generated:
    """A relay line s00 -> s01 -> ... with point-mass Lo/Hi readings.

    Component ``cNN`` owns (s[NN-1], sNN) and copies the upstream label one
    tick later.  ``s00`` is switched to Hi at RELAY_SWITCH_TICK, so stage i
    turns Hi at RELAY_SWITCH_TICK + i.  The mid-line component ``c[k]`` has
    its rule table emptied from tick 0, so stages k..N-1 stay Lo in the faulty
    run.  Thermostat-style loops (controller + plant over temp/valve) run
    beside the line with period four and never hold a label long enough to be
    windowed.
    """
    rng = random.Random(f"relay-diagnose:{seed}")
    n, horizon = RELAY_STAGES, RELAY_HORIZON
    faulted = n // 2
    stage = [f"s{i:02d}" for i in range(n)]
    sensors, subsystems = [], []
    for i, sid in enumerate(stage):
        lo = 100 * i + rng.randint(0, 40)
        hi = lo + rng.randint(10, 50)
        sensors.append(
            {
                "id": sid,
                "initial": "Lo",
                "states": [
                    {"label": "Lo", "dist": f"degenerate({lo})"},
                    {"label": "Hi", "dist": f"degenerate({hi})"},
                ],
            }
        )
    for i in range(1, n):
        up, down = stage[i - 1], stage[i]
        subsystems.append(
            {
                "id": f"c{i:02d}",
                "kind": "component",
                "sensors": [up, down],
                "rules": [_rule({up: lbl}, down, lbl, 1) for lbl in ("Lo", "Hi")],
            }
        )

    reference: dict[str, list[str]] = {}
    for i, sid in enumerate(stage):
        on = RELAY_SWITCH_TICK + i
        reference[sid] = ["Lo" if t < on else "Hi" for t in range(horizon)]
    faulty = {
        sid: (reference[sid] if i < faulted else ["Lo"] * horizon)
        for i, sid in enumerate(stage)
    }

    for j in range(RELAY_LOOPS):
        temp, valve = f"loop{j}_temp", f"loop{j}_valve"
        cold = rng.uniform(10.0, 20.0)
        hot = cold + rng.uniform(50.0, 70.0)
        phase = rng.randrange(4)
        sensors.append(
            {
                "id": temp,
                "initial": _LOOP_PHASES[phase][0],
                "states": [
                    {"label": "Cold", "dist": f"normal({cold:.3f}, 1)"},
                    {"label": "Hot", "dist": f"normal({hot:.3f}, 1)"},
                ],
            }
        )
        sensors.append(
            {
                "id": valve,
                "initial": _LOOP_PHASES[phase][1],
                "states": [
                    {"label": "Open", "dist": "degenerate(1)"},
                    {"label": "Closed", "dist": "degenerate(0)"},
                ],
            }
        )
        subsystems.append(
            {
                "id": f"loop{j}_ctrl",
                "kind": "component",
                "sensors": [temp, valve],
                "rules": [
                    _rule({temp: "Hot"}, valve, "Closed", 1),
                    _rule({temp: "Cold"}, valve, "Open", 1),
                ],
            }
        )
        subsystems.append(
            {
                "id": f"loop{j}_plant",
                "kind": "component",
                "sensors": [valve, temp],
                "rules": [
                    _rule({valve: "Closed"}, temp, "Cold", 1),
                    _rule({valve: "Open"}, temp, "Hot", 1),
                ],
            }
        )
        # Controller and plant each react one tick later, so the joint label
        # walks the four phases in order.
        cycle = [_LOOP_PHASES[(phase + t) % 4] for t in range(horizon)]
        reference[temp] = faulty[temp] = [c[0] for c in cycle]
        reference[valve] = faulty[valve] = [c[1] for c in cycle]

    scenario = {
        "name": f"relay-diagnose-{seed}",
        "seed": rng.randrange(1_000_000),
        "horizon": horizon,
        "detection": {"window": WINDOW, "stride": STRIDE, "alpha": ALPHA},
        "sensors": sensors,
        "subsystems": subsystems,
        "script": {
            "interventions": [{"tick": RELAY_SWITCH_TICK, "sensor": stage[0], "state": "Hi"}],
            "faults": [{"component": f"c{faulted:02d}", "activation": 0, "rules": []}],
        },
    }
    facts = {
        "faulted": f"c{faulted:02d}",
        "deviating": stage[faulted:],
        "hypotheses": [[f"c{faulted:02d}"], [f"c{faulted + 1:02d}"]],
    }
    return Generated(scenario, reference, faulty, facts)


# ---------------------------------------------------------------------------
# plant-monitor
# ---------------------------------------------------------------------------

PLANT_CELLS = 8
PLANT_INTERLOCK = 7
PLANT_FAULTY_CELLS = 3
PLANT_HORIZON = 1200
PLANT_CHANGE_TICKS = (150, 400, 650, 900)
PLANT_FAULT_TICK = 520
ACT_DELAY, PROC_DELAY, QUAL_DELAY = 2, 3, 2
LEVELS = 4  # states per sensor; set-points use levels 0..2, level 3 is the runaway state


def _level_map(src: str, dst: str) -> dict[str, str]:
    return {f"{src}{x}": f"{dst}{x}" for x in range(LEVELS)}


def plant_monitor(seed: int) -> Generated:
    """Cells of command -> actuator -> process -> quality, plus an interlock.

    Each cell's three components copy level x of the upstream sensor into
    level x of the downstream one after a fixed delay.  Set-point changes at
    PLANT_CHANGE_TICKS move every cell's command to a new level 0..2.  In the
    faulty run the process component of PLANT_FAULTY_CELLS cells is replaced
    at PLANT_FAULT_TICK by one rule that drives the process sensor to the
    runaway level 3.  The interlock owns the process sensors of the first
    PLANT_INTERLOCK cells plus ``trip``; it trips only if every guarded
    process sensor runs away, which no run reaches, so ``trip`` stays Ok.
    """
    rng = random.Random(f"plant-monitor:{seed}")
    horizon = PLANT_HORIZON
    sensors, subsystems, interventions, faults = [], [], [], []
    reference: dict[str, list[str]] = {}
    faulty: dict[str, list[str]] = {}
    faulty_cells = sorted(rng.sample(range(PLANT_CELLS), PLANT_FAULTY_CELLS))

    def levels(prefix: str, make) -> list[dict]:
        return [{"label": f"{prefix}{x}", "dist": make(x)} for x in range(LEVELS)]

    for j in range(PLANT_CELLS):
        cmd, act, proc, qual = (f"cell{j}_{k}" for k in ("cmd", "act", "proc", "qual"))
        base = 1000.0 * j
        cmd_values = rng.sample(range(10, 90), LEVELS)
        act_lo = base + rng.uniform(0.0, 5.0)
        proc_mean = base + 300.0 + rng.uniform(0.0, 20.0)
        proc_sd = rng.uniform(1.0, 3.0)
        qual_lo = base + 700.0 + rng.uniform(0.0, 5.0)
        sensors += [
            {"id": cmd, "initial": "L0", "states": levels("L", lambda x: f"degenerate({cmd_values[x]})")},
            {
                "id": act,
                "initial": "A0",
                "states": levels("A", lambda x: f"uniform({act_lo + 20 * x:.3f}, {act_lo + 20 * x + 8:.3f})"),
            },
            {
                "id": proc,
                "initial": "P0",
                "states": levels("P", lambda x: f"normal({proc_mean + 60 * x:.3f}, {proc_sd:.3f})"),
            },
            {
                "id": qual,
                "initial": "Q0",
                "states": levels("Q", lambda x: f"uniform({qual_lo + 30 * x:.3f}, {qual_lo + 30 * x + 10:.3f})"),
            },
        ]
        for comp, up, down, src, dst, delay in (
            (f"cell{j}_actuator", cmd, act, "L", "A", ACT_DELAY),
            (f"cell{j}_process", act, proc, "A", "P", PROC_DELAY),
            (f"cell{j}_inspection", proc, qual, "P", "Q", QUAL_DELAY),
        ):
            subsystems.append(
                {
                    "id": comp,
                    "kind": "component",
                    "sensors": [up, down],
                    "rules": [_rule({up: f"{src}{x}"}, down, f"{dst}{x}", delay) for x in range(LEVELS)],
                }
            )

        level, cmd_labels, prev = 0, [], 0
        for tick in PLANT_CHANGE_TICKS:
            cmd_labels += [f"L{level}"] * (tick - prev)
            level = rng.choice([x for x in range(3) if x != level])
            interventions.append({"tick": tick, "sensor": cmd, "state": f"L{level}"})
            prev = tick
        cmd_labels += [f"L{level}"] * (horizon - prev)
        act_labels = _follow(cmd_labels, _level_map("L", "A"), ACT_DELAY, "A0")
        proc_labels = _follow(act_labels, _level_map("A", "P"), PROC_DELAY, "P0")
        reference.update({cmd: cmd_labels, act: act_labels, proc: proc_labels})
        reference[qual] = _follow(proc_labels, _level_map("P", "Q"), QUAL_DELAY, "Q0")
        faulty.update({cmd: cmd_labels, act: act_labels})
        if j in faulty_cells:
            # Effects queued before the fault still land; the replacement rule
            # fires from PLANT_FAULT_TICK on and lands PROC_DELAY ticks later.
            runaway = PLANT_FAULT_TICK + PROC_DELAY
            proc_labels = proc_labels[:runaway] + [f"P{LEVELS - 1}"] * (horizon - runaway)
            faults.append(
                {
                    "component": f"cell{j}_process",
                    "activation": PLANT_FAULT_TICK,
                    "rules": [_rule({}, proc, f"P{LEVELS - 1}", PROC_DELAY)],
                }
            )
        faulty[proc] = proc_labels
        faulty[qual] = _follow(proc_labels, _level_map("P", "Q"), QUAL_DELAY, "Q0")

    guarded = [f"cell{j}_proc" for j in range(PLANT_INTERLOCK)]
    trip_ok = rng.uniform(0.0, 1.0)
    sensors.append(
        {
            "id": "trip",
            "initial": "Ok",
            "states": [
                {"label": "Ok", "dist": f"uniform({trip_ok:.3f}, {trip_ok + 1:.3f})"},
                {"label": "Tripped", "dist": f"uniform({trip_ok + 5:.3f}, {trip_ok + 6:.3f})"},
            ],
        }
    )
    subsystems.append(
        {
            "id": "interlock",
            "kind": "component",
            "sensors": guarded + ["trip"],
            "rules": [
                _rule({s: "P0" for s in guarded}, "trip", "Ok", 1),
                _rule({s: f"P{LEVELS - 1}" for s in guarded}, "trip", "Tripped", 1),
            ],
        }
    )
    reference["trip"] = faulty["trip"] = ["Ok"] * horizon

    scenario = {
        "name": f"plant-monitor-{seed}",
        "seed": rng.randrange(1_000_000),
        "horizon": horizon,
        "detection": {"window": WINDOW, "stride": STRIDE, "alpha": ALPHA},
        "sensors": sensors,
        "subsystems": subsystems,
        "script": {"interventions": interventions, "faults": faults},
    }
    facts = {"faulty_cells": faulty_cells}
    return Generated(scenario, reference, faulty, facts)


GENERATORS = {"relay-diagnose": relay_diagnose, "plant-monitor": plant_monitor}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for scenario.yaml and schedules.json")
    args = parser.parse_args()
    generated = GENERATORS[args.workload](args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scenario.yaml").write_text(generated.yaml_text(), encoding="utf-8")
    schedules = {"reference": generated.reference, "faulty": generated.faulty, "facts": generated.facts}
    (out / "schedules.json").write_text(json.dumps(schedules), encoding="utf-8")
    print(f"wrote {out / 'scenario.yaml'} and {out / 'schedules.json'}")


if __name__ == "__main__":
    main()
