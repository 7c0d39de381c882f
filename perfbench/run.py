#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulate -> detect -> diagnose -> plan pipeline.

    python3 perfbench/run.py --workload knife-pipeline --seed 1 --seconds 20 --trace 0

Runs one workload in this process, through ``causalcps.cli.main`` with the
package imported from ``src/`` of the checkout this file sits in.  A pass is
the workload's command sequence; passes cycle over the workload's simulation
seeds until ``--seconds`` have gone by.  Every pass is
followed by output checks computed apart from the program.  An operation is
one CLI command or one check; a command that exits non-zero or a check that
does not hold counts as failed.

Every command and every set-up sample is timed between two host speed probes
(``hostspeed.py``), and its time is scaled to the reference host speed, so
that the neighbours' load on a shared host does not move the figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, then prints the per-layer metrics (medians over
the traced passes) and writes the spans to ``perfbench/traces/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import yaml

import checks
import hostspeed
from generators import plant_monitor, relay_diagnose

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "sim_sensor_ticks_per_s": "1/s",
    "detect_windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", "us_per_sensor_tick": "us", "_share": "ratio", "_ratio": "ratio"}
KNIFE_GOALS = ({"knife_hardness": "Hard"}, {"knife_temp": "Hot"}, {"knife_temp": "Hot", "knife_hardness": "Hard"})
FALSE_ALARM_SLACK = 0.02


def _import_package():
    """Import causalcps from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import causalcps

    if Path(causalcps.__file__).resolve().parent != (SRC / "causalcps").resolve():
        raise ImportError(f"causalcps was imported from {causalcps.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A scenario, the command sequence of one pass, and that pass's checks."""

    def __init__(self, work: Path, scenario_path: Path, sim_seeds: list[int]):
        from causalcps.scenario import parse_scenario

        self.work = work
        self.scenario_path = scenario_path
        self.scenario_text = scenario_path.read_text(encoding="utf-8")
        self.raw = yaml.safe_load(self.scenario_text)
        self.doc = parse_scenario(self.scenario_text)
        self.sim_seeds = sim_seeds
        self.sensor_ticks_per_run = self.raw["horizon"] * len(self.raw["sensors"])

    def pass_dir(self, sim_seed: int) -> Path:
        path = self.work / f"seed{sim_seed}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def commands(self, sim_seed: int) -> list[tuple[str, list[str]]]:
        d, s = self.pass_dir(sim_seed), str(self.scenario_path)
        return [
            ("simulate", ["simulate", s, "--out", str(d / "faulty.csv"), "--seed", str(sim_seed)]),
            (
                "simulate",
                ["simulate", s, "--out", str(d / "reference.csv"), "--seed", str(sim_seed + 1), "--no-faults"],
            ),
            (
                "detect",
                [
                    "detect", s, "--trace", str(d / "faulty.csv"), "--reference", str(d / "reference.csv"),
                    "--out", str(d / "report.csv"), "--deviations-out", str(d / "deviations.csv"),
                ],
            ),
        ]

    def diagnose_command(self, sim_seed: int, max_card: int) -> tuple[str, list[str]]:
        d = self.pass_dir(sim_seed)
        argv = ["diagnose", str(self.scenario_path), "--deviations", str(d / "deviations.csv")]
        return "diagnose", argv + ["--out", str(d / "diagnosis.csv"), "--max-card", str(max_card)]

    def detect_windows(self, d: Path) -> int:
        """Windows the detect command tests: the anomaly scan's plus the expected-state check's."""
        scanned = len(checks.read_rows(d / "report.csv"))
        reference = checks.trace_labels((d / "reference.csv").read_text(encoding="utf-8"))
        expected = sum(
            len(checks.label_windows(labels, self.doc.window, self.doc.stride))
            for labels in reference.values()
        )
        return scanned + expected

    def check(self, d: Path) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class KnifePipeline(Workload):
    """The bundled knife scenario over three simulation seeds."""

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"knife-pipeline:{seed}")
        super().__init__(work, ROOT / "scenarios" / "knife.yaml", rng.sample(range(1_000_000), 3))
        self.minimum = [checks.brute_force_minimum(self.raw, goal) for goal in KNIFE_GOALS]

    def commands(self, sim_seed):
        d, s = self.pass_dir(sim_seed), str(self.scenario_path)
        cmds = super().commands(sim_seed) + [self.diagnose_command(sim_seed, 3)]
        for i, goal in enumerate(KNIFE_GOALS):
            argv = ["plan", s, "--out", str(d / f"plan{i}.csv")]
            for sensor, state in goal.items():
                argv += ["--goal", f"{sensor}={state}"]
            cmds.append(("plan", argv))
        return cmds

    def check(self, d):
        from causalcps.planning import Plan, PlanStep, validate_plan

        top = checks.read_rows(d / "diagnosis.csv")[0]["components"]
        results = [("top hypothesis is lid_actuator", top == "lid_actuator", f"top {top}")]
        for i, goal in enumerate(KNIFE_GOALS):
            rows = checks.read_rows(d / f"plan{i}.csv")
            steps = tuple(PlanStep(r["module"], r["functionality"], float(r["parameter"])) for r in rows)
            duration = int(rows[-1]["cumulative_duration"]) if rows else 0
            the_plan = Plan(steps=steps, total_duration=duration)
            valid = validate_plan(the_plan, self.doc.planning_problem(goal))
            results.append((f"plan {goal} passes validate_plan", valid, str(steps)))
            results.append(
                (
                    f"plan {goal} duration is the brute-force minimum",
                    duration == self.minimum[i],
                    f"{duration} vs {self.minimum[i]}",
                )
            )
        return results


class GeneratedWorkload(Workload):
    """A generated scenario whose traces must follow the generator's schedules."""

    def __init__(self, seed: int, work: Path, generate):
        self.generated = generate(seed)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "scenario.yaml"
        path.write_text(self.generated.yaml_text(), encoding="utf-8")
        super().__init__(work, path, [self.generated.scenario["seed"]])

    def check(self, d):
        results = []
        for run, expected in (("faulty", self.generated.faulty), ("reference", self.generated.reference)):
            labels = checks.trace_labels((d / f"{run}.csv").read_text(encoding="utf-8"))
            results.append((f"{run} trace labels equal the generated schedule", labels == expected, ""))
        return results


class RelayDiagnose(GeneratedWorkload):
    def __init__(self, seed, work):
        super().__init__(seed, work, relay_diagnose)

    def commands(self, sim_seed):
        return super().commands(sim_seed) + [self.diagnose_command(sim_seed, 2)]

    def check(self, d):
        facts = self.generated.facts
        deviating = sorted({r["sensor_id"] for r in checks.read_rows(d / "deviations.csv")})
        hypotheses = sorted(sorted(r["components"].split("+")) for r in checks.read_rows(d / "diagnosis.csv"))
        return super().check(d) + [
            (
                "deviating sensors are the stages after the faulted one",
                deviating == facts["deviating"],
                str(deviating),
            ),
            (
                "hypotheses are the faulted component and its successor",
                hypotheses == facts["hypotheses"],
                str(hypotheses),
            ),
        ]


class PlantMonitor(GeneratedWorkload):
    def __init__(self, seed, work):
        super().__init__(seed, work, plant_monitor)

    def check(self, d):
        missed, false_alarms, agreeing = checks.plant_detection(
            self.generated.reference,
            self.generated.faulty,
            checks.read_rows(d / "deviations.csv"),
            self.doc.window,
            self.doc.stride,
        )
        rate = false_alarms / agreeing
        return super().check(d) + [
            ("every departing window has a deviation", not missed, str(missed[:5])),
            (
                "false-alarm rate on agreeing windows is at most alpha + 0.02",
                rate <= self.doc.alpha + FALSE_ALARM_SLACK,
                f"{false_alarms}/{agreeing}",
            ),
        ]


WORKLOADS = {"knife-pipeline": KnifePipeline, "relay-diagnose": RelayDiagnose, "plant-monitor": PlantMonitor}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: Workload):
        from causalcps import cli, scenario

        self.cli = cli
        self.scenario = scenario
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.artifacts: dict[int, dict[str, bytes]] = {}
        self.windows: dict[int, int] = {}

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def _run_cli(self, argv: list[str]) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code, err = -1, io.StringIO(traceback.format_exc())
            elapsed = time.perf_counter() - start
        return elapsed, code, err.getvalue()

    def run_pass(self, sim_seed: int, tracer=None) -> dict[str, float]:
        """One pass of the workload's commands, then its checks.

        Each command sits between two host speed probes.  The ``*_raw_s``
        entries are wall times; the others are scaled to the reference speed.
        """
        raw: dict[str, float] = {}
        times: dict[str, float] = {}
        probes = [hostspeed.probe()]
        simulate_runs = 0
        for kind, argv in self.workload.commands(sim_seed):
            if tracer is None:
                elapsed, code, err = self._run_cli(argv)
            else:
                with tracer.span(f"cli.{kind}"):
                    elapsed, code, err = self._run_cli(argv)
            probes.append(hostspeed.probe())
            raw[kind] = raw.get(kind, 0.0) + elapsed
            times[kind] = times.get(kind, 0.0) + hostspeed.scaled(elapsed, probes[-2], probes[-1])
            simulate_runs += kind == "simulate"
            self.op(f"{argv[0]} exits 0", code == 0, f"exit {code}: {err.strip()}")
        try:
            self._check(sim_seed)
        except Exception:
            self.op("output checks can be made", False, traceback.format_exc())
        return {
            "pipeline_s": sum(times.values()),
            "pipeline_raw_s": sum(raw.values()),
            "probe_s": statistics.mean(probes),
            "sim_sensor_ticks_per_s": simulate_runs * self.workload.sensor_ticks_per_run / times["simulate"],
            "detect_windows_per_s": self.windows.get(sim_seed, 0) / times["detect"],
        }

    def _check(self, sim_seed: int) -> None:
        d = self.workload.pass_dir(sim_seed)
        for name, ok, detail in self.workload.check(d):
            self.op(name, ok, detail)
        produced = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        if sim_seed in self.artifacts:
            same = produced == self.artifacts[sim_seed]
            self.op("a second pass with the same seed writes byte-identical artifacts", same, d.name)
            return
        self.artifacts[sim_seed] = produced
        self.windows[sim_seed] = self.workload.detect_windows(d)
        for name in ("faulty.csv", "reference.csv"):
            text = produced[name].decode("utf-8")
            round_trip = self.scenario.export_trace(self.scenario.import_trace(text)) == text
            self.op(f"exporting the imported {name} reproduces its bytes", round_trip, name)

    def setup_once(self) -> tuple[float, float]:
        """One parse_scenario (with build_model validation) of the scenario text.

        Returns its time scaled to the reference speed, and its wall time.
        """
        before = hostspeed.probe()
        start = time.perf_counter()
        self.scenario.parse_scenario(self.workload.scenario_text)
        elapsed = time.perf_counter() - start
        return hostspeed.scaled(elapsed, before, hostspeed.probe()), elapsed

    def repeat(self, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
        """Passes over the simulation seeds in turn until ``seconds`` have gone by.

        Without a tracer every pass is untraced and followed by one timed
        set-up, so the set-up samples are spread over the run like the passes.
        With a tracer, passes alternate between untraced and traced, so both
        kinds meet the same machine.  Returns (untraced, traced) pass results.
        """
        seeds = self.workload.sim_seeds
        untraced: list[dict] = []
        traced: list[dict] = []
        deadline = time.perf_counter() + seconds
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            gc.collect()
            seed = seeds[index % len(seeds)]
            if tracer is not None and index % 2:
                with tracer.installed(), tracer.recording_pass():
                    traced.append(self.run_pass(seed, tracer))
            else:
                untraced.append(self.run_pass(seed))
                if tracer is None:
                    untraced[-1]["setup_s"], untraced[-1]["setup_raw_s"] = self.setup_once()
            index += 1
        return untraced, traced


def _median(results: list[dict[str, float]], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH_DIR / "out" / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    try:
        workload = WORKLOADS[workload_name](seed, work)
        runner = Runner(workload)
        if not trace:
            passes, _ = runner.repeat(seconds)
            values = {key: _median(passes, key) for key in passes[0]}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            print(
                f"{workload_name} seed {seed}: timings are medians of {len(passes)} samples, scaled to the"
                f" reference host speed; raw medians: pipeline {values['pipeline_raw_s']:.6g} s,"
                f" setup {values['setup_raw_s']:.6g} s; the probe took"
                f" {values['probe_s'] / hostspeed.REFERENCE_PROBE_S:.3g}x its reference time"
            )
        else:
            from tracing import Tracer

            tracer = Tracer()
            untraced, traced = runner.repeat(seconds, tracer)
            layers = [tracer.pass_metrics(i) for i in range(len(tracer.passes))]
            values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
            values["trace.overhead_s"] = _median(traced, "pipeline_s") - _median(untraced, "pipeline_s")
            metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
            tracer.dump(
                BENCH_DIR / "traces" / f"{workload_name}-seed{seed}.json",
                {"workload": workload_name, "seed": seed, "untraced_passes": len(untraced)},
            )
            factor = _median(untraced + traced, "probe_s") / hostspeed.REFERENCE_PROBE_S
            print(
                f"{workload_name} seed {seed}: {len(untraced)} untraced and {len(traced)} traced passes;"
                f" span times are wall times; the probe took {factor:.3g}x its reference time"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the causalcps pipeline on one workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import causalcps from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
