"""Spans and counts at the package's module boundaries, recorded from outside it.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module attributes through which the CLI and the library reach each layer
(``causalcps.cli.parse_scenario``, ``causalcps.diagnosis.run_script``,
``causalcps.distributions.gof_test``, ...) with wrappers that open a span and
update counters, and restores the originals afterwards.  Nothing in the
package is edited.  Spans are kept in memory as ``[name, start, end, parent]``
and written once, by ``Tracer.dump``, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import causalcps.cli as cli
import causalcps.detection as detection
import causalcps.diagnosis as diagnosis
import causalcps.distributions as distributions
import causalcps.model as model
import causalcps.planning as planning
import causalcps.scenario as scenario
import causalcps.simulation as simulation

LAYERS = ("cli", "scenario", "model", "simulation", "distributions", "detection", "diagnosis", "planning")


def _guard_assignments(system, subsystem_id, rules):
    """Joint assignments the exhaustive determinism check visits for one table."""
    if len(rules) < 2:
        return 0
    sub = system.subsystem(subsystem_id)
    return math.prod(len(system.sensor(sid).labels()) for sid in sub.sensors)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.passes: list[tuple[int, int, Counter]] = []
        self.counts = Counter()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    @contextlib.contextmanager
    def recording_pass(self):
        first = len(self.spans)
        self.counts = Counter()
        try:
            yield
        finally:
            self.passes.append((first, len(self.spans), self.counts))

    # -- installing wrappers -----------------------------------------------

    def _wrap(self, func, name, after=None):
        def wrapper(*args, **kwargs):
            parent = self.parent_name()
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, parent)
            return result

        return wrapper

    def _count_windows(self, func):
        def wrapper(*args, **kwargs):
            parent = self.parent_name()
            for item in func(*args, **kwargs):
                self.counts[f"windows:{parent}"] += 1
                yield item

        return wrapper

    def _count_assignments(self, func):
        def wrapper(system, subsystem_id, rules):
            self.counts["guard_assignments"] += _guard_assignments(system, subsystem_id, rules)
            return func(system, subsystem_id, rules)

        return wrapper

    def _after_run(self, trace, parent):
        self.counts["sensor_ticks"] += len(trace) * len(trace.sensor_ids)

    def _after_export_trace(self, text, parent):
        self.counts["trace_csv_bytes"] += len(text.encode("utf-8"))

    def _after_scan(self, report, parent):
        self.counts["anomalous_windows"] += len(report.anomalous_verdicts())

    def _after_expected(self, deviations, parent):
        self.counts["deviations"] += len(deviations)

    def _after_diagnose(self, hypotheses, parent):
        self.counts["hypotheses"] += len(hypotheses)

    def _after_gof(self, result, parent):
        self.counts[f"gof_tests:{parent}"] += 1

    def _after_plan(self, result, parent):
        self.counts["plan_steps"] += len(result.steps) if result is not None else 0

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary the CLI crosses; restore on exit."""
        w = self._wrap
        patches = [
            (cli, "parse_scenario", lambda f: w(f, "scenario.parse")),
            (cli, "import_trace", lambda f: w(f, "scenario.import_trace")),
            (cli, "export_trace", lambda f: w(f, "scenario.export_trace", self._after_export_trace)),
            (cli, "import_deviations", lambda f: w(f, "scenario.import_deviations")),
            (cli, "export_anomaly_report", lambda f: w(f, "scenario.export_reports")),
            (cli, "export_deviations", lambda f: w(f, "scenario.export_reports")),
            (cli, "export_diagnosis", lambda f: w(f, "scenario.export_reports")),
            (cli, "export_plan", lambda f: w(f, "scenario.export_reports")),
            (cli, "scan_anomalies", lambda f: w(f, "detection.scan", self._after_scan)),
            (cli, "expected_state_check", lambda f: w(f, "detection.expected_check", self._after_expected)),
            (cli, "diagnose", lambda f: w(f, "diagnosis.diagnose", self._after_diagnose)),
            (cli, "explain", lambda f: w(f, "diagnosis.explain")),
            (cli, "find_plan", lambda f: w(f, "planning.plan", self._after_plan)),
            (scenario, "build_model", lambda f: w(f, "model.build_model")),
            (scenario, "run_script", lambda f: w(f, "simulation.run", self._after_run)),
            (diagnosis, "run_script", lambda f: w(f, "simulation.run", self._after_run)),
            (diagnosis, "derive_causal_graph", lambda f: w(f, "model.causal_graph")),
            (distributions, "gof_test", lambda f: w(f, "distributions.gof_test", self._after_gof)),
            (planning, "apply_functionality", lambda f: w(f, "planning.apply_functionality")),
            (detection, "constant_label_windows", self._count_windows),
            (model, "validate_rules", self._count_assignments),
            (scenario, "validate_rules", self._count_assignments),
            (simulation, "validate_rules", self._count_assignments),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for (module, attr, make), (_, _, original) in zip(patches, originals):
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    # -- per-pass metrics --------------------------------------------------

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Per-layer totals, counts and self times of one recorded pass."""
        first, end, counts = self.passes[index]
        spans = self.spans[first:end]
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        resim_runs, resim_s = 0, 0.0
        for name, start, stop, parent in spans:
            duration = stop - start
            total[name] += duration
            calls[name] += 1
            if parent >= first:
                child_time[parent] += duration
                if name == "simulation.run" and self.spans[parent][0] == "diagnosis.diagnose":
                    resim_runs += 1
                    resim_s += duration
        self_time: Counter = Counter()
        for offset, (name, start, stop, parent) in enumerate(spans):
            self_time[name.split(".")[0]] += (stop - start) - child_time[first + offset]

        windows = sum(v for k, v in counts.items() if k.startswith("windows:"))
        scan_windows = counts["windows:detection.scan"]
        scan_gof = counts["gof_tests:detection.scan"]
        sensor_ticks = counts["sensor_ticks"]
        diagnose_s = total["diagnosis.diagnose"]
        metrics = {
            "cli.simulate_s": total["cli.simulate"],
            "cli.detect_s": total["cli.detect"],
            "cli.diagnose_s": total["cli.diagnose"],
            "cli.plan_s": total["cli.plan"],
            "scenario.parse_s": total["scenario.parse"],
            "scenario.export_trace_s": total["scenario.export_trace"],
            "scenario.import_trace_s": total["scenario.import_trace"],
            "scenario.trace_csv_mb": counts["trace_csv_bytes"] / 1e6,
            "scenario.export_reports_s": total["scenario.export_reports"],
            "model.build_model_s": total["model.build_model"],
            "model.guard_assignments": counts["guard_assignments"],
            "model.causal_graph_s": total["model.causal_graph"],
            "simulation.runs": calls["simulation.run"],
            "simulation.run_s": total["simulation.run"],
            "simulation.sensor_ticks": sensor_ticks,
            "simulation.us_per_sensor_tick": (
                total["simulation.run"] / sensor_ticks * 1e6 if sensor_ticks else 0.0
            ),
            "distributions.gof_tests": calls["distributions.gof_test"],
            "distributions.gof_s": total["distributions.gof_test"],
            "detection.scan_s": total["detection.scan"],
            "detection.expected_check_s": total["detection.expected_check"],
            "detection.windows": windows,
            "detection.gof_tests_per_window": scan_gof / scan_windows if scan_windows else 0.0,
            "detection.deviations": counts["deviations"],
            "detection.anomalous_windows": counts["anomalous_windows"],
            "diagnosis.diagnose_s": diagnose_s,
            "diagnosis.resimulations": resim_runs,
            "diagnosis.resim_s": resim_s,
            "diagnosis.resim_share": resim_s / diagnose_s if diagnose_s else 0.0,
            "diagnosis.hypotheses": counts["hypotheses"],
            "diagnosis.useful_resim_ratio": counts["hypotheses"] / resim_runs if resim_runs else 0.0,
            "diagnosis.explain_s": total["diagnosis.explain"],
            "planning.plan_s": total["planning.plan"],
            "planning.apply_calls": calls["planning.apply_functionality"],
            "planning.plan_steps": counts["plan_steps"],
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        return metrics

    def dump(self, path: Path, header: dict) -> None:
        """Write every recorded pass; a span's parent is its index within the pass, -1 for a root."""
        passes = [
            {
                "spans": [
                    [name, start, stop, parent - first if parent >= first else -1]
                    for name, start, stop, parent in self.spans[first:end]
                ],
                "counts": dict(counts),
            }
            for first, end, counts in self.passes
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "passes": passes}), encoding="utf-8")
