"""Every artifact is a function of the scenario and the seed alone, in any process.

The other tests compare artifacts within one process, where every set and
dict of strings iterates in one order; another hash seed (``PYTHONHASHSEED``)
changes that order, so an artifact that leaks it passes them all.  Here one
driver, ``artifact_digests``, runs every CLI command of the pipeline on the
bundled knife scenario and on two generated ones, plus the scenario and
trace round trips, and returns the sha256 of everything it wrote.  It runs in
this process and in two fresh ones under hash seeds 0 and 4242, and every
knife command also runs in a process of its own; all of them must write the
same bytes.  Within one run, derived inputs (shuffled trace rows, merge
keys, a model-less trace import, a second pass through ``cli.main``) must
give the same bytes as the originals.

Run the driver by hand with ``PYTHONPATH=src python tests/test_determinism.py
OUT_DIR``: it writes the artifacts under OUT_DIR and prints their digests as
one JSON object on its last line.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import causalcps
from causalcps.cli import main
from causalcps.scenario import export_trace, import_trace, parse_scenario, serialize_scenario
from test_cli import BUNDLED_KNIFE, digest, knife_artifact_digests
from test_simulation import load_perfbench_generators

HASH_SEEDS = ("0", "4242")
SRC = str(Path(causalcps.__file__).parents[1])
# A path under one of these directories holds the same bytes as the path
# with that first directory taken off.
COPIES = ("again", "merged", "no-model", "shuffled")
# Observed at every other stage, the relay's diagnosis settles some
# candidates only by replaying their cones.
RELAY_OBSERVED = (
    "s00", "s02", "s04", "s06", "s08", "loop0_temp", "loop1_temp", "loop2_temp"
)


def run(*argv):
    argv = [str(arg) for arg in argv]
    assert main(argv) == 0, argv


def detect(scenario, trace, reference, out_dir):
    run(
        "detect", scenario, "--trace", trace, "--reference", reference,
        "--out", out_dir / "report.csv", "--deviations-out", out_dir / "deviations.csv",
    )


def simulate_and_detect(scenario, out_dir):
    """The faulty run at seed 1, the fault-free one at seed 2, and detect."""
    faulty, reference = out_dir / "faulty.csv", out_dir / "reference.csv"
    run("simulate", scenario, "--seed", 1, "--out", faulty)
    run("simulate", scenario, "--seed", 2, "--no-faults", "--out", reference)
    detect(scenario, faulty, reference, out_dir)


def detect_shuffled(scenario, out_dir, name):
    """detect on the faulty trace's rows in a fixed shuffled order, header
    first, which the trace reader takes row by row instead of by column."""
    with (out_dir / name / "faulty.csv").open(encoding="utf-8") as lines:
        header, *rows = lines
    random.Random(16).shuffle(rows)
    shuffled = out_dir / f"shuffled-{name}.csv"
    shuffled.write_text(header + "".join(rows), encoding="utf-8")
    (out_dir / "shuffled" / name).mkdir(parents=True)
    detect(scenario, shuffled, out_dir / name / "reference.csv", out_dir / "shuffled" / name)


def reparse(text, out):
    """Every parsed field, functionalities and fault rules included, not
    only those that reach an artifact."""
    out.write_text(serialize_scenario(parse_scenario(text)), encoding="utf-8")


def artifact_digests(out_dir):
    """Write every artifact of the checked commands under ``out_dir`` and
    return the sha256 of each file there, by path relative to ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    generators = load_perfbench_generators()
    scenarios = {"knife": BUNDLED_KNIFE}
    # A relay line beside control loops, whose diagnosis iterates sets of
    # component ids over many candidates; a wide plant, whose traces span
    # many chunks of the trace CSV reader and writer.
    for name, generate in (
        ("relay", generators.relay_diagnose), ("plant", generators.plant_monitor)
    ):
        scenarios[name] = out_dir / f"{name}.yaml"
        scenarios[name].write_text(generate(1).yaml_text(), encoding="utf-8")
    for name, path in scenarios.items():
        reparse(path.read_text(encoding="utf-8"), out_dir / f"parsed-{name}.yaml")
    # The knife with each sensor's initial state given through a merge key.
    text, merges = re.subn(
        r"^  initial: (\S+)$", r"  <<: {initial: \1}",
        BUNDLED_KNIFE.read_text(encoding="utf-8"), flags=re.M,
    )
    assert merges == 8, merges
    (out_dir / "merged").mkdir()
    reparse(text, out_dir / "merged" / "parsed-knife.yaml")

    # The knife commands, run twice over: every call after the first reuses
    # one parser.
    for knife_dir in (out_dir / "knife", out_dir / "again" / "knife"):
        knife_dir.mkdir(parents=True)
        knife_artifact_digests(knife_dir)
    detect_shuffled(BUNDLED_KNIFE, out_dir, "knife")

    relay, relay_dir = scenarios["relay"], out_dir / "relay"
    relay_dir.mkdir()
    simulate_and_detect(relay, relay_dir)
    deviations = relay_dir / "deviations.csv"
    for max_card in (2, 3):
        run(
            "diagnose", relay, "--deviations", deviations, "--max-card", max_card,
            "--out", relay_dir / f"diagnosis-{max_card}.csv",
        )
    observe = [arg for sensor in RELAY_OBSERVED for arg in ("--observe", sensor)]
    run(
        "diagnose", relay, "--deviations", deviations, "--max-card", 2, *observe,
        "--out", relay_dir / "partial-diagnosis.csv",
    )

    plant, plant_dir = scenarios["plant"], out_dir / "plant"
    plant_dir.mkdir()
    simulate_and_detect(plant, plant_dir)
    detect_shuffled(plant, out_dir, "plant")

    # Read with no model, each sensor's table is the labels its column
    # shows; written again, each trace keeps its bytes.
    for name in scenarios:
        copy_dir = out_dir / "no-model" / name
        copy_dir.mkdir(parents=True)
        for trace in ("faulty.csv", "reference.csv"):
            text = (out_dir / name / trace).read_text(encoding="utf-8")
            (copy_dir / trace).write_text(export_trace(import_trace(text)), encoding="utf-8")

    return {
        path.relative_to(out_dir).as_posix(): digest(path)
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def in_process(tmp_path_factory):
    return artifact_digests(tmp_path_factory.mktemp("in-process"))


def environment(**variables):
    return dict(os.environ, PYTHONPATH=SRC, **variables)


def test_hash_seeds_write_the_same_bytes(tmp_path, in_process):
    """The driver under hash seeds 0 and 4242, in two fresh processes that
    run side by side, writes what it writes in this process."""
    # -W error: a numpy warning on a CLI path fails there as in this process.
    processes = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-W", "error", __file__, str(tmp_path / hash_seed)],
            env=environment(PYTHONHASHSEED=hash_seed), stdout=subprocess.PIPE, text=True,
        )
        for hash_seed in HASH_SEEDS
    }
    try:
        for hash_seed, process in processes.items():
            stdout, _ = process.communicate(timeout=300)
            assert process.returncode == 0, hash_seed
            assert json.loads(stdout.splitlines()[-1]) == in_process, hash_seed
    finally:
        for process in processes.values():
            process.kill()
            process.wait()


def test_copies_write_their_originals_bytes(in_process):
    """Shuffled trace rows give the same report and deviations, a model-less
    import and export gives back each trace, the merge-key knife parses to
    the plain one, and a second pass of the knife commands through
    ``cli.main`` writes what the first wrote."""
    copies = {path: sha for path, sha in in_process.items() if path.split("/")[0] in COPIES}
    originals = {path: in_process[path.split("/", 1)[1]] for path in copies}
    assert copies == originals
    # 1 reparse, 2 x 2 detect outputs, 3 x 2 traces and 8 knife artifacts.
    assert len(copies) == 19


def test_knife_commands_in_fresh_processes_write_the_same_bytes(tmp_path, in_process):
    """Each knife command in a process of its own writes what the whole
    pipeline writes in this process."""

    def cli_process(argv):
        command = [sys.executable, "-W", "error", "-m", "causalcps.cli", *argv]
        # A failing command's stderr reaches the test's captured output.
        return subprocess.run(
            command, env=environment(), stdout=subprocess.DEVNULL, check=False, timeout=120
        ).returncode

    expected = {
        path.split("/", 1)[1]: sha for path, sha in in_process.items() if path.startswith("knife/")
    }
    assert knife_artifact_digests(tmp_path, run=cli_process) == expected


if __name__ == "__main__":
    print(json.dumps(artifact_digests(Path(sys.argv[1]))))
