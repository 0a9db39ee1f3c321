"""Tests of the benchmark itself: python -m pytest benchmark"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

SEED = workloads.DEFAULT_SEED


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """The prune-wide workload set up once: (modules, [iterate job, scaled job])."""
    sys.path.insert(0, str(run.SRC))
    _, mods, jobs = run.set_up("prune-wide", tmp_path_factory.mktemp("prune-wide"), SEED)
    return mods, jobs


def test_tracing_keeps_outputs_and_counters_repeat(wide):
    mods, jobs = wide
    _, outcomes = run.run_batch(mods.cli, jobs)
    assert run.check_batch(jobs, outcomes, run.load_digests("prune-wide"), SEED) == {}
    untraced = {job.name: job.output.read_bytes() for job in jobs}
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        run.run_batch(mods.cli, jobs, tracer)
        assert {job.name: job.output.read_bytes() for job in jobs} == untraced
        counts.append(tracing.layer_counts(tracer.spans))
    assert counts[0] == counts[1]
    assert counts[0]["prune.fill_tables.cells"] > 0
    assert counts[0]["prune.contract.calls"] == 1


def test_tracer_reaches_every_binding(wide):
    mods, _ = wide
    bindings = [
        (mods.graphs, "apsp"), (mods.prune, "apsp"), (mods.oracle, "apsp"),
        (mods.graphs, "stretch"), (mods.cli, "stretch"), (mods.prune, "stretch"),
        (mods.oracle, "stretch"), (mods.hardness, "stretch"),
        (mods.cli, "greedy_spanner"), (mods.prune, "greedy_spanner"),
        (mods.cli, "read_graph"), (mods.cli, "write_graph"),
        (mods.prune, "fill_tables"), (mods.cli, "iterate_prune"), (mods.cli, "main"),
    ]
    originals = [getattr(mod, name) for mod, name in bindings]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), original in zip(bindings, originals):
            assert getattr(mod, name).__wrapped__ is original, f"{mod.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in bindings] == originals


def test_corrupted_digest_is_counted(wide):
    mods, jobs = wide
    scaled = jobs[1:]
    _, outcomes = run.run_batch(mods.cli, scaled)
    digests = dict(run.load_digests("prune-wide"), **{"wide-scaled": "0" * 64})
    assert run.check_batch(scaled, outcomes, digests, SEED) == {"wide-scaled": ["output digest mismatch"]}


def test_dropped_edge_is_counted(wide):
    mods, jobs = wide
    scaled = jobs[1:]
    _, outcomes = run.run_batch(mods.cli, scaled)
    lines = scaled[0].output.read_text().splitlines()
    n, m, planar = lines[0].split()
    scaled[0].output.write_text("\n".join([f"{n} {int(m) - 1} {planar}", *lines[1:-1]]) + "\n")
    failures = run.check_batch(scaled, outcomes, run.load_digests("prune-wide"), SEED)
    assert list(failures) == ["wide-scaled"]


def test_cell_cap_refusal_fails_the_job_not_the_batch(wide):
    mods, jobs = wide
    capped = [dataclasses.replace(jobs[0], run=jobs[0].run + ["--cell-cap", "10"]), jobs[1]]
    _, outcomes = run.run_batch(mods.cli, capped)
    assert outcomes[0].exit_codes == [4]
    assert outcomes[1].exit_codes == [0, 0]
    failures = run.check_batch(capped, outcomes, run.load_digests("prune-wide"), SEED)
    assert list(failures) == ["wide-iterate"]


def test_known_value_misses_are_counted(tmp_path):
    out = tmp_path / "x.spanner"
    out.write_text("2 1 planar:0\n0 1 3\n")
    outcome = workloads.Outcome(
        [0, 0], [json.dumps({"weight": "3/1"}), json.dumps({"ok": True, "stretch": "1/1", "weight": "3/1"})]
    )
    heavy = workloads.Job("x", [], [], out, weight=Fraction(4))
    assert workloads.check(heavy, outcome, None, SEED) == ["weight 3 != known 4"]
    unsat = workloads.Job("x", [], [], out, threshold=Fraction(3), satisfiable=False)
    assert len(workloads.check(unsat, outcome, None, SEED)) == 1
    seeded = workloads.Job("x", [], [], out, seeded=True)
    assert workloads.check(seeded, outcome, {}, SEED + 1) == []
    assert workloads.check(seeded, outcome, {}, SEED) == ["output digest mismatch"]


def test_summary_reports_a_tail_only_with_ten_samples_beyond():
    assert "p90" not in run.summary([1.0] * 99) and "p75" in run.summary([1.0] * 99)
    assert "p90" in run.summary([1.0] * 100)
    assert not any(key.startswith("p") for key in run.summary([1.0, 2.0, 3.0]))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "prune-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_meter_reports_wall_time_less_probes_and_its_reference_time():
    meter = speed.Meter()
    started = time.perf_counter()
    with meter.section() as timed:
        while time.perf_counter() - started < 0.2:
            speed.probe()
    elapsed = time.perf_counter() - started
    assert len(timed.samples) >= 5  # one before, several inside, one after
    assert 0 < timed.wall < elapsed - sum(timed.samples[1:-1])
    speeds = [speed.REFERENCE / p for p in timed.samples]
    assert min(speeds) * timed.wall <= timed.reference <= max(speeds) * timed.wall
    with run.UNMETERED.section() as plain:
        speed.probe()
    assert plain.samples == [] and plain.reference == plain.wall > 0
