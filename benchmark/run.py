"""spannerlab benchmark: time each workload's job list through the CLI,
check every output, and print the metrics.

    python3 benchmark/run.py --workload prune-ladders --seed 0 --seconds 28 --trace 0

One process, one thread, closed loop: the next job starts when the previous
one ends. Set-up (imports, `gen` calls, input files) and a batch of the
whole job list alternate until the next pair would end past --seconds.
Times are in reference seconds (see speed.py): wall time corrected for the
host's speed, which a probe samples while each set-up and job runs.
With --trace 1, batches alternate between traced and untraced, nothing is
probed, and the last line carries the per-layer metrics instead. The last line of stdout is one
JSON object; a result file and, when traced, a span JSONL land under
benchmark/out/.

    python3 benchmark/run.py --write-digests

re-records benchmark/digests.json from one batch of every workload at the
default seed.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
import warnings
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
MODULES = ("cli", "graphs", "greedy", "hardness", "instances", "oracle", "prune")


UNMETERED = speed.Meter(active=False)


def set_up(workload: str, workdir: Path, seed: int, tracer=None, label="setup",
           meter=UNMETERED, started=None):
    """Import the program afresh and write every input; returns (timed
    section, modules, jobs). The section runs from `started` when given.
    The copy imported before is dropped and collected untimed, so repeated
    set-ups neither pay for it nor pile it up."""
    for name in [n for n in sys.modules if n == "spannerlab" or n.startswith("spannerlab.")]:
        del sys.modules[name]
    gc.collect()
    with meter.section(started) as timed:
        # importlib, because the package attribute `spannerlab.prune` is a function
        mods = types.SimpleNamespace(
            **{name: importlib.import_module(f"spannerlab.{name}") for name in MODULES}
        )
        if tracer:
            tracer.job = label
            tracer.install()
        try:
            jobs = workloads.setup(workload, mods, workdir, seed)
        finally:
            if tracer:
                tracer.uninstall()
    return timed, mods, jobs


def run_batch(cli, jobs, tracer=None, label="batch", meter=UNMETERED):
    """Run the job list once; returns (timed section of each job, outcomes)."""
    if tracer:
        tracer.install()
    try:
        sections, outcomes = [], []
        for job in jobs:
            if tracer:
                tracer.job = f"{label}/{job.name}"
            with meter.section() as timed:
                outcomes.append(workloads.execute(cli, job))
            sections.append(timed)
    finally:
        if tracer:
            tracer.uninstall()
    return sections, outcomes


def check_batch(jobs, outcomes, digests, seed: int) -> dict[str, list[str]]:
    """Check every job of a batch and keep each run's JSON report beside its
    spanner; returns the failure reasons of the jobs that failed."""
    failures = {}
    for job, outcome in zip(jobs, outcomes):
        if outcome.stdout:
            job.output.with_suffix(".report.json").write_text(outcome.stdout[0])
        reasons = workloads.check(job, outcome, digests, seed)
        if reasons:
            failures[job.name] = reasons
    return failures


def summary(samples: list[float]) -> dict:
    """Median, quartiles and sample count; a tail percentile only when at
    least ten samples lie beyond it."""
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    out = {"n": len(samples), "median": statistics.median(samples), "q1": quartiles[0], "q3": quartiles[2]}
    for p in (99, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, digests) -> dict:
    """Alternate set-ups and batches for `seconds`, checking every batch;
    returns the result record."""
    tracer = tracing.Tracer() if trace else None
    # traced runs are not probed, so spans hold only the program's time
    meter = UNMETERED if trace else speed.Meter()
    setups: list[speed.Section] = []
    batches: dict[bool, list[list[speed.Section]]] = {False: [], True: []}  # traced? -> jobs per batch
    rounds: list[float] = []  # wall seconds of each set-up, batch and check
    failures: list[dict] = []
    attempted = 0
    batch = 0
    while True:
        began = time.perf_counter()
        # the first set-up also pays for starting this script
        timed, mods, jobs = set_up(workload, workdir, seed, tracer, f"setup{batch}", meter,
                                   _STARTED if batch == 0 else None)
        setups.append(timed)
        traced = trace and batch % 2 == 0
        sections, outcomes = run_batch(mods.cli, jobs, tracer if traced else None, f"batch{batch}", meter)
        batches[traced].append(sections)
        attempted += len(jobs)
        for name, reasons in check_batch(jobs, outcomes, digests, seed).items():
            failures.append({"batch": batch, "job": name, "reasons": reasons})
        batch += 1
        rounds.append(time.perf_counter() - began)
        if trace and batch < 2:
            continue  # one traced and one untraced batch at least
        if time.perf_counter() - _STARTED + statistics.median(rounds) > seconds:
            break

    def seconds_of(sections, kind="reference"):
        return [getattr(s, kind) for s in sections]

    plain = batches[False]
    probes = [p for sections in plain for s in sections for p in s.samples]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "jobs": [job.name for job in jobs],
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "failures": failures,
        "setup_s": summary(seconds_of(setups)),
        "batch_s": summary([sum(seconds_of(b)) for b in plain]),
        "job_s": {job.name: summary([b[j].reference for b in plain]) for j, job in enumerate(jobs)},
        "setup_wall_s": summary(seconds_of(setups, "wall")),
        "batch_wall_s": summary([sum(seconds_of(b, "wall")) for b in plain]),
        "probe_s": summary(probes) if probes else None,
        "samples": {
            "setup_s": seconds_of(setups),
            "setup_wall_s": seconds_of(setups, "wall"),
            "job_s": [seconds_of(b) for b in plain],
            "job_wall_s": [seconds_of(b, "wall") for b in plain],
            "traced_job_s": [seconds_of(b) for b in batches[True]],
        },
    }
    if trace:
        record["traced_batch_s"] = summary([sum(seconds_of(b)) for b in batches[True]])
        batch_spans = [s for s in tracer.spans if s["job"].startswith("batch")]
        setup_spans = [s for s in tracer.spans if s["job"].startswith("setup")]
        metrics = tracing.per_layer_metrics(batch_spans, len(batches[True]), setup_spans, len(setups))
        overhead = record["traced_batch_s"]["median"] / record["batch_s"]["median"]
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        # every traced batch runs the same jobs, so the first one stands for all
        record["counts"] = tracing.layer_counts([s for s in batch_spans if s["job"].startswith("batch0/")])
        tracer.write_jsonl(workdir / "spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "batch_s": {"value": record["batch_s"]["median"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    record["metrics"] = metrics
    return record


def load_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text()).get(workload, {})


def write_digests() -> int:
    recorded = {}
    for workload in workloads.NAMES:
        workdir = OUT / workload / "digests"
        _, mods, jobs = set_up(workload, workdir, workloads.DEFAULT_SEED)
        _, outcomes = run_batch(mods.cli, jobs)
        failures = check_batch(jobs, outcomes, None, workloads.DEFAULT_SEED)
        if failures:
            print(f"{workload}: checks failed, digests not written: {failures}", file=sys.stderr)
            return 1
        recorded[workload] = {job.name: workloads.sha256(job.output) for job in jobs}
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "spannerlab" / "__init__.py").is_file():
        print(f"error: no spannerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message=r"eps=.* is above 1/100", category=UserWarning)
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")

    workdir = OUT / args.workload / f"seed{args.seed}"
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     workdir, load_digests(args.workload))
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    b = record["batch_s"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{b['n']} untraced batches of {len(record['jobs'])} jobs, nproc {record['nproc']}, "
          f"python {record['python']}")
    print(f"batch_s median {b['median']:.4f} q1 {b['q1']:.4f} q3 {b['q3']:.4f}"
          + "".join(f" {k} {v:.4f}" for k, v in b.items() if k.startswith("p"))
          + ("" if any(k.startswith("p") for k in b) else " (too few samples for a tail percentile)"))
    w = record["batch_wall_s"]
    print(f"batch wall seconds median {w['median']:.4f} q1 {w['q1']:.4f} q3 {w['q3']:.4f}"
          + (f"; probe median {record['probe_s']['median'] * 1000:.3f} ms, "
             f"{speed.REFERENCE * 1000:.3f} ms at full speed" if record["probe_s"] else ""))
    print(f"fail_rate {record['fail_rate']:.4f} ({record['failed']}/{record['attempted']} jobs)")
    for failure in record["failures"]:
        print(f"FAILED batch {failure['batch']} {failure['job']}: {'; '.join(failure['reasons'])}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
