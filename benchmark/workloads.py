"""The benchmark's workloads: set-up of the input files, the job lists, and
the checks on every emitted spanner.

A job is one `spannerlab run` plus one `spannerlab verify` on one instance
file, both driven in-process through `spannerlab.cli.main`. Checks never
abort a batch: each miss is recorded as a reason and the job counts as
failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0

# The ten formulas of acceptance criterion 6: three unsatisfiable (each
# through a one-literal clause), seven satisfiable.
SAT_CATALOGUE = (
    "vars 1\nclause above 0\nclause below 0\n",
    "vars 2\nclause above 0 1\nclause below 0\nclause below 1\n",
    "vars 2\nclause above 0\nclause above 1\nclause below 0 1\n",
    "vars 2\nclause above 0 1\nclause below 0 1\n",
    "vars 2\nclause above 0\nclause below 0 1\nclause above 1 0\n",
    "vars 2\nclause above 0 1\nclause below 1\nclause below 0 1\n",
    "vars 2\nclause above 0\nclause below 1\nclause above 1 0\nclause below 0 1\n",
    "vars 2\nclause above 0 1\nclause below 0\nclause below 1 0\n",
    "vars 2\nclause below 0\nclause above 0 1\nclause below 1 0\n",
    "vars 2\nclause above 1\nclause below 0\nclause above 0 1\nclause below 1 0\n",
)


@dataclass
class Job:
    name: str
    run: list[str]
    verify: list[str]
    output: Path
    seeded: bool = False  # the output depends on --seed
    weight: Fraction | None = None  # known spanner weight
    threshold: Fraction | None = None  # SAT threshold W from the sidecar
    satisfiable: bool | None = None
    known_error: str | None = None  # a known-value check that failed in set-up


@dataclass
class Outcome:
    exit_codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    stderr: str = ""
    error: str | None = None


def cli_call(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run `spannerlab <argv>` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def execute(cli, job: Job) -> Outcome:
    """Run one job; `verify` is skipped when `run` fails. Never raises."""
    outcome = Outcome()
    job.output.unlink(missing_ok=True)  # a stale spanner must not pass the checks
    try:
        for argv in (job.run, job.verify):
            code, out, err = cli_call(cli, argv)
            outcome.exit_codes.append(code)
            outcome.stdout.append(out)
            outcome.stderr += err
            if code != 0:
                break
    except Exception as exc:  # a traceback is a failed job, not a failed batch
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(job: Job, outcome: Outcome, digests: dict[str, str] | None, seed: int) -> list[str]:
    """Reasons the job failed; empty when every check passes.

    `digests` maps job names to expected SHA-256 digests; None skips the
    digest check. A seeded job's digest is only checked at DEFAULT_SEED.
    """
    if outcome.error:
        return [outcome.error]
    if outcome.exit_codes != [0, 0]:
        return [f"exit codes {outcome.exit_codes}: {outcome.stderr.strip()}"]
    try:
        report = json.loads(outcome.stdout[0])
        verdict = json.loads(outcome.stdout[1])
        weight = Fraction(report["weight"])
        ok, verify_weight = verdict["ok"], Fraction(verdict["weight"])
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    reasons = []
    if not ok:
        reasons.append(f"verify not ok: stretch {verdict.get('stretch')}")
    if verify_weight != weight:
        reasons.append(f"verify weight {verify_weight} != run weight {weight}")
    if digests is not None and (seed == DEFAULT_SEED or not job.seeded):
        if digests.get(job.name) != sha256(job.output):
            reasons.append("output digest mismatch")
    if job.weight is not None and weight != job.weight:
        reasons.append(f"weight {weight} != known {job.weight}")
    if job.threshold is not None and (weight <= job.threshold) != job.satisfiable:
        reasons.append(f"opt {weight} vs W {job.threshold} disagrees with satisfiable={job.satisfiable}")
    if job.known_error:
        reasons.append(job.known_error)
    return reasons


# --- set-up -------------------------------------------------------------------


def _gen(cli, *argv: str) -> None:
    code, _, err = cli_call(cli, list(argv))
    if code != 0:
        raise RuntimeError(f"set-up step {' '.join(argv)} exited {code}: {err.strip()}")


def _twin_start(cli, ind: Path, name: str, *family: str) -> None:
    """`gen` one family instance as NAME.g, and as the --initial file
    NAME.initial the greedy (1+eps)-spanner of its --perturb twin."""
    twin = ind / f"{name}-perturbed.g"
    _gen(cli, "gen", *family, "--out", str(ind / f"{name}.g"))
    _gen(cli, "gen", *family, "--perturb", "--out", str(twin))
    eps = family[family.index("--eps") + 1]
    _gen(cli, "run", "greedy", str(twin), "--eps", eps, "--out", str(ind / f"{name}.initial"))


def _prune_job(name: str, algorithm: str, graph: Path, eps: str, outdir: Path, *extra: str) -> Job:
    out = outdir / f"{name}.spanner"
    bound = str(11 * Fraction(eps))  # prune keeps stretch within 1 + 11 eps
    return Job(
        name,
        ["run", algorithm, str(graph), "--eps", eps, *extra, "--out", str(out)],
        ["verify", str(graph), str(out), "--eps", bound],
        out,
    )


def _setup_prune_ladders(mods, ind: Path, outd: Path, seed: int) -> list[Job]:
    cli = mods.cli
    _twin_start(cli, ind, "ladder8", "ladder", "--n", "8", "--eps", "1/4")
    _twin_start(cli, ind, "multiladder2x4", "multiladder", "--k", "2", "--n", "4", "--eps", "1/4")
    _gen(cli, "gen", "greedyhard", "--eps", "1/64", "--x", "2", "--out", str(ind / "greedyhard64.g"))
    ladder, multi = (
        _prune_job(name, "iterate", ind / f"{name}.g", "1/4", outd, "--initial", str(ind / f"{name}.initial"))
        for name in ("ladder8", "multiladder2x4")
    )
    ladder.weight = Fraction(3)  # spokes plus the one rung between the star centres
    multi.weight = Fraction(7)  # the exact optimum, as the oracle finds
    hard = _prune_job("greedyhard64", "iterate", ind / "greedyhard64.g", "1/64", outd)
    return [ladder, multi, hard]


def _setup_oracle_sat(mods, ind: Path, outd: Path, seed: int) -> list[Job]:
    cli, hardness, oracle = mods.cli, mods.hardness, mods.oracle
    eps = Fraction(1, 10)
    jobs = []
    for i, text in enumerate(SAT_CATALOGUE):
        formula, graph = ind / f"sat{i}.formula", ind / f"sat{i}.g"
        formula.write_text(text)
        _gen(cli, "gen", "sat", "--in", str(formula), "--eps", str(eps), "--out", str(graph))
        threshold = Fraction(json.loads(Path(f"{graph}.json").read_text())["W"])
        inst = hardness.read_sat(formula)
        assignment = oracle.sat_brute_force(inst)
        known_error = None
        if assignment is not None:
            try:
                h = hardness.assignment_to_spanner(hardness.reduce_sat(inst, eps), assignment)
                if h.total_weight != threshold:
                    known_error = f"assignment spanner weighs {h.total_weight}, not W={threshold}"
            except (AssertionError, ValueError) as exc:
                known_error = f"assignment_to_spanner: {exc}"
        out = outd / f"sat{i}.spanner"
        jobs.append(
            Job(
                f"sat{i}",
                ["run", "oracle", str(graph), "--eps", str(eps), "--max-edges", "64", "--out", str(out)],
                ["verify", str(graph), str(out), "--eps", str(eps)],
                out,
                threshold=threshold,
                satisfiable=assignment is not None,
                known_error=known_error,
            )
        )
    return jobs


def grid_graph(graphs, seed: int, k: int = 16):
    """A k-by-k grid with one random diagonal in about half of the cells and
    rational weights p/q, q <= 4, drawn from `seed`. Planar and connected."""
    rng = random.Random(seed)

    def weight() -> Fraction:
        q = rng.randint(1, 4)
        return Fraction(rng.randint(q, 4 * q), q)

    at = lambda r, c: r * k + c
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((at(r, c), at(r, c + 1), weight()))
            if r + 1 < k:
                edges.append((at(r, c), at(r + 1, c), weight()))
            if r + 1 < k and c + 1 < k and rng.random() < 0.5:
                if rng.random() < 0.5:
                    edges.append((at(r, c), at(r + 1, c + 1), weight()))
                else:
                    edges.append((at(r, c + 1), at(r + 1, c), weight()))
    return graphs.WeightedGraph(k * k, tuple(edges), declared_planar=True)


def _setup_greedy_verify(mods, ind: Path, outd: Path, seed: int) -> list[Job]:
    mods.graphs.write_graph(grid_graph(mods.graphs, seed), ind / "grid16.g")
    _gen(mods.cli, "gen", "greedyhard", "--eps", "1/1024", "--x", "2", "--out", str(ind / "greedyhard1024.g"))
    jobs = []
    for name, t in (("grid16", "11/10"), ("greedyhard1024", "513/512")):
        graph, out = ind / f"{name}.g", outd / f"{name}.spanner"
        jobs.append(
            Job(
                name,
                ["run", "greedy", str(graph), "--t", t, "--out", str(out)],
                ["verify", str(graph), str(out), "--eps", str(Fraction(t) - 1)],
                out,
                seeded=name == "grid16",
            )
        )
    return jobs


def _setup_prune_wide(mods, ind: Path, outd: Path, seed: int) -> list[Job]:
    graphs = mods.graphs
    _twin_start(mods.cli, ind, "ladder4", "ladder", "--n", "4", "--eps", "1/4")
    scaled, _ = graphs.scale_to_integers(graphs.read_graph(ind / "ladder4.g"))
    wide = graphs.WeightedGraph(
        scaled.n, tuple((u, v, w * 10**4) for u, v, w in scaled.edges), scaled.declared_planar
    )
    graphs.write_graph(wide, ind / "wide.g")
    return [
        _prune_job("wide-iterate", "iterate", ind / "wide.g", "1/4", outd, "--initial", str(ind / "ladder4.initial")),
        _prune_job("wide-scaled", "scaled", ind / "wide.g", "1/4", outd),
    ]


SETUPS = {
    "prune-ladders": _setup_prune_ladders,
    "oracle-sat": _setup_oracle_sat,
    "greedy-verify": _setup_greedy_verify,
    "prune-wide": _setup_prune_wide,
}
NAMES = tuple(SETUPS)


def setup(name: str, mods, workdir: Path, seed: int) -> list[Job]:
    """Write every input file of workload `name` under workdir/in and return
    its job list; the jobs write under workdir/out."""
    ind, outd = workdir / "in", workdir / "out"
    ind.mkdir(parents=True, exist_ok=True)
    outd.mkdir(parents=True, exist_ok=True)
    return SETUPS[name](mods, ind, outd, seed)
