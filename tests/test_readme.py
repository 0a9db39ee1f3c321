"""The README's examples run as written: the library example against the
package root, and every command of the CLI block through `cli.main`."""
import gc
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import spannerlab.graphs as graphs_module
from spannerlab.cli import EXIT_OK, main
from spannerlab.hardness import reduce_sat
from spannerlab.oracle import exact_opt_spanner

from test_acceptance import _hardness_catalogue

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    block = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no '## Library example' python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def run_cli_block(directory: Path, monkeypatch) -> None:
    """Run every command of the README's CLI block in `directory`, with
    `formula.txt` from the formula block and a two-row `manifest.txt`."""
    text = README.read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no '## CLI' sh block"
    formula = re.search(r"^SAT formula files look like:\n\n```\n(.*?)^```", text, re.M | re.S)
    assert formula is not None, "README has no formula block"
    monkeypatch.chdir(directory)
    Path("formula.txt").write_text(formula.group(1))
    Path("manifest.txt").write_text(
        "ladder.g iterate eps=1/4 initial=ladder_adv.g cell_cap=1000\n"
        "hard.g oracle eps=1/64 max_edges=64  # a comment\n"
    )
    commands = [line.split("#", 1)[0].split() for line in block.group(1).splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) > 8 and all(argv[0] == "spannerlab" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
    assert Path("results.csv").read_text().count("\n") == 3


def test_cli_block_runs(tmp_path, monkeypatch):
    run_cli_block(tmp_path, monkeypatch)


def test_apsp_is_only_given_zero_free_graphs(tmp_path, monkeypatch):
    # pruning contracts zero-weight edges at its entry, so no APSP sees one;
    # the CLI block prunes a SAT threshold graph. The oracle, run on the ten
    # of the catalogue, calls no APSP: it reads bounded rows of its own
    real, seen = graphs_module.apsp, []

    def checked(g):
        seen.append(0 not in g.int_weights.values())
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("spannerlab") and getattr(module, "apsp", None) is real:
            monkeypatch.setattr(module, "apsp", checked)
    run_cli_block(tmp_path, monkeypatch)
    pruning = len(seen)
    eps = Fraction(1, 10)
    for inst in _hardness_catalogue():
        exact_opt_spanner(reduce_sat(inst, eps).graph, eps, max_edges=64)
    assert len(seen) == pruning > 0 and all(seen)


def package_name(obj) -> str | None:
    """The qualified name of obj's function, or of its class, when that is
    defined in spannerlab; else None."""
    named = obj if isinstance(obj, types.FunctionType) else type(obj)
    module = named.__module__ or ""
    return f"{module}.{named.__qualname__}" if module.partition(".")[0] == "spannerlab" else None


def test_cli_block_leaves_no_package_object_to_the_cyclic_collector(tmp_path, monkeypatch):
    # the commands cover gen of every family, run of every algorithm,
    # verify and bench; under DEBUG_SAVEALL every object a collection finds
    # unreachable, automatic or not, is kept in gc.garbage instead of freed
    debug, first = gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_cli_block(tmp_path, monkeypatch)
        gc.collect()
        cyclic = {name for name in map(package_name, gc.garbage[first:]) if name}
    finally:
        gc.set_debug(debug)
        del gc.garbage[first:]
    assert not cyclic, sorted(cyclic)
