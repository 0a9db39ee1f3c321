"""The README's examples run as written: the library example against the
package root, and every command of the CLI block through `cli.main`."""
import re
from pathlib import Path

from spannerlab.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    block = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no '## Library example' python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no '## CLI' sh block"
    formula = re.search(r"^SAT formula files look like:\n\n```\n(.*?)^```", text, re.M | re.S)
    assert formula is not None, "README has no formula block"
    monkeypatch.chdir(tmp_path)
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
