"""The README's library example runs as written against the package root."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    block = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no '## Library example' python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
