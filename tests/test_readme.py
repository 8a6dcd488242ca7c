"""README.md's python examples run as written, so the documented API cannot
drift from the code."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks, "README.md has no python example"
    namespace = {}
    for block in blocks:  # in order, sharing names, as a reader would run them
        exec(compile(block, str(README), "exec"), namespace)
