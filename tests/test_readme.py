"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # in order, in one namespace, as a reader would paste them
        exec(compile(block, str(README), "exec"), namespace)
