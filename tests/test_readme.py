"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert sketch is not None
    names: dict = {}
    exec(compile(sketch.group(1), "README.md", "exec"), names)
    m = len(names["w"].singularities)
    assert names["times"].shape == (65,)
    assert names["flow"].shape == (65, 4 * m + 7)
