"""The README's Python API example runs as written.

The first ```python block under the "## Python API" heading is executed in
a fresh namespace; it must print the text report it builds, and its view
at one point is column 0 of the point's batch of one.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_python_api_example_runs():
    namespace, out = {"__name__": "readme"}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(api_example(), str(README), "exec"), namespace)
    assert out.getvalue() == namespace["report"].render_text() + "\n"
    assert namespace["t"].components.shape == (3, 3, 3, 1)
