"""The README's library example runs as written."""
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().strip()
