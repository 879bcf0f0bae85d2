"""The README's Python code runs as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_python_block_of_the_readme_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.S | re.M)
    assert blocks  # the Quick tour at least
    printed = []
    for i, code in enumerate(blocks, 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, f"README.md, python block {i}", "exec"), {"__name__": "__readme__"})
        printed.append(out.getvalue())
    # the Quick tour prints the divergence residual off the ring, 0.0275 on its grid
    assert 0.0 <= float(printed[0]) < 0.1
