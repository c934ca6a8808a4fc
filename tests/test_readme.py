"""The README's library example runs, and every exported name resolves."""

import contextlib
import io
import re
from pathlib import Path

import stratree

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    spec = stratree.SymmetricTreeSpec([3, 2, 2])
    assert len(out.getvalue().splitlines()) == len(stratree.decompose_spectrum(spec).values)


def test_every_exported_name_resolves():
    assert [name for name in stratree.__all__ if not hasattr(stratree, name)] == []
    assert len(set(stratree.__all__)) == len(stratree.__all__)
