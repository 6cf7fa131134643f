"""``tools/count_src.py``, the line counter of ``src/``: every line has one
kind, and a docstring's blank lines count as docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_src.py"


def _count(source: str) -> dict:
    spec = importlib.util.spec_from_file_location("count_src", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.count(source)


def test_each_line_has_one_kind():
    source = ('"""Module.\n\nMore."""\n\nX = 1  # note\n# alone\n\n\n'
              'def f():\n    """Doc."""\n    return X\n')
    assert _count(source) == {"code": 3, "docstring": 4, "comment": 1, "blank": 3, "lines": 11}
