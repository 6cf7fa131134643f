import contextlib
import io
import pathlib
import re
import shlex

import pytest

from scfqkd import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    rate = float(out.getvalue().split()[-1])
    assert rate == pytest.approx(4.80e-7, rel=0.03)


def test_readme_command_lines_parse():
    """Every ``scfqkd`` command line of the README's shell blocks parses
    with the CLI's own parser; nothing runs."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("scfqkd ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
