"""The README runs: its library example prints the value it promises,
and the commands it lists give the pinned reports on its problem file
(the bytes are in tests/golden)."""

import re
from pathlib import Path

import pytest

from fdtc.cli import EXIT_OK, main

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text()


def _block(lang):
    """The README's one fenced block in ``lang``."""
    (block,) = re.findall(r"```%s\n(.*?)```" % lang, README, re.S)
    return block


def test_library_example(capsys):
    exec(_block("python"), {})
    assert capsys.readouterr().out == "1/6\n"


@pytest.mark.parametrize("name,argv", [
    ("fdtc-exact", ["fdtc", "exact", "problem.json", "--word", "phi"]),
    ("fdtc-interval", ["fdtc", "interval", "problem.json", "--word", "phi",
                       "--N", "4"]),
    ("classify", ["classify", "problem.json"]),
    ("surface-info", ["surface", "info", "problem.json"]),
])
def test_problem_file(name, argv, tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(_block("json"))
    argv = [str(problem) if a == "problem.json" else a for a in argv]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    want = TESTS / "golden" / ("readme-%s.json" % name)
    assert out == want.read_bytes().decode()
