"""Smoke test: every script under scripts/ and the README's library
example run end to end on small arguments, so a change to the library
API cannot break one unnoticed."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# script -> (argv, expected exit status)
RUNS = {
    "stream_equidistribution.py": (["--prime", "3", "--coeffs", "1,1,6", "--level", "3"], 0),
}


def load(name):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_has_a_smoke_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_main_runs(capsys, name):
    argv, status = RUNS[name]
    assert load(name).main(argv) == status
    assert capsys.readouterr().out


def test_stream_script_refuses_a_nonminimal_map(capsys):
    main = load("stream_equidistribution.py").main
    assert main(["--prime", "3", "--coeffs", "1,4,0,4,0,2", "--level", "3"]) == 2
    assert "not minimal" in capsys.readouterr().err


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
