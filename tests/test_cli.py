import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl3hecke.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

MODULE_5_4_3_0 = {
    "label": [4, 3, 0],
    "dim": 18,
    "carrier_dim": 30,
    "weight_spaces": 18,
    "levi_dim": 2,
    "gl2_label": [4, 3],
}


def _run(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_module_command_is_deterministic_apart_from_timings(capsys):
    first, second = (_run(capsys, ["module", "5", "4", "3", "0"]) for _ in range(2))
    assert set(first.pop("timings")) == {"build_s", "u_invariants_s"}
    second.pop("timings")
    assert first == second
    assert first == MODULE_5_4_3_0


def test_module_command_rejects_an_unrestricted_label(capsys):
    with pytest.raises(SystemExit):
        main(["module", "5", "9", "3", "0"])
    assert "not p-restricted" in capsys.readouterr().err


def _fresh_python(*args):
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True, timeout=300)


def test_module_command_runs_as_a_script_in_a_fresh_interpreter():
    # the path the console script takes, outside this test process
    lines = _fresh_python("-m", "gl3hecke.cli", "module", "5", "4", "3", "0").stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record.pop("timings")) == {"build_s", "u_invariants_s"}
    assert record == MODULE_5_4_3_0
    # benchmark workers import the package and must never compile the CLI
    probe = "import sys, gl3hecke; print('gl3hecke.cli' in sys.modules)"
    assert _fresh_python("-c", probe).stdout.strip() == "False"
