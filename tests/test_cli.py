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


@pytest.mark.parametrize("argv", [["9", "1", "0", "0"], ["9", "2", "1", "0"], ["25", "3", "1", "0"]])
def test_module_command_rejects_a_p_that_is_not_prime(capsys, argv):
    # these printed a module over Z/9 or ended in a CertificateError traceback
    with pytest.raises(SystemExit) as exit:
        main(["module"] + argv)
    assert exit.value.code == 2
    assert "p = %s is not prime" % argv[0] in capsys.readouterr().err


def _fresh_python(*args, **env):
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path, **env)
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


# the child caps its own address space, then runs the module command as
# python -m does
CAPPED_MODULE = """
import resource, runpy, sys
cap = 768 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.argv = ["gl3hecke", "module", "13", "24", "12", "0"]
runpy.run_module("gl3hecke.cli", run_name="__main__")
"""


def test_module_command_builds_p13_under_a_768_mb_address_space_cap():
    # a build that formed the full images of the generators peaked above
    # 1 GB of address space on this module
    record = json.loads(_fresh_python("-c", CAPPED_MODULE, OPENBLAS_NUM_THREADS="1").stdout)
    assert (record["dim"], record["levi_dim"]) == (2197, 13)
