import json

import pytest

from gl3hecke.cli import main


def _run(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_module_command_is_deterministic_apart_from_timings(capsys):
    first, second = (_run(capsys, ["module", "5", "4", "3", "0"]) for _ in range(2))
    assert set(first.pop("timings")) == {"build_s", "u_invariants_s", "span_s"}
    second.pop("timings")
    assert first == second
    assert first == {
        "label": [4, 3, 0],
        "dim": 18,
        "carrier_dim": 30,
        "weight_spaces": 18,
        "levi_dim": 2,
        "gl2_label": [4, 3],
    }


def test_module_command_rejects_an_unrestricted_label(capsys):
    with pytest.raises(SystemExit):
        main(["module", "5", "9", "3", "0"])
    assert "not p-restricted" in capsys.readouterr().err
