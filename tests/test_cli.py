import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superlie
from superlie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run(capsys, "list", "--dim", "(1|2)")
    assert code == 0
    assert out.split() == ["(1|2)_0", "(1|2)_1", "(1|2)_2", "(1|2)_3"]


def _source_env():
    # the package directory's parent is enough: no install is needed
    env = dict(os.environ)
    src = str(Path(superlie.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_python_m_superlie_runs_from_source():
    proc = subprocess.run([sys.executable, "-m", "superlie", "list"],
                          env=_source_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    labels = proc.stdout.split()
    assert len(labels) == len(set(labels)) == 99
    assert labels[0] == "(2|0)_0"


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_fails_without_traceback(unbuffered):
    """Output to a pipe whose reader is gone (`... | head -1`) exits 1 with
    nothing on stderr, whether print or the final flush hits the pipe."""
    env = dict(_source_env(), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superlie", "nondegen",
             "--from", "(2|3)_6", "--to", "(2|3)_18"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_show_is_byte_deterministic(capsys):
    code1, out1 = run(capsys, "show", "(2|2)_6")
    code2, out2 = run(capsys, "show", "(2|2)_6")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["label"] == "(2|2)_6"


def test_check_ok_and_trivial(capsys):
    assert run(capsys, "check", "(2|2)_6")[0] == 0
    assert run(capsys, "check", "(0|2)_0")[0] == 0


def test_check_tampered_file(tmp_path, capsys):
    from superlie import catalog
    doc = json.loads(json.dumps(catalog.get("(2|2)_6").doc))
    doc["brackets"][0]["value"][0]["basis"] = "f2"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("command", ["check", "h2", "invariants"])
@pytest.mark.parametrize("text", [
    '{"m": 1, "n": 1, "brackets": [',
    '{"m": 1, "brackets": []}',
    '[]',
    '{"m": 1, "n": 0, "brackets": [{"lhs": "e1", "rhs": "x9", "value": []}]}',
], ids=["truncated", "missing-n", "not-an-object", "unknown-basis"])
def test_malformed_file_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"basis": {"y1": "t*f1"',
    '[1, 2]',
    '{"alt_basis": {"y1": "t*f1"}}',
    '{"basis": {"x1": "t*e1 +"}}',
    '{"basis": {"y1": "e1*f1"}}',
], ids=["truncated", "not-an-object", "missing-basis", "syntax", "type"])
def test_malformed_witness_usage_error(tmp_path, capsys, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    _one_line_usage_error(capsys, ["degenerate", "--from", "(1|1)_1",
                                   "--to", "(1|1)_0", "--witness", str(path)],
                          "parse error: ")


def _one_line_usage_error(capsys, argv, prefix):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1


def test_nondegen_shapes_differ_usage_error(capsys):
    _one_line_usage_error(capsys, ["nondegen", "--from", "(2|3)_6",
                                   "--to", "(1|2)_1"],
                          "usage error: graded shapes differ")


def test_verify_all_unknown_shape_usage_error(capsys):
    _one_line_usage_error(capsys, ["verify-all", "6", "0"],
                          "not found: '(6|0)'")


@pytest.mark.parametrize("command", ["hasse", "components"])
def test_empty_shape_usage_error(capsys, command):
    _one_line_usage_error(capsys, [command, "6", "0"], "not found: '(6|0)'")


def test_h2_directory_usage_error(tmp_path, capsys):
    _one_line_usage_error(capsys, ["h2", str(tmp_path)], "parse error: ")


def test_unknown_label_usage_error(capsys):
    assert run(capsys, "show", "(9|9)_1")[0] == 2
    assert run(capsys, "check", "(9|9)_1")[0] == 2


def test_bad_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_degenerate_builtin(capsys):
    code, out = run(capsys, "degenerate", "--from", "(3|1)_3",
                    "--to", "(3|1)_1")
    assert code == 0
    assert "Verified" in out


@pytest.mark.parametrize("value", ["1/2", "0", "-1", "abc"])
def test_degenerate_precision(capsys, value):
    """A precision too low to decide fails on one line; anything but a
    positive rational is a usage error.  No traceback either way."""
    code = main(["degenerate", "--from", "(2|3)_6", "--to", "(2|3)_10",
                 "--precision", value])
    err = capsys.readouterr().err
    if value == "1/2":
        assert code == 1
        assert err.startswith("insufficient precision: ")
        assert err.count("\n") == 1
    else:
        assert code == 2
        assert "must be a positive rational" in err
    assert "Traceback" not in err


def test_precision_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("SUPERLIE_PRECISION", "abc")
    code = main(["degenerate", "--from", "(2|3)_6", "--to", "(2|3)_10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be a positive rational" in err
    assert "Traceback" not in err


def test_hasse_insufficient_precision(capsys):
    code = main(["hasse", "2", "3", "--precision", "1/2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("insufficient precision: ")
    assert captured.err.count("\n") == 1


def test_degenerate_witness_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": {"y1": "t*f1"}}))
    code, out = run(capsys, "degenerate", "--from", "(1|1)_1",
                    "--to", "(1|1)_0", "--witness", str(path))
    assert code == 0 and "Verified" in out


def test_degenerate_witness_file_names_its_own_pair(tmp_path, capsys):
    # the file's "from"/"to" are the pair verified, so they are the pair named
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"from": "(1|1)_1", "to": "(1|1)_0",
                                "basis": {"y1": "t*f1"}}))
    code, out = run(capsys, "degenerate", "--from", "(2|3)_6",
                    "--to", "(2|3)_10", "--witness", str(path))
    assert code == 0
    assert out == "Verified (1|1)_1 -> (1|1)_0\n"


def test_nondegen(capsys):
    code, out = run(capsys, "nondegen", "--from", "(1|2)_2",
                    "--to", "(1|2)_3")
    assert code == 0
    assert "derived" in out
    code, out = run(capsys, "nondegen", "--from", "(2|3)_7",
                    "--to", "(2|3)_2")
    assert code == 1
    assert "Inconclusive" in out


def test_h2_json(capsys):
    code, out = run(capsys, "h2", "(2|1)_1")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_invariants_json(capsys):
    code, out = run(capsys, "invariants", "(1|1)_1", "--no-trivial")
    assert code == 0
    json.loads(out)


def test_gamma23_classify(capsys):
    g1 = json.dumps([["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]])
    g2 = json.dumps([["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]])
    code, out = run(capsys, "gamma23", "--g1", g1, "--g2", g2)
    assert code == 0
    assert out.strip() == "(2|3)_4"
    code, _ = run(capsys, "gamma23", "--g1", "[[", "--g2", g2)
    assert code == 2


def test_hasse_dot(tmp_path, capsys):
    path = tmp_path / "g.dot"
    code, out = run(capsys, "hasse", "1", "2", "--dot", str(path))
    assert code == 0
    dot = path.read_text()
    assert dot.count("->") == 3
    assert len([l for l in dot.splitlines() if "label=" in l]) == 4


def test_components_cmd(capsys):
    code, out = run(capsys, "components", "1", "2")
    assert code == 0
    assert "2 components" in out


def test_verify_all_cmd(capsys):
    code, out = run(capsys, "verify-all", "1", "2")
    assert code == 0
    assert out.endswith("2 components: (1|2)_2, (1|2)_3\nverify-all: OK\n")


def test_selftest_seeded_deterministic(capsys):
    code1, out1 = run(capsys, "selftest", "--seed", "7", "--cases", "50")
    code2, out2 = run(capsys, "selftest", "--seed", "7", "--cases", "50")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed: 7" in out1
