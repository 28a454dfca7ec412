import json
import os
import subprocess
import sys
import time
from fractions import Fraction
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


def test_list_total_dimension(capsys):
    """--dim takes a total dimension in ASCII digits as well."""
    from superlie import catalog
    code, out = run(capsys, "list", "--dim", "4")
    assert code == 0
    assert out.split() == [e.label for e in catalog.list_entries()
                           if e.m + e.n == 4]
    assert len(out.split()) == 21
    assert run(capsys, "list", "--dim", "0") == (0, "")
    code = main(["list", "--dim", "\u0664"])     # Arabic-Indic digit four
    assert code == 2
    assert capsys.readouterr().err.startswith("not found: ")
    assert main(["list", "--help"]) == 0
    assert "total dimension" in capsys.readouterr().out


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


def test_out_of_memory_is_one_line(capsys, monkeypatch):
    """A command that runs out of memory exits 1 with one `out of memory:`
    line on stderr and no traceback; the MemoryError is raised by a stub,
    so nothing is allocated."""
    from superlie import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_h2", exhausted)
    code = main(["h2", "(1|1)_0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == \
        "out of memory: h2 needs more memory than is available\n"
    assert "Traceback" not in captured.err


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
    '{"m": 1, "n": 0, "brackets": [{"lhs": "", "rhs": "e1", "value": []}]}',
    '{"m": 2, "n": 0, "brackets": [{"lhs": "e+1", "rhs": "e2", "value": []}]}',
    '{"m": 2, "n": 0, "brackets": [{"lhs": "e1", "rhs": "e1_0", "value": []}]}',
    '{"m": 2, "n": 0, "brackets": [{"lhs": 1, "rhs": "e2", "value": []}]}',
    '{"m": 2, "n": 0, "brackets": [{"lhs": "e1", "rhs": "e2", '
    '"value": [{"coeff": 1, "basis": "e2"}]}]}',
    '{"m": 2, "n": 0, "brackets": [{"lhs": "e1", "rhs": "e2", "value": 5}]}',
], ids=["truncated", "missing-n", "not-an-object", "unknown-basis",
        "empty-basis", "signed-basis", "underscored-basis", "numeric-basis",
        "numeric-coeff", "numeric-value"])
def test_malformed_file_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["h2", "invariants"])
@pytest.mark.parametrize("m", ["-1", "2.5", "true", '"2"', "null"])
def test_shape_must_be_a_nonnegative_integer(tmp_path, capsys, command, m):
    """A shape that is not a JSON integer >= 0 is a parse error, not a
    traceback or a silent int() of it."""
    path = tmp_path / "bad.json"
    path.write_text(f'{{"m": {m}, "n": 1, "brackets": []}}')
    _one_line_usage_error(capsys, [command, str(path)],
                          f"parse error: m must be an integer >= 0, not {m}")


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


# (2|3)_16 -> (2|3)_13 verifies with this basis
_BASIS_16_13 = {"y1": "t*f1", "y3": "t*f3"}


@pytest.mark.parametrize("doc", [
    {"basis": {"Y1": "t*f1", "y3": "t*f3"}},
    {"basis": {**_BASIS_16_13, "x9": "e1"}},
    {"basis": ["y1"]},
    {"basis": _BASIS_16_13, "alt_basis": "oops"},
    {"basis": _BASIS_16_13, "source": 7},
], ids=["capital-key", "key-outside-shape", "list-basis", "string-alt-basis",
        "numeric-source"])
def test_witness_structure_usage_error(tmp_path, capsys, doc):
    """A witness document of the wrong structure is a parse error, not a
    silent identity vector, a verdict or a traceback."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    _one_line_usage_error(capsys, ["degenerate", "--from", "(2|3)_16",
                                   "--to", "(2|3)_13", "--witness", str(path)],
                          "parse error: ")


def test_witness_with_non_ascii_digit_usage_error(tmp_path, capsys):
    # "\u0661" is the Arabic-Indic digit one, not an ASCII digit
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": {"y1": "\u0661*t*f1",
                                          "y3": "t*f3"}}))
    _one_line_usage_error(capsys, ["degenerate", "--from", "(2|3)_16",
                                   "--to", "(2|3)_13", "--witness", str(path)],
                          "parse error: ")


def test_alt_basis_evaluated_only_when_basis_fails(tmp_path, capsys):
    """An alt_basis text that does not parse is read only when the basis
    fails: beside a verifying basis the file verifies, beside a failing one
    it is a parse error."""
    path = tmp_path / "w.json"
    alt = {"y1": "t*f1 +"}
    path.write_text(json.dumps({"basis": _BASIS_16_13, "alt_basis": alt}))
    argv = ["degenerate", "--from", "(2|3)_16", "--to", "(2|3)_13",
            "--witness", str(path)]
    code, out = run(capsys, *argv)
    assert code == 0 and out == "Verified (2|3)_16 -> (2|3)_13\n"
    path.write_text(json.dumps({"basis": {"y1": "f1"}, "alt_basis": alt}))
    _one_line_usage_error(capsys, argv, "parse error: ")


def test_malformed_builtin_row_usage_error(capsys, monkeypatch):
    """A builtin row whose basis does not evaluate is a parse error, as a
    --witness file is."""
    from superlie import catalog
    row = {"from": "(2|3)_16", "to": "(2|3)_13", "source": "test",
           "basis": {"y1": "1/(t-t)*f1"}}
    monkeypatch.setattr(catalog, "witnesses", lambda dim=None: [row])
    _one_line_usage_error(capsys, ["degenerate", "--from", "(2|3)_16",
                                   "--to", "(2|3)_13"], "parse error: ")


def test_degenerate_unknown_label_not_found(capsys):
    # the label is looked up before the builtin witnesses
    _one_line_usage_error(capsys, ["degenerate", "--from", "(1|1)_9",
                                   "--to", "(1|1)_0"], "not found: '(1|1)_9'")


def _one_line_usage_error(capsys, argv, prefix):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("g1", [
    "5",
    "[5,5,5]",
    "[[1,0,0],[0,0,0],[0,0,0]]",
], ids=["scalar", "flat-list", "numbers"])
def test_gamma23_malformed_matrix_usage_error(capsys, g1):
    zero = ["0", "0", "0"]
    g2 = json.dumps([zero, ["0", "1", "0"], zero])
    _one_line_usage_error(capsys, ["gamma23", "--g1", g1, "--g2", g2],
                          "parse error: expected three lists of three")


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


def test_precision_option_reaches_the_solver(capsys):
    # --precision caps every series operation, the basis change's solve
    # included
    code, out = run(capsys, "degenerate", "--from", "(2|3)_6",
                    "--to", "(2|3)_10", "--precision", "16")
    assert code == 0
    assert out == "Verified (2|3)_6 -> (2|3)_10\n"


def test_precision_variable_is_not_read(capsys, monkeypatch):
    # only --precision sets the precision: a bad SUPERLIE_PRECISION is inert
    monkeypatch.setenv("SUPERLIE_PRECISION", "abc")
    code, out = run(capsys, "degenerate", "--from", "(2|3)_6",
                    "--to", "(2|3)_10")
    assert code == 0
    assert out == "Verified (2|3)_6 -> (2|3)_10\n"


def test_precision_is_an_option_of_degenerate_only(capsys):
    """Every builtin witness decides at the default cap."""
    for command in ("hasse", "components", "verify-all"):
        code = main([command, "2", "3", "--precision", "8"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), command
        assert "unrecognized arguments: --precision 8" in err


def test_degenerate_witness_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": {"y1": "t*f1"}}))
    code, out = run(capsys, "degenerate", "--from", "(1|1)_1",
                    "--to", "(1|1)_0", "--witness", str(path))
    assert code == 0 and "Verified" in out


@pytest.mark.parametrize("basis, code, out", [
    ({"y1": "t^(100000000)*f1"}, 1,
     "Failed (2|3)_16 -> (2|3)_13: Diverges term of order t^-100000000 "
     "survives at t->0\n"),
    ({"y1": "t*f1", "y3": "t^(1)*t^(1000000000)*t^(-1000000000)*f3"}, 0,
     "Verified (2|3)_16 -> (2|3)_13\n"),
], ids=["diverges", "verified"])
def test_large_integer_power_in_witness(tmp_path, capsys, basis, code, out):
    """A power t^k costs about log2(k) series products, not k."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": basis}))
    start = time.perf_counter()
    got = run(capsys, "degenerate", "--from", "(2|3)_16", "--to", "(2|3)_13",
              "--witness", str(path))
    assert time.perf_counter() - start < 5
    assert got == (code, out)


@pytest.mark.parametrize("basis, out", [
    ({"x1": "t^(-1/2)*e1"},
     "Failed (2|3)_16 -> (2|3)_13: Diverges term of order t^-1/2 survives "
     "at t->0\n"),
    ({"y2": "t^(-1/2)*f2"},
     "Failed (2|3)_16 -> (2|3)_13: Diverges term of order t^-1 survives "
     "at t->0\n"),
    ({"y1": "t*f1", "y2": "t*f1"},
     "Failed (2|3)_16 -> (2|3)_13: SingularBasis no pivot in column 1\n"),
], ids=["half-integral", "integral", "repeated-column"])
def test_graded_scaling_failures(tmp_path, capsys, basis, out):
    """A graded scaling's divergence is named with its exponent in
    canonical form; a repeated column is not a scaling and is refused by
    the series solve."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": basis}))
    got = run(capsys, "degenerate", "--from", "(2|3)_16", "--to", "(2|3)_13",
              "--witness", str(path))
    assert got == (1, out)


@pytest.mark.parametrize("label, basis", [
    ("(0|2)_0", {"y1": "f1", "y2": "f1"}),
    ("(2|0)_0", {"x1": "e1", "x2": "e1"}),
], ids=["odd", "even"])
def test_singular_basis_fails_in_either_parity(tmp_path, capsys, label,
                                               basis):
    """A repeated column is refused in either parity block, also on a shape
    where no stored pair has an output in that block."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": basis}))
    got = run(capsys, "degenerate", "--from", label, "--to", label,
              "--witness", str(path))
    assert got == (1, f"Failed {label} -> {label}: SingularBasis no pivot "
                   "in column 1\n")


def test_constant_does_not_read_precision_variable(tmp_path, capsys):
    """A structure constant that is not exact, 1/(1+t), is refused on one
    line."""
    from superlie import catalog
    doc = json.loads(json.dumps(catalog.get("(2|2)_6").doc))
    doc["brackets"][0]["value"][0]["coeff"] = "1/(1+t)"
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == \
        "parse error: not a constant: '1/(1+t)'\n"


def test_degenerate_witness_file_names_its_own_pair(tmp_path, capsys):
    # the file's "from"/"to" are the pair verified, so they are the pair named
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"from": "(1|1)_1", "to": "(1|1)_0",
                                "basis": {"y1": "t*f1"}}))
    code, out = run(capsys, "degenerate", "--from", "(2|3)_6",
                    "--to", "(2|3)_10", "--witness", str(path))
    assert code == 0
    assert out == "Verified (1|1)_1 -> (1|1)_0\n"


@pytest.mark.parametrize("name", ["5", "[1]", "null"])
def test_name_must_be_a_string(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"m": 1, "n": 1, "name": {name}, "brackets": []}}')
    prefix = f"parse error: name must be a string, not {name}"
    for command in ("check", "invariants"):
        _one_line_usage_error(capsys, [command, str(path)], prefix)


@pytest.mark.parametrize("value, text", [
    ('[{"coeff": 1, "basis": "e2"}]',
     '{"lhs": "e1", "rhs": "e2", "value": [{"coeff": 1, "basis": "e2"}]}'),
    ("5", '{"lhs": "e1", "rhs": "e2", "value": 5}'),
], ids=["numeric-coeff", "numeric-value"])
def test_malformed_bracket_is_named(tmp_path, capsys, value, text):
    """A bracket of the wrong JSON types is reported by its own text, not
    by a message about Python's types."""
    path = tmp_path / "bad.json"
    path.write_text('{"m": 2, "n": 0, "brackets": [{"lhs": "e1", '
                    f'"rhs": "e2", "value": {value}}}]}}')
    _one_line_usage_error(capsys, ["check", str(path)],
                          f"parse error: malformed bracket {text}: ")


def test_witness_file_checked_at_first_ladder_order(tmp_path, capsys,
                                                    monkeypatch):
    """The ladder first evaluates a --witness file's basis at min(1, cap),
    not at the cap.  The memo starts empty, so no decision stored by an
    earlier test hides the first evaluation."""
    from superlie import orbitrel
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    orders = []
    real = orbitrel._witness_matrices

    def spy(w, m, n, precision, basis):
        orders.append(precision)
        return real(w, m, n, precision, basis)

    monkeypatch.setattr(orbitrel, "_witness_matrices", spy)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": {"y1": "t*f1"}}))
    for cap, first in [("8", 1), ("1/2", Fraction(1, 2))]:
        orders.clear()
        code, out = run(capsys, "degenerate", "--from", "(1|1)_1", "--to",
                        "(1|1)_0", "--witness", str(path), "--precision", cap)
        assert code == 0 and "Verified" in out
        assert orders[0] == first


def test_witness_malformed_only_at_higher_order(tmp_path, capsys):
    """sqrt(sqrt(1 + sqrt2*t) - 1) is an unresolved zero's root at order 1
    and has a leading coefficient sqrt2/2 with no square root in the field
    from order 2: a parse error once the ladder reaches order 2, and
    insufficient precision when the cap is 1.  One line, no traceback."""
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": {
        "x1": "sqrt(sqrt(1 + sqrt2*t) - 1)*e1", "y1": "t*f1"}}))
    argv = ["degenerate", "--from", "(1|1)_1", "--to", "(1|1)_0",
            "--witness", str(path)]
    _one_line_usage_error(capsys, argv, "parse error: ")
    _one_line_usage_error(capsys, argv + ["--precision", "4"], "parse error: ")
    code = main(argv + ["--precision", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("insufficient precision: ")
    assert captured.err.count("\n") == 1


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


def test_gamma23_matrix_scalars(capsys):
    """Matrix entries are exprlang constants: a unary plus is fine, and a
    division by zero is a one-line parse error, not a traceback."""
    zero = ["0", "0", "0"]
    g2 = json.dumps([zero, ["0", "1", "0"], zero])
    g1 = json.dumps([["+1", "0", "0"], zero, zero])
    code, out = run(capsys, "gamma23", "--g1", g1, "--g2", g2)
    assert code == 0 and out.strip() == "(2|3)_4"
    g1 = json.dumps([["i/0", "0", "0"], zero, zero])
    _one_line_usage_error(capsys, ["gamma23", "--g1", g1, "--g2", g2],
                          "parse error: division by zero")


def test_check_file_division_by_zero(tmp_path, capsys):
    from superlie import catalog
    doc = json.loads(json.dumps(catalog.get("(2|2)_6").doc))
    doc["brackets"][0]["value"][0]["coeff"] = "i/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    _one_line_usage_error(capsys, ["check", str(path)],
                          "parse error: division by zero")


# text -> (stderr of a scalar context: a structure constant or a gamma23
# matrix entry, stderr of a witness's basis vector), each after "parse
# error: "; every one exits 2
MALFORMED_SCALARS = [
    ("e1^2", "symbol e1 not allowed here (at position 0)",
     "symbol e1 in scalar context"),
    ("(e1+1)^2", "symbol e1 not allowed here (at position 1)",
     "symbol e1 in scalar context"),
    ("sqrt(f1)", "symbol f1 not allowed here (at position 5)",
     "symbol f1 in scalar context"),
    ("sqrt(i) + f3", "symbol f3 not allowed here (at position 10)",
     "cannot add a scalar and a vector"),
    ("1/(t-t))", "trailing input (at position 7)",
     "trailing input (at position 7)"),
    ("1/(t-t)", "division by zero in '1/(t-t)'",
     "division by zero in '1/(t-t)'"),
    ("e1*f1", "symbol e1 not allowed here (at position 0)",
     "cannot multiply two vectors"),
    ("1/e1", "symbol e1 not allowed here (at position 2)",
     "cannot divide by a vector"),
    ("e1 + 1", "symbol e1 not allowed here (at position 0)",
     "cannot add a scalar and a vector"),
    ("sqrt(3)", "cannot evaluate 'sqrt(3)': leading coefficient has no "
     "square root in the field",
     "leading coefficient has no square root in the field"),
    ("t", "not a constant: 't'", "'t' is a scalar, not a basis vector"),
    ("e9", "symbol e9 not allowed here (at position 0)",
     "unknown basis symbol e9"),
    ("e1*f1)", "symbol e1 not allowed here (at position 0)",
     "trailing input (at position 5)"),
    ("sqrt(f1) +", "symbol f1 not allowed here (at position 5)",
     "expected an atom (at position 10)"),
    ("(e1*f1)^2", "symbol e1 not allowed here (at position 1)",
     "symbol e1 in scalar context"),
    ("-f1^2", "symbol f1 not allowed here (at position 1)",
     "symbol f1 in scalar context"),
    ("t^(1/2)", "not a constant: 't^(1/2)'",
     "'t^(1/2)' is a scalar, not a basis vector"),
    ("2*", "expected an atom (at position 2)",
     "expected an atom (at position 2)"),
    ("e1*^e2*@e1", "symbol e1*^e2*@e1 not allowed here (at position 0)",
     "unknown basis symbol e1*^e2*@e1"),
    ("(1/(t-t) + e1)^2", "symbol e1 not allowed here (at position 11)",
     "division by zero in '(1/(t-t) + e1)^2'"),
    ("(e1 + e1)^(1/0)", "symbol e1 not allowed here (at position 1)",
     "expected a nonzero denominator (at position 13)"),
    ("f1/(f1-f1)", "symbol f1 not allowed here (at position 0)",
     "cannot divide by a vector"),
]


@pytest.mark.parametrize("text, scalar_error, vector_error",
                         MALFORMED_SCALARS)
def test_malformed_scalar_text_error_lines(tmp_path, capsys, text,
                                           scalar_error, vector_error):
    """Malformed text in a structure constant (`check FILE`), a gamma23
    matrix entry and a witness's basis vector: exit 2 and one stderr line,
    a syntax error anywhere winning over an evaluation error."""
    from superlie import catalog
    doc = json.loads(json.dumps(catalog.get("(2|2)_6").doc))
    doc["brackets"][0]["value"][0]["coeff"] = text
    algebra = tmp_path / "a.json"
    algebra.write_text(json.dumps(doc))
    zero = ["0", "0", "0"]
    g1 = json.dumps([[text, "0", "0"], zero, zero])
    g2 = json.dumps([zero, ["0", "1", "0"], zero])
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"basis": {"y1": text, "y3": "t*f3"}}))
    for argv, error in (
            (["check", str(algebra)], scalar_error),
            (["gamma23", "--g1", g1, "--g2", g2], scalar_error),
            (["degenerate", "--from", "(2|3)_16", "--to", "(2|3)_13",
              "--witness", str(witness)],
             f"y1 of (2|3)_16->(2|3)_13: {vector_error}")):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"parse error: {error}\n"), argv


def _nested(text: str, depth: int, how: str) -> str:
    """`text` inside `depth` parentheses, or after `depth` minus signs."""
    if how == "parentheses":
        return "(" * depth + text + ")" * depth
    return "-" * depth + text


def _scalar_argvs(tmp_path, coeff, basis_vector, entry):
    """The CLI calls that read `coeff` as a structure constant of (2|2)_6,
    `basis_vector` as y1 of a (1|1)_1 -> (1|1)_0 witness and `entry` as the
    first entry of a gamma23 matrix."""
    from superlie import catalog
    doc = json.loads(json.dumps(catalog.get("(2|2)_6").doc))
    doc["brackets"][0]["value"][0]["coeff"] = coeff
    algebra = tmp_path / "a.json"
    algebra.write_text(json.dumps(doc))
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"basis": {"y1": basis_vector}}))
    zero = ["0", "0", "0"]
    g1 = json.dumps([[entry, "0", "0"], zero, zero])
    g2 = json.dumps([zero, ["0", "1", "0"], zero])
    return [[command, str(algebra)] for command in ("check", "invariants",
                                                    "h2")] + [
        ["degenerate", "--from", "(1|1)_1", "--to", "(1|1)_0",
         "--witness", str(witness)],
        ["gamma23", "--g1", g1, "--g2", g2]]


@pytest.mark.parametrize("how", ["parentheses", "minus"])
def test_scalar_text_nested_too_deeply(tmp_path, capsys, how):
    """Scalar text nested 3000 levels deep, past the recursion limit: exit
    2 and one stderr line, not a RecursionError traceback."""
    text = _nested("1", 3000, how)
    argvs = _scalar_argvs(tmp_path, text, _nested("t", 3000, how) + "*f1",
                          text)
    for argv in argvs:
        error = "expression nested too deeply"
        if argv[0] == "degenerate":
            error = f"y1 of (1|1)_1->(1|1)_0: {error}"
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (2, "", f"parse error: {error}\n"), argv[0]


@pytest.mark.parametrize("how", ["parentheses", "minus"])
def test_scalar_text_nested_200_deep_parses(tmp_path, capsys, how):
    """Text nested 200 levels deep reads to its value: each call prints
    what it prints for the text without the nesting."""
    (tmp_path / "nested").mkdir()
    (tmp_path / "plain").mkdir()
    argvs = _scalar_argvs(tmp_path / "nested", _nested("1", 200, how),
                          _nested("t", 200, how) + "*f1",
                          _nested("1", 200, how))
    plain = _scalar_argvs(tmp_path / "plain", "1", "t*f1", "1")
    for argv, want in zip(argvs, plain):
        assert run(capsys, *argv) == run(capsys, *want), argv[0]


def test_json_nested_too_deeply(tmp_path, capsys):
    """A JSON array nested 30000 levels deep, as an algebra file, a witness
    file or a gamma23 matrix: exit 2 and one parse error line."""
    deep = "[" * 30000 + "]" * 30000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    g2 = json.dumps([["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]])
    for argv in ([[command, str(path)] for command in ("check", "invariants",
                                                      "h2")]
                 + [["degenerate", "--from", "(1|1)_1", "--to", "(1|1)_0",
                     "--witness", str(path)],
                    ["gamma23", "--g1", deep, "--g2", g2]]):
        _one_line_usage_error(capsys, argv, "parse error: ")


def test_hasse_dot(tmp_path, capsys):
    path = tmp_path / "g.dot"
    code, out = run(capsys, "hasse", "1", "2", "--dot", str(path))
    assert code == 0
    dot = path.read_text()
    assert dot.count("->") == 3
    assert len([l for l in dot.splitlines() if "label=" in l]) == 4


def test_hasse_dot_directory_usage_error(tmp_path, capsys):
    _one_line_usage_error(capsys, ["hasse", "1", "2", "--dot", str(tmp_path)],
                          "i/o error: ")


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


@pytest.mark.parametrize("cases", ["-3", "-1", "x", "2.5"])
def test_selftest_cases_must_be_a_nonnegative_integer(capsys, cases):
    code = main(["selftest", "--seed", "7", "--cases", cases])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --cases: expected an integer >= 0" in captured.err


def test_selftest_zero_cases(capsys):
    code, out = run(capsys, "selftest", "--seed", "7", "--cases", "0")
    assert code == 0
    assert "field round-trips and identities: 0 cases OK" in out
