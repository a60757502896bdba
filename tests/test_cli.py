import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import hermcycles
from hermcycles import cli
from hermcycles.cli import run
from hermcycles.padic import parse_rational

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(argv, stdin_text=None):
    buf = io.StringIO()
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(buf):
                code = run(argv)
        finally:
            sys.stdin = old
    else:
        with redirect_stdout(buf):
            code = run(argv)
    return code, buf.getvalue()


def test_cycle_unimodular_single_point():
    code, out = invoke(
        ["cycle", "--p", "3", "--epsilon", "-1"], stdin_text='{"matrix": [[1]]}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 0 and doc["dimension"] == 0 and doc["single_point"] is True


def test_cycle_nonintegral_empty():
    code, out = invoke(
        ["cycle", "--p", "3"],
        stdin_text='{"matrix": [[{"a": "1/3", "b": "0"}]]}',
    )
    assert code == 0
    assert json.loads(out) == {"status": "empty-nonintegral"}


def test_cycle_rejects_p2():
    code, out = invoke(["cycle", "--p", "2"], stdin_text='{"matrix": [[1]]}')
    assert code == 2
    assert json.loads(out)["error"]["code"] == "unsupported-prime"


def test_schema_violations_exit_1():
    code, out = invoke(["cycle", "--p", "3"], stdin_text='{"matrix": [[1]], "x": 1}')
    assert code == 1
    assert json.loads(out)["error"]["code"] == "schema-violation"
    code, out = invoke(["cycle", "--p", "3"], stdin_text="not json")
    assert code == 1
    code, out = invoke(["cycle", "--p", "3"], stdin_text='{"matrix": [[1, 2]]}')
    assert code == 1
    code, out = invoke(["nosuchcommand"])
    assert code == 1


def test_domain_errors_exit_2():
    code, out = invoke(
        ["jordan", "--p", "3"], stdin_text='{"gram": [[1, 1], [1, 1]]}'
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "singular-matrix"
    code, out = invoke(
        ["jordan", "--p", "3"],
        stdin_text='{"gram": [[{"a":"0","b":"1"}]]}',
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "hermitian-violation"
    assert "location" in json.loads(out)["error"]


def test_resource_errors_exit_3():
    plane = json.dumps(
        {"gram": [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]}
    )
    code, out = invoke(
        ["vertices", "--p", "3", "--max-candidates", "2"], stdin_text=plane
    )
    assert code == 3
    assert json.loads(out)["error"]["code"] == "enumeration-limit"
    assert out == (
        "{\n"
        '  "error": {\n'
        '    "code": "enumeration-limit",\n'
        '    "count": 3,\n'
        '    "message": "candidate count exceeded 2"\n'
        "  }\n"
        "}\n"
    )


def test_candidate_bound_fires_before_the_work():
    # H(3) at p=101 has 101^3 residues in its deepest slot; the bound must
    # fire after ten candidates, without building anything of that size.
    h3 = json.dumps(
        {"gram": [[0, {"a": "0", "b": "101"}], [{"a": "0", "b": "-101"}, 0]]}
    )
    tracemalloc.start()
    try:
        code, out = invoke(
            ["vertices", "--p", "101", "--max-candidates", "10"], stdin_text=h3
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert json.loads(out)["error"]["count"] == 11
    assert peak < 5 * 2**20


def test_jordan_command():
    code, out = invoke(
        ["jordan", "--p", "3"],
        stdin_text='{"gram": [[1, 0], [0, 3]]}',
    )
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert blocks == [
        {"scale": 0, "rank": 1, "det_val": 0, "det_unit_is_square": True, "split": False},
        {"scale": 2, "rank": 1, "det_val": 2, "det_unit_is_square": True, "split": False},
    ]


def test_vertices_and_verify_commands():
    plane = json.dumps(
        {
            "gram": [
                [0, {"a": "0", "b": "1"}],
                [{"a": "0", "b": "-1"}, 0],
            ]
        }
    )
    code, out = invoke(["vertices", "--p", "3"], stdin_text=plane)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_type"] == 2 and doc["max_count"] == 1
    assert sorted(v["type"] for v in doc["vertices"]) == [0, 0, 0, 0, 2]

    code, out = invoke(["verify", "--p", "3"], stdin_text=plane)
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out = invoke(["vertices", "--p", "3", "--dot"], stdin_text=plane)
    assert code == 0
    assert out.startswith("digraph")


def test_global_command_and_golden_files():
    for name in ("global_identity", "global_diag_2_5", "global_diag_1_3"):
        request = str(FIXTURES / f"{name}.request.json")
        golden = (FIXTURES / f"{name}.golden.json").read_text()
        code, out = invoke(["global", request])
        assert code == 0
        assert out == golden


def test_global_empty_example():
    code, out = invoke(
        ["global"], stdin_text='{"delta": -3, "matrix": [[2, 0], [0, 5]]}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "empty" and doc["diff0"] == [2, 5]


def test_hilbert_command():
    code, out = invoke(["hilbert"], stdin_text='{"a": "-1", "b": "-3", "place": 3}')
    assert code == 0
    assert json.loads(out) == {"symbol": -1}
    code, out = invoke(["hilbert"], stdin_text='{"a": "-1", "b": "-1", "place": "real"}')
    assert json.loads(out) == {"symbol": -1}
    code, out = invoke(["hilbert"], stdin_text='{"a": "1", "b": "1", "place": "x"}')
    assert code == 1


def test_determinism_byte_for_byte():
    doc = '{"delta": -3, "matrix": [[1, 0], [0, 1]]}'
    outs = {invoke(["global"], stdin_text=doc)[1] for _ in range(3)}
    assert len(outs) == 1


def test_round_trip_scaled_gram():
    # feeding the derived scaled Gram through --raw reproduces the invariants
    from fractions import Fraction as F

    from hermcycles import HermGram, RamifiedContext, build_cycle_lattice

    ctx = RamifiedContext(3, F(-1))
    T = HermGram([[ctx.element(1), ctx.pi()], [-ctx.pi(), ctx.element(2)]], ctx)
    G = build_cycle_lattice(T, ctx)
    request = json.dumps({"matrix": [[e.to_json() for e in row] for row in G.entries]})
    code1, out1 = invoke(
        ["cycle", "--p", "3", "--epsilon", "-1"],
        stdin_text=json.dumps({"matrix": [[e.to_json() for e in row] for row in T.entries]}),
    )
    code2, out2 = invoke(["cycle", "--p", "3", "--epsilon", "-1", "--raw"], stdin_text=request)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_script_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(hermcycles.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "hermcycles.cli", "hilbert"],
        input='{"a": "2", "b": "7", "place": 7}',
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"symbol": 1}


def test_integer_past_the_digit_limit_is_a_schema_violation():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    doc = '{"a": %s, "b": "3", "place": 5}' % ("1" * (limit + 1))
    code, out = invoke(["hilbert"], stdin_text=doc)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "schema-violation"
    assert error["message"].startswith("invalid JSON: ")


def test_primality_past_the_miller_rabin_limit_is_refused():
    # the smallest strong pseudoprimes to the first twelve and thirteen prime bases
    twelve, thirteen = "318665857834031151167461", "3317044064679887385961981"
    for place, message in (
        (twelve, f"{twelve} is not prime"),
        (thirteen, f"primality of {thirteen} is not certified at or above {thirteen}"),
        # past the limit, a factor among the bases is still found exactly
        (str(3 * 10**25), f"{3 * 10**25} is not prime"),
    ):
        for argv, doc in (
            (["hilbert"], '{"a": "2", "b": "3", "place": %s}' % place),
            (["jordan", "--p", place], '{"gram": [[1]]}'),
        ):
            code, out = invoke(argv, stdin_text=doc)
            assert code == 2
            error = {"code": "precondition-violation", "message": message}
            assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


def test_global_error_documents():
    cases = (
        (
            '[[1, {"x": "0", "y": "1"}], [{"x": "0", "y": "1"}, 1]]',
            2,
            {
                "code": "hermitian-violation",
                "location": "matrix[1][0]",
                "message": "entry (1,0) must be the conjugate of entry (0,1)",
            },
        ),
        (
            "[[1, true], [0, 1]]",
            1,
            {
                "code": "schema-violation",
                "location": "matrix[0][1]",
                "message": "not a field element: True",
            },
        ),
        (
            '[[1, {"a": "1"}], [0, 1]]',
            1,
            {
                "code": "schema-violation",
                "location": "matrix[0][1]",
                "message": "unknown fields ['a']",
            },
        ),
    )
    for matrix, exit_code, error in cases:
        code, out = invoke(["global"], stdin_text='{"delta": -3, "matrix": %s}' % matrix)
        assert code == exit_code
        assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


def test_singular_error_documents():
    # a singular matrix is reported before it is found non-integral (empty
    # cycle, or the --raw precondition), and jordan finds it by elimination
    singular = {"code": "singular-matrix", "message": "Gram matrix is singular"}
    cases = (
        (["jordan", "--p", "5"], '{"gram": [[1, 1], [1, 1]]}', singular),
        (["jordan", "--p", "5"], '{"gram": [[0]]}', singular),
        (["cycle", "--p", "3"], '{"matrix": [[1, 1], [1, 1]]}', singular),
        (["cycle", "--p", "3"], '{"matrix": [["1/3", "1/3"], ["1/3", "1/3"]]}', singular),
        (["cycle", "--p", "3", "--raw"], '{"matrix": [["1/3", "1/3"], ["1/3", "1/3"]]}', singular),
        (
            ["global"],
            '{"delta": -3, "matrix": [[1, 1], [1, 1]]}',
            {"code": "singular-matrix", "message": "matrix is singular"},
        ),
    )
    for argv, text, error in cases:
        code, out = invoke(argv, stdin_text=text)
        assert code == 2
        assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


def test_one_parser_serves_a_sequence_of_requests(monkeypatch):
    plane = json.dumps({"gram": [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]})
    # non-integral: empty without --raw, a precondition error with it
    matrix = '{"matrix": [["1/3", 0], [0, 1]]}'
    sequence = [
        (["vertices", "--p", "3", "--dot"], plane),
        (["vertices", "--p", "3"], plane),
        (["cycle", "--p", "3", "--raw"], matrix),
        (["cycle", "--p", "3"], matrix),
        (["cycle", "--p", "3", "--no-such-flag"], matrix),
        (["cycle", "--p", "3"], matrix),
        (["vertices", "--p", "3", "--max-candidates", "2"], plane),
        (["vertices", "--p", "3"], plane),
    ]
    fresh = []
    for argv, text in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(invoke(argv, text))
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [invoke(argv, text) for argv, text in sequence] == fresh
    assert len(builds) == 1
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 1, 0, 3, 0]
    assert fresh[0][1] != fresh[1][1] and fresh[2][1] != fresh[3][1]


def test_decimal_exponent_past_the_digit_limit_is_refused_before_the_work():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    assert parse_rational("47e-2") == Fraction(47, 100)
    assert parse_rational("2.5e2") == Fraction(250)
    assert parse_rational(f"1e{limit}") == 10**limit
    for a in ("1e5000", f"1e{limit + 1}", f"0e-{limit + 1}", "1e" + "9" * 40):
        tracemalloc.start()
        try:
            code, out = invoke(["hilbert"], stdin_text='{"a": "%s", "b": "3", "place": 5}' % a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        message = f"not a rational: {a!r} (exponent beyond {limit})"
        error = {"code": "schema-violation", "message": message}
        assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"
        assert peak < 5 * 2**20
