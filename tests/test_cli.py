import argparse
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from support import invoke, random_basis_change, scaled_gram, smallest_nonresidue, transformed_gram

import hermcycles
from hermcycles import OHElement, RamifiedContext, cli
from hermcycles.lattice import diagonal_gram, hyperbolic_gram, orthogonal_sum
from hermcycles.padic import parse_rational
from hermcycles.vertices import EnumerationBounds

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_schema_violations_exit_1(tmp_path):
    code, out = invoke(["cycle", "--p", "3"], stdin_text='{"matrix": [[1]], "x": 1}')
    assert code == 1
    assert json.loads(out)["error"]["code"] == "schema-violation"
    code, out = invoke(["cycle", "--p", "3"], stdin_text="not json")
    assert code == 1
    code, out = invoke(["cycle", "--p", "3"], stdin_text='{"matrix": [[1, 2]]}')
    assert code == 1
    code, out = invoke(["nosuchcommand"])
    assert code == 1
    # a document nested past the parser's recursion limit, and a request file
    # that is not UTF-8, used to end in a traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"matrix": [["\xe9"]]}')
    cases = (
        (["cycle", "--p", "3", "--raw"], '{"matrix": [[1]]}', "unrecognized arguments: --raw"),
        (
            ["cycle", "--p", "3"],
            "[" * 100_000,
            "invalid JSON: nested too deeply",
        ),
        (
            ["cycle", "--p", "3", str(latin1)],
            None,
            "cannot read input: 'utf-8' codec can't decode byte 0xe9 in position 14:"
            " invalid continuation byte",
        ),
    )
    for argv, text, message in cases:
        code, out = invoke(argv, stdin_text=text)
        assert code == 1
        error = {"code": "schema-violation", "message": message}
        assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


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
    error = {
        "code": "hermitian-violation",
        "location": "gram[0][0]",
        "message": "diagonal entry (0,0) must be rational",
    }
    assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


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


def test_a_rank_one_candidate_counts_against_the_bound():
    # a rank-1 walk has no slot; each of its candidates still counts, before
    # the vertex test: [[3]] at p=3 has one candidate, and one vertex
    for command in ("vertices", "verify"):
        code, out = invoke([command, "--p", "3", "--max-candidates", "0"], stdin_text='{"gram": [[3]]}')
        assert code == 3, command
        error = {"code": "enumeration-limit", "count": 1, "message": "candidate count exceeded 0"}
        assert json.loads(out) == {"error": error}
        code, out = invoke([command, "--p", "3", "--max-candidates", "1"], stdin_text='{"gram": [[3]]}')
        assert code == 0 and json.loads(out)["max_count"] == 1, command


def test_scale_bound_fires_before_the_jordan_block_inverse(monkeypatch):
    # 81 = pi^8 / eps^4 has scale 8, past the default bound 3: the bound
    # fires on the certified scales, before the one exact inverse
    from hermcycles import lattice, vertices

    calls = []
    real = lattice.mat_inverse

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "mat_inverse", counting)
    monkeypatch.setattr(vertices, "mat_inverse", counting)
    error = {"code": "enumeration-limit", "message": "Jordan scale 8 exceeds enumeration bound 3"}
    for command in ("vertices", "verify"):
        code, out = invoke([command, "--p", "3"], stdin_text='{"gram": [[1, 0], [0, 81]]}')
        assert code == 3, command
        assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"
    assert calls == []


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


def test_jordan_keeps_the_unit_class_of_a_block_with_p_in_its_denominator():
    # diag(1/3, 1/2) at p = 3, eps = -1: the elimination runs on 9 * G, and
    # the unit part of det(1/3) / pi0^-1 = -1 is not a square at 3
    code, out = invoke(
        ["jordan", "--p", "3", "--epsilon", "-1"],
        stdin_text='{"gram": [["1/3", 0], [0, "1/2"]]}',
    )
    assert code == 0
    assert json.loads(out)["blocks"] == [
        {"scale": -2, "rank": 1, "det_val": -2, "det_unit_is_square": False, "split": False},
        {"scale": 0, "rank": 1, "det_val": 0, "det_unit_is_square": False, "split": False},
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
    # the matrix scaled by a unit of either square class (2 is not a square
    # at 3, -1/2 is) gives the invariants of the matrix
    from fractions import Fraction as F

    from hermcycles import HermGram

    ctx = RamifiedContext(3, F(-1))
    pi = ctx.element(0, 1)
    T = HermGram([[ctx.element(1), pi], [-pi, ctx.element(2)]], ctx)
    code1, out1 = invoke(
        ["cycle", "--p", "3", "--epsilon", "-1"],
        stdin_text=json.dumps({"matrix": [[e.to_json() for e in row] for row in T.entries]}),
    )
    assert code1 == 0
    for unit in (F(2), F(-1, 2)):
        G = scaled_gram(T, unit)
        request = json.dumps({"matrix": [[e.to_json() for e in row] for row in G.entries]})
        code2, out2 = invoke(["cycle", "--p", "3", "--epsilon", "-1"], stdin_text=request)
        assert code2 == 0
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


def test_global_factor_bound_error_documents():
    # delta and det hit the factor bound alike; an invalid field is reported
    # from the same one factorization of delta; a negative bound is refused,
    # since every cofactor would pass n <= bound**2 (221 = 13 * 17 read prime)
    limit = {"code": "factorization-limit", "message": "unfactored remainder 143 beyond trial bound 10"}
    cases = (
        (["--factor-bound", "10"], -143, "[[1, 0], [0, 1]]", 3, limit),
        (["--factor-bound", "10"], -3, "[[143, 0], [0, 1]]", 3, limit),
        (
            [],
            -12,
            "[[1, 0], [0, 1]]",
            2,
            {"code": "invalid-field", "message": "delta must be squarefree, got -12"},
        ),
        (
            ["--factor-bound", "-100"],
            -3,
            "[[221, 0], [0, 1]]",
            2,
            {"code": "precondition-violation", "message": "factor bound must be nonnegative, got -100"},
        ),
    )
    for flags, delta, matrix, exit_code, error in cases:
        doc = '{"delta": %d, "matrix": %s}' % (delta, matrix)
        code, out = invoke(["global", *flags], stdin_text=doc)
        assert code == exit_code
        assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


def test_singular_error_documents():
    # a singular matrix is reported before it is found non-integral (an
    # empty cycle), and jordan finds it by elimination
    singular = {"code": "singular-matrix", "message": "Gram matrix is singular"}
    cases = (
        (["jordan", "--p", "5"], '{"gram": [[1, 1], [1, 1]]}', singular),
        (["jordan", "--p", "5"], '{"gram": [[0]]}', singular),
        (["cycle", "--p", "3"], '{"matrix": [[1, 1], [1, 1]]}', singular),
        (["cycle", "--p", "3"], '{"matrix": [["1/3", "1/3"], ["1/3", "1/3"]]}', singular),
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


def test_cycle_and_global_compute_no_redundant_determinant(monkeypatch):
    # cycle finds singularity by its Jordan elimination and runs no Fraction
    # elimination; global runs one, which gives both the determinant and
    # positive definiteness, and the local cycle at an odd ramified prime
    # runs none
    from hermcycles import lattice

    calls = []
    real = lattice._forward_eliminate
    monkeypatch.setattr(lattice, "_forward_eliminate", lambda *args: calls.append(args) or real(*args))
    # (request, exit code)
    matrices = (
        ('{"matrix": [[1, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 3]]}', 0),
        ('{"matrix": [["1/3", 0], [0, 1]]}', 0),
        ('{"matrix": [[1, 1], [1, 1]]}', 2),
        ('{"matrix": [["1/3", "1/3"], ["1/3", "1/3"]]}', 2),
    )
    for text, code in matrices:
        assert invoke(["cycle", "--p", "3"], stdin_text=text)[0] == code
    assert calls == []
    dense = [[2, {"x": "1/2", "y": "1/2"}, 1], [{"x": "1/2", "y": "-1/2"}, 3, 1], [1, 1, 4]]
    for matrix in ([[1, 0], [0, 1]], dense):
        calls.clear()
        code, out = invoke(["global"], stdin_text=json.dumps({"delta": -3, "matrix": matrix}))
        assert code == 0
        doc = json.loads(out)
        assert doc["positive_definite"] and list(doc["per_prime"]) == ["3"]
        assert len(calls) == 1


def test_closed_form_requests_skip_the_string_parser_conjugates_and_order_scans(monkeypatch):
    # canonical literals take parse_rational's integer path, HermGram checks
    # conjugate symmetry on components, and _eliminate takes a unit diagonal
    # entry as the pivot without reading any order
    from hermcycles import lattice

    ctx = RamifiedContext(5, -1)
    units = (1, 2, 3, 4, 6, 7, 8, 9)
    blocks = [diagonal_gram(ctx, [u * ctx.pi0 ** (u % 3)]) for u in units]
    blocks += [hyperbolic_gram(ctx, i) for i in (0, 1, 1, 2)]
    G = transformed_gram(orthogonal_sum(*blocks), random_basis_change(random.Random(15), ctx, 16))
    gram = [[str(x.a) if i == j else x.to_json() for j, x in enumerate(row)]
            for i, row in enumerate(G.entries)]
    argv = ["jordan", "--p", "5", "--epsilon", "-1"]
    expected = {"blocks": lattice.jordan_split(G).to_json()}

    strings, conjugates, orders = [], [], []
    new = Fraction.__new__

    def fraction(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, str):
            strings.append(numerator)
        return new(cls, numerator, denominator, **kwargs)

    conjugate, order = OHElement.conjugate, lattice._Quotient.ord
    monkeypatch.setattr(Fraction, "__new__", staticmethod(fraction))
    monkeypatch.setattr(OHElement, "conjugate", lambda x: conjugates.append(x) or conjugate(x))
    monkeypatch.setattr(lattice._Quotient, "ord", lambda q, x: orders.append(x) or order(q, x))
    code, out = invoke(argv, stdin_text=json.dumps({"gram": gram}))
    assert (code, json.loads(out)) == (0, expected)
    assert strings == [] and conjugates == []
    assert orders  # the scales above 0 are found by order scans
    gram[3][3] = " " + gram[3][3]  # not canonical: the Fraction string parser reads it
    assert invoke(argv, stdin_text=json.dumps({"gram": gram})) == (code, out)
    assert strings == [gram[3][3].strip()]

    orders.clear()
    report = lattice.jordan_split(diagonal_gram(RamifiedContext(17), range(1, 17)))
    assert report.to_json() == [
        {"scale": 0, "rank": 16, "det_val": 0, "det_unit_is_square": True, "split": True}
    ]
    assert orders == []


def test_cycle_scales_no_matrix(monkeypatch):
    # a cost guard that reads no clock: the invariants are read off the
    # Jordan splitting of the request's matrix itself, so a rank-16 cycle
    # request multiplies no two ring elements
    ctx = RamifiedContext(5, -1)
    r = smallest_nonresidue(5)
    parts = [hyperbolic_gram(ctx, i) for i in (0, 1, 1, 2, 3)]
    parts.append(diagonal_gram(ctx, [1, r, ctx.pi0, ctx.pi0 * r, ctx.pi0**2, 7]))
    G = transformed_gram(orthogonal_sum(*parts), random_basis_change(random.Random(16), ctx, 16))
    assert G.n == 16 and any(x.b for row in G.entries for x in row)
    request = json.dumps({"matrix": [[x.to_json() for x in row] for row in G.entries]})
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(OHElement, name)
        monkeypatch.setattr(OHElement, name, lambda *args, _f=real: calls.append(args) or _f(*args))
    code, out = invoke(["cycle", "--p", "5", "--epsilon", "-1"], stdin_text=request)
    assert code == 0 and json.loads(out)["status"] == "nonempty"
    assert calls == []


def test_vertices_and_verify_check_integrality_and_rank_before_singularity(monkeypatch):
    # The enumerator's Jordan elimination is the singularity test of vertices
    # and verify, so a singular request that is also over rank or not integral
    # gets the error of the earlier check; none of these requests computes a
    # determinant (runs no Fraction elimination).
    from hermcycles import lattice

    calls = []
    real = lattice._forward_eliminate
    monkeypatch.setattr(lattice, "_forward_eliminate", lambda *args: calls.append(args) or real(*args))
    singular = '{"gram": [[1, 1], [1, 1]]}'
    cases = (
        (
            ["--max-rank", "1"],
            singular,
            3,
            {"code": "enumeration-limit", "message": "rank 2 exceeds enumeration bound 1"},
        ),
        (
            [],
            '{"gram": [["1/3", "1/3"], ["1/3", "1/3"]]}',
            2,
            {"code": "nonintegral-lattice", "message": "lattice does not pair integrally with itself"},
        ),
        ([], singular, 2, {"code": "singular-matrix", "message": "Gram matrix is singular"}),
    )
    for command in ("vertices", "verify"):
        for flags, text, exit_code, error in cases:
            code, out = invoke([command, "--p", "3", *flags], stdin_text=text)
            assert code == exit_code
            assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"
    assert calls == []


def test_enumerator_setup_eliminates_the_gram_of_l_once(monkeypatch):
    # The dual basis comes from one Jordan elimination of Gram(L): no dual
    # lattice, one inverse (of the block-diagonal Jordan Gram), no product
    # (the rest runs on int pairs), and no determinant: the enumerator's ord
    # det of the dual needs the order of det(L.basis), which is 0 for the
    # identity basis of a request from the command line (seeded by
    # HermLattice.from_gram), and one Fraction determinant, of the basis
    # alone, for any other basis.  verify reads the closed-form invariants
    # off the same elimination, so lattice._jordan_chunks (behind
    # jordan_split) is counted too.
    from hermcycles import lattice, vertices

    calls = {"dual": 0, "mat_inverse": 0, "mat_mul": 0, "mat_det": 0, "_jordan_chunks": 0}
    inverted, determinants = [], []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "mat_inverse":
                inverted.append(args[0])
            if name == "mat_det":
                determinants.append(args[0])
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(lattice.HermLattice, "dual", counting("dual", lattice.HermLattice.dual))
    for name in ("mat_inverse", "mat_mul"):
        wrapped = counting(name, getattr(lattice, name))
        monkeypatch.setattr(lattice, name, wrapped)
        monkeypatch.setattr(vertices, name, wrapped, raising=False)  # vertices imports no mat_mul
    monkeypatch.setattr(lattice, "mat_det", counting("mat_det", lattice.mat_det))
    monkeypatch.setattr(vertices, "_jordan_chunks", counting("_jordan_chunks", vertices._jordan_chunks))
    monkeypatch.setattr(lattice, "_jordan_chunks", counting("_jordan_chunks", lattice._jordan_chunks))
    h13 = json.dumps(
        {
            "gram": [
                [0, {"a": "0", "b": "1"}, 0, 0],
                [{"a": "0", "b": "-1"}, 0, 0, 0],
                [0, 0, 0, {"a": "0", "b": "3"}],
                [0, 0, {"a": "0", "b": "-3"}, 0],
            ]
        }
    )
    for command in ("vertices", "verify"):
        for name in calls:
            calls[name] = 0
        inverted.clear()
        determinants.clear()
        code, _ = invoke([command, "--p", "3", "--max-rank", "4"], stdin_text=h13)
        assert code == 0
        assert calls == {"dual": 0, "mat_inverse": 1, "mat_mul": 0, "mat_det": 0, "_jordan_chunks": 1}
        (J,) = inverted
        assert all(J[i][j].is_zero() for i in range(4) for j in range(4) if i // 2 != j // 2)
    ctx = RamifiedContext(3, 1)
    U = random_basis_change(random.Random(5), ctx, 4)
    L = lattice.HermLattice(orthogonal_sum(hyperbolic_gram(ctx, 1), hyperbolic_gram(ctx, 3)), U)
    for name in calls:
        calls[name] = 0
    determinants.clear()
    vertices.enumerate_vertices(L, vertices.EnumerationBounds(max_rank=4))
    assert calls["mat_det"] == 1
    assert determinants == [[list(row) for row in U]]


def test_enumeration_builds_no_fraction_past_the_jordan_block_inverse(monkeypatch):
    # a cost guard that reads no clock: past the one exact inverse, of the
    # block-diagonal Jordan Gram, the setup, the walk, the vertex test, the
    # canonical bases, the poset and the census JSON run on ints, so the
    # Fractions of a vertices or verify request do not grow with the
    # candidates or the vertices
    from hermcycles import vertices

    built, at_inverse = [], []
    new, inverse = Fraction.__new__, vertices.mat_inverse

    def fraction(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def marked_inverse(*args):
        result = inverse(*args)
        at_inverse.append(len(built))
        return result

    monkeypatch.setattr(Fraction, "__new__", staticmethod(fraction))
    monkeypatch.setattr(vertices, "mat_inverse", marked_inverse)
    h1 = [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]
    h13 = [[0] * 4 for _ in range(4)]
    h13[0][1], h13[1][0] = {"a": "0", "b": "1"}, {"a": "0", "b": "-1"}
    h13[2][3], h13[3][2] = {"a": "0", "b": "3"}, {"a": "0", "b": "-3"}
    for gram, count in ((h1, 5), (h13, 385)):
        for command in ("vertices", "verify"):
            built.clear()
            at_inverse.clear()
            argv = [command, "--p", "3", "--max-rank", "4"]
            code, out = invoke(argv, stdin_text=json.dumps({"gram": gram}))
            assert code == 0
            doc = json.loads(out)
            if command == "vertices":
                assert len(doc["vertices"]) == count
            else:
                assert doc["passed"]
            (before,) = at_inverse
            assert before > 0 and len(built) == before, (command, count, built[before:][:5])


def test_verify_builds_no_canonical_basis_and_no_output_goes_through_json_dumps(monkeypatch):
    # a cost guard that reads no clock: verify checks the census in the order
    # of the walk, so a passing report names no vertex, and vertices names
    # each vertex once; every document, error documents too, is written
    # without json.dumps and reads back as what json.dumps would write
    from hermcycles import vertices

    named = []
    canonical, dumps = vertices._canonical_basis, json.dumps

    def counted(*args):
        named.append(args)
        return canonical(*args)

    h1 = [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]
    h13 = [[0] * 4 for _ in range(4)]
    h13[0][1], h13[1][0] = {"a": "0", "b": "1"}, {"a": "0", "b": "-1"}
    h13[2][3], h13[3][2] = {"a": "0", "b": "3"}, {"a": "0", "b": "-3"}
    requests = [(h1, 5), (h13, 385)]
    requests = [(dumps({"gram": gram}), count) for gram, count in requests]
    monkeypatch.setattr(vertices, "_canonical_basis", counted)
    monkeypatch.setattr(json, "dumps", None)
    for text, count in requests:
        for command in ("vertices", "verify"):
            named.clear()
            code, out = invoke([command, "--p", "3", "--max-rank", "4"], stdin_text=text)
            assert code == 0
            doc = json.loads(out)
            assert out == dumps(doc, indent=2, sort_keys=True) + "\n"
            if command == "vertices":
                assert len(doc["vertices"]) == len(named) == count
            else:
                assert doc["passed"] and named == []
    code, out = invoke(["verify", "--p", "3"], stdin_text=requests[1][0])
    assert code == 3 and out == dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_negative_enumeration_bounds_are_refused():
    # --max-candidates -5 on H(1) used to report a limit error with count -4,
    # and -7 on [[1]] a full census
    plane = json.dumps({"gram": [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]})
    cases = (
        ("--max-candidates", "-5", "max_candidates", plane),
        ("--max-candidates", "-7", "max_candidates", '{"gram": [[1]]}'),
        ("--max-rank", "-1", "max_rank", plane),
        ("--max-scale", "-2", "max_scale", plane),
    )
    for command in ("vertices", "verify"):
        for flag, value, field, text in cases:
            code, out = invoke([command, "--p", "3", flag, value], stdin_text=text)
            assert code == 2
            message = f"{field} must be nonnegative, got {value}"
            error = {"code": "precondition-violation", "message": message}
            assert out == json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


def test_one_parser_serves_a_sequence_of_requests(monkeypatch):
    plane = json.dumps({"gram": [[0, {"a": "0", "b": "1"}], [{"a": "0", "b": "-1"}, 0]]})
    matrix = '{"matrix": [["1/3", 0], [0, 1]]}'  # non-integral: an empty cycle
    sequence = [
        (["vertices", "--p", "3", "--dot"], plane),
        (["vertices", "--p", "3"], plane),
        (["cycle", "--p", "3"], matrix),
        (["cycle", "--p", "3", "--no-such-flag"], matrix),
        (["cycle", "--p", "3"], matrix),
        (["vertices", "--p", "3", "--max-candidates", "2"], plane),
        (["vertices", "--p", "3"], plane),
    ]
    fresh = []
    for argv, text in sequence:
        monkeypatch.setattr(cli, "_PARSERS", {})
        fresh.append(invoke(argv, text))
    built = []
    add = cli._add_arguments

    def counted(parser, *options):
        built.append(parser.prog)
        return add(parser, *options)

    monkeypatch.setattr(cli, "_add_arguments", counted)
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("a request naming its command built the tree"))
    monkeypatch.setattr(cli, "_PARSERS", {})
    assert [invoke(argv, text) for argv, text in sequence] == fresh
    assert built == ["hermcycles vertices", "hermcycles cycle"]
    assert [code for code, _ in fresh] == [0, 0, 0, 1, 0, 3, 0]
    assert fresh[0][1] != fresh[1][1] and fresh[2][1] != fresh[3][1]


# A valid request of each command, and argument vectors to try on every one.
REQUESTS = {
    "jordan": (["--p", "3"], '{"gram": [[1, 0], [0, 3]]}'),
    "cycle": (["--p", "3", "--epsilon", "-1"], '{"matrix": [[1, 0], [0, 3]]}'),
    "vertices": (["--p", "3", "--max-rank", "2"], '{"gram": [[1, 0], [0, 3]]}'),
    "verify": (["--p", "3", "--max-candidates", "100"], '{"gram": [[1, 0], [0, 3]]}'),
    "global": (["--factor-bound", "1000"], '{"delta": -3, "matrix": [[1, 0], [0, 1]]}'),
    "hilbert": ([], '{"a": "-1", "b": "-3", "place": 3}'),
}
VECTORS = [
    ["--p", "x"],
    ["--no-such-flag"],
    ["--p"],
    ["--factor-bound"],
    ["--max-rank"],
    ["first.json", "second.json"],
    ["--p", "3", "--dot"],
    ["--p", "3", "--max", "2"],
    ["--p", "3", "--e", "-1"],
    ["--", "--p"],
    ["-h"],
    ["--help"],
]


def _answer(argv, text, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    try:
        code = cli.run(argv)
    except SystemExit as exit_:
        code = ("exit", exit_.code)
    return code, capsys.readouterr().out


def test_each_command_parser_answers_as_the_tree_does(capsys, monkeypatch):
    answers = {}
    for command, (argv, text) in REQUESTS.items():
        for rest in [argv, *VECTORS]:
            answers[command, *rest] = _answer([command, *rest], text, capsys, monkeypatch)
    assert answers["vertices", "--p", "3", "--dot"][0] == 0
    assert answers["verify", "--p", "3", "--dot"][0] == 1
    tree = cli.build_parser()
    subcommands = _subcommands(tree)
    for command in REQUESTS:
        assert answers[command, "--help"] == (("exit", 0), subcommands[command].format_help())

    def through_the_tree(name):
        # the same vectors, each parsed by the tree as run did for every request
        return SimpleNamespace(parse_args=lambda rest: tree.parse_args([name, *rest]))

    monkeypatch.setattr(cli, "_command_parser", through_the_tree)
    for command, (argv, text) in REQUESTS.items():
        for rest in [argv, *VECTORS]:
            assert _answer([command, *rest], text, capsys, monkeypatch) == answers[command, *rest], rest
    # the valid requests, vertices --dot and --e for --epsilon on the four local commands
    assert sum(code == 0 for code, _ in answers.values()) == len(REQUESTS) + 5


def test_a_vector_that_names_no_command_is_answered_by_the_tree(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_command_parser", lambda name: pytest.fail(name))
    for argv in ([], ["nope"], ["--help"], ["-h", "vertices"]):
        code, out = _answer(argv, "", capsys, monkeypatch)
        if argv and argv[0].startswith("-"):
            assert (code, out) == (("exit", 0), build().format_help())
        else:
            assert code == 1 and json.loads(out)["error"]["code"] == "schema-violation"
    assert len(built) == 4


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


def _readme_cli_section() -> str:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_run():
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) == 4
    for line in commands:
        echo, text, pipe, program, *argv = shlex.split(line)
        assert (echo, pipe, program) == ("echo", "|", "hermcycles"), line
        code, out = invoke(argv, stdin_text=text)
        assert code == 0, line
        assert isinstance(json.loads(out), dict), line


def _subcommands(parser):
    """The subcommand parsers of ``parser`` by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_cli_flags_are_the_parser_options():
    # every flag the CLI section names is an option of some subcommand, and
    # every subcommand option is named there
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_cli_section()))
    subcommands = _subcommands(cli.build_parser())
    options = {flag for p in subcommands.values() for a in p._actions for flag in a.option_strings}
    assert named == options - {"-h", "--help"}


def test_enumeration_bounds_and_epsilon_have_one_owner_of_their_defaults():
    # the parser names the fields of EnumerationBounds and leaves every
    # default to it, and --epsilon to RamifiedContext
    names = [f.name for f in fields(EnumerationBounds)]
    parser = cli.build_parser()
    for command in ("vertices", "verify"):
        actions = _subcommands(parser)[command]._actions
        flags = {a.dest: a for a in actions if a.dest not in ("help", "input", "p", "epsilon", "dot")}
        assert sorted(flags) == sorted(names), command
        assert all(a.default is None and a.type is int for a in flags.values()), command
        args = parser.parse_args([command, "--p", "3"])
        assert cli._bounds(args) == EnumerationBounds()
        args = parser.parse_args([command, "--p", "3", "--max-rank", "5", "--max-candidates", "0"])
        assert cli._bounds(args) == EnumerationBounds(max_rank=5, max_candidates=0)
    for command in ("jordan", "cycle", "vertices", "verify"):
        for p in (3, 5):
            context = cli._context(parser.parse_args([command, "--p", str(p)]))
            assert context == RamifiedContext(p) and context.eps == RamifiedContext(p).eps
        context = cli._context(parser.parse_args([command, "--p", "5", "--epsilon", "-1"]))
        assert context == RamifiedContext(5, -1)


def test_every_help_exits_0(capsys):
    subcommands = _subcommands(cli.build_parser())
    assert set(subcommands) == {"jordan", "cycle", "vertices", "verify", "global", "hilbert"}
    for argv in (["--help"], *([command, "--help"] for command in subcommands)):
        with pytest.raises(SystemExit) as exit_:
            cli.run(argv)
        assert exit_.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: hermcycles"), argv
