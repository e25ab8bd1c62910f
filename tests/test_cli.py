import io
import json
import sys
import time
from fractions import Fraction

import pytest

from omatroid.cli import main
from omatroid.errors import InputError
from omatroid.exactalg import QQ, REGULAR, ZZ, Matrix, determinant
from omatroid.jsonio import (
    parse_basis_family,
    parse_matrix_file,
    parse_plucker_vector,
    parse_ring_decl,
    parse_vector_file,
    parse_wick_vector,
    plucker_vector_to_json,
    ring_decl_to_json,
    wick_vector_to_json,
)

FAMILY = {"n": 4, "bases": [[], [1, 2], [3, 4], [1, 2, 3, 4]]}
BAD_FAMILY = {"n": 4, "bases": [[1, 2], [3, 4]]}
WICK_MATRIX = {
    "n": 4,
    "ring": {"kind": "q"},
    "matrix": [
        ["0", "-3", "0", "1"],
        ["3", "0", "0", "6"],
        ["0", "0", "0", "0"],
        ["-1", "-6", "0", "0"],
    ],
    "twist": [3],
}
PLUCKER_MATRIX = {"ring": {"kind": "q"}, "matrix": [["1", "0", "1", "1"], ["0", "1", "1", "2"]]}
WICK_VECTOR = {
    "n": 4,
    "ring": {"kind": "q"},
    "coords": {"3": "1", "1,2,3": "-3", "1,3,4": "1", "2,3,4": "6"},
}
PLUCKER_VECTOR = {
    "n": 4,
    "r": 2,
    "ring": {"kind": "q"},
    "coords": {"1,2": "1", "1,3": "1", "2,3": "-1", "1,4": "2", "2,4": "-1", "3,4": "1"},
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# json schemas


def test_parse_ring_decl():
    ring, pf = parse_ring_decl({"kind": "q"})
    assert ring == QQ and ring_decl_to_json(ring, pf) == {"kind": "q"}
    ring, pf = parse_ring_decl({"kind": "z"})
    assert ring == ZZ and pf is None
    ring, pf = parse_ring_decl({"kind": "regular"})
    assert pf == REGULAR
    ring, pf = parse_ring_decl({"kind": "gfp", "p": 7})
    assert ring.p == 7
    with pytest.raises(InputError):
        parse_ring_decl({"kind": "gf"})
    with pytest.raises(InputError):
        parse_ring_decl({"kind": "gfp", "p": "7"})
    with pytest.raises(InputError):
        parse_ring_decl(["q"])
    for decl in ({"kind": "q"}, {"kind": "z"}, {"kind": "regular"}, {"kind": "gfp", "p": 7}):
        assert ring_decl_to_json(*parse_ring_decl(decl)) == decl


def test_parse_basis_family_errors():
    with pytest.raises(InputError):
        parse_basis_family({"n": 2, "bases": []})
    with pytest.raises(InputError):
        parse_basis_family({"n": 2, "bases": [[3]]})
    with pytest.raises(InputError):
        parse_basis_family({"n": 2, "bases": [[1, 1]]})
    with pytest.raises(InputError):
        parse_basis_family({"bases": [[1]]})


def test_vector_json_roundtrip():
    p = parse_plucker_vector(PLUCKER_VECTOR)
    assert plucker_vector_to_json(p) == PLUCKER_VECTOR
    w = parse_wick_vector(WICK_VECTOR)
    assert wick_vector_to_json(w) == WICK_VECTOR
    assert parse_vector_file(PLUCKER_VECTOR).r == 2
    assert parse_vector_file(WICK_VECTOR).coords == w.coords


def test_vector_json_validation():
    with pytest.raises(InputError):
        parse_plucker_vector({**PLUCKER_VECTOR, "coords": {"1,2,3": "1"}})
    with pytest.raises(InputError):
        parse_plucker_vector({**PLUCKER_VECTOR, "ring": {"kind": "z"}})
    with pytest.raises(InputError):
        parse_wick_vector({**WICK_VECTOR, "coords": {"9": "1"}})
    with pytest.raises(InputError):
        parse_wick_vector({**WICK_VECTOR, "coords": {"": True}})


def test_empty_set_key_means_empty_subset():
    w = parse_wick_vector({"n": 2, "ring": {"kind": "q"}, "coords": {"": "1", "1,2": "5"}})
    assert w.coords[0] == 1
    assert w.coords[0b11] == 5


def test_parse_matrix_file():
    m, twist, ring, pf = parse_matrix_file(WICK_MATRIX)
    assert (m.rows, m.cols) == (4, 4)
    assert twist == 0b0100
    assert ring_decl_to_json(ring, pf) == {"kind": "q"}
    m2, twist2, _, _ = parse_matrix_file(PLUCKER_MATRIX)
    assert twist2 is None
    with pytest.raises(InputError):
        parse_matrix_file({**WICK_MATRIX, "n": 3})
    with pytest.raises(InputError):
        parse_matrix_file({"ring": {"kind": "q"}, "matrix": [["1"], ["2", "3"]]})
    with pytest.raises(InputError):
        parse_matrix_file({"ring": {"kind": "q"}, "matrix": [["1", "2"]], "twist": [1]})


# ---------------------------------------------------------------------------
# verbs and exit codes


def test_check_matroid_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "uniform.json", {"n": 3, "bases": [[1], [2], [3]]})
    code, out, _ = run(capsys, "check-matroid", good)
    assert code == 0
    rep = report_of(out)
    assert rep["verdict"] is True and rep["witness"] is None

    bad = write(tmp_path, "bad.json", BAD_FAMILY)
    code, out, _ = run(capsys, "check-matroid", bad)
    assert code == 1
    rep = report_of(out)
    assert rep["witness"] == {"B1": [1, 2], "B2": [3, 4], "reason": "exchange", "x": 1}


def test_check_orthogonal(tmp_path, capsys):
    path = write(tmp_path, "fam.json", FAMILY)
    code, out, _ = run(capsys, "check-orthogonal", path)
    assert code == 0
    code, out, _ = run(capsys, "check-orthogonal", "--strong", path)
    assert code == 0
    mixed = write(tmp_path, "mixed.json", {"n": 2, "bases": [[], [1]]})
    code, out, _ = run(capsys, "check-orthogonal", mixed)
    assert code == 1
    assert report_of(out)["witness"]["x1"] == 1


def test_check_plucker_and_witness(tmp_path, capsys):
    path = write(tmp_path, "p.json", PLUCKER_VECTOR)
    code, out, _ = run(capsys, "check-plucker", path)
    assert code == 0
    assert report_of(out)["data"]["mode"] == "full"

    corrupted = dict(PLUCKER_VECTOR, coords={**PLUCKER_VECTOR["coords"], "3,4": "2"})
    bad = write(tmp_path, "pbad.json", corrupted)
    code, out, _ = run(capsys, "check-plucker", bad)
    assert code == 1
    assert report_of(out)["witness"] == {"S": [1, 2, 3], "T": [4], "value": "-1"}
    code, out, _ = run(capsys, "check-plucker", "--mode", "3term", bad)
    assert code == 1
    assert report_of(out)["data"]["equations_ok"] is False


def test_check_wick_modes(tmp_path, capsys):
    path = write(tmp_path, "w.json", WICK_VECTOR)
    for mode in ("full", "short", "4term"):
        code, out, _ = run(capsys, "check-wick", "--mode", mode, path)
        assert code == 0
    parity = write(
        tmp_path, "parity.json", {"n": 4, "ring": {"kind": "q"}, "coords": {"": "1", "1": "1"}}
    )
    code, out, _ = run(capsys, "check-wick", parity)
    assert code == 1
    assert report_of(out)["witness"] == {"J1": [], "J2": [1], "value": "-1"}
    code, out, _ = run(capsys, "check-wick", "--mode", "4term", parity)
    assert code == 1
    rep = report_of(out)
    assert rep["data"]["equations_ok"] is True
    assert rep["data"]["support_ok"] is False


def test_from_matrix_and_reconstruct_roundtrip(tmp_path, capsys):
    wmat = write(tmp_path, "wm.json", WICK_MATRIX)
    code, out, _ = run(capsys, "from-matrix", wmat)
    assert code == 0
    vec = report_of(out)["data"]
    assert vec["kind"] == "wick"
    assert vec["vector"] == WICK_VECTOR

    wv = write(tmp_path, "wv.json", vec["vector"])
    code, out, _ = run(capsys, "reconstruct-wick", wv)
    assert code == 0
    data = report_of(out)["data"]
    assert data["matrix"] == WICK_MATRIX["matrix"]
    assert data["twist"] == [3]

    pmat = write(tmp_path, "pm.json", PLUCKER_MATRIX)
    code, out, _ = run(capsys, "from-matrix", pmat)
    assert code == 0
    pvec = report_of(out)["data"]
    assert pvec["kind"] == "plucker"
    assert pvec["vector"] == PLUCKER_VECTOR

    pv = write(tmp_path, "pv.json", pvec["vector"])
    code, out, _ = run(capsys, "reconstruct-plucker", pv)
    assert code == 0
    assert report_of(out)["data"]["matrix"] == PLUCKER_MATRIX["matrix"]


def test_from_matrix_kind_control(tmp_path, capsys):
    skew_no_twist = dict(WICK_MATRIX)
    skew_no_twist.pop("twist")
    path = write(tmp_path, "skew.json", skew_no_twist)
    code, out, _ = run(capsys, "from-matrix", path)
    assert report_of(out)["data"]["kind"] == "wick"
    code, out, _ = run(capsys, "from-matrix", "--kind", "plucker", path)
    assert code == 2  # rank 4 needed, matrix is singular
    pmat = write(tmp_path, "pm.json", PLUCKER_MATRIX)
    code, out, _ = run(capsys, "from-matrix", "--kind", "wick", pmat)
    assert code == 2


def test_reconstruct_wick_rejects_plucker_file(tmp_path, capsys):
    pv = write(tmp_path, "pv.json", PLUCKER_VECTOR)
    code, out, _ = run(capsys, "reconstruct-wick", pv)
    assert code == 2
    assert "rank-r (Plucker) vector" in report_of(out)["error"]["message"]


@pytest.mark.parametrize(
    "verb, vector, named",
    [
        ("check-plucker", WICK_VECTOR, "full (Wick) vector"),
        ("reconstruct-plucker", WICK_VECTOR, "full (Wick) vector"),
        ("check-wick", PLUCKER_VECTOR, "rank-r (Plucker) vector"),
        ("twist", PLUCKER_VECTOR, "rank-r (Plucker) vector"),
    ],
    ids=["check-plucker", "reconstruct-plucker", "check-wick", "twist"],
)
def test_vector_verbs_refuse_the_other_schema(tmp_path, capsys, verb, vector, named):
    path = write(tmp_path, "v.json", vector)
    argv = [verb, "--by", "1", path] if verb == "twist" else [verb, path]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    error = report_of(out)["error"]
    assert error["type"] == "InputError"
    assert named in error["message"]


@pytest.mark.parametrize(
    "verbs, vector",
    [
        (["check-wick", "twist"],
         {"n": 3, "ring": {"kind": "gfp", "p": 7}, "coords": {"": "1", "1,2": "3", "2,1": "5"}}),
        (["check-plucker"],
         {"n": 3, "r": 2, "ring": {"kind": "gfp", "p": 7}, "coords": {"1,2": "1", "2,1": "2"}}),
    ],
    ids=["wick", "plucker"],
)
def test_vector_naming_one_subset_twice_is_refused(tmp_path, capsys, verbs, vector):
    path = write(tmp_path, "v.json", vector)
    for verb in verbs:
        argv = [verb, "--by", "1", path] if verb == "twist" else [verb, path]
        code, out, _ = run(capsys, *argv)
        assert code == 2
        error = report_of(out)["error"]
        assert error["type"] == "InputError"
        assert "'1,2'" in error["message"] and "'2,1'" in error["message"]


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"n":3,"ring":{"kind":"gfp","p":7},"coords":{"":"1","1,2":"3","1,2":"5"}}', "'1,2'"),
        ('{"n":3,"ring":{"kind":"gfp","p":7},"coords":{"":"1"},"n":4}', "'n'"),
    ],
    ids=["coordinate", "top-level"],
)
def test_repeated_json_key_is_refused(tmp_path, capsys, text, key):
    path = tmp_path / "v.json"
    path.write_text(text)
    for argv in (["twist", "--by", "1", str(path)], ["check-wick", str(path)]):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        error = report_of(out)["error"]
        assert error["type"] == "InputError"
        assert key in error["message"] and "twice" in error["message"]


@pytest.mark.parametrize("open_, close", [("[", "]"), ('{"a":', "}")], ids=["arrays", "objects"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, open_, close):
    # json.load recurses once per level: past the recursion limit it raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text(open_ * 200_000 + "0" + close * 200_000)
    code, out, _ = run(capsys, "check-matroid", str(path))
    assert code == 2
    assert out.count("\n") == 1
    error = report_of(out)["error"]
    assert error == {"message": f"JSON in {path} is nested too deeply to parse", "type": "InputError"}


def test_pfaffian_verb(tmp_path, capsys):
    wmat = write(tmp_path, "wm.json", WICK_MATRIX)
    code, out, _ = run(capsys, "pfaffian", wmat)
    assert code == 0
    assert report_of(out)["data"]["pfaffian"] == "0"
    zmat = write(
        tmp_path,
        "zm.json",
        {"ring": {"kind": "z"}, "matrix": [["0", "5"], ["-5", "0"]]},
    )
    code, out, _ = run(capsys, "pfaffian", zmat)
    assert code == 0
    assert report_of(out)["data"]["pfaffian"] == "5"
    notskew = write(
        tmp_path, "ns.json", {"ring": {"kind": "z"}, "matrix": [["0", "1"], ["1", "0"]]}
    )
    code, out, _ = run(capsys, "pfaffian", notskew)
    assert code == 2


def test_twist_verbs(tmp_path, capsys):
    fpath = write(tmp_path, "fam.json", FAMILY)
    code, out, _ = run(capsys, "twist", "--by", "1,3", fpath)
    assert code == 0
    data = report_of(out)["data"]
    assert data["kind"] == "family"
    assert data["result"]["bases"] == [[1, 3], [2, 3], [1, 4], [2, 4]]

    wv = write(tmp_path, "wv.json", WICK_VECTOR)
    code, out, _ = run(capsys, "twist", "--by", "3", wv)
    assert code == 0
    data = report_of(out)["data"]
    assert data["kind"] == "vector"
    assert data["result"]["coords"] == {"": "1", "1,2": "-3", "1,4": "1", "2,4": "6"}

    pv = write(tmp_path, "pv.json", PLUCKER_VECTOR)
    code, out, _ = run(capsys, "twist", "--by", "1", pv)
    assert code == 2


def test_census_verb(tmp_path, capsys):
    out_path = tmp_path / "c.jsonl"
    code, out, err = run(capsys, "census", "--n", "2", "--out", str(out_path))
    assert code == 0
    data = report_of(out)["data"]
    assert data["orthogonal_count"] == 6
    assert data["representable_counts"] == {"gf2": 6}
    assert len(out_path.read_text().splitlines()) == 6
    assert "census n=2" in err

    code, out, _ = run(capsys, "census", "--n", "6")
    assert code == 3
    assert report_of(out)["error"]["type"] == "CapabilityError"


def test_census_verb_refuses_n6_before_out(tmp_path, capsys):
    # the GF(2) support search fits the budget at n = 6; the enumeration cap does not
    out_path = tmp_path / "c.jsonl"
    for field in ("gf2", "gf3"):
        code, out, _ = run(capsys, "census", "--n", "6", "--field", field, "--out", str(out_path))
        assert code == 3
        assert report_of(out)["error"]["type"] == "CapabilityError"
        assert not out_path.exists()


def test_census_verb_refuses_foreign_file(tmp_path, capsys):
    out_path = tmp_path / "c.jsonl"
    run(capsys, "census", "--n", "2", "--out", str(out_path))
    code, out, _ = run(capsys, "census", "--n", "2", "--field", "gf3", "--out", str(out_path))
    assert code == 2
    assert report_of(out)["error"]["type"] == "InputError"


def test_census_verb_refuses_a_flipped_verdict(tmp_path, capsys):
    out_path = tmp_path / "c.jsonl"
    run(capsys, "census", "--n", "3", "--out", str(out_path))
    flipped = out_path.read_bytes().replace(b'"gf2":true', b'"gf2":false', 1)
    out_path.write_bytes(flipped)
    code, out, _ = run(capsys, "census", "--n", "3", "--out", str(out_path))
    assert code == 2
    assert report_of(out)["error"]["type"] == "InputError"
    assert out_path.read_bytes() == flipped


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_census_verb_refuses_an_unusable_out_path(tmp_path, capsys, where):
    # an I/O failure is bad input (exit 2, one error line), not a false verdict
    out_path = tmp_path / "no" / "c.jsonl" if where == "missing_dir" else tmp_path
    code, out, err = run(capsys, "census", "--n", "2", "--out", str(out_path))
    assert code == 2
    assert len(out.splitlines()) == 1
    error = report_of(out)["error"]
    assert error["type"] == "InputError"
    assert str(out_path) in error["message"]
    assert "Traceback" not in err


def test_verify_bounds_verb(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--n", "12")
    assert code == 0
    rep = report_of(out)
    assert rep["verdict"] is True
    assert rep["data"]["steps"][-1] == ["hypothesis_certified", True]
    code, out, _ = run(capsys, "verify-bounds", "--n", "11")
    assert code == 2


def test_census_verb_refuses_negative_n(capsys):
    # malformed input, not a crash that exits 1 like a false verdict
    code, out, _ = run(capsys, "census", "--n", "-1")
    assert code == 2
    assert report_of(out)["error"]["type"] == "InputError"


def test_verify_bounds_verb_stops_at_the_ground_set_cap(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--n", "24")
    assert code == 0
    code, out, _ = run(capsys, "verify-bounds", "--n", "25")
    assert code == 3
    assert report_of(out)["error"]["type"] == "CapabilityError"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FAMILY)))
    code, out, _ = run(capsys, "check-orthogonal", "-")
    assert code == 0


def test_malformed_input_exit_codes(tmp_path, capsys):
    garbage = tmp_path / "g.json"
    garbage.write_text("{not json")
    code, out, _ = run(capsys, "check-matroid", str(garbage))
    assert code == 2
    assert report_of(out)["error"]["type"] == "InputError"
    code, out, _ = run(capsys, "check-matroid", str(tmp_path / "missing.json"))
    assert code == 2
    zvec = write(tmp_path, "z.json", {**PLUCKER_VECTOR, "ring": {"kind": "z"}})
    code, out, _ = run(capsys, "check-plucker", zvec)
    assert code == 2
    # a JSON number past the int-to-string limit: a ValueError that is not a JSONDecodeError
    long_number = tmp_path / "long.json"
    long_number.write_text('{"n": ' + "1" * (sys.get_int_max_str_digits() + 1) + ', "bases": []}')
    code, out, _ = run(capsys, "check-matroid", str(long_number))
    assert code == 2
    assert report_of(out)["error"]["type"] == "InputError"


def test_capability_exit_code(tmp_path, capsys):
    big = write(tmp_path, "big.json", {"n": 30, "bases": [[1]]})
    code, out, _ = run(capsys, "check-matroid", big)
    assert code == 3
    # a Pfaffian of six 801-digit entries has more digits than Python will print
    n, x = 12, "1" + "0" * 800
    rows = [["0" if i == j else x if i < j else "-" + x for j in range(n)] for i in range(n)]
    path = write(tmp_path, "long.json", {"ring": {"kind": "z"}, "matrix": rows})
    code, out, _ = run(capsys, "pfaffian", path)
    assert code == 3
    error = report_of(out)["error"]
    assert error["type"] == "CapabilityError"
    assert str(sys.get_int_max_str_digits()) in error["message"]
    # the same matrix over the rationals: its Pfaffian is the vector's {1..12} coordinate
    path = write(tmp_path, "longq.json", {"ring": {"kind": "q"}, "matrix": rows})
    code, out, _ = run(capsys, "from-matrix", "--kind", "wick", path)
    assert code == 3
    error = report_of(out)["error"]
    assert error["type"] == "CapabilityError"
    assert str(sys.get_int_max_str_digits()) in error["message"]
    path = write(tmp_path, "bigp.json", {"ring": {"kind": "gfp", "p": 2**64 + 13},
                                         "matrix": [["0", "1"], ["-1", "0"]]})
    code, out, _ = run(capsys, "pfaffian", path)
    assert code == 3


def test_unknown_verb_and_flags(capsys):
    assert main(["no-such-verb"]) == 2
    assert main([]) == 2
    assert main(["check-matroid"]) == 2  # missing input
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_output_is_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "fam.json", FAMILY)
    _, out1, _ = run(capsys, "check-orthogonal", path)
    _, out2, _ = run(capsys, "check-orthogonal", path)
    assert out1 == out2
    assert out1.endswith("\n")
    compact = out1.strip()
    assert ": " not in compact and ", " not in compact


def _skew24_qq(tmp_path):
    n = 24
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1)
            rows[i][j], rows[j][i] = str(v), str(-v)
    return write(tmp_path, "skew24.json", {"ring": {"kind": "q"}, "matrix": rows}), rows


def test_pfaffian_table_over_the_budget_is_refused_fast(tmp_path, capsys):
    # 2**24 * 24 expansion steps: refused before the 2**24-entry table is allocated
    path, _ = _skew24_qq(tmp_path)
    start = time.perf_counter()
    code, out, _ = run(capsys, "from-matrix", path, "--kind", "wick")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    error = report_of(out)["error"]
    assert error["type"] == "CapabilityError"
    assert "Pfaffian table" in error["message"]


def test_minor_table_over_the_budget_is_refused_fast(tmp_path, capsys):
    # C(24, 12) * 12 exchange steps: refused before the 12x24 matrix is reduced
    rows = [[str(Fraction((i * 7 + j * 3) % 11 - 5, j % 4 + 1)) for j in range(24)] for i in range(12)]
    path = write(tmp_path, "wide.json", {"ring": {"kind": "q"}, "matrix": rows})
    start = time.perf_counter()
    code, out, _ = run(capsys, "from-matrix", path, "--kind", "plucker")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    error = report_of(out)["error"]
    assert error["type"] == "CapabilityError"
    assert "minor table" in error["message"]


def test_square_minor_table_is_one_elimination(tmp_path, capsys):
    # C(20, 20) * 0 exchange steps: the one coordinate is the determinant, scaled to 1
    path, rows = _skew24_qq(tmp_path)
    square = write(tmp_path, "square.json", {"ring": {"kind": "q"}, "matrix": [r[:20] for r in rows[:20]]})
    code, out, _ = run(capsys, "from-matrix", square, "--kind", "plucker")
    assert code == 0
    assert report_of(out)["data"]["vector"]["coords"] == {",".join(map(str, range(1, 21))): "1"}


def test_single_pfaffian_of_a_24x24_matrix_answers_fast(tmp_path, capsys):
    path, rows = _skew24_qq(tmp_path)
    start = time.perf_counter()
    code, out, _ = run(capsys, "pfaffian", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    pf = Fraction(report_of(out)["data"]["pfaffian"])
    assert pf * pf == determinant(Matrix.from_rows(QQ, rows))
