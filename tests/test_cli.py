"""Command line front end, exercised in process through main()."""

import json
import os
import subprocess
import sys

import pytest

import discarr
from discarr import arrangement_to_json, Rational, Arrangement
from discarr.cli import (
    EXIT_CLOSURE,
    EXIT_NOT_GENERIC,
    EXIT_OK,
    EXIT_TABLE,
    EXIT_USAGE,
    SCHEMA,
    field_label,
    main,
)
from discarr.exactfield import Cyclotomic, Galois, Prime, Quadratic
from discarr.permtype import ClosureViolation


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


# ---------------------------------------------------------------------------
# detect

def test_detect_crapo_text(capsys):
    assert main(["detect", "gallery:crapo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "quadral points: 2" in out
    assert "involutions: 1" in out
    assert "m(A) = 2" in out
    assert "consistency: ok" in out
    assert "elapsed" in out


def test_detect_quiet_suppresses_listing_and_timing(capsys):
    assert main(["detect", "gallery:crapo", "--quiet"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "elapsed" not in out
    assert "FourSet" not in out


def test_detect_octahedral_json(capsys):
    code, rep, _ = run_json(capsys, ["detect", "gallery:octahedral"])
    assert code == EXIT_OK
    assert SCHEMA == "report.v2"
    assert rep["schema"] == SCHEMA
    assert rep["command"] == "detect"
    inp = rep["input"]
    assert inp["source"] == "gallery:octahedral"
    assert inp["n"] == 6 and inp["k"] == 2
    assert len(inp["digest"]) == 64
    res = rep["results"]
    assert res["quadral_count"] == 12
    assert res["involution_count"] == 6
    assert res["m_a"] == 12
    assert all(len(iv["map"]) == 2 for iv in res["involutions"])
    cons = rep["consistency"]
    assert cons["complement_closed"] is True
    assert cons["count_even"] is True
    assert cons["involutions_match_quadral"] is True


def test_detect_k3_json(capsys):
    code, rep, _ = run_json(capsys, ["detect", "gallery:dodecahedral"])
    assert code == EXIT_OK
    res = rep["results"]
    assert res["good6_count"] == 10
    assert len(res["good6"]) == 10
    assert rep["consistency"]["pappus_closure_violations"] == []


def test_detect_polygon_reports_quints(capsys):
    code, rep, _ = run_json(capsys, ["detect", "gallery:polygon-7"])
    assert code == EXIT_OK
    res = rep["results"]
    assert res["quadral_count"] == 14
    assert res["quint_count"] == 28
    assert rep["consistency"]["quint_closure_violations"] == []


def test_detect_k_mismatch(capsys):
    assert main(["detect", "gallery:crapo", "--k", "3"]) == EXIT_USAGE
    assert "k=2" in capsys.readouterr().err


def test_detect_missing_file(capsys):
    assert main(["detect", "/no/such/file.json"]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_detect_bad_json_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    assert "bad JSON" in capsys.readouterr().err


def test_detect_wrong_schema_file(tmp_path, capsys):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"field": "nope"}), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    # entries must be element strings, not JSON numbers
    numbers = {"field": {"kind": "rational"}, "k": 2, "normals": [[1, 0], [0, 1], [1, 1]]}
    p.write_text(json.dumps(numbers), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    assert "element strings" in capsys.readouterr().err


def test_detect_non_generic_file(tmp_path, capsys):
    q = Rational()
    a = Arrangement(q, 2, ((1, 0), (1, 0), (1, 1), (2, 1), (3, 1), (5, 1)))
    p = tmp_path / "parallel.json"
    p.write_text(json.dumps(arrangement_to_json(a)), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_NOT_GENERIC
    assert "not generic" in capsys.readouterr().err


def test_classify_non_generic_file(tmp_path, capsys):
    # the involution search reports it from its det2 table
    q = Rational()
    a = Arrangement(q, 2, ((1, 0), (1, 0), (1, 1), (2, 1), (3, 1), (5, 1)))
    p = tmp_path / "parallel.json"
    p.write_text(json.dumps(arrangement_to_json(a)), encoding="utf-8")
    assert main(["classify", str(p)]) == EXIT_NOT_GENERIC
    assert "parallel or repeated lines" in capsys.readouterr().err


def test_detect_unknown_gallery(capsys):
    assert main(["detect", "gallery:nonagonal"]) == EXIT_USAGE
    assert "unknown gallery name" in capsys.readouterr().err
    assert main(["detect", "gallery:polygon-2"]) == EXIT_USAGE
    assert "n >= 3" in capsys.readouterr().err


def test_detect_file_round_trip(tmp_path, capsys):
    from discarr.gallery import crapo

    p = tmp_path / "crapo.json"
    p.write_text(json.dumps(arrangement_to_json(crapo())), encoding="utf-8")
    code, rep_file, _ = run_json(capsys, ["detect", str(p)])
    assert code == EXIT_OK
    _, rep_gallery, _ = run_json(capsys, ["detect", "gallery:crapo"])
    assert rep_file["input"]["digest"] == rep_gallery["input"]["digest"]
    assert rep_file["results"] == rep_gallery["results"]


def test_json_reports_are_byte_stable(capsys):
    _, _, first = run_json(capsys, ["detect", "gallery:octahedral"])
    _, _, second = run_json(capsys, ["detect", "gallery:octahedral"])
    assert first == second
    assert "elapsed" not in first


# ---------------------------------------------------------------------------
# classify

def test_classify_octahedral(capsys):
    code, rep, _ = run_json(capsys, ["classify", "gallery:octahedral"])
    assert code == EXIT_OK
    res = rep["results"]
    assert res["type"] == "1^2 4^1"
    assert res["m_a"] == 12
    assert res["m_of_type"] == 6
    assert len(res["matchings"]) == 6
    assert len(res["edges"]) == 6
    assert rep["consistency"] == {"m_formula_consistent": True,
                                  "upper_bound_ok": True}


def test_classify_witness_by_uri(capsys):
    code, rep, _ = run_json(capsys, ["classify", "gallery:witness-1^1,5^1"])
    assert code == EXIT_OK
    assert rep["results"]["type"] == "1^1 5^1"
    assert rep["input"]["field"]["kind"] == "quadratic"


def test_classify_needs_six(tmp_path, capsys):
    assert main(["classify", "gallery:polygon-7"]) == EXIT_USAGE
    assert "n=6" in capsys.readouterr().err
    # six points on a line: n = 6, but no classifier for k = 1
    a = Arrangement(Rational(), 1, [(n,) for n in range(1, 7)])
    p = tmp_path / "points.json"
    p.write_text(json.dumps(arrangement_to_json(a)), encoding="utf-8")
    assert main(["classify", str(p)]) == EXIT_USAGE
    assert "k=1" in capsys.readouterr().err


def test_classify_closure_violation_exit(monkeypatch, capsys):
    def boom(a):
        raise ClosureViolation("synthetic closure failure")

    monkeypatch.setattr("discarr.cli.arrangement_type", boom)
    assert main(["classify", "gallery:crapo"]) == EXIT_CLOSURE
    assert "synthetic closure failure" in capsys.readouterr().err


def test_internal_value_error_is_not_usage(monkeypatch):
    # a ValueError from inside a detector is a bug, not unusable input:
    # it propagates instead of exiting 2
    def boom(a):
        raise ValueError("synthetic internal failure")

    monkeypatch.setattr("discarr.cli.quadral_points", boom)
    with pytest.raises(ValueError, match="synthetic internal failure"):
        main(["detect", "gallery:crapo"])


# ---------------------------------------------------------------------------
# lattice

def test_lattice_crapo(capsys):
    code, rep, _ = run_json(capsys, ["lattice", "gallery:crapo"])
    assert code == EXIT_OK
    res = rep["results"]
    assert res["nvg_count"] == 2
    assert "reference_seed" not in res
    assert rep["consistency"] == {}
    counts = {level["rank"]: level["count"] for level in res["ranks"]}
    assert counts[0] == 1 and counts[1] == 20
    nvg_flats = [f for level in res["ranks"] for f in level["flats"] if f["nvg"]]
    assert len(nvg_flats) == 2
    assert all(f["rank"] == 3 for f in nvg_flats)


def test_lattice_max_rank(capsys):
    code, rep, _ = run_json(capsys, ["lattice", "gallery:crapo", "--max-rank", "1"])
    assert code == EXIT_OK
    assert [level["rank"] for level in rep["results"]["ranks"]] == [0, 1]


def test_lattice_without_reference(tmp_path, capsys):
    # k = 1 braid input: every flat of the braid arrangement is very generic
    q = Rational()
    a = Arrangement(q, 1, [(1,)] * 4)
    p = tmp_path / "braid.json"
    p.write_text(json.dumps(arrangement_to_json(a)), encoding="utf-8")
    code, rep, _ = run_json(capsys, ["lattice", str(p)])
    assert code == EXIT_OK
    assert rep["results"]["nvg_count"] == 0
    assert [level["count"] for level in rep["results"]["ranks"]] == [1, 6, 7, 1]
    assert rep["consistency"] == {}


def test_lattice_too_large(capsys):
    assert main(["lattice", "gallery:polygon-10"]) == EXIT_USAGE
    assert "hyperplanes" in capsys.readouterr().err


def test_lattice_text_marks_nvg(capsys):
    assert main(["lattice", "gallery:crapo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "non-very-generic flats: 2" in out
    assert out.count("  nvg ") == 2


# ---------------------------------------------------------------------------
# tables

@pytest.mark.parametrize("name", ["mformula", "classification", "dependencies"])
def test_tables_verify(name, capsys):
    code, rep, _ = run_json(capsys, ["table", name])
    assert code == EXIT_OK
    assert rep["consistency"]["all_match"] is True
    assert all(row["ok"] for row in rep["results"]["rows"])


def test_table_text_output(capsys):
    assert main(["table", "classification", "--quiet"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "table: ok" in out
    assert "Q(sqrt(5))" in out and "Q(sqrt(-3))" in out
    assert out.count("*") == 3


def test_table_mismatch_exit(monkeypatch, capsys):
    wrong = (0, 1, 3, 2, 6, 4, 3, 10, 7, 6, 14)
    monkeypatch.setattr("discarr.cli._M_EXPECTED", wrong)
    assert main(["table", "mformula"]) == EXIT_TABLE
    assert "MISMATCH" in capsys.readouterr().out


def test_table_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "nosuchtable"])
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# gallery listing and parser plumbing

def test_gallery_listing(capsys):
    code, rep, _ = run_json(capsys, ["gallery"])
    assert code == EXIT_OK
    names = rep["results"]["names"]
    assert "crapo" in names and "polygon-<n>" in names
    main(["gallery", "--quiet"])
    out = capsys.readouterr().out
    assert out.splitlines() == names


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_field_labels():
    assert field_label(None) == "*"
    assert field_label(Rational()) == "Q"
    assert field_label(Quadratic(5)) == "Q(sqrt(5))"
    assert field_label(Quadratic(-3)) == "Q(sqrt(-3))"
    assert field_label(Prime(5)) == "F5"
    assert field_label(Galois(2, (1, 1, 1))) == "F4"
    assert field_label(Cyclotomic(24)) == "Q(zeta24)"


def test_module_entry_point():
    # the child imports the same discarr as this process, wherever it lives
    src = os.path.dirname(os.path.dirname(discarr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "discarr", "table", "mformula", "--quiet"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == EXIT_OK
    assert "table: ok" in proc.stdout
