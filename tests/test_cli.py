"""Command line front end, exercised in process through main()."""

import json
import os
import subprocess
import sys
import time

import pytest

import discarr
from discarr import arrangement_to_json, Rational, Arrangement
from discarr.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CLOSURE,
    EXIT_NOT_GENERIC,
    EXIT_OK,
    EXIT_TABLE,
    EXIT_USAGE,
    SCHEMA,
    field_label,
    main,
)
from discarr.detectors import FourSet, Good6Partition, QuintFamily, good6_points
from discarr.exactfield import Cyclotomic, Galois, Prime, Quadratic
from discarr.permtype import ClosureViolation, TypeReport, arrangement_type

from _helpers import matchings_key


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


def test_detect_k3_runs_good6_points_once(monkeypatch, capsys):
    calls = []

    def counted(a):
        calls.append(a)
        return good6_points(a)

    monkeypatch.setattr("discarr.cli.good6_points", counted)
    monkeypatch.setattr("discarr.detectors.good6_points", counted)
    assert main(["detect", "gallery:dodecahedral", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["good6_count"] == 10
    assert len(calls) == 1


def test_detect_polygon_reports_quints(capsys):
    code, rep, _ = run_json(capsys, ["detect", "gallery:polygon-7"])
    assert code == EXIT_OK
    res = rep["results"]
    assert res["quadral_count"] == 14
    assert res["quint_count"] == 28
    assert rep["consistency"]["quint_closure_violations"] == []


def test_json_builds_no_listing(monkeypatch, capsys):
    # the per-item listing is text output only: --json formats no
    # detected pattern, while the text listing formats every one
    calls = []
    for cls in (FourSet, QuintFamily):
        original = cls.__repr__

        def counted(self, original=original):
            calls.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, "__repr__", counted)
    code, rep, _ = run_json(capsys, ["detect", "gallery:polygon-8"])
    assert code == EXIT_OK and calls == []
    assert main(["detect", "gallery:polygon-8"]) == EXIT_OK
    res = rep["results"]
    assert sorted(set(calls)) == ["FourSet", "QuintFamily"]
    assert len(calls) == res["quadral_count"] + res["quint_count"]


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


def test_detect_deeply_nested_json_file(tmp_path, capsys):
    # json.load recurses once per level and runs out of stack
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad JSON in {str(p)!r}")
    assert captured.out == ""


def test_detect_wrong_schema_file(tmp_path, capsys):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"field": "nope"}), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    # entries must be element strings, not JSON numbers
    numbers = {"field": {"kind": "rational"}, "k": 2, "normals": [[1, 0], [0, 1], [1, 1]]}
    p.write_text(json.dumps(numbers), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    assert "element strings" in capsys.readouterr().err


@pytest.mark.parametrize("field, slopes", [
    ({"kind": "quadratic", "d": 5.9}, ["g", "g+1"]),
    ({"kind": "prime", "p": "7"}, ["2", "3"]),
    ({"kind": "galois", "p": 2, "modulus": [1, 1.5, 1]}, ["g", "g+1"]),
])
def test_detect_non_integer_field_file(tmp_path, capsys, field, slopes):
    # int() read these as Q(sqrt 5), F_7 and F_4, where the five lines are generic
    normals = [["1", "0"], ["0", "1"], ["1", "1"]] + [[s, "1"] for s in slopes]
    p = tmp_path / "field.json"
    p.write_text(json.dumps({"field": field, "k": 2, "normals": normals}), encoding="utf-8")
    assert main(["detect", str(p), "--json"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_detect_prime_above_limit_exits_at_once(tmp_path, capsys):
    # trial division would have run for years on this p
    normals = [["1", "0"], ["0", "1"], ["1", "1"], ["2", "1"], ["3", "1"], ["5", "1"]]
    p = tmp_path / "big_prime.json"
    p.write_text(json.dumps({"field": {"kind": "prime", "p": 10 ** 30 + 57}, "k": 2,
                             "normals": normals}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["detect", str(p), "--json"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1
    assert "p must be below" in capsys.readouterr().err


def test_detect_galois_past_trial_division_budget_exits_at_once(tmp_path, capsys):
    # x^2 - 2 is irreducible over F_1000003: trial division took 3.7 s
    normals = [["1", "0"], ["0", "1"], ["1", "1"], ["g", "1"], ["g+1", "1"]]
    p = tmp_path / "big_galois.json"
    p.write_text(json.dumps({"field": {"kind": "galois", "p": 1000003, "modulus": [-2, 0, 1]},
                             "k": 2, "normals": normals}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["detect", str(p), "--json"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1
    assert "exceeds the budget" in capsys.readouterr().err


def test_detect_bool_k_file(tmp_path, capsys):
    obj = arrangement_to_json(discarr.build_gallery("crapo"))
    obj["k"] = True
    p = tmp_path / "bool_k.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_USAGE
    assert "k must be an integer" in capsys.readouterr().err


def test_detect_non_generic_file(tmp_path, capsys):
    q = Rational()
    a = Arrangement(q, 2, ((1, 0), (1, 0), (1, 1), (2, 1), (3, 1), (5, 1)))
    p = tmp_path / "parallel.json"
    p.write_text(json.dumps(arrangement_to_json(a)), encoding="utf-8")
    assert main(["detect", str(p)]) == EXIT_NOT_GENERIC
    assert "not generic" in capsys.readouterr().err


def test_classify_non_generic_file(tmp_path, capsys):
    # the involution search reports it from its table of 2 x 2 minors
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


def test_witness_token_with_a_huge_count_exits_usage(capsys):
    assert main(["classify", "gallery:witness-1^100000"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad type token in 'witness-1^100000'\n"


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


def test_classify_missing_closure_edge_exits_closure(monkeypatch, capsys):
    # the matchings of the edges (1,2) and (2,3), without (1,3)
    # of six planes, as their one six-element key
    found = [Good6Partition(((1, 5), (2, 6), (3, 4))), Good6Partition(((1, 2), (3, 5), (4, 6)))]
    key = matchings_key([g.matching for g in found])
    monkeypatch.setattr("discarr.detectors._pairing_keys", lambda a: [key])
    with pytest.raises(ClosureViolation, match=r"missing \[\(1, 3\)\]"):
        arrangement_type(discarr.build_gallery("witness-1^6"))
    assert main(["classify", "gallery:witness-1^6"]) == EXIT_CLOSURE
    assert "missing [(1, 3)]" in capsys.readouterr().err


def test_internal_value_error_is_not_usage(monkeypatch):
    # a ValueError from inside a detector is a bug, not unusable input:
    # it propagates instead of exiting 2
    def boom(a):
        raise ValueError("synthetic internal failure")

    monkeypatch.setattr("discarr.cli.quadral_points", boom)
    with pytest.raises(ValueError, match="synthetic internal failure"):
        main(["detect", "gallery:crapo"])


# ---------------------------------------------------------------------------
# consistency failures reported through the consistency dict

_VIOLATION = "synthetic closure violation"


def _type_off_formula(a):
    rep = arrangement_type(a)
    return TypeReport(rep.type, rep.partition, rep.matchings, rep.edges, rep.m_a, False)


@pytest.mark.parametrize("argv, target, fake, key, failed", [
    (["detect", "gallery:polygon-7"], "discarr.cli.quint_closure_checks",
     lambda quints: [_VIOLATION], "quint_closure_violations", [_VIOLATION]),
    (["detect", "gallery:dodecahedral"], "discarr.cli.good6_closure_checks",
     lambda found: [_VIOLATION], "pappus_closure_violations", [_VIOLATION]),
    (["classify", "gallery:octahedral"], "discarr.cli.arrangement_type",
     _type_off_formula, "m_formula_consistent", False),
], ids=["detect-k2-quints", "detect-k3-pappus", "classify-m-formula"])
def test_consistency_failure_exits_closure(monkeypatch, capsys, argv, target, fake, key, failed):
    _, good, _ = run_json(capsys, argv)
    monkeypatch.setattr(target, fake)
    code, rep, _ = run_json(capsys, argv)
    assert code == EXIT_CLOSURE
    # the full report is still written, with only the verdict changed
    assert rep["consistency"][key] == failed
    good["consistency"][key] = failed
    assert rep == good
    assert main(argv + ["--quiet"]) == EXIT_CLOSURE
    assert capsys.readouterr().out.splitlines()[-1] == "consistency: FAILED"


@pytest.mark.parametrize("argv", [["lattice", "gallery:crapo", "--max-rank", "1"],
                                  ["gallery"]])
def test_commands_without_checks_exit_ok(capsys, argv):
    code, rep, _ = run_json(capsys, argv)
    assert code == EXIT_OK
    assert rep["consistency"] == {}
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith("elapsed ")


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


def _no_build(monkeypatch):
    # the modular image is the costly step the gates must precede
    def refuse(a, lattice=False):
        raise AssertionError("modular_image called")
    monkeypatch.setattr(discarr.cli, "modular_image", refuse)


def test_lattice_over_cap_refused_before_build(monkeypatch, capsys):
    # C(40, 3) = 9880 hyperplanes over Q(zeta160): refused before its
    # modular image is made
    _no_build(monkeypatch)
    assert main(["lattice", "gallery:polygon-40"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: 9880 hyperplanes exceeds the 64 cap\n"


def test_lattice_non_generic_over_cap_exits_not_generic(tmp_path, monkeypatch, capsys):
    # nine lines, C(9, 3) = 84 > 64, two of them parallel: genericity first
    _no_build(monkeypatch)
    a = Arrangement(Rational(), 2, ((1, 0), (1, 0), (1, 1), (2, 1), (3, 1),
                                    (5, 1), (7, 1), (11, 1), (13, 1)))
    p = tmp_path / "parallel9.json"
    p.write_text(json.dumps(arrangement_to_json(a)), encoding="utf-8")
    assert main(["lattice", str(p)]) == EXIT_NOT_GENERIC
    assert "parallel or repeated lines" in capsys.readouterr().err


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
    assert field_label(Prime._certified(2 ** 127 - 1)) == f"F{2 ** 127 - 1}"


def test_module_entry_point():
    # the child imports the same discarr as this process, wherever it lives
    src = os.path.dirname(os.path.dirname(discarr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "discarr", "table", "mformula", "--quiet"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == EXIT_OK
    assert "table: ok" in proc.stdout


@pytest.mark.parametrize("argv", [["classify", "gallery:f4", "--json"],
                                  ["lattice", "gallery:crapo", "--json"]])
def test_closed_stdout_exits_1_without_traceback(argv):
    # as `discarr ... | head`: the reader is gone before the report is written
    src = os.path.dirname(os.path.dirname(discarr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "discarr"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 1
    assert err == b""
