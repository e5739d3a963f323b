import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fdtc
from fdtc.cli import (
    EXIT_COMPUTATION,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    ParseError,
    emit_report,
    main,
    parse_problem,
    run,
)
from fdtc.foliation import (
    EllipticPoint,
    FoliationGraph,
    HyperbolicPoint,
    SurfaceTopology,
    aggregate_bounds,
)
from fdtc.mcg import MappingClassWord
from conftest import (
    TORUS_A,
    TORUS_B,
    TWO_HOLED_FOLDED,
    TWO_HOLED_ODD,
    overtwisted_disc_graph,
    trivial_disc_graph,
)


def torus_problem():
    return {
        "surface": {"genus": 1, "boundary": ["S"]},
        "curves": {"a": list(TORUS_A), "b": list(TORUS_B)},
        "words": {
            "phi": [{"twist": "a"}, {"twist": "b"}],
            "bdry": [{"boundary": "S", "power": 2}],
        },
        "assignment": {"coefficients": {"S": "3/2"},
                       "connected_boundary": True},
        "nt_type": "pseudoAnosov",
    }


def foliation_problem():
    return {
        "surface": {"genus": 0, "boundary": ["C"]},
        "foliations": {
            "ot": overtwisted_disc_graph(3).to_json(),
            "triv": trivial_disc_graph().to_json(),
        },
    }


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus_problem()))
    return str(path)


@pytest.fixture()
def foliation_file(tmp_path):
    path = tmp_path / "fol.json"
    path.write_text(json.dumps(foliation_problem()))
    return str(path)


class TestParseProblem:
    def test_minimal(self):
        p = parse_problem(json.dumps({"surface": {"genus": 1,
                                                  "boundary": ["S"]}}))
        assert p.spec.genus == 1 and not p.words

    def test_full(self, torus_file):
        p = parse_problem(torus_file)
        assert set(p.words) == {"phi", "bdry"}
        assert p.assignment is not None

    def test_unresolved_curve(self):
        data = torus_problem()
        data["words"]["phi"] = [{"twist": "z"}]
        with pytest.raises(ParseError):
            parse_problem(json.dumps(data))

    def test_malformed_curve(self):
        data = torus_problem()
        data["curves"]["a"] = [1, 2]
        with pytest.raises(ParseError):
            parse_problem(json.dumps(data))

    def test_nonmatching_curve(self):
        data = torus_problem()
        data["curves"]["a"] = [5, 1, 0, 1, 1]
        with pytest.raises(ParseError):
            parse_problem(json.dumps(data))

    def test_empty_word_is_identity(self):
        data = torus_problem()
        data["words"]["e"] = []
        p = parse_problem(json.dumps(data))
        assert not p.words["e"].generators

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_problem("{not json")

    def test_bad_rational_named(self):
        data = torus_problem()
        data["assignment"]["coefficients"]["S"] = "1/0"
        with pytest.raises(ParseError, match="bad rational '1/0'"):
            parse_problem(json.dumps(data))

    def test_rational_as_num_den(self):
        data = torus_problem()
        data["assignment"]["coefficients"]["S"] = {"num": -6, "den": 4}
        p = parse_problem(json.dumps(data))
        assert p.assignment.coefficients["S"] == Fraction(-3, 2)

    @pytest.mark.parametrize("bad", [
        {"num": 1, "den": 0},
        {"num": 1.5, "den": 2},
        {"num": "3", "den": 2.9},
        True,
        "1e5000",
        "3/2/1",
    ])
    def test_rational_parts_must_be_integers(self, bad):
        data = torus_problem()
        data["assignment"]["coefficients"]["S"] = bad
        with pytest.raises(ParseError, match="bad rational"):
            parse_problem(json.dumps(data))

    @pytest.mark.parametrize("item", [
        3,
        "twist",
        {"twist": "a", "power": 1.5},
        {"twist": "a", "power": True},
        {"twist": "a", "power": "2"},
        {"boundary": "S", "power": None},
        {"braid": 1.0},
        {"curve": 5},
        {"curve": list(TORUS_A[:-1]) + ["1"]},
        {"twist": ["a"]},
    ])
    def test_bad_word_record_named(self, item):
        data = torus_problem()
        data["words"]["phi"] = [{"twist": "b"}, item]
        with pytest.raises(ParseError, match="bad word 'phi'"):
            parse_problem(json.dumps(data))

    def test_words_built_once(self, torus_file, monkeypatch):
        calls = []
        read = MappingClassWord.from_json
        monkeypatch.setattr(MappingClassWord, "from_json", staticmethod(
            lambda *a: calls.append(a) or read(*a)))
        p = parse_problem(torus_file)
        args = argparse.Namespace(command="fdtc", action="exact",
                                  word="phi", component=None)
        assert run(p, args).results[0]["value"] == "1/6"
        assert len(calls) == len(p.words) == 2

    def test_bad_nt_type(self):
        data = torus_problem()
        data["nt_type"] = "loxodromic"
        with pytest.raises(ParseError):
            parse_problem(json.dumps(data))


class TestMain:
    def test_fdtc_exact(self, torus_file, capsys):
        assert main(["fdtc", "exact", torus_file, "--word", "phi"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["value"] == "1/6"
        assert out["results"][0]["provenance"] == "ExactTheorem"

    def test_fdtc_interval(self, torus_file, capsys):
        assert main(["fdtc", "interval", torus_file, "--word", "phi",
                     "--N", "4"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["results"]) == 4

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_fdtc_interval_bad_N_exit(self, torus_file, capsys, n):
        assert main(["fdtc", "interval", torus_file, "--word", "phi",
                     "--N", n]) == EXIT_PARSE
        assert "--N must be at least 1" in capsys.readouterr().err

    def test_fdtc_audit(self, torus_file, capsys):
        assert main(["fdtc", "audit", torus_file, "--word", "phi",
                     "--word2", "bdry"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["defect_ok"] is True

    def test_fdtc_audit_echoes_only_word(self, capsys):
        data = torus_problem()
        del data["words"]["bdry"]
        assert main(["fdtc", "audit", json.dumps(data)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["inputs"]["word"] == out["inputs"]["word2"] == "phi"
        assert out["results"][0]["c1"] == out["results"][0]["c2"] == "1/6"

    def test_classify(self, torus_file, capsys):
        assert main(["classify", torus_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        conclusions = [r["conclusion"] for r in out["results"]]
        assert "Hyperbolic" in conclusions and "Irreducible" in conclusions

    def test_classify_inconclusive_exit(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "surface": {"genus": 0, "boundary": ["C"]},
            "assignment": {"coefficients": {"C": "1/2"},
                           "connected_boundary": True},
        }))
        assert main(["classify", str(path)]) == EXIT_INCONCLUSIVE

    def test_surface_info(self, torus_file, capsys):
        assert main(["surface", "info", torus_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        info = out["results"][0]
        assert info["denominator_bound"] == 6
        assert info["key_lemma_power"] == 31

    def test_foliation_check(self, foliation_file, capsys):
        assert main(["foliation", "check", foliation_file,
                     "--graph", "triv"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["ok"] is True
        assert out["results"][0]["self_linking"] == -1

    def test_foliation_bounds(self, foliation_file, capsys):
        assert main(["foliation", "bounds", foliation_file, "--graph", "ot",
                     "--points", "v-"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["lower"] == {"num": -3, "den": 1}
        assert out["warnings"]

    def test_foliation_otdisc(self, foliation_file, capsys):
        assert main(["foliation", "otdisc", foliation_file,
                     "--graph", "ot"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["non_right_veering"] is True

    def test_foliation_bounds_aggregate(self, foliation_file, capsys):
        assert main(["foliation", "bounds", foliation_file, "--graph", "ot",
                     "--points", "w1,w2,w3", "--mode", "braid",
                     "--aggregate"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        want = aggregate_bounds(["w1", "w2", "w3"], overtwisted_disc_graph(3),
                                "braid")
        assert out["results"] == [want.to_json()]
        assert out["inputs"]["points"] == "w1,w2,w3"

    def test_foliation_otdisc_bc_annulus_witness(self, capsys):
        ells = (EllipticPoint("v+", 1, "C1", True, True, True),
                EllipticPoint("v-", -1, "C2", True, True, False))
        graph = FoliationGraph(
            SurfaceTopology(0, 2), ells, (HyperbolicPoint("h1", 1, "bc", True),),
            (("h1", "v+"), ("h1", "v-")), c_circle_presence=True,
            c_circles_essential=True)
        problem = {"surface": {"genus": 0, "boundary": ["C1", "C2"]},
                   "foliations": {"g": graph.to_json()}}
        assert main(["foliation", "otdisc", json.dumps(problem)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["bc_annulus_witness"] == "h1"
        assert out["results"][0]["valid"] is False

    def test_parse_error_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["fdtc", "exact", missing]) == EXIT_PARSE

    def test_computation_error_exit(self, tmp_path, capsys):
        # braid route on a word permuting punctures must go through
        # `fdtc braid`; `fdtc exact` reports a computation error
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "surface": {"genus": 0, "boundary": ["C"], "punctures": 2},
            "words": {"s": [{"braid": 1}]},
        }))
        assert main(["fdtc", "exact", str(path)]) == EXIT_COMPUTATION
        assert main(["fdtc", "braid", str(path)]) == EXIT_OK

    def test_huge_power_exit(self, capsys):
        # boundary letters are split off the word, never replayed, and a
        # twist letter's power is one twist run, so huge powers of both
        # answer; another component's boundary letter still replays flip
        # by flip, and at that power its script is refused by the cap
        a, b = [0, 1, 0, 1, 1], [1, 0, 0, 1, 0]
        for word, want in [
            ([{"boundary": "S", "power": 10 ** 9}], "1000000000"),
            ([{"boundary": "S", "power": -10 ** 9}, {"curve": a},
              {"curve": b}], "-5999999999/6"),
            ([{"curve": a, "power": 10 ** 9}, {"curve": b}], "1/2"),
        ]:
            problem = json.dumps({
                "surface": {"genus": 1, "boundary": ["S"]},
                "words": {"w": word},
            })
            assert main(["fdtc", "exact", problem]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            assert out["results"][0]["value"] == want
        problem = json.dumps({
            "surface": {"genus": 1, "boundary": ["C1", "C2"]},
            "words": {"w": [{"boundary": "C2", "power": 10 ** 9}]},
        })
        assert main(["fdtc", "exact", problem, "--component", "C1"]) \
            == EXIT_COMPUTATION
        err = capsys.readouterr().err
        assert err == ("computation error: script of 2000000000 flips "
                       "exceeds the cap of 10000000\n")

    @pytest.mark.parametrize("written", ["1e5000", "1e999999999", "0.5"])
    def test_decimal_or_exponent_rational_exit(self, capsys, written):
        # Fraction reads all three: "1e999999999" as a billion digits, and
        # "1e5000" fails later, when the report is written
        data = torus_problem()
        data["assignment"]["coefficients"]["S"] = written
        assert main(["classify", json.dumps(data)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(
            "parse error: bad rational %r: " % written)
        data["assignment"]["coefficients"]["S"] = "-6/4"
        assert main(["classify", json.dumps(data)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs"]["coefficients"] \
            == {"S": "-3/2"}

    @pytest.mark.parametrize("item", [3, {"twist": "a", "power": 1.5}])
    def test_bad_word_record_exit(self, tmp_path, capsys, item):
        data = torus_problem()
        data["words"]["phi"] = [item]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["fdtc", "exact", str(path), "--word", "phi"]) == EXIT_PARSE
        assert "bad word 'phi'" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [
        [0, 1, 0, -1, 1],  # a negative weight
        [0, 1, 0, 0, 0],   # violates the matching conditions
    ])
    def test_inline_curve_checked_like_named(self, tmp_path, capsys, weights):
        data = torus_problem()
        data["words"]["phi"] = [{"curve": weights}]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["fdtc", "exact", str(path), "--word", "phi"]) == EXIT_PARSE
        assert "bad word 'phi'" in capsys.readouterr().err
        data["words"]["phi"] = [{"twist": "a"}]
        data["curves"]["a"] = weights
        with pytest.raises(ParseError, match="bad curve 'a'"):
            parse_problem(json.dumps(data))

    @pytest.mark.parametrize("weights", [TWO_HOLED_ODD, TWO_HOLED_FOLDED])
    def test_nonmatching_curve_exits_2(self, capsys, weights):
        problem = {"surface": {"genus": 1, "boundary": ["C1", "C2"]},
                   "curves": {"a": list(weights)}}
        assert main(["surface", "info", json.dumps(problem)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: bad curve 'a': ")
        assert "matching conditions" in err and "Traceback" not in err

    def test_missing_surface_named(self, capsys):
        assert main(["surface", "info", '{"curves": {}}']) == EXIT_PARSE
        assert capsys.readouterr().err == \
            "parse error: missing field 'surface'\n"

    @pytest.mark.parametrize("surface", [
        {"genus": 1.5, "boundary": ["S"]},
        {"genus": True, "boundary": ["S"]},
        {"genus": "1", "boundary": ["S"]},
        {"genus": 1, "boundary": "SC"},
        {"genus": 1, "boundary": [1, 2]},
        {"genus": 0, "boundary": ["C"], "punctures": 2.0},
    ])
    def test_surface_read_as_written(self, capsys, surface):
        problem = json.dumps({"surface": surface})
        assert main(["surface", "info", problem]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: bad surface: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,bad", [
        ("connected_boundary", "false"),
        ("connected_boundary", 0),
        ("tight", "false"),
    ])
    def test_classify_flags_read_as_written(self, capsys, field, bad):
        data = torus_problem()
        if field == "tight":
            data["tight"] = bad
        else:
            data["assignment"][field] = bad
        assert main(["classify", json.dumps(data)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,bad", [("sign", "1"), ("sign", 1.9),
                                           ("essential", "false")])
    def test_foliation_read_as_written(self, capsys, field, bad):
        data = foliation_problem()
        data["foliations"]["triv"]["elliptic_points"][0][field] = bad
        assert main(["foliation", "check", json.dumps(data),
                     "--graph", "triv"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: malformed foliation graph: ")
        assert err.endswith(" (foliations.triv)\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,bad", [
        ("elliptic_points", {"a": 1}),
        ("hyperbolic_points", "h1"),
        ("singular_leaf_incidence", {"h1": "v1"}),
    ])
    def test_foliation_lists_read_as_written(self, capsys, key, bad):
        data = foliation_problem()
        data["foliations"]["triv"][key] = bad
        assert main(["foliation", "check", json.dumps(data),
                     "--graph", "triv"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: malformed foliation graph: %s "
                              "must be a list" % key)
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", [
        "curves", "words", "foliations", "coefficients", "c_circles",
        "surface", "assignment", "graph"])
    def test_sections_must_be_objects(self, capsys, section):
        data = torus_problem()
        if section == "coefficients":
            data["assignment"]["coefficients"] = [1]
        elif section == "c_circles":
            data["foliations"] = foliation_problem()["foliations"]
            data["foliations"]["triv"]["c_circles"] = []
        elif section == "graph":
            data["foliations"] = {"g": []}
        else:
            data[section] = {"surface": ["x"], "assignment": [1]}.get(
                section, [])
        assert main(["surface", "info", json.dumps(data)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert "%s must be a JSON object" % section in err
        assert "Traceback" not in err

    def test_unknown_component(self, torus_file):
        assert main(["fdtc", "exact", torus_file, "--word", "phi",
                     "--component", "Z"]) == EXIT_PARSE


class TestDeterminism:
    def test_byte_identical_reports(self, torus_file):
        p1 = parse_problem(torus_file)
        p2 = parse_problem(torus_file)

        class Args:
            command = "classify"
            nt_type = None
            tight = False

        r1 = emit_report(run(p1, Args()))
        r2 = emit_report(run(p2, Args()))
        assert r1 == r2

    def test_text_format(self, foliation_file, capsys):
        assert main(["--format", "text", "foliation", "otdisc",
                     foliation_file, "--graph", "ot"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "task: foliation otdisc" in out
        assert "warning:" in out


def _exact_report(lo, hi, provenance, value):
    """The bytes of ``fdtc exact`` on S_{1,1} for word w at N = 31."""
    return (
        '{\n "inputs": {\n  "component": "S",\n  "word": "w"\n },\n'
        ' "results": [\n  {\n   "D": 6,\n   "N": 31,\n   "interval": {\n'
        '    "hi": "%s",\n    "hi_closed": true,\n    "lo": "%s",\n'
        '    "lo_closed": true\n   },\n   "provenance": "%s",\n'
        '   "value": "%s"\n  }\n ],\n "task": "fdtc exact",\n'
        ' "warnings": []\n}\n' % (hi, lo, provenance, value))


class TestExactReportBytes:
    """The report carries the bracket at N = 31 whether fdtc_exact
    derived it from the bracket at 7 or searched for it."""

    A = {"curve": list(TORUS_A)}
    B = {"curve": list(TORUS_B)}

    @pytest.mark.parametrize("word,report", [
        ([dict(A, power=10 ** 9), B],
         ("15/31", "16/31", "ExactTheorem", "1/2")),
        ([A, dict(B, power=-1)], ("-1/31", "0", "ExactTheorem", "0")),
        ([dict(A, power=-1), B], ("0", "1/31", "ExactTheorem", "0")),
        ([A, B] * 6, ("1", "1", "PeriodicityCorollary", "1")),
        # 1/6 shares the bracket at 7 with 1/5 and 1/4
        ([A, B], ("5/31", "6/31", "ExactTheorem", "1/6")),
    ])
    def test_pinned(self, word, report, capsys):
        problem = json.dumps({"surface": {"genus": 1, "boundary": ["S"]},
                              "words": {"w": word}})
        assert main(["fdtc", "exact", problem]) == EXIT_OK
        assert capsys.readouterr().out == _exact_report(*report)


class TestFoliationReportBytes:
    """The light commands' reports on ``foliation_problem()``, pinned
    byte for byte in tests/golden, in JSON and in the text format."""

    @pytest.mark.parametrize("fmt,ext", [("json", "json"), ("text", "txt")])
    @pytest.mark.parametrize("name,argv", [
        ("check-triv", ["check", "--graph", "triv"]),
        ("check-ot", ["check", "--graph", "ot"]),
        ("otdisc-ot", ["otdisc", "--graph", "ot"]),
        ("bounds-point", ["bounds", "--graph", "ot", "--points", "v-"]),
        ("bounds-aggregate", ["bounds", "--graph", "ot", "--points",
                              "w1,w2,w3", "--mode", "braid", "--aggregate"]),
    ])
    def test_pinned(self, name, argv, fmt, ext, foliation_file, capsys):
        action, *rest = argv
        assert main(["--format", fmt, "foliation", action, foliation_file]
                    + rest) == EXIT_OK
        want = Path(__file__).resolve().parent / "golden" / (
            "foliation-%s.%s" % (name, ext))
        assert capsys.readouterr().out == want.read_bytes().decode()


class TestColdStart:
    def test_import_skips_dataclasses_and_inspect(self):
        # -S keeps site hooks from importing modules of their own
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fdtc.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-S", "-c", "import fdtc.cli, sys; print(sorted("
             "{'dataclasses', 'inspect'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout == "[]\n"
