import json

import pytest

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
from fdtc.foliation import overtwisted_disc_graph, trivial_disc_graph
from conftest import TORUS_A, TORUS_B


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
        assert p.word("e").is_identity_word()

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_problem("{not json")

    def test_bad_rational_named(self):
        data = torus_problem()
        data["assignment"]["coefficients"]["S"] = "1/0"
        with pytest.raises(ParseError, match="bad rational '1/0'"):
            parse_problem(json.dumps(data))

    @pytest.mark.parametrize("bad", [
        {"num": 1.5, "den": 2},
        {"num": "3", "den": 2.9},
        True,
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
        # T_S^(10^9) on S_{1,1} would be a 6*10^9-flip script
        problem = json.dumps({
            "surface": {"genus": 1, "boundary": ["S"]},
            "words": {"w": [{"boundary": "S", "power": 10 ** 9}]},
        })
        assert main(["fdtc", "exact", problem]) == EXIT_COMPUTATION
        err = capsys.readouterr().err
        assert err == ("computation error: script of 6000000000 flips "
                       "exceeds the cap of 10000000\n")

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
