import json
import pathlib
import random

import jsonschema
import pytest

from synchro import cones
from synchro.cli import main
from synchro.errors import (
    InternalContradiction,
    NotAPermutation,
    NotSynchronizing,
    NotTransitive,
    ParseError,
    ResourceCap,
)
from synchro.fileformat import emit_automaton, parse_automaton
from synchro.generate import cerny, random_st

from conftest import count_calls
from test_cones import orbit_instance

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)

C4_TEXT = "4 2\na 2 3 4 1\nb 2 2 3 4\n"
NONSYNC_TEXT = "2 2\na 2 1\nb 1 2\n"
# not synchronizing (state 3 is fixed by both letters), and b has defect 1
NONSYNC_DEFICIENT_TEXT = "3 2\na 2 1 3\nb 1 1 3\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


class TestAnalyze:
    def test_family_report(self, capsys, c4_file):
        code, report = run_json(capsys, ["analyze", c4_file, "--json", "--exact"])
        assert code == 0
        assert report["cone"]["dim"] == 3
        assert report["cone"]["trans_len_k"] == 3
        assert report["bounds"]["bound_main"] == 9
        assert report["bounds"]["bound_rystsov_exact"] == 15
        assert report["bounds"]["bound_rystsov_prefix"] == 13
        assert report["bounds"]["bound_defect1"] == 11
        assert report["bounds"]["rt_exact"] == 9
        assert report["growth"]["d"] == 1
        assert report["defect_profile"] == {"a": 0, "b": 1}

    def test_text_and_json_agree(self, capsys, c4_file):
        main(["analyze", c4_file])
        text = capsys.readouterr().out
        assert "bounds: main 9, square 9, rystsov 15/13, defect1 11" in text

    @pytest.mark.parametrize("command", ["analyze", "synthesize"])
    def test_perm_set_resolved_once(self, monkeypatch, capsys, c4_file, command):
        # for --perm-set; the cone, growth, bounds and synthesis take the
        # resolved set
        counts = count_calls(monkeypatch, "permgroup.resolve_perm_set")
        assert main([command, c4_file, "--json"]) == 0
        assert counts == {"resolve_perm_set": 1}

    def test_over_cap_group_never_enumerated(self, monkeypatch, capsys, tmp_path):
        # the group of random_st(12, 2, 1, 5) is A_12 or S_12, far over the
        # default --group-cap: its order is bounded before any BFS step
        path = tmp_path / "big.txt"
        path.write_text(emit_automaton(random_st(12, 2, 1, 5)))

        def no_gather(*h):
            raise AssertionError("Cayley BFS entered over the cap")

        monkeypatch.setattr("synchro.permgroup.itemgetter", no_gather)
        code, report = run_json(capsys, ["analyze", str(path), "--json"])
        assert code == 0
        assert report["bounds"]["group_order"] is None
        assert report["bounds"]["bound_rystsov_exact"] is None
        assert report["bounds"]["bound_rystsov_prefix"] is None

    def test_nonsynchronizing_exit_code(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(NONSYNC_TEXT)
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == NotSynchronizing.exit_code
        assert "NotSynchronizing" in err

    def test_repeated_perm_set_name_reported_once(self, capsys, c4_file):
        code, report = run_json(capsys, ["analyze", c4_file, "--json", "--perm-set", "a,a"])
        assert code == 0
        assert report["perm_set"] == ["a"]
        assert report["bounds"]["perm_set"] == ["a"]

    def test_deficient_perm_set_rejected(self, capsys, c4_file):
        code = main(["analyze", c4_file, "--perm-set", "b"])
        err = capsys.readouterr().err
        assert code == NotAPermutation.exit_code
        assert "NotAPermutation" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\na 1 3\n")
        code = main(["analyze", str(path)])
        assert code == ParseError.exit_code

    def test_nontransitive_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nt.txt"
        path.write_text("3 2\na 1 2 3\nb 2 2 2\n")
        code = main(["analyze", str(path)])
        assert code == NotTransitive.exit_code

    def test_generator_cap_exit_code(self, monkeypatch, capsys, tmp_path):
        # 420 generators in the orbit, one over the cap
        path = tmp_path / "orbit.txt"
        path.write_text(emit_automaton(orbit_instance(random.Random(8), 8, (2, 2))))
        monkeypatch.setattr(cones, "GENERATOR_CAP", 419)
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == ResourceCap.exit_code
        assert "420 generators at level" in err
        monkeypatch.setattr(cones, "GENERATOR_CAP", 420)
        assert main(["analyze", str(path)]) == 0


class TestSynthesize:
    def test_family(self, capsys, c4_file):
        code, report = run_json(capsys, ["synthesize", c4_file, "--json"])
        assert code == 0
        assert report["word"] == list("baaabaaab")
        assert report["verified"] and report["within_bound"]
        assert report["steps"][0]["escape_length"] is None

    def test_text_mode(self, capsys, c4_file):
        assert main(["synthesize", c4_file]) == 0
        out = capsys.readouterr().out
        assert "reset word: baaabaaab" in out


class TestRt:
    def test_family(self, capsys, c4_file):
        code, report = run_json(capsys, ["rt", c4_file, "--json"])
        assert code == 0
        assert report["reset_threshold"] == 9
        assert report["witness_verified"]

    def test_subset_cap_maps_to_exit_code(self, capsys, tmp_path):
        path = tmp_path / "c6.txt"
        main(["generate", "cerny", "--n", "6", "-o", str(path)])
        code = main(["rt", str(path), "--subset-cap", "2"])
        assert code == ResourceCap.exit_code


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rt", "{c4}", "--subset-cap", "-5"],
            ["analyze", "{c4}", "--group-cap", "0"],
            ["verify", "--suite", "bounds", "--seed-count", "-3"],
        ],
        ids=["subset-cap", "group-cap", "seed-count"],
    )
    def test_cap_or_count_below_one_rejected(self, capsys, c4_file, argv):
        with pytest.raises(SystemExit) as info:
            main([arg.format(c4=c4_file) for arg in argv])
        assert info.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "cerny", "--n", "3", "--json"],
            ["generate", "cerny", "--n", "3", "--exact"],
            ["generate", "cerny", "--n", "3", "--group-cap", "1"],
            ["verify", "--suite", "bounds", "--group-cap", "1"],
            ["verify", "--suite", "bounds", "--perm-set", "zz"],
            ["verify", "--suite", "lemmas", "--subset-cap", "5"],
            ["synthesize", "{c4}", "--exact"],
            ["synthesize", "{c4}", "--seed", "1"],
            ["rt", "{c4}", "--perm-set", "a"],
            ["rt", "{c4}", "--group-cap", "5"],
            ["analyze", "{c4}", "--seed", "1"],
        ],
        ids=[
            "generate-json",
            "generate-exact",
            "generate-group-cap",
            "verify-group-cap",
            "verify-perm-set",
            "verify-subset-cap",
            "synthesize-exact",
            "synthesize-seed",
            "rt-perm-set",
            "rt-group-cap",
            "analyze-seed",
        ],
    )
    def test_flag_a_subcommand_does_not_read_is_rejected(self, capsys, c4_file, argv):
        with pytest.raises(SystemExit) as info:
            main([arg.format(c4=c4_file) for arg in argv])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "cerny", "--seed", "9"],
            ["verify", "--suite", "cerny", "--letters", "7"],
            ["verify", "--suite", "cerny", "--seed-count", "3"],
            ["verify", "--suite", "enumerate", "--n", "2", "--seed", "9"],
            ["verify", "--suite", "enumerate", "--n", "2", "--seed-count", "3"],
            ["verify", "--suite", "bounds", "--letters", "3"],
            ["verify", "--suite", "lemmas", "--letters", "3"],
            ["analyze", "{c4}", "--subset-cap", "5"],
            ["generate", "cerny", "--n", "3", "--seed", "9"],
            ["generate", "cerny", "--n", "3", "--perm-letters", "2"],
            ["generate", "cerny", "--n", "3", "--defect1-letters", "2"],
        ],
        ids=[
            "cerny-seed",
            "cerny-letters",
            "cerny-seed-count",
            "enumerate-seed",
            "enumerate-seed-count",
            "bounds-letters",
            "lemmas-letters",
            "analyze-subset-cap-without-exact",
            "generate-cerny-seed",
            "generate-cerny-perm-letters",
            "generate-cerny-defect1-letters",
        ],
    )
    def test_flag_an_invocation_does_not_read_is_rejected(self, capsys, c4_file, argv):
        with pytest.raises(SystemExit) as info:
            main([arg.format(c4=c4_file) for arg in argv])
        assert info.value.code == 2
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        assert f"does not read {flag}" in capsys.readouterr().err

    def test_subset_cap_is_read_with_exact(self, capsys, c4_file):
        code = main(["analyze", c4_file, "--exact", "--subset-cap", "2"])
        assert code == ResourceCap.exit_code


class TestVerifyCommand:
    def test_cerny_suite_needs_two_states(self, capsys):
        code = main(["verify", "--suite", "cerny", "--n", "1"])
        assert code == 1
        assert "need at least 2 states" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["bounds", "lemmas"])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_random_suites_need_two_states(self, capsys, suite, n):
        code = main(["verify", "--suite", suite, "--n", n, "--seed-count", "1"])
        assert code == 1
        assert "need at least 2 states" in capsys.readouterr().err

    def test_cerny_suite(self, capsys):
        code, report = run_json(capsys, ["verify", "--suite", "cerny", "--n", "6", "--json"])
        assert code == 0
        assert report["ok"]
        assert report["checked"] == 5

    def test_enumerate_suite(self, capsys):
        code, report = run_json(
            capsys, ["verify", "--suite", "enumerate", "--n", "3", "--json"]
        )
        assert code == 0
        assert report["details"]["synchronizing"] == 549

    def test_enumerate_suite_reads_letters(self, capsys):
        code, report = run_json(
            capsys, ["verify", "--suite", "enumerate", "--n", "2", "--letters", "1", "--json"]
        )
        assert code == 0
        assert report["params"] == {"n": 2, "letters": 1}
        assert report["checked"] == 4

    def test_bounds_suite_records_seed(self, capsys):
        code, report = run_json(
            capsys,
            ["verify", "--suite", "bounds", "--seed-count", "3", "--seed", "11", "--json", "--n", "5"],
        )
        assert code == 0
        assert report["seed"] == 11

    def test_lemmas_suite(self, capsys):
        code, report = run_json(
            capsys,
            ["verify", "--suite", "lemmas", "--seed-count", "2", "--n", "5", "--json"],
        )
        assert code == 0
        assert report["ok"]


class TestGenerate:
    def test_cerny_round_trip(self, capsys):
        assert main(["generate", "cerny", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert parse_automaton(out) == cerny(5)

    def test_random_st_reproducible(self, capsys):
        main(["generate", "random-st", "--n", "6", "--seed", "7"])
        first = capsys.readouterr().out
        main(["generate", "random-st", "--n", "6", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second
        aut = parse_automaton(first)
        assert aut.n == 6

    def test_random_st_defaults(self, capsys):
        main(["generate", "random-st", "--n", "6"])
        assert parse_automaton(capsys.readouterr().out) == random_st(6, 1, 1, 0)
        main(["generate", "random-st", "--n", "6", "--seed", "7",
              "--perm-letters", "2", "--defect1-letters", "2"])
        assert parse_automaton(capsys.readouterr().out) == random_st(6, 2, 2, 7)

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.txt"
        assert main(["generate", "cerny", "--n", "3", "-o", str(path)]) == 0
        assert parse_automaton(path.read_text()) == cerny(3)

    def test_too_small_rejected(self, capsys):
        assert main(["generate", "cerny", "--n", "1"]) == 1


class TestExitCodes:
    @pytest.mark.parametrize("command", ["analyze", "synthesize"])
    def test_deficient_perm_set_reported_before_nonsynchronizing(
        self, capsys, tmp_path, command
    ):
        path = tmp_path / "nonsync.txt"
        path.write_text(NONSYNC_DEFICIENT_TEXT)
        code = main([command, str(path), "--perm-set", "b"])
        assert code == NotAPermutation.exit_code
        assert "NotAPermutation" in capsys.readouterr().err

    def test_listed_codes_are_distinct(self):
        codes = {
            ParseError.exit_code,
            NotSynchronizing.exit_code,
            NotTransitive.exit_code,
            ResourceCap.exit_code,
            InternalContradiction.exit_code,
        }
        assert len(codes) == 5
        assert 0 not in codes
