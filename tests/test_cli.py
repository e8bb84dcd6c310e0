"""End-to-end checks of the command-line interface."""

import json

import pytest

from gluecount import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_auto_on_two_leaf_line(self, capsys):
        code, out, _ = run(
            capsys, "count", "--t1", "((*),*)", "--t2", "((*),*)"
        )
        assert code == 0
        assert "count 1" in out.splitlines()

    def test_brute_fan_times_any_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--t1", "(*,*,*)", "--t2", "((*,*),*)",
            "--algo", "brute",
        )
        assert code == 0
        assert "count 6" in out.splitlines()

    def test_leaf_mismatch_reports_reason(self, capsys):
        code, out, _ = run(
            capsys, "count", "--t1", "(*,*)", "--t2", "(*,*,*)"
        )
        assert code == 0
        assert "count 0" in out.splitlines()
        assert "zero-reason leaf-mismatch" in out.splitlines()

    def test_colour_mismatch_reason(self, capsys):
        _, out, _ = run(capsys, "count", "--t1", "(1,2)", "--t2", "(1,3)")
        assert "zero-reason colour-mismatch" in out.splitlines()

    def test_all_subdivergent_reason(self, capsys):
        _, out, _ = run(
            capsys, "count", "--t1", "((*),(*))", "--t2", "((*),(*))"
        )
        assert "count 0" in out.splitlines()
        assert "zero-reason all-subdivergent" in out.splitlines()

    def test_json_record_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--t1", "((((*),*),*),*)", "--t2", "((((*),*),*),*)",
            "--algo", "recursive", "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["t1"] == "((((*),*),*),*)"
        assert record["t2"] == "((((*),*),*),*)"
        assert record["count"] == 13
        assert isinstance(record["count"], int)
        assert record["algorithm"] == "recursive"
        assert record["elapsed"] >= 0

    def test_json_flag_does_not_carry_over(self, capsys):
        pair = ("count", "--t1", "((*),*)", "--t2", "((*),*)")
        _, first, _ = run(capsys, *pair, "--json")
        assert json.loads(first)["count"] == 1
        _, second, _ = run(capsys, *pair)
        assert "count 1" in second.splitlines()
        assert not second.startswith("{")

    def test_symmetry_across_algorithms(self, capsys):
        pair = ("(((*),*),*)", "((*,*),*)")
        for algo in ("brute", "recursive", "cutpre", "auto"):
            _, fwd, _ = run(
                capsys,
                "count", "--t1", pair[0], "--t2", pair[1],
                "--algo", algo, "--json",
            )
            _, rev, _ = run(
                capsys,
                "count", "--t1", pair[1], "--t2", pair[0],
                "--algo", algo, "--json",
            )
            assert json.loads(fwd)["count"] == json.loads(rev)["count"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "--t1", "((*,*)", "--t2", "*")
        assert code == 2
        assert "--t1" in err

    def test_brute_limit_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("GLUECOUNT_BRUTE_LIMIT", "3")
        code, _, err = run(
            capsys,
            "count", "--t1", "(*,*,*,*)", "--t2", "(*,*,*,*)",
            "--algo", "brute",
        )
        assert code == 3
        assert "cap" in err

    def test_closed_rejects_uncovered_pair(self, capsys):
        code, _, err = run(
            capsys,
            "count", "--t1", "((*,*),(*,*))", "--t2", "((*,*),(*,*))",
            "--algo", "closed",
        )
        assert code == 2
        assert "closed form" in err


class TestVerify:
    def test_small_exhaustive_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-leaves", "3", "--samples", "4",
            "--seed", "7",
        )
        assert code == 0
        assert "agree" in out

    def test_deterministic_for_seed(self, capsys):
        args = ("verify", "--max-leaves", "3", "--samples", "6", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_injected_fault_exits_1(self, capsys, monkeypatch):
        real = cli.count_subfree_recursive

        def lying(t1, t2):
            value = real(t1, t2)
            return value + 1 if t1.leaf_count == 3 else value

        monkeypatch.setattr(cli, "count_subfree_recursive", lying)
        code, out, _ = run(capsys, "verify", "--max-leaves", "3")
        assert code == 1
        assert "counterexample" in out

    def test_max_leaves_over_brute_limit_is_usage_error(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("GLUECOUNT_BRUTE_LIMIT", "4")
        code, _, err = run(capsys, "verify", "--max-leaves", "5")
        assert code == 2
        assert "brute limit" in err


class TestSequence:
    def test_line_closed_matches_connected_counts(self, capsys):
        code, out, _ = run(
            capsys,
            "sequence", "--family", "line", "--params", "?",
            "--upto", "4", "--algo", "closed",
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["1", "1", "3", "13"]

    def test_fan_counts_are_factorials(self, capsys):
        _, out, _ = run(
            capsys,
            "sequence", "--family", "fan", "--params", "?", "--upto", "4",
        )
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["1", "2", "6", "24"]

    def test_two_ended_equal_sweep(self, capsys):
        _, out, _ = run(
            capsys,
            "sequence", "--family", "two-ended", "--params", "?,?",
            "--upto", "2",
        )
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("1", "0"), ("2", "2")]

    def test_fan_line_skips_invalid_values(self, capsys):
        _, out, _ = run(
            capsys,
            "sequence", "--family", "fan-line", "--params", "?,2,1",
            "--upto", "4",
        )
        rows = [line.split() for line in out.splitlines()[1:]]
        # k must exceed the branch position, so the sweep starts at 3
        assert [r[0] for r in rows] == ["3", "4"]

    def test_json_rows(self, capsys):
        _, out, _ = run(
            capsys,
            "sequence", "--family", "line", "--params", "?",
            "--upto", "3", "--json",
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["count"] for r in rows] == [1, 1, 3]
        assert all(r["t1"] == r["t2"] for r in rows)

    def test_sweep_needs_a_question_mark(self, capsys):
        code, _, err = run(
            capsys,
            "sequence", "--family", "line", "--params", "2", "--upto", "4",
        )
        assert code == 2
        assert "?" in err


class TestBench:
    def test_counts_agree_and_report(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--family", "line", "--upto", "3", "--reps", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value algorithm count min median"
        assert any(line.startswith("3 brute 3 ") for line in lines)

    def test_injected_fault_aborts(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_subfree_cutpre", lambda a, b: 999)
        code, out, _ = run(
            capsys, "bench", "--family", "line", "--upto", "2", "--reps", "1"
        )
        assert code == 1
        assert "counterexample" in out


class TestGen:
    @pytest.mark.parametrize(
        "family,params,expected",
        [
            ("line", "2", "((*),*)"),
            ("fan", "3", "(*,*,*)"),
            ("fan-line", "4,3,1", "((((*),*),(*)),*)"),
            ("line-s", "4,1-3", "(((*),*,*),*)"),
            ("two-ended", "2,1", "(((*),*),(*))"),
        ],
    )
    def test_frozen_strings(self, capsys, family, params, expected):
        code, out, _ = run(
            capsys, "gen", "--family", family, "--params", params
        )
        assert code == 0
        assert out.strip() == expected

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "fan-line",
                           "--params", "4,1")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_marks_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "line-s",
                           "--params", "4,x-2")
        assert code == 2
        assert "marks" in err
