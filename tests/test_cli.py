import json
from pathlib import Path

import pytest

from padicdyn.cli import main

W2 = "1,3,0,2"
W3 = "1,4,0,4,0,2"
Q3 = "1,1,6"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_minimal_exits_zero(self, capsys):
        code, out, err = run(capsys, "analyze", "--prime", "3", "--coeffs", Q3)
        assert code == 0
        assert "minimal" in out and "not minimal" not in out
        assert "agreement: yes" in out
        assert err == ""

    def test_nonminimal_exits_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "3", "--coeffs", W3)
        assert code == 1
        assert "not minimal" in out
        assert "level-3" in out
        assert "case 1" in out

    def test_p2_witness(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "2", "--coeffs", W2)
        assert code == 1
        assert "FAIL lift_step_one_mod_4: residue 3 mod 4" in out

    def test_structured_record(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "3", "--coeffs", W3,
                           "--format", "structured")
        assert code == 1
        rec = json.loads(out)
        assert set(rec) == {
            "command", "prime", "coeffs", "closed_form", "delta_rule", "agree"
        }
        assert rec["agree"] is True
        assert rec["closed_form"]["case"] == 1
        assert rec["closed_form"]["minimal"] is False
        assert rec["delta_rule"]["method"] == "delta-rule"
        assert rec["delta_rule"]["witness"] is not None

    def test_structured_output_is_reproducible(self, capsys):
        _, first, _ = run(capsys, "analyze", "--prime", "2", "--coeffs", W2,
                          "--format", "structured")
        _, second, _ = run(capsys, "analyze", "--prime", "2", "--coeffs", W2,
                           "--format", "structured")
        assert first == second
        assert json.loads(first)  # single well-formed line

    def test_no_closed_form_above_three(self, capsys):
        code, out, _ = run(capsys, "analyze", "--prime", "5", "--coeffs", "1,1",
                           "--format", "structured")
        assert code == 0
        rec = json.loads(out)
        assert rec["closed_form"] is None
        assert rec["agree"] is None
        assert rec["delta_rule"]["minimal"] is True

    @pytest.mark.parametrize("argv", [
        ("analyze", "--prime", "4", "--coeffs", "1,1"),
        ("analyze", "--prime", "3", "--coeffs", "1,x"),
        ("analyze", "--prime", "3", "--coeffs", "7"),
    ])
    def test_bad_input_exits_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


class TestCycles:
    def test_frozen_text(self, capsys):
        code, out, _ = run(capsys, "cycles", "--prime", "2", "--coeffs", W2,
                           "--level", "3")
        assert code == 0
        lines = out.splitlines()
        assert "bijective: yes" in lines[1]
        assert lines[2] == "cycles (2):"
        assert lines[3].strip() == "0 1 6 3"
        assert lines[4].strip() == "2 7 4 5"

    def test_structured_default_level_is_decision_level(self, capsys):
        code, out, _ = run(capsys, "cycles", "--prime", "2", "--coeffs", W2,
                           "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["level"] == 3
        assert rec["cycles"] == [[0, 1, 6, 3], [2, 7, 4, 5]]
        assert rec["bijective"] is True
        assert rec["non_periodic"] == 0

    def test_non_bijective_map(self, capsys):
        code, out, _ = run(capsys, "cycles", "--prime", "5", "--coeffs", "1,1,1",
                           "--level", "1", "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["bijective"] is False
        assert rec["cycles"] == [[2], [3]]
        assert rec["non_periodic"] == 3


class TestConjugacy:
    def test_index_table_two_columns(self, capsys):
        code, out, _ = run(capsys, "conjugacy", "--prime", "3", "--coeffs", Q3,
                           "--level", "2")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows == [[str(x), str(k)] for x, k in
                        enumerate((0, 1, 8, 6, 7, 5, 3, 4, 2))]

    def test_structured_table(self, capsys):
        code, out, _ = run(capsys, "conjugacy", "--prime", "3", "--coeffs", Q3,
                           "--level", "2", "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["orbit_index"] == [0, 1, 8, 6, 7, 5, 3, 4, 2]
        assert rec["orbit_point"] == [0, 1, 8, 6, 7, 5, 3, 4, 2]

    def test_tower_pass(self, capsys):
        code, out, _ = run(capsys, "conjugacy", "--prime", "3", "--coeffs", Q3,
                           "--nmax", "3", "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["passed"] is True
        assert [c["level"] for c in rec["levels"]] == [1, 2, 3]

    def test_tower_on_nonminimal_map_exits_two(self, capsys):
        code, _, err = run(capsys, "conjugacy", "--prime", "2", "--coeffs", W2,
                           "--nmax", "3")
        assert code == 2
        assert "error:" in err

    def test_short_cycle_exits_two(self, capsys):
        code, _, err = run(capsys, "conjugacy", "--prime", "2", "--coeffs", W2,
                           "--level", "3")
        assert code == 2
        assert "orbit of 0 closes" in err


class TestStream:
    def test_text_values(self, capsys):
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", "1,1",
                           "--level", "2", "--count", "10")
        assert code == 0
        assert out.split() == [str(x) for x in (0, 1, 2, 3, 4, 5, 6, 7, 8, 0)]

    def test_packed_header_and_digits(self, capsys):
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", Q3,
                           "--level", "2", "--count", "9", "--format", "packed")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3 2 9 0"
        # little-endian digit strings of 0,1,8,6,7,5,3,4,2
        assert lines[1:] == ["00", "10", "22", "02", "12", "21", "01", "11", "20"]

    def test_packed_separator_above_base_ten(self, capsys):
        code, out, _ = run(capsys, "stream", "--prime", "13", "--coeffs", "1,1",
                           "--level", "2", "--count", "3", "--format", "packed")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "13 2 3 0"
        assert lines[1:] == ["0.0", "1.0", "2.0"]

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", Q3,
                           "--level", "1", "--seed", "10", "--count", "4",
                           "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["seed"] == 1
        assert rec["values"] == [1, 2, 0, 1]

    def test_default_count_is_one_period(self, capsys):
        code, out, _ = run(capsys, "stream", "--prime", "2", "--coeffs", "1,1",
                           "--level", "3")
        assert code == 0
        assert len(out.split()) == 8

    def test_nonminimal_map_exits_two(self, capsys):
        code, _, err = run(capsys, "stream", "--prime", "2", "--coeffs", W2,
                           "--level", "3")
        assert code == 2
        assert "no full cycle" in err


class TestSweep:
    def test_exhaustive_box_structured(self, capsys):
        code, out, _ = run(capsys, "sweep", "--prime", "3", "--degree", "2",
                           "--bound", "9", "--threads", "1",
                           "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["total"] == 81
        assert rec["agree_minimal"] == 6
        assert rec["disagreements"] == 0
        assert rec["first_counterexample"] is None
        assert rec["sampled"] is False

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--prime", "2", "--degree", "2",
                           "--bound", "4", "--threads", "1")
        assert code == 0
        assert "total: 16" in out
        assert "disagreements: 0" in out

    def test_threads_agree_with_serial(self, capsys):
        _, serial, _ = run(capsys, "sweep", "--prime", "3", "--degree", "3",
                           "--bound", "4", "--threads", "1",
                           "--format", "structured")
        _, parallel, _ = run(capsys, "sweep", "--prime", "3", "--degree", "3",
                             "--bound", "4", "--threads", "2",
                             "--format", "structured")
        a, b = json.loads(serial), json.loads(parallel)
        for key in ("total", "agree_minimal", "agree_nonminimal", "disagreements"):
            assert a[key] == b[key]

    def test_budget_exceeded_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_WORK_BUDGET", "10")
        code, _, err = run(capsys, "sweep", "--prime", "3", "--degree", "2",
                           "--bound", "9", "--threads", "1")
        assert code == 2
        assert "work budget" in err

    def test_budget_exceeded_with_samples_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_WORK_BUDGET", "10")
        code, out, _ = run(capsys, "sweep", "--prime", "3", "--degree", "2",
                           "--bound", "9", "--samples", "15", "--threads", "1",
                           "--rng-seed", "5", "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["sampled"] is True and rec["total"] == 15
        assert rec["disagreements"] == 0

    def test_deeper_nmax(self, capsys):
        code, out, _ = run(capsys, "sweep", "--prime", "2", "--degree", "2",
                           "--bound", "4", "--nmax", "5", "--threads", "1",
                           "--format", "structured")
        rec = json.loads(out)
        assert code == 0
        assert rec["n_max"] == 5 and rec["disagreements"] == 0


class TestEnvironment:
    def test_table_bound_env_limits_tables(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_TABLE_BOUND", "4")
        code, _, err = run(capsys, "cycles", "--prime", "3", "--coeffs", Q3,
                           "--level", "2")
        assert code == 2
        assert "table" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_TABLE_BOUND", "4")
        code, _, _ = run(capsys, "cycles", "--prime", "3", "--coeffs", Q3,
                         "--level", "2", "--table-bound", "100")
        assert code == 0

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_TABLE_BOUND", "many")
        code, _, err = run(capsys, "cycles", "--prime", "3", "--coeffs", Q3)
        assert code == 2
        assert "PADICDYN_TABLE_BOUND" in err


# stdout bytes and exit codes of fixed invocations, recorded from the
# CLI before its kernel and dispatch were merged; any change to them is
# a change to the frozen output
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("PADICDYN_TABLE_BOUND", raising=False)
    monkeypatch.delenv("PADICDYN_WORK_BUDGET", raising=False)


class TestGolden:
    def test_covers_every_subcommand_and_format(self):
        seen = {(g["argv"][0], g["argv"][g["argv"].index("--format") + 1]
                 if "--format" in g["argv"] else "text") for g in GOLDEN}
        assert seen == {(c, "text") for c in
                        ("analyze", "cycles", "conjugacy", "stream", "sweep")} | {
            (c, "structured") for c in
            ("analyze", "cycles", "conjugacy", "stream", "sweep")} | {
            ("stream", "packed")}

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda g: " ".join(g["argv"]))
    def test_stdout_and_exit_code(self, capsys, clean_env, case):
        code, out, _ = run(capsys, *case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])


class TestSignedCoefficients:
    @pytest.mark.parametrize("argv", [
        ("analyze", "--prime", "3"),
        ("analyze", "--prime", "5", "--format", "structured"),
        ("cycles", "--prime", "3", "--level", "2"),
        ("stream", "--prime", "3", "--level", "2"),
    ])
    @pytest.mark.parametrize("coeffs", ["-1,2", "-2,1,3", "-5,-5,-3", "-7,-3,0,9"])
    def test_separate_value_equals_attached(self, capsys, argv, coeffs):
        separate = run(capsys, *argv, "--coeffs", coeffs)
        attached = run(capsys, *argv, f"--coeffs={coeffs}")
        assert separate == attached
        assert separate[0] in (0, 1, 2) and "usage:" not in separate[2]

    def test_signed_stream_values(self, capsys):
        # -5 - 5x - 3x^2 is minimal on Z_3
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", "-5,-5,-3",
                           "--level", "2", "--count", "4")
        assert code == 0
        assert out.split() == ["0", "4", "8", "6"]

    def test_other_options_take_negative_values(self, capsys):
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", "-5,-5,-3",
                           "--level", "1", "--seed", "-1", "--count", "2",
                           "--format", "structured")
        assert code == 0
        assert json.loads(out)["seed"] == 2
