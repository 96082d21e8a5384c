import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import padicdyn
from padicdyn import cli, sweep
from padicdyn.cli import build_parser, main

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

    def test_nonminimal_at_a_large_prime_exits_one_with_its_cycle(self, capsys):
        # the witness of (x + 1)^2 is known to hold 2,466,716 residues mod
        # p^2 before it is built; a witness walk bounded by p^2 refused it
        p = 100003
        m = p * p
        code, out, _ = run(capsys, "analyze", "--prime", str(p), "--coeffs", "1,2,1",
                           "--format", "structured")
        assert code == 1
        verdict = json.loads(out)["delta_rule"]
        w = verdict["witness"]
        assert len(w) == verdict["conditions"][0]["residue"] == 2466716
        assert w.count(w[0]) == 1
        assert all((x + 1) ** 2 % m == y for x, y in zip(w, w[1:] + w[:1]))

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_witness_line_is_the_same_in_blocks(self, capsys, monkeypatch, block):
        _, whole, _ = run(capsys, "analyze", "--prime", "5", "--coeffs", "1,1,1")
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "analyze", "--prime", "5", "--coeffs", "1,1,1")
        assert code == 1 and out == whole
        assert "\n  witness cycle: 3 13 8 23\n" in out

    @pytest.mark.parametrize("block", [1, 3, 4])
    @pytest.mark.parametrize("prime,coeffs", [("5", "1,1,1"), ("3", W3)])
    def test_structured_witness_is_the_same_in_blocks(self, capsys, monkeypatch, block,
                                                      prime, coeffs):
        # at p = 3 the closed form's null witness sorts before delta_rule's
        argv = ("analyze", "--prime", prime, "--coeffs", coeffs, "--format", "structured")
        _, whole, _ = run(capsys, *argv)
        rec = json.loads(whole)
        assert whole == json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        assert len(rec["delta_rule"]["witness"]) >= block
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, *argv)
        assert code == 1 and out == whole

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
        ("stream", "--prime", "3", "--coeffs", "1,1", "--level", "0"),
        ("stream", "--prime", "3", "--coeffs", "1,1", "--level", "-1"),
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

    @pytest.mark.parametrize("command", ["cycles", "conjugacy"])
    def test_deep_level_exits_two_at_once(self, capsys, command):
        # refused from the level, before 3^(10^8) is computed
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, "--prime", "3", "--coeffs", "1,1",
                             "--level", str(10**8))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: table of 3^100000000 entries exceeds bound")


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

    @pytest.mark.parametrize("n_max", range(1, 6))
    def test_tower_lines_and_record(self, capsys, n_max):
        # one line or record entry per certified level, as the tower has
        # always printed them
        levels = range(1, n_max + 1)
        code, out, _ = run(capsys, "conjugacy", "--prime", "3", "--coeffs", Q3,
                           "--nmax", str(n_max))
        assert code == 0
        assert out == "".join(
            f"level {n}: conjugation ok, projection ok\n" for n in levels) + "tower: ok\n"
        code, out, _ = run(capsys, "conjugacy", "--prime", "3", "--coeffs", Q3,
                           "--nmax", str(n_max), "--format", "structured")
        assert code == 0
        entries = ",".join(
            f'{{"conjugation_ok":true,"level":{n},"projection_ok":true}}' for n in levels)
        assert out == (f'{{"coeffs":[1,1,6],"command":"conjugacy","levels":[{entries}],'
                       f'"n_max":{n_max},"passed":true,"prime":3}}\n')

    def test_tower_on_nonminimal_map_exits_two(self, capsys):
        code, _, err = run(capsys, "conjugacy", "--prime", "2", "--coeffs", W2,
                           "--nmax", "3")
        assert code == 2
        assert "error:" in err

    def test_deep_tower_builds_no_table(self, capsys, no_tables):
        # 24 levels of the 2^24-cycle x + 1, decided by lifting
        code, out, _ = run(capsys, "conjugacy", "--prime", "2", "--coeffs", "1,1",
                           "--nmax", "24")
        assert code == 0
        assert out.splitlines() == [
            f"level {n}: conjugation ok, projection ok" for n in range(1, 25)
        ] + ["tower: ok"]

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

    @pytest.mark.parametrize("fmt", ["text", "structured", "packed"])
    @pytest.mark.parametrize("prime,coeffs,level", [
        ("2", "1,1", "1994"), ("3", "1,1,0,3", "50000"), ("3", "1,1,0,3", "1000000000"),
    ])
    def test_modulus_over_the_digit_cap_exits_two(self, capsys, fmt, prime, coeffs, level):
        # 2^1993 has 600 digits, 2^1994 has 601; the level is refused before
        # p^n is computed or a residue printed
        code, out, err = run(capsys, "stream", "--prime", prime, "--coeffs", coeffs,
                             "--level", level, "--count", "14", "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "600 digits" in err

    @pytest.mark.parametrize("fmt", ["text", "structured", "packed"])
    def test_modulus_at_the_digit_cap_streams(self, capsys, fmt):
        code, out, _ = run(capsys, "stream", "--prime", "2", "--coeffs", "1,1",
                           "--level", "1993", "--count", "2", "--format", fmt)
        assert code == 0 and out

    def test_deep_level_builds_no_table(self, capsys, no_tables):
        # a 2^30-cycle: the check costs a few lifting steps, not 2^30 residues
        code, out, _ = run(capsys, "stream", "--prime", "2", "--coeffs", "1,1",
                           "--level", "30", "--count", "3")
        assert code == 0
        assert out.split() == ["0", "1", "2"]


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

    @pytest.mark.parametrize("extra", [
        ("--samples", "-5", "--threads", "1"), ("--threads", "0"), ("--threads", "-3"),
    ])
    def test_bad_count_exits_two(self, capsys, monkeypatch, extra):
        # refused before the box of 2^30 tuples is weighed or a pool starts
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a bad count")

        monkeypatch.setattr(sweep, "_pool", no_pool)
        code, out, err = run(capsys, "sweep", "--prime", "2", "--degree", "30",
                             "--bound", "2", "--format", "structured", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "count must be" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("prime", ["4", "1", "-3"])
    def test_bad_prime_exits_two_before_sizing(self, capsys, monkeypatch, prime, threads):
        # refused before p^n_max sizes a residue table or a pool starts
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a bad prime")

        monkeypatch.setattr(sweep, "_pool", no_pool)
        code, out, err = run(capsys, "sweep", "--prime", prime, "--degree", "2",
                             "--bound", "3", "--threads", threads)
        assert code == 2 and out == ""
        assert err == f"error: {prime} is not a prime below 2^32\n"

    @pytest.mark.parametrize("extra", [(), ("--samples", "1")])
    def test_deep_nmax_over_budget_exits_two(self, capsys, extra):
        # one tuple at n_max 30 weighs 2^27 > 10^7 brute-force steps
        code, out, err = run(capsys, "sweep", "--prime", "2", "--degree", "1",
                             "--bound", "2", "--nmax", "30", "--threads", "1", *extra)
        assert code == 2 and out == ""
        assert "work budget" in err


    @pytest.mark.parametrize("extra", [(), ("--samples", "1")])
    def test_large_prime_over_budget_exits_two(self, capsys, extra):
        # each tuple weighs ceil(100003^2 / 27), about 3.7e8 > 10^7
        code, out, err = run(capsys, "sweep", "--prime", "100003", "--degree", "1",
                             "--bound", "2", "--threads", "1", *extra)
        assert code == 2 and out == ""
        assert "work budget" in err


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

    def test_bad_table_bound_only_where_read(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_TABLE_BOUND", "many")
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", Q3,
                           "--level", "1")
        assert code == 0 and out.split() == ["0", "1", "2"]
        code, _, _ = run(capsys, "sweep", "--prime", "3", "--degree", "1",
                         "--bound", "3", "--threads", "1")
        assert code == 0

    def test_bad_work_budget_only_where_read(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICDYN_WORK_BUDGET", "many")
        code, _, _ = run(capsys, "analyze", "--prime", "3", "--coeffs", Q3)
        assert code == 0
        code, _, _ = run(capsys, "analyze", "--prime", "3", "--coeffs", W3)
        assert code == 1
        code, _, err = run(capsys, "sweep", "--prime", "3", "--degree", "1",
                           "--bound", "3", "--threads", "1")
        assert code == 2
        assert "PADICDYN_WORK_BUDGET" in err

    @pytest.mark.parametrize("command", [
        ("stream", "--prime", "3", "--coeffs", Q3),
        ("sweep", "--prime", "3", "--degree", "1", "--bound", "3"),
    ])
    def test_table_bound_flag_only_where_read(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--table-bound", "100"])
        assert exit_info.value.code == 2
        assert "--table-bound" in capsys.readouterr().err


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


SUBCOMMANDS = ("analyze", "cycles", "conjugacy", "stream", "sweep")


def exit_of(call):
    with pytest.raises(SystemExit) as exit_info:
        call()
    return exit_info.value.code


class TestParsers:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_matches_the_full_tree(self, capsys, command):
        assert exit_of(lambda: main([command, "--help"])) == 0
        alone = capsys.readouterr().out
        assert exit_of(lambda: build_parser().parse_args([command, "--help"])) == 0
        assert alone == capsys.readouterr().out
        assert alone.startswith(f"usage: padicdyn {command} [-h] --prime PRIME")

    def test_top_level_help_lists_every_subcommand(self, capsys):
        assert exit_of(lambda: main(["--help"])) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: padicdyn [-h]")
        assert all(f"    {command} " in out for command in SUBCOMMANDS)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--prime", "3", "analyze"]])
    def test_missing_or_unknown_command_exits_two(self, capsys, argv):
        assert exit_of(lambda: main(argv)) == 2
        assert capsys.readouterr().err.startswith("usage: padicdyn [-h]")

    def test_subcommand_builds_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "analyze", "--prime", "3", "--coeffs", Q3)[0] == 0
        assert built == ["padicdyn analyze"]


def python(*args):
    """Run a fresh interpreter that imports padicdyn from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


class TestFreshInterpreter:
    def test_import_loads_no_process_pool(self):
        done = python("-c", "import sys, padicdyn.cli; "
                            "print('multiprocessing' in sys.modules)")
        assert (done.returncode, done.stdout) == (0, "False\n")

    @pytest.mark.parametrize("coeffs,code", [(Q3, 0), (W3, 1)])
    def test_module_reads_sys_argv(self, capsys, coeffs, code):
        argv = ["analyze", "--prime", "3", "--coeffs", coeffs]
        done = python("-m", "padicdyn.cli", *argv)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
        assert done.returncode == code
