import argparse
import gc
import json
import os
import re
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

import oracles
import padicdyn
from padicdyn import cli, criteria, dynamics, odometer, sweep
from padicdyn.cli import build_parser, main
from padicdyn.dynamics import IntPolynomial
from test_sweep import _RecordingPool

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
        # 2^-2000 is 0.0 as a float
        ("stream", "--prime", "2", "--coeffs", "1,1", "--level", "-2000"),
    ])
    def test_bad_input_exits_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["analyze", "cycles", "conjugacy", "stream"])
    def test_empty_coefficient_list_exits_two(self, capsys, command):
        # "--coeffs=" gets past argparse as the empty string
        code, out, err = run(capsys, command, "--prime", "3", "--coeffs=")
        assert (code, out, err) == (2, "", "error: bad coefficient list ''\n")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_disagreeing_routes_exit_two(self, capsys, monkeypatch, fmt):
        # a closed form flipped by hand splits from the decision-level check
        def flipped(f):
            verdict = criteria.closed_form(f)
            return verdict._replace(minimal=not verdict.minimal)

        monkeypatch.setattr(cli, "closed_form", flipped)
        code, out, err = run(capsys, "analyze", "--prime", "3", "--coeffs", Q3, "--format", fmt)
        assert code == 2
        assert err == "decision routes disagree; this is a bug\n"
        if fmt == "structured":
            rec = json.loads(out)
            assert rec["agree"] is False and rec["closed_form"]["minimal"] is False
        else:
            assert "agreement: NO" in out


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
    def test_out_of_memory_exits_two(self, capsys, monkeypatch, command):
        # not 1, which analyze gives a map that is not minimal.  Each
        # allocation in turn: cycles takes a full cycle (Q3) in orbit
        # blocks, lifts any other map's cycles (W3, broken mod 27) from
        # those mod 9, W3's full cycle there walked into the blocks' first
        # array, and tabulates every map at level 1; conjugacy --level sets
        # up its closed-form index from the first 2K residues of the orbit
        # blocks, before any row is written
        def exhausted(*args, **kwargs):
            raise MemoryError

        allocations = {
            "cycles": [(Q3, (), dynamics, "_orbit_blocks"), (W3, (), dynamics, "array"),
                       (W3, ("--level", "1"), dynamics, "reduced_map_table")],
            "conjugacy": [(Q3, (), odometer, "_orbit_blocks")],
        }
        for coeffs, level, module, name in allocations[command]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, exhausted)
                code, out, err = run(capsys, command, "--prime", "3", "--coeffs", coeffs, *level)
            assert code == 2 and out == "", name
            assert err == "error: out of memory\n"

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
        ("101", "1,1", "300"), ("1009", "1,1", "200"),
    ])
    def test_modulus_over_the_digit_cap_exits_two(self, capsys, fmt, prime, coeffs, level):
        # 2^1993 has 600 digits, 2^1994 has 601, 101^300 has 602 and
        # 1009^200 has 601; the level is refused before a residue is printed
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

    @pytest.mark.parametrize("fmt", ["text", "structured", "packed"])
    @pytest.mark.parametrize("prime,level", [("101", "299"), ("1009", "199")])
    def test_modulus_below_the_digit_cap_streams_at_large_primes(self, capsys, fmt,
                                                                  prime, level):
        # 101^299 and 1009^199 have 600 digits
        code, out, _ = run(capsys, "stream", "--prime", prime, "--coeffs", "1,1",
                           "--level", level, "--count", "2", "--format", fmt)
        assert code == 0 and out

    def test_deep_level_builds_no_table(self, capsys, no_tables):
        # a 2^30-cycle: the check costs a few lifting steps, not 2^30 residues
        code, out, _ = run(capsys, "stream", "--prime", "2", "--coeffs", "1,1",
                           "--level", "30", "--count", "3")
        assert code == 0
        assert out.split() == ["0", "1", "2"]


def orbit(coeffs, p, n, seed, count):
    """The first count residues of the orbit of seed mod p^n."""
    m = p**n
    x = seed % m
    values = []
    for _ in range(count):
        values.append(x)
        x = oracles.eval_pow_mod(coeffs, x, m)
    return values


def coeff_text(coeffs):
    return ",".join(map(str, coeffs))


@pytest.mark.parametrize("block", [1, 3, 4])
class TestBlocks:
    """Output written a block at a time against one line per residue,
    rendered here, at block sizes that split it anywhere.  12 lines are
    whole blocks of every size, and 0 lines print nothing."""

    @pytest.mark.parametrize("p,coeffs,n", [(3, (1, 1, 6), 2), (2, (1, 1), 3),
                                            (5, (1, 1, 5), 2)])
    def test_conjugacy_rows(self, capsys, monkeypatch, block, p, coeffs, n):
        index = {x: k for k, x in enumerate(orbit(coeffs, p, n, 0, p**n))}
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "conjugacy", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--level", str(n))
        assert code == 0
        assert out == "".join(f"{x} {index[x]}\n" for x in range(p**n))

    @pytest.mark.parametrize("count", [0, 1, 10, 12])
    def test_stream_text(self, capsys, monkeypatch, block, count):
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", Q3,
                           "--level", "3", "--seed", "5", "--count", str(count))
        assert code == 0
        assert out == "".join(f"{v}\n" for v in orbit((1, 1, 6), 3, 3, 5, count))

    # digit strings of one chunk per value, two chunks of which the last is
    # shorter (2^12 and 11^3 strings tabulated), one str per digit above
    # the table's size, and level 1, where the engine's step is 0 and rows
    # have no high half
    @pytest.mark.parametrize("p,coeffs,n", [(3, (1, 1, 6), 3), (13, (1, 1), 2),
                                            (2, (1, 1), 13), (11, (1, 1), 5),
                                            (5003, (1, 1), 2), (3, (1, 1), 1)])
    # "3K+5" reaches the stepped blocks past the engine's 2K walked
    # residues (K = p^ceil(n/2)), the last of them short
    @pytest.mark.parametrize("count", [0, 1, 10, 12, "3K+5"])
    def test_stream_packed(self, capsys, monkeypatch, block, p, coeffs, n, count):
        if count == "3K+5":
            count = 3 * p ** ((n + 1) // 2) + 5
        # little-endian base-p digits, concatenated for p <= 10, dotted above
        sep = "" if p <= 10 else "."
        lines = [sep.join(str(v // p**i % p) for i in range(n))
                 for v in orbit(coeffs, p, n, 7, count)]
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "stream", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--level", str(n), "--seed", "7",
                           "--count", str(count), "--format", "packed")
        assert code == 0
        assert out == "".join(f"{line}\n" for line in [f"{p} {n} {count} {7 % p**n}", *lines])

    @pytest.mark.parametrize("count", [0, 1, 10, 12])
    def test_stream_structured(self, capsys, monkeypatch, block, count):
        record = {"command": "stream", "prime": 3, "coeffs": [1, 1, 6], "level": 3,
                  "seed": 5, "count": count, "values": orbit((1, 1, 6), 3, 3, 5, count)}
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "stream", "--prime", "3", "--coeffs", Q3,
                           "--level", "3", "--seed", "5", "--count", str(count),
                           "--format", "structured")
        assert code == 0
        assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("p,coeffs,n", [
        # cycles of lengths 2, 9, 2, 9, 2, 3, 1 and 2, 6, 12, 1: short and
        # long ones interleaved at every block size
        (7, (1, 6, 4, 1), 2), (7, (1, 6, 0, 5), 2), (2, (1, 3, 0, 2), 3),
    ])
    def test_cycles_text(self, capsys, monkeypatch, block, p, coeffs, n):
        cycles, non_periodic = oracles.cycles_oracle(oracles.table_oracle(coeffs, p, n))
        f = IntPolynomial.from_text(p, coeff_text(coeffs))
        lines = [f"f = {f} mod {p}^{n}", f"bijective: {'no' if non_periodic else 'yes'}",
                 f"cycles ({len(cycles)}):", *("  " + " ".join(map(str, c)) for c in cycles),
                 f"non-periodic residues: {non_periodic}"]
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "cycles", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--level", str(n))
        assert code == 0
        assert out == "".join(f"{line}\n" for line in lines)

    @pytest.mark.parametrize("p,coeffs,n", [(3, (1, 1, 6), 2), (2, (1, 1), 3),
                                            (5, (1, 1, 5), 2)])
    def test_conjugacy_structured(self, capsys, monkeypatch, block, p, coeffs, n):
        points = orbit(coeffs, p, n, 0, p**n)
        index = {x: k for k, x in enumerate(points)}
        record = {"command": "conjugacy", "prime": p, "coeffs": list(coeffs), "level": n,
                  "orbit_index": [index[x] for x in range(p**n)], "orbit_point": points}
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "conjugacy", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--level", str(n), "--format", "structured")
        assert code == 0
        assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("p,coeffs,n", [
        (7, (1, 6, 4, 1), 2), (7, (1, 6, 0, 5), 2), (2, (1, 3, 0, 2), 3), (2, (0, 1), 3),
    ])
    def test_cycles_structured(self, capsys, monkeypatch, block, p, coeffs, n):
        cycles, non_periodic = oracles.cycles_oracle(oracles.table_oracle(coeffs, p, n))
        record = {"command": "cycles", "prime": p, "coeffs": list(coeffs), "level": n,
                  "bijective": not non_periodic, "cycles": [list(c) for c in cycles],
                  "non_periodic": non_periodic}
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "cycles", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--level", str(n), "--format", "structured")
        assert code == 0
        assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("p,coeffs", [(5, (1, 1, 1)), (2, (1, 3, 0, 2)),
                                          (3, (1, 4, 0, 4, 0, 2))])
    def test_analyze_witness_structured(self, capsys, monkeypatch, block, p, coeffs):
        f = IntPolynomial(p, coeffs)
        closed = criteria.closed_form(f)
        delta = criteria.minimal_general(f)
        record = {"command": "analyze", "prime": p, "coeffs": list(coeffs),
                  "closed_form": None if closed is None else closed.to_record(),
                  "delta_rule": delta.to_record(),
                  "agree": None if closed is None else closed.minimal == delta.minimal}
        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        code, out, _ = run(capsys, "analyze", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--format", "structured")
        assert code == 1 and delta.witness
        assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("fmt", ["text", "packed", "structured"])
def test_stream_pulls_one_block_before_it_writes(monkeypatch, fmt):
    # a deep level's default count is all but endless: the stream must be
    # written as it is pulled, never gathered first
    pulled = 0

    def counted(f, n, seed, count):
        # at level 40 (K = 2^20 above the block bound) the engine's one
        # block is its lazy walk
        def walk():
            nonlocal pulled
            for x in range(10**5):
                pulled += 1
                yield x

        yield walk()

    class ClosedAfterHeader:
        """Takes what is written before the first residue is pulled."""

        def write(self, text):
            if pulled:
                raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(cli, "WITNESS_BLOCK", 4)
    monkeypatch.setattr(odometer, "_orbit_blocks", counted)
    monkeypatch.setattr(sys, "stdout", ClosedAfterHeader())
    code = main(["stream", "--prime", "2", "--coeffs", "1,1", "--level", "40",
                 "--format", fmt])
    assert code == 2 and 0 < pulled <= 4


@pytest.mark.parametrize("fmt", ["text", "packed", "structured"])
def test_stream_of_arrays_pulls_one_slice_before_it_writes(monkeypatch, fmt):
    # at level 12 a packed row is one name, and the engine's blocks are
    # arrays (here endless ones of 4): each slice is written as soon as
    # its blocks are pulled, never the blocks gathered first
    pulled = 0

    def counted(f, n, seed, count):
        nonlocal pulled
        for x in range(0, 10**5, 4):
            pulled += 4
            yield array("I", range(x, x + 4))

    class ClosedAtFirstResidue:
        def write(self, text):
            if pulled:
                raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(cli, "WITNESS_BLOCK", 4)
    monkeypatch.setattr(odometer, "_orbit_blocks", counted)
    monkeypatch.setattr(sys, "stdout", ClosedAtFirstResidue())
    code = main(["stream", "--prime", "2", "--coeffs", "1,1", "--level", "12",
                 "--format", fmt])
    assert code == 2 and pulled == 4


@pytest.mark.parametrize("argv", [
    ("stream", "--prime", "7", "--coeffs", "1,1", "--level", "5", "--format", "packed"),
    ("stream", "--prime", "11", "--coeffs", "1,1", "--level", "5", "--format", "packed"),
    ("conjugacy", "--prime", "2", "--coeffs", "1,1", "--level", "12"),
    ("cycles", "--prime", "2", "--coeffs", "1,1", "--level", "12", "--format", "structured"),
])
def test_writers_leave_nothing_for_the_cycle_collector(capsys, argv):
    # a reference cycle among a writer's objects (a closure that calls
    # itself) holds them until the collector runs: a process that runs
    # many commands grew by about 1 MB a 7^5 packed stream
    assert main(list(argv)) == 0
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        assert main(list(argv)) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestTemplates:
    """The %d templates against str and json.dumps: conjugacy rows across
    the decimal runs of the residue column, residues of 600 digits and
    empty streams.  TestBlocks covers cycles longer than a block between
    short ones."""

    @pytest.mark.parametrize("p,coeffs,n,row_run", [
        # rows 999/1000, 9999/10000, 99999/100000 and a short last run
        (2, (1, 1), 17, None), (3, (1, 1, 6), 9, None), (5, (1, 1, 5), 7, None),
        # runs of ten: one-digit suffixes, and 243 rows end mid-run
        (3, (1, 1, 6), 5, 10),
    ])
    def test_conjugacy_rows_across_runs(self, capsys, monkeypatch, p, coeffs, n, row_run):
        if row_run is not None:
            monkeypatch.setattr(cli, "ROW_RUN", row_run)
        order, _ = oracles.orbit_from_zero(coeffs, p, n)
        index = [0] * len(order)
        for k, x in enumerate(order):
            index[x] = k
        code, out, _ = run(capsys, "conjugacy", "--prime", str(p), "--coeffs",
                           coeff_text(coeffs), "--level", str(n))
        assert code == 0 and len(index) == p**n
        # lists of lines: a failure names the first wrong row at once, where
        # a diff of the whole text would take minutes
        want = [f"{x} {k}\n" for x, k in enumerate(index)]
        assert out.splitlines(keepends=True) == want

    @pytest.mark.parametrize("fmt", ["text", "structured", "packed"])
    @pytest.mark.parametrize("count", [0, 7])
    def test_stream_of_600_digit_residues(self, capsys, monkeypatch, fmt, count):
        # x + c with c odd, about 0.382 * 2^1993: a full cycle mod 2^1993
        # whose first residues have 599 or 600 digits, in blocks of 3 (one
        # value a block packed, split into its 167 digit chunks)
        size = 2**1993
        c = size * 381966 // 10**6 | 1
        values = [(c * i - 1) % size for i in range(count)]
        assert all(len(str(v)) >= 599 for v in values)
        monkeypatch.setattr(cli, "WITNESS_BLOCK", 3)
        code, out, _ = run(capsys, "stream", "--prime", "2", "--coeffs", f"{c},1", "--level",
                           "1993", "--seed", "-1", "--count", str(count), "--format", fmt)
        assert code == 0
        if fmt == "text":
            want = "".join(f"{v}\n" for v in values)
        elif fmt == "packed":
            # little-endian binary digits
            want = "".join(f"{line}\n" for line in [f"2 1993 {count} {size - 1}",
                                                   *(f"{v:01993b}"[::-1] for v in values)])
        else:
            want = json.dumps({"command": "stream", "prime": 2, "coeffs": [c, 1],
                               "level": 1993, "seed": size - 1, "count": count,
                               "values": values}, sort_keys=True, separators=(",", ":")) + "\n"
        assert out == want

    @pytest.mark.parametrize("block", [4, 6, 10])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    # 16 cycles of 4 mod 2^6, and two fixed points among 31 cycles of 2
    @pytest.mark.parametrize("coeffs", ["16,1", "0,-1"])
    def test_cycles_template_holds_a_block_of_residues(self, capsys, monkeypatch, block, fmt,
                                                       coeffs):
        # a block pulls WITNESS_BLOCK cycles, but no write may carry more
        # than WITNESS_BLOCK residues: no line around the cycles holds more
        # than three numbers
        argv = ("cycles", "--prime", "2", "--coeffs", coeffs, "--level", "6", "--format", fmt)
        _, whole, _ = run(capsys, *argv)
        writes = []
        write = sys.stdout.write

        def kept(text):
            writes.append(text)
            return write(text)

        monkeypatch.setattr(cli, "WITNESS_BLOCK", block)
        monkeypatch.setattr(sys.stdout, "write", kept)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == whole
        assert max(len(re.findall(r"\d+", text)) for text in writes) <= block
        assert "".join(writes) == whole

    @pytest.mark.parametrize("base", [2, 10, 2187, 4099, 10**6 + 3])
    def test_digit_columns_match_peeling_one_digit_at_a_time(self, base):
        # every count of digits up to 40 halves unevenly somewhere, and
        # the values reach below, at and far above base^m
        values = (0, 1, base - 1, base, base**7 - 1, base**7, 3**500 + 17, 2**1993 - 1)
        for m in range(41):
            want = []
            rest = values
            for _ in range(m):
                want.append(tuple(v % base for v in rest))
                rest = tuple(v // base for v in rest)
            assert cli._digit_columns(values, m, base) == [*want, rest], m


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

    def test_text_output_names_the_first_counterexample(self, capsys, monkeypatch):
        # the closed form at p = 3 flipped on every tuple, so each one splits
        record, core = criteria._CLOSED_FORMS[3]

        def flipped(coeffs):
            minimal, *rest = core(coeffs)
            return (not minimal, *rest)

        monkeypatch.setitem(criteria._CLOSED_FORMS, 3, (record, flipped))
        code, out, _ = run(capsys, "sweep", "--prime", "3", "--degree", "2",
                           "--bound", "9", "--threads", "1")
        assert code == 1
        assert out.splitlines()[1:] == [
            "total: 81", "agree-minimal: 0", "agree-nonminimal: 0", "disagreements: 81",
            "first counterexample: 1,0,0",
            "routes: {'closed': True, 'delta': False, 'full-cycle': False}"]

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

    def test_zero_samples_at_a_deep_nmax_exit_at_once(self, capsys):
        # no tuple to walk, and no residue table sized from 2^(10^9)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--prime", "2", "--degree", "1",
                             "--bound", "2", "--nmax", "1000000000", "--samples", "0",
                             "--threads", "1")
        assert time.perf_counter() - t0 < 1.0
        assert (code, err) == (0, "")
        assert "total: 0\n" in out

    def test_box_too_large_to_sample_exits_two(self, capsys):
        # 2^63 tuples: past the largest range that can be sampled
        code, out, err = run(capsys, "sweep", "--prime", "2", "--degree", "63",
                             "--bound", "2", "--samples", "1", "--threads", "1")
        assert code == 2 and out == ""
        assert err.startswith(f"error: box of {2**63} tuples is too large to sample")
        assert "ssize_t" not in err

    @pytest.mark.parametrize("extra", [(), ("--samples", "1")])
    def test_large_prime_over_budget_exits_two(self, capsys, extra):
        # each tuple weighs ceil(100003^2 / 27), about 3.7e8 > 10^7
        code, out, err = run(capsys, "sweep", "--prime", "100003", "--degree", "1",
                             "--bound", "2", "--threads", "1", *extra)
        assert code == 2 and out == ""
        assert "work budget" in err

    def test_default_threads_read_per_call(self, capsys, monkeypatch):
        # the parser of sweep is built once; the cpu count is not frozen in it
        monkeypatch.setattr(_RecordingPool, "instances", [])
        monkeypatch.setattr(sweep, "_pool", _RecordingPool)
        workers = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            code, out, _ = run(capsys, "sweep", "--prime", "3", "--degree", "2",
                               "--bound", "3", "--format", "structured")
            assert code == 0
            workers.append(json.loads(out)["workers"])
        assert workers == [1, 2]
        assert [pool.max_workers for pool in _RecordingPool.instances] == [2]


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


def outcome(capsys, argv, parse=main):
    """Exit status, stdout and stderr of parse(argv), which may exit."""
    try:
        code = parse(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("parse", [main, build_parser().parse_args])
    def test_conjugacy_level_and_nmax_exclude_each_other(self, capsys, parse):
        argv = ["conjugacy", "--prime", "3", "--coeffs", Q3, "--nmax", "2", "--level", "7"]
        assert exit_of(lambda: parse(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: padicdyn conjugacy [-h]")
        assert "argument --level: not allowed with argument --nmax" in captured.err

    def test_subcommand_builds_one_parser(self, capsys, monkeypatch):
        # one parser per subcommand per process, built at its first call
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        assert run(capsys, "analyze", "--prime", "3", "--coeffs", Q3)[0] == 0
        assert run(capsys, "analyze", "--prime", "3", "--coeffs", W3)[0] == 1
        assert run(capsys, "cycles", "--prime", "3", "--coeffs", Q3)[0] == 0
        assert built == ["padicdyn analyze", "padicdyn cycles"]

    def test_reused_parsers_answer_as_fresh_ones(self, capsys, clean_env):
        # every golden case forward and back, each followed by a rejection
        # or a help text, against the same call on a parser built for it
        between = [
            ["conjugacy", "--prime", "3", "--coeffs", Q3, "--level", "7", "--nmax", "2"],
            ["analyze", "--prime", "3"],
            ["analyze", "--prime", "3", "--coeffs", Q3, "--bogus"],
            *([command, "--help"] for command in SUBCOMMANDS),
        ]
        calls = []
        for i, case in enumerate(GOLDEN + GOLDEN[::-1]):
            calls += [(case["argv"], case), (between[i % len(between)], None)]
        fresh = {}
        for argv, _ in calls:
            cli._parser.cache_clear()
            fresh.setdefault(tuple(argv), outcome(capsys, argv))
        cli._parser.cache_clear()
        for argv, case in calls:
            got = outcome(capsys, argv)
            assert got == fresh[tuple(argv)], argv
            if case is not None:
                assert got[:2] == (case["exit"], case["stdout"])
            elif got[0] == 0:  # a help text
                assert got[1].startswith("usage:") and got[2] == ""
            else:
                assert got[0] == 2 and got[1] == "" and got[2].startswith("usage:")
        assert cli._parser.cache_info().currsize == len(SUBCOMMANDS)

    def test_help_width_read_when_printed(self, capsys, monkeypatch):
        texts = []
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            cached = outcome(capsys, ["analyze", "--help"])
            fresh = argparse.ArgumentParser(prog="padicdyn analyze")
            uncached = outcome(capsys, ["--help"], cli._add_options(fresh, "analyze").parse_args)
            assert cached == uncached and cached[0] == 0
            texts.append(cached[1])
        assert texts[0] != texts[1]


def fresh_env():
    """The environment of a fresh interpreter that imports padicdyn from
    this checkout, with stdout buffered as it is by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(padicdyn.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def python(*args):
    return subprocess.run([sys.executable, *args], env=fresh_env(), capture_output=True,
                          text=True, timeout=60)


class TestFreshInterpreter:
    @pytest.mark.parametrize("argv,first", [
        (["stream", "--prime", "2", "--coeffs", "1,1", "--level", "20"], "0\n"),
        (["conjugacy", "--prime", "2", "--coeffs", "1,1", "--level", "16"], "0 0\n"),
    ])
    def test_closed_pipe_exits_two_quietly(self, argv, first):
        # `padicdyn ... | head -n 1`: the reader leaves after one line
        with subprocess.Popen([sys.executable, "-m", "padicdyn.cli", *argv],
                              env=fresh_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert (line, err, proc.wait(timeout=60)) == (first, "", 2)

    @pytest.mark.parametrize("argv", [
        ["stream", "--prime", "2", "--coeffs", "1,1", "--level", "3", "--count", "1"],
        ["stream", "--prime", "2", "--coeffs", "1,1", "--level", "3", "--format", "packed"],
        ["analyze", "--prime", "3", "--coeffs", Q3],
    ])
    def test_reader_gone_before_the_first_line(self, argv):
        # output that fits the stdout buffer meets the closed pipe only
        # when it is flushed, and the interpreter flushes once more at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "padicdyn.cli", *argv],
                                  env=fresh_env(), stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.stderr, done.returncode) == ("", 2)

    def test_import_builds_no_parser(self):
        done = python("-c", "\n".join([
            "import argparse",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting_init(*args, **kwargs):",
            "    built.append(1)",
            "    init(*args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting_init",
            "import padicdyn.cli",
            "print(len(built), padicdyn.cli._parser.cache_info().currsize)",
        ]))
        assert (done.returncode, done.stdout) == (0, "0 0\n")

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
