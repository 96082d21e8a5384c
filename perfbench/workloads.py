"""Seeded CLI workloads and the output check for every op.

Each workload is an endless generator of rounds, lists of Op records.
A round has a fixed composition (sizes, degrees, families) and the seed
picks the polynomials and the order, so two seeds give different inputs
with the same shape.  Runs measure whole rounds, so every run has the
same mix.  Checks run outside the timed region and use only `reference`.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

# Check(rc, stdout, stderr, cli) returns None when the output is right,
# else a one-line reason.  `cli(argv)` runs an untimed CLI call.
Check = Callable[[int, str, str, Callable], "str | None"]


@dataclass
class Op:
    argv: list[str]
    items: int
    check: Check
    props: dict = field(default_factory=dict)
    # the op starts a process pool, so it runs on every CPU, not pinned
    all_cpus: bool = False


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def coeff_arg(coeffs) -> str:
    # "--coeffs=" form: argparse reads "--coeffs -1,2" as an unknown flag
    return "--coeffs=" + ",".join(str(c) for c in coeffs)


def random_poly(rng, p: int, degree: int) -> tuple[int, ...]:
    """Signed coefficients, constant term anything but 1."""
    a0 = rng.choice([c for c in range(-99, 100) if c != 1])
    rest = [rng.randint(-99, 99) for _ in range(degree)]
    if rest[-1] == 0:
        rest[-1] = rng.choice((-1, 1)) * rng.randint(1, 99)
    return (a0, *rest)


def near_odometer(rng, p: int, degree: int) -> tuple[int, ...]:
    """1 + x + p*h(x) with signed h: a full cycle mod p, mostly minimal."""
    h = [rng.randint(-9, 9) for _ in range(degree + 1)]
    if degree >= 2 and h[-1] == 0:
        h[-1] = rng.choice((-1, 1))
    return tuple([1 + p * h[0], 1 + p * h[1]] + [p * c for c in h[2:]])


def minimal_poly(rng, p: int, degree: int) -> tuple[int, ...]:
    while True:
        coeffs = near_odometer(rng, p, degree)
        if ref.orbit_first_broken(coeffs, p, ref.decision_level(p)) is None:
            return coeffs


def nonminimal_poly(rng, p: int, degree: int) -> tuple[int, ...]:
    while True:
        coeffs = random_poly(rng, p, degree)
        if ref.orbit_first_broken(coeffs, p, ref.decision_level(p)) is not None:
            return coeffs


# --------------------------------------------------------------- verdicts

STAGES = {None: None, 1: "level-1", 2: "level-2", 3: "level-3"}


def verdict_op(p: int, coeffs: tuple[int, ...], small: bool) -> Op:
    L = ref.decision_level(p)
    modulus = p**L
    broken = (ref.orbit_first_broken(coeffs, p, L) if small
              else ref.lift_first_broken(coeffs, p))
    minimal = broken is None
    witness = None if minimal or not small else ref.eventual_cycle(coeffs, modulus)

    def check(rc, out, err, cli):
        if err:
            return f"stderr: {err.strip()[:120]}"
        if rc != (0 if minimal else 1):
            return f"exit {rc}, reference says minimal={minimal}"
        r = json.loads(out)
        if (r["command"], r["prime"], r["coeffs"]) != ("analyze", p, list(coeffs)):
            return "record does not echo the input"
        d = r["delta_rule"]
        if d["method"] != "delta-rule" or d["minimal"] != minimal:
            return f"delta_rule minimal={d['minimal']}, reference {minimal}"
        if minimal:
            if d["witness"] is not None:
                return "witness on a minimal verdict"
        elif small:
            if tuple(d["witness"]) != witness:
                return "witness is not the cycle the orbit of 0 runs into"
        elif not ref.is_cycle(coeffs, modulus, d["witness"]):
            return "witness is not a cycle of f mod p^L"
        elif d["conditions"][0]["residue"] != len(d["witness"]):
            return "witness length differs from the reported cycle length"
        c = r["closed_form"]
        if p in (2, 3):
            if c is None or c["minimal"] != minimal or r["agree"] is not True:
                return "closed form missing or wrong"
            if c["failed_stage"] != STAGES[broken]:
                return f"failed_stage {c['failed_stage']}, first broken level {broken}"
        elif c is not None or r["agree"] is not None:
            return "closed form reported above p = 3"
        return None

    props = {"prime": p, "degree": len(coeffs) - 1, "minimal": minimal,
             "first_broken": broken, "residues": modulus}
    argv = ["analyze", "--prime", str(p), coeff_arg(coeffs), "--format", "structured"]
    return Op(argv, 1, check, props)


def _family_poly(rng, p, degree, near: bool):
    return near_odometer(rng, p, degree) if near else random_poly(rng, p, degree)


def verdict_small(rng, threads: int):
    """Rounds of 180 ops: every prime up to 47 at every degree 1-12, the
    two families alternating and swapping places each round."""
    primes = primes_between(2, 47)
    r = 0
    while True:
        ops = [verdict_op(p, _family_poly(rng, p, d, (i + d + r) % 2 == 0), small=True)
               for i, p in enumerate(primes) for d in range(1, 13)]
        rng.shuffle(ops)
        yield ops
        r += 1


LARGE_PRIMES = 24


def verdict_large(rng, threads: int):
    """Rounds of 48 ops: each of 24 log-spaced primes from 53 to 701 at
    two degrees, 1 + i % 3 and 4 + i % 3 for the i-th prime, so every
    degree 1-6 comes 8 times.  Near-odometer maps where prime index plus
    degree is even and at degree 1, random maps elsewhere, so every
    round has the same shape.  (A random affine map is a permutation
    whose witness cycle can hold up to p^2 residues, so its memory would
    depend on the seed.)  With 8 primes at all six degrees, op costs
    came in clusters a factor of two apart, and the median fell between
    two of them and moved with the seed."""
    candidates = primes_between(53, 701)
    lo, hi = math.log(53), math.log(701)
    primes = [min(candidates, key=lambda q: abs(math.log(q) - lo - (hi - lo) * i
                                                / (LARGE_PRIMES - 1)))
              for i in range(LARGE_PRIMES)]
    while True:
        ops = [verdict_op(p, _family_poly(rng, p, d, (i + d) % 2 == 0 or d == 1), small=False)
               for i, p in enumerate(primes) for d in (1 + i % 3, 4 + i % 3)]
        rng.shuffle(ops)
        yield ops


# ----------------------------------------------------------------- sweeps

def is_minimal(coeffs: tuple[int, ...], p: int) -> bool:
    if p > 3:
        return ref.lift_first_broken(coeffs, p) is None
    return ref.first_return(coeffs, p**3) == p**3


def tuple_at(index: int, a0: int, bound: int, degree: int) -> tuple[int, ...]:
    # lexicographic order over (a1..ad) in [0, bound)^degree
    tail = []
    for _ in range(degree):
        index, r = divmod(index, bound)
        tail.append(r)
    return (a0, *reversed(tail))


SPOT_CHECKS = 6


def sweep_op(rng, p, degree, bound, a0, n_max, samples, threads, minimal_counts) -> Op:
    box = bound**degree
    total = min(samples, box) if samples else box
    spots = [tuple_at(rng.randrange(box), a0, bound, degree) for _ in range(SPOT_CHECKS)]
    key = (p, degree, bound, a0)

    def check(rc, out, err, cli):
        if rc != 0 or err:
            return f"exit {rc} {err.strip()[:120]}"
        r = json.loads(out)
        want = {"command": "sweep", "prime": p, "degree": degree, "bound": bound,
                "coeffs_constant": a0, "total": total, "disagreements": 0,
                "sampled": bool(samples), "workers": threads,
                "n_max": n_max or ref.decision_level(p), "first_counterexample": None}
        wrong = [k for k, v in want.items() if r[k] != v]
        if wrong:
            return "fields " + ",".join(f"{k}={r[k]}" for k in wrong)
        if r["agree_minimal"] + r["agree_nonminimal"] != total:
            return "agree counts do not add up to total"
        if not samples:
            if key not in minimal_counts:
                minimal_counts[key] = sum(
                    is_minimal(tuple_at(i, a0, bound, degree), p) for i in range(box))
            if r["agree_minimal"] != minimal_counts[key]:
                return f"agree_minimal {r['agree_minimal']}, reference {minimal_counts[key]}"
        for coeffs in spots:
            if not any(coeffs[1:]):
                continue  # the constant map: analyze rejects degree 0
            a_rc, a_out, _ = cli(["analyze", "--prime", str(p), coeff_arg(coeffs),
                                  "--format", "structured"])
            if a_rc != (0 if is_minimal(coeffs, p) else 1):
                return f"spot check {coeffs}: analyze exit {a_rc}"
        return None

    argv = ["sweep", "--prime", str(p), "--degree", str(degree), "--bound", str(bound),
            f"--a0={a0}", "--format", "structured", "--threads", str(threads)]
    if n_max:
        argv += ["--nmax", str(n_max)]
    if samples:
        argv += ["--samples", str(samples), "--rng-seed", str(rng.randrange(10**6))]
    props = {"prime": p, "degree": degree, "residues": total * p**(n_max or ref.decision_level(p))}
    return Op(argv, total, check, props, all_cpus=threads > 1)


SWEEP_SMALL = 60
SAMPLES = 2000


def sweep_boxes(rng, threads: int):
    """Rounds of 63 ops: the C3 box (p=2, degree 4, bound 8) and the C4
    box (p=3, degree 5, bound 9), one sampled 16^6 box at p=3 (above the
    default work budget, so the list-chunk path runs), all three on
    `threads` workers, and 60 boxes of 1e2-6e3 tuples from log-spaced
    strata, p cycling over 2, 3, 5, 7, on one worker.  Half the small
    boxes use a0 = 1, the rest another unit; some at p = 2, 3 set --nmax
    one above the decision level.  The box shapes are the same in every
    round; the seed picks the other a0 values, the samples and the order.
    With 30 small boxes and shapes drawn by the seed, p90 depended on the
    seed and the median on a handful of ops.

    The small boxes run without a pool because pool start-up is half of
    a small box's time on two workers, and on a shared VM its cost moved
    by up to three times within minutes, apart from the CPU speed: the
    median and p90, which small boxes set, then spread past any bound."""
    shapes = sorted((b**d, d, b) for d in range(3, 7) for b in range(2, 40)
                    if 100 <= b**d <= 6000)
    lo, hi = math.log(100), math.log(6000)
    strata = []
    for i in range(SWEEP_SMALL):
        a = math.exp(lo + (hi - lo) * i / SWEEP_SMALL)
        b = math.exp(lo + (hi - lo) * (i + 1) / SWEEP_SMALL)
        strata.append([s for s in shapes if a <= s[0] < b]
                      or [min(shapes, key=lambda s: abs(math.log(s[0]) - math.log(a)))])
    minimal_counts: dict = {}
    while True:
        ops = [sweep_op(rng, 2, 4, 8, 1, None, None, threads, minimal_counts),
               sweep_op(rng, 3, 5, 9, 1, None, None, threads, minimal_counts),
               sweep_op(rng, 3, 6, 16, 1, None, SAMPLES, threads, minimal_counts)]
        for i, stratum in enumerate(strata):
            p = (2, 3, 5, 7)[i % 4]
            _, degree, bound = stratum[i % len(stratum)]
            a0 = 1 if i // 4 % 2 == 0 else rng.choice(
                [c for c in range(-9, 10) if c % p and c != 1])
            n_max = ref.decision_level(p) + 1 if p <= 3 and i % 3 == 0 else None
            ops.append(sweep_op(rng, p, degree, bound, a0, n_max, None, 1, minimal_counts))
        rng.shuffle(ops)
        yield ops


# ----------------------------------------------------------- orbit tables

_INT = re.compile(r"\d+")


def _ints(text: str):
    return (int(m.group()) for m in _INT.finditer(text))


def _check_orbit_steps(coeffs, size, values, start, count) -> str | None:
    n = 0
    expect = start
    for v in values:
        if v != expect:
            return f"step {n}: got {v}, f(previous) is {expect}"
        expect = ref.horner(coeffs, v, size)
        n += 1
    return None if n == count else f"{n} values, asked for {count}"


def cycles_op(p, n, coeffs) -> Op:
    size = p**n

    def check(rc, out, err, cli):
        if rc != 0 or err:
            return f"exit {rc} {err.strip()[:120]}"
        r = json.loads(out)
        if (r["level"], r["coeffs"]) != (n, list(coeffs)):
            return "record does not echo the input"
        seen = bytearray(size)
        last_head = -1
        for cyc in r["cycles"]:
            if cyc[0] != min(cyc) or cyc[0] <= last_head:
                return "cycles not rotated to their minimum or not sorted"
            last_head = cyc[0]
            for i, x in enumerate(cyc):
                if seen[x]:
                    return f"residue {x} in two cycles"
                seen[x] = 1
                if ref.horner(coeffs, x, size) != cyc[(i + 1) % len(cyc)]:
                    return f"cycle does not close at {x}"
        periodic = sum(seen)
        if periodic + r["non_periodic"] != size or r["bijective"] != (periodic == size):
            return "cycle lengths and non-periodic count do not add up to p^n"
        return None

    argv = ["cycles", "--prime", str(p), coeff_arg(coeffs), "--level", str(n),
            "--format", "structured"]
    return Op(argv, size, check)


_PAIR = re.compile(r"(\d+) (\d+)\n")


def conjugacy_level_op(p, n, coeffs) -> Op:
    size = p**n

    def check(rc, out, err, cli):
        if rc != 0 or err:
            return f"exit {rc} {err.strip()[:120]}"
        index = array("q", bytes(8 * size))
        rows = 0
        for m in _PAIR.finditer(out):
            x, k = int(m.group(1)), int(m.group(2))
            if x != rows:
                return f"row {rows} is for residue {x}"
            index[x] = k
            rows += 1
        if rows != size or out.count("\n") != size:
            return f"{rows} rows, expected {size}"
        if index[0] != 0:
            return "orbit_index[0] != 0"
        # orbit_index[f(x)] = orbit_index[x] + 1 for all x forces one p^n-cycle
        for x in range(size):
            if index[ref.horner(coeffs, x, size)] != (index[x] + 1) % size:
                return f"orbit_index[f({x})] != orbit_index[{x}] + 1"
        return None

    argv = ["conjugacy", "--prime", str(p), coeff_arg(coeffs), "--level", str(n)]
    return Op(argv, size, check)


def tower_op(p, n_max, coeffs) -> Op:
    size = p**n_max

    def check(rc, out, err, cli):
        if rc != 0 or err:
            return f"exit {rc} {err.strip()[:120]}"
        r = json.loads(out)
        levels = [(c["level"], c["conjugation_ok"], c["projection_ok"]) for c in r["levels"]]
        if r["n_max"] != n_max or not r["passed"] or levels != [
                (k, True, True) for k in range(1, n_max + 1)]:
            return "tower did not pass at every level"
        # a full cycle at the top level implies one at every level below
        if ref.first_return(coeffs, size) != size:
            return "reference finds no full cycle at the top level"
        return None

    argv = ["conjugacy", "--prime", str(p), coeff_arg(coeffs), "--nmax", str(n_max),
            "--format", "structured"]
    return Op(argv, sum(p**k for k in range(1, n_max + 1)), check)


def stream_op(p, n, coeffs, seed, count, packed) -> Op:
    size = p**n

    def check(rc, out, err, cli):
        if rc != 0 or err:
            return f"exit {rc} {err.strip()[:120]}"
        if packed:
            head, _, body = out.partition("\n")
            if head != f"{p} {n} {count} {seed % size}":
                return f"packed header {head!r}"
            values = (sum(int(d) * p**i for i, d in enumerate(line))
                      for line in body.splitlines())
        else:
            values = _ints(out)
        return _check_orbit_steps(coeffs, size, values, seed % size, count)

    argv = ["stream", "--prime", str(p), coeff_arg(coeffs), "--level", str(n),
            "--seed", str(seed), "--count", str(count)]
    if packed:
        argv += ["--format", "packed"]
    return Op(argv, count, check)


# One round: (kind, p, level or n_max, degree, stream count).  The first
# row is the largest table of the workload and runs first in every round.
# Stream rows at large levels ask for few residues: at the seed commit a
# stream still checks the full cycle by brute force at its level,
# whatever the count.
ORBIT_ROUND = [
    ("stream", 2, 20, 3, 1000),
    ("stream-packed", 3, 11, 2, 2000),
    ("stream", 5, 7, 4, 500),
    ("stream", 2, 16, 2, 5000),
    ("stream-packed", 7, 5, 3, 7**5),
    ("stream", 3, 8, 5, 3**8),
    ("stream-packed", 2, 12, 4, 2**12),
    ("stream", 7, 4, 6, 7**4),
    ("stream-packed", 5, 5, 2, 5**5),
    ("tower", 2, 15, 3, None),
    ("tower", 3, 9, 4, None),
    ("tower", 5, 6, 3, None),
    ("tower", 7, 5, 2, None),
    ("tower", 2, 11, 5, None),
    ("tower", 3, 7, 6, None),
    ("tower", 5, 5, 2, None),
    ("tower", 2, 13, 4, None),
    ("conjugacy", 2, 16, 3, None),
    ("conjugacy", 3, 10, 2, None),
    ("conjugacy", 5, 7, 3, None),
    ("conjugacy", 7, 5, 4, None),
    ("conjugacy", 2, 14, 5, None),
    ("conjugacy", 3, 8, 6, None),
    ("conjugacy", 2, 10, 2, None),
    ("conjugacy", 5, 5, 4, None),
    ("conjugacy", 7, 4, 2, None),
    ("conjugacy", 3, 7, 3, None),
    ("cycles", 2, 16, 3, None),
    ("cycles", 3, 10, 2, None),
    ("cycles", 5, 6, 4, None),
    ("cycles", 7, 5, 5, None),
    ("cycles", 2, 14, 2, None),
    ("cycles", 3, 9, 4, None),
    ("cycles", 2, 12, 6, None),
    ("cycles", 3, 7, 3, None),
    ("cycles", 5, 5, 2, None),
    ("cycles", 7, 4, 3, None),
    ("cycles", 2, 10, 5, None),
]


def orbit_tables(rng, threads: int):
    """Conjugacy and stream rows use minimal maps (the CLI refuses the
    rest); cycles rows alternate minimal and non-minimal maps."""
    while True:
        ops = []
        for i, (kind, p, n, degree, count) in enumerate(ORBIT_ROUND):
            if kind == "cycles":
                maker = minimal_poly if i % 2 else nonminimal_poly
                op = cycles_op(p, n, maker(rng, p, degree))
            elif kind == "conjugacy":
                op = conjugacy_level_op(p, n, minimal_poly(rng, p, degree))
            elif kind == "tower":
                op = tower_op(p, n, minimal_poly(rng, p, degree))
            else:
                op = stream_op(p, n, minimal_poly(rng, p, degree), rng.randrange(10**9),
                               count, kind == "stream-packed")
            op.props.update(prime=p, degree=degree, residues=p**n)
            ops.append(op)
        rest = ops[1:]
        rng.shuffle(rest)
        yield ops[:1] + rest


GENERATORS = {
    "verdict-small": verdict_small,
    "verdict-large": verdict_large,
    "sweep-boxes": sweep_boxes,
    "orbit-tables": orbit_tables,
}
