"""Command-line frontend.

Subcommands: analyze, cycles, conjugacy, stream, sweep.  Output is
either human-readable text or a single JSON record (--format structured)
whose field names are frozen; see the schema section of the README.

Exit status: analyze exits 0 when the map is minimal, 1 when it is not,
2 on errors; sweep exits 1 when decision routes disagree; everything
else exits 0 on success, 2 on errors.  A reader that closes stdout
early (`| head`) is an error too: exit 2, with nothing on stderr.

Parsing: main builds the parser of the subcommand it is given at that
subcommand's first call in the process and reuses it after, so a shell
call builds one parser and an in-process caller of main(argv) one per
subcommand.  The full tree of all five is built, uncached, only for the
top-level help and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, islice, repeat
from operator import floordiv, mod, sub

from .criteria import MinimalityVerdict, closed_form, minimal_general
from .dynamics import DEFAULT_TABLE_BOUND, IntPolynomial, cycle_decomposition, decision_level
from .odometer import build_psi, full_cycle_stream, verify_conjugacy_tower
from .padic import PadicError
from .sweep import DEFAULT_WORK_BUDGET, SweepConfig, run_sweep

TABLE_BOUND_ENV = "PADICDYN_TABLE_BOUND"
WORK_BUDGET_ENV = "PADICDYN_WORK_BUDGET"

# most decimal digits the modulus p^n of a stream may have: under 640, the
# lowest limit on int-to-str conversion an interpreter can be set to, so
# every residue of every format prints
STREAM_DIGITS = 600
WITNESS_BLOCK = 1 << 14  # residues or lines formatted and written at once
ROW_RUN = 10**3  # conjugacy text rows formatted at once: a power of ten
PACKED_NAMES = 1 << 12  # most digit strings a packed stream tabulates

# a value such as "-1,2"; no option of the parser starts with a digit
_SIGNED_VALUE = re.compile(r"-\d")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as e:
        raise PadicError(f"{name} must be an integer, got {raw!r}") from e


def _slices(blocks: Iterable[Iterable[int]], size: int) -> Iterator[tuple]:
    """The values of the blocks in turn, size at a time as tuples, the
    last maybe short.  Arrays, of one typecode, are cut by slices across
    their ends: those that end a slice are joined as bytes first.  Any
    other block (a tuple, or the orbit engine's lazy walk) starts a slice
    and is pulled by islice.  Every producer yields arrays alone or one
    other block, so an array short of a slice waits for the end."""
    parts, held = [], 0  # arrays not yet cut, fewer than size values
    for block in blocks:
        if type(block) is not array:
            block = iter(block)
            yield from iter(lambda: tuple(islice(block, size)), ())
            continue
        held += len(block)
        if held < size:
            parts.append(block)
            continue
        if parts:
            block = array(block.typecode, b"".join([*parts, block]))
        cut = held - held % size
        for i in range(0, cut, size):
            yield tuple(block[i:i + size])
        parts, held = [block[cut:]] if held > cut else [], held - cut
    if held:
        yield tuple(chain.from_iterable(parts))


def _write_items(head: str, blocks: Iterable[Iterable[int]], sep: str, tail: str) -> None:
    """Write head, the values of the blocks joined by sep, then tail.
    They are cut WITNESS_BLOCK at a time (_slices), never gathered whole
    (a witness, a table or a stream may hold millions of them), and each
    slice is formatted by one %d template: 51-60 ns an int, against 65-76
    for json.dumps and 105-121 for join and str (slices of 2^14 ints
    below 10^13)."""
    sys.stdout.write(head)
    item = sep + "%d"
    skip = len(sep)  # no separator before the first value
    for values in _slices(blocks, WITNESS_BLOCK):
        sys.stdout.write((item * len(values))[skip:] % values)
        skip = 0
    sys.stdout.write(tail)


def _write_cycles(cycles: tuple, start: str, sep: str, end: str,
                  between: str) -> None:
    """Write each cycle as start, its residues joined by sep, then end,
    with between before every cycle but the first.  Of WITNESS_BLOCK
    cycles pulled at a time, as many in turn as hold at most WITNESS_BLOCK
    residues are formatted by one template, built by maps in C over their
    lengths; a cycle longer than WITNESS_BLOCK is written alone, a block
    of residues at a time."""
    lead = ""
    item = sep + "%d"
    joint = end + between + start + "%d"  # each cycle's first residue
    for block in _slices((cycles,), WITNESS_BLOCK):
        ends = list(accumulate(map(len, block), initial=0))  # residues before each cycle
        i = 0
        while i < len(block):
            j = bisect_right(ends, ends[i] + WITNESS_BLOCK) - 1
            if j == i:  # one cycle longer than WITNESS_BLOCK
                _write_items(lead + start, block[i:i + 1], sep, end)
            else:
                part = block[i:j]
                rest = joint.join(map(item.__mul__, map(sub, map(len, part), repeat(1))))
                sys.stdout.write((lead + start + "%d" + rest + end)
                                 % tuple(chain.from_iterable(part)))
            lead, i = between, max(j, i + 1)


@functools.cache
def _row_templates(run: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The rows "r %d" of a conjugacy text table for r < run, after a
    leading "": once with r in decimal, once padded to the digits of run
    - 1.  Built at first use, not at import."""
    digits = len(str(run - 1))
    return (("", *(f"{r} %d\n" for r in range(run))),
            ("", *(f"{r:0{digits}} %d\n" for r in range(run))))


def _digit_names(tables: dict, j: int, sep: str) -> list:
    """tables[j], built at first use from those of ceil(j/2) and
    floor(j/2) digits: the j base-p digits of each v < p^j, least
    significant first, joined by sep; tables[1] holds the p digits.  Not
    a closure that calls itself, whose reference cycle would keep the
    tables until the collector ran."""
    if j not in tables:
        low = [a + sep for a in _digit_names(tables, j - j // 2, sep)]
        tables[j] = [a + b for b in _digit_names(tables, j // 2, sep) for a in low]
    return tables[j]


def _spell(values: tuple, m: int, base: int, k: int, tables: dict | None, sep: str,
           join: bool = True) -> Iterable:
    """The m >= 1 base-p digits of each value below p^m, least
    significant first, joined by sep: in chunks of k digits, base = p^k,
    the last maybe shorter, each named by the table of its length
    (_digit_names), or by str where tables is None (then k = 1).  Longer
    values are cut after half their chunks, rounded down, and each half
    is spelled in turn: peeling one chunk at a time would divide the
    whole value once a chunk, which for residues of hundreds of digits
    costs more than twice as much, and rounding up cost about 5 % more on
    1993-digit rows.  The halves give one column of names a chunk (join
    false), joined once, by the outermost call."""
    if m <= k:
        column = map(str if tables is None else _digit_names(tables, m, sep).__getitem__, values)
        return column if join else [column]
    low = (m + k - 1) // k // 2 * k  # digits below the cut
    cut = base ** (low // k)
    columns = _spell(tuple(map(mod, values, repeat(cut))), low, base, k, tables, sep, False)
    values = tuple(map(floordiv, values, repeat(cut)))
    columns += _spell(values, m - low, base, k, tables, sep, False)
    return map(sep.join, zip(*columns)) if join else columns


def _write_packed(blocks: Iterable[Iterable[int]], p: int, n: int) -> None:
    """Write each residue of the orbit engine's blocks (_orbit_blocks) as
    a row of its n base-p digits, least significant first (_spell):
    concatenated for p <= 10, dotted above.  A chunk's table holds at
    most PACKED_NAMES names; a larger prime names each digit by str.

    A row of one chunk, and the engine's lazy walk, are named whole.
    Otherwise the blocks are arrays of K = p^ceil(n/2) positions, and
    position i keeps its low ceil(n/2) digits, x mod K (_orbit_blocks):
    so they are named once, from the first block's residue i, into a row
    template, and each block names only its high halves, x // K."""
    sep = "" if p <= 10 else "."
    k = 1
    while k < n and p ** (k + 1) <= PACKED_NAMES:
        k += 1
    base = p**k
    tables = {1: [str(d) for d in range(p)]} if p <= PACKED_NAMES else None
    blocks = iter(blocks)
    first = next(blocks, ())
    if n <= k or type(first) is not array:
        # WITNESS_BLOCK names a slice, a column of them a chunk
        for part in _slices(chain([first], blocks), max(1, WITNESS_BLOCK // -(-n // k))):
            sys.stdout.write("\n".join(chain(_spell(part, n, base, k, tables, sep), [""])))
        return
    h = (n + 1) // 2
    cut, tail = p**h, sep + "%s\n"
    step = max(1, WITNESS_BLOCK // -(-(n - h) // k))
    templates = {}  # by the positions they cover
    for block in chain((first,), blocks):
        for i in range(0, len(block), step):
            part = tuple(map(floordiv, block[i:i + step], repeat(cut)))
            j = i + len(part)
            if (i, j) not in templates:
                lows = tuple(map(mod, first[i:j], repeat(cut)))
                templates[i, j] = tail.join(_spell(lows, h, base, k, tables, sep)) + tail
            sys.stdout.write(templates[i, j] % tuple(_spell(part, n - h, base, k, tables, sep)))


def _emit(record: dict) -> None:
    """Print record as one JSON line.  A value that is an iterator of
    blocks of ints is a large field, written a slice at a time where it
    stands; a callable value writes the inside of its large field
    itself."""
    large = []

    def defer(blocks: Iterable) -> str:
        large.append(blocks if callable(blocks)
                     else functools.partial(_write_items, "", blocks, ",", ""))
        return "\0"

    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=defer)
    parts = text.split('"\\u0000"')
    for part, write in zip(parts, large):
        sys.stdout.write(part + "[")
        write()
        sys.stdout.write("]")
    print(parts[-1])


def _print_verdict(v: MinimalityVerdict) -> None:
    head = "minimal" if v.minimal else "not minimal"
    if v.failed_stage:
        head += f" (first failure at {v.failed_stage})"
    if v.case is not None:
        head += f" [case {v.case}]"
    lines = [f"{v.method}: {head}"]
    for c in v.conditions:
        mark = "ok  " if c.passed else "FAIL"
        lines.append(f"  {mark} {c.name}: residue {c.residue} mod {c.modulus}")
    print("\n".join(lines))
    if v.witness is not None:
        _write_items("  witness cycle: ", (v.witness,), " ", "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    f = IntPolynomial.from_text(args.prime, args.coeffs)
    delta_verdict = minimal_general(f, table_bound=args.table_bound)
    closed = closed_form(f)
    agree = None if closed is None else closed.minimal == delta_verdict.minimal

    if args.format == "structured":
        delta_record = delta_verdict._replace(witness=None).to_record()
        if delta_verdict.witness is not None:
            delta_record["witness"] = iter((delta_verdict.witness,))
        _emit({
            "command": "analyze",
            "prime": args.prime,
            "coeffs": f.coefficients,
            "closed_form": closed.to_record() if closed is not None else None,
            "delta_rule": delta_record,
            "agree": agree,
        })
    else:
        print(f"f = {f} over Z_{args.prime}")
        if closed is not None:
            _print_verdict(closed)
        _print_verdict(delta_verdict)
        if agree is not None:
            print(f"agreement: {'yes' if agree else 'NO'}")
    if agree is False:
        print("decision routes disagree; this is a bug", file=sys.stderr)
        return 2
    final = closed.minimal if closed is not None else delta_verdict.minimal
    return 0 if final else 1


def cmd_cycles(args: argparse.Namespace) -> int:
    f = IntPolynomial.from_text(args.prime, args.coeffs)
    n = args.level if args.level is not None else decision_level(args.prime)
    dec = cycle_decomposition(f, n, table_bound=args.table_bound)
    if args.format == "structured":
        _emit({
            "command": "cycles",
            "prime": args.prime,
            "coeffs": f.coefficients,
            "level": n,
            "bijective": dec.bijective,
            "cycles": functools.partial(_write_cycles, dec.cycles, "[", ",", "]", ","),
            "non_periodic": dec.non_periodic_count,
        })
        return 0
    print(f"f = {f} mod {args.prime}^{n}")
    print(f"bijective: {'yes' if dec.bijective else 'no'}")
    print(f"cycles ({len(dec.cycles)}):")
    _write_cycles(dec.cycles, "  ", " ", "\n", "")
    print(f"non-periodic residues: {dec.non_periodic_count}")
    return 0


def cmd_conjugacy(args: argparse.Namespace) -> int:
    f = IntPolynomial.from_text(args.prime, args.coeffs)
    if args.nmax is not None:
        report = verify_conjugacy_tower(f, args.nmax, table_bound=args.table_bound)
        # a broken tower raises, so a report certifies every level
        levels = range(1, report.n_max + 1)
        if args.format == "structured":
            _emit({
                "command": "conjugacy",
                "prime": args.prime,
                "coeffs": f.coefficients,
                "n_max": report.n_max,
                "levels": [{"level": n, "conjugation_ok": True, "projection_ok": True}
                           for n in levels],
                "passed": True,
            })
        else:
            for n in levels:
                print(f"level {n}: conjugation ok, projection ok")
            print("tower: ok")
        return 0
    n = args.level if args.level is not None else decision_level(args.prime)
    table = build_psi(f, n, table_bound=args.table_bound)
    if args.format == "structured":
        _emit({
            "command": "conjugacy",
            "prime": args.prime,
            "coeffs": f.coefficients,
            "level": n,
            "orbit_index": table.orbit_index,
            "orbit_point": table.orbit_point,
        })
    else:
        # two columns: residue, its position along the orbit of 0.  Run c
        # holds the residues c ROW_RUN + r, whose decimals are str(c) and r
        # padded: so its template is str(c) joined with the padded rows,
        # and only the index column is formatted
        plain, padded = _row_templates(ROW_RUN)
        for c, run in enumerate(_slices(table.orbit_index, ROW_RUN)):
            rows = padded if c else plain
            sys.stdout.write((str(c) if c else "").join(rows[:len(run) + 1]) % run)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    f = IntPolynomial.from_text(args.prime, args.coeffs)
    n = args.level if args.level is not None else decision_level(args.prime)
    if n < 1:  # p^n would be a float, which may round to 0
        raise PadicError(f"level must be >= 1, got {n}")
    # 2^2000 has 603 digits, so p^n is never computed far past the cap
    if n > 2000 or (size := args.prime**n) >= 10**STREAM_DIGITS:
        raise PadicError(f"level {n} at prime {args.prime}: the modulus "
                         f"{args.prime}^{n} has more than {STREAM_DIGITS} digits")
    count = args.count if args.count is not None else size
    seed = args.seed % size
    values = full_cycle_stream(f, n, seed, count)
    if args.format == "structured":
        _emit({
            "command": "stream",
            "prime": args.prime,
            "coeffs": f.coefficients,
            "level": n,
            "seed": seed,
            "count": count,
            "values": values,
        })
        return 0
    if args.format == "packed":
        p = args.prime
        print(f"{p} {n} {count} {seed}")
        _write_packed(values, p, n)
        return 0
    for block in _slices(values, WITNESS_BLOCK):
        sys.stdout.write("%d\n" * len(block) % block)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.threads is None:  # read per call: a cached parser holds no cpu count
        args.threads = os.cpu_count() or 1
    sweep_cfg = SweepConfig(
        prime=args.prime,
        degree=args.degree,
        bound=args.bound,
        a0=args.a0,
        n_max=args.nmax,
        work_budget=_env_int(WORK_BUDGET_ENV, DEFAULT_WORK_BUDGET),
        samples=args.samples,
        seed=args.rng_seed,
        workers=args.threads,
    )
    report = run_sweep(sweep_cfg)
    if args.format == "structured":
        _emit({
            "command": "sweep",
            "prime": args.prime,
            "degree": args.degree,
            "bound": args.bound,
            "coeffs_constant": args.a0,
            "n_max": sweep_cfg.resolved_n_max(),
            **report._asdict(),
            "seed": sweep_cfg.seed,
            "workers": args.threads,
        })
    else:
        mode = "sampled" if report.sampled else "exhaustive"
        print(f"sweep p={args.prime} degree<={args.degree} bound={args.bound} "
              f"a0={args.a0} n_max={sweep_cfg.resolved_n_max()} ({mode})")
        print(f"total: {report.total}")
        print(f"agree-minimal: {report.agree_minimal}")
        print(f"agree-nonminimal: {report.agree_nonminimal}")
        print(f"disagreements: {report.disagreements}")
        if report.first_counterexample is not None:
            print("first counterexample: "
                  + ",".join(str(c) for c in report.first_counterexample))
            print(f"routes: {report.first_routes}")
    return 0 if report.disagreements == 0 else 1


# name: (handler, its line in the top-level help)
_SUBCOMMANDS = {
    "analyze": (cmd_analyze, "decide minimality, closed form plus decision-level check"),
    "cycles": (cmd_cycles, "cycle decomposition of the reduced map"),
    "conjugacy": (cmd_conjugacy, "orbit index table, or tower verification with --nmax"),
    "stream": (cmd_stream, "emit the maximal-period residue stream"),
    "sweep": (cmd_sweep, "agreement sweep over a coefficient box"),
}


def _add_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give p the options of subcommand `name`, in the order its help lists
    them; the full tree and the single parser of main share this."""
    p.set_defaults(run=_SUBCOMMANDS[name][0])
    p.add_argument("--prime", type=int, required=True)
    # only the subcommands that hold a table or a witness walk take a bound
    if name in ("analyze", "cycles", "conjugacy"):
        p.add_argument("--table-bound", type=int, default=None,
                       help="refuse a level of more residues (p^n), or a longer "
                            f"witness cycle (env {TABLE_BOUND_ENV} overrides the default)")
    if name != "sweep":
        p.add_argument("--coeffs", type=str, required=True,
                       help="comma-separated coefficients, constant term first")
    if name != "stream":
        p.add_argument("--format", choices=["text", "structured"], default="text")
    if name in ("cycles", "conjugacy", "stream"):
        # conjugacy builds a table at --level or certifies a tower to --nmax
        levels = p.add_mutually_exclusive_group() if name == "conjugacy" else p
        levels.add_argument("--level", type=int, default=None)
    if name == "conjugacy":
        levels.add_argument("--nmax", type=int, default=None)
    elif name == "stream":
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=int, default=None)
        p.add_argument("--format", choices=["text", "packed", "structured"],
                       default="text")
    elif name == "sweep":
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--bound", type=int, required=True,
                       help="coefficients range over [0, bound)")
        p.add_argument("--a0", type=int, default=1)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--samples", type=int, default=None,
                       help="sample size when the box exceeds the work budget")
        p.add_argument("--rng-seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for the sweep, at most one per "
                            "CPU (default: cpu count)")
    return p


@functools.cache
def _parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name`, named as the full tree names it,
    built at its first call in this process and reused after: it holds
    no value that can change between calls."""
    return _add_options(argparse.ArgumentParser(prog=f"padicdyn {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The full tree of every subcommand.  main builds it only when argv
    does not start with a subcommand: for the top-level help and errors."""
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="minimality analysis of polynomial maps on p-adic integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _SUBCOMMANDS.items():
        _add_options(sub.add_parser(name, help=summary), name)
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    # argparse reads "--coeffs -1,2" as an option followed by an unknown
    # option; "--coeffs=-1,2" is unambiguous
    out: list[str] = []
    for arg in argv:
        if out and _SIGNED_VALUE.match(arg) and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        args = _parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        if "table_bound" in args and args.table_bound is None:
            args.table_bound = _env_int(TABLE_BOUND_ENV, DEFAULT_TABLE_BOUND)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (PadicError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone, so the rest of the output has nowhere to go.
        # The interpreter flushes sys.stdout once more at exit: point the
        # process's stdout at devnull so that flush does not raise again
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
