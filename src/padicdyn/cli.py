"""Command-line frontend.

Subcommands: analyze, cycles, conjugacy, stream, sweep.  Output is
either human-readable text or a single JSON record (--format structured)
whose field names are frozen; see the schema section of the README.

Exit status: analyze exits 0 when the map is minimal, 1 when it is not,
2 on errors; sweep exits 1 when decision routes disagree; everything
else exits 0 on success, 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .criteria import MinimalityVerdict, closed_form, decision_level, minimal_general
from .dynamics import (
    DEFAULT_TABLE_BOUND,
    IntPolynomial,
    cycle_decomposition,
)
from .odometer import build_psi, full_cycle_stream, verify_conjugacy_tower
from .padic import PadicError
from .sweep import DEFAULT_WORK_BUDGET, SweepConfig, run_sweep

TABLE_BOUND_ENV = "PADICDYN_TABLE_BOUND"
WORK_BUDGET_ENV = "PADICDYN_WORK_BUDGET"

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


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _render_verdict(v: MinimalityVerdict) -> list[str]:
    head = "minimal" if v.minimal else "not minimal"
    if v.failed_stage:
        head += f" (first failure at {v.failed_stage})"
    if v.case is not None:
        head += f" [case {v.case}]"
    lines = [f"{v.method}: {head}"]
    for c in v.conditions:
        mark = "ok  " if c.passed else "FAIL"
        lines.append(f"  {mark} {c.name}: residue {c.residue} mod {c.modulus}")
    if v.witness is not None:
        lines.append("  witness cycle: " + " ".join(str(x) for x in v.witness))
    return lines


def _parse_poly(args: argparse.Namespace) -> IntPolynomial:
    if not args.coeffs:
        raise PadicError("no coefficients given")
    return IntPolynomial.from_text(args.prime, args.coeffs)


def cmd_analyze(args: argparse.Namespace) -> int:
    f = _parse_poly(args)
    delta_verdict = minimal_general(f, table_bound=args.table_bound)
    closed = closed_form(f)
    agree = None if closed is None else closed.minimal == delta_verdict.minimal

    if args.format == "structured":
        _emit({
            "command": "analyze",
            "prime": args.prime,
            "coeffs": list(f.coefficients),
            "closed_form": closed.to_record() if closed is not None else None,
            "delta_rule": delta_verdict.to_record(),
            "agree": agree,
        })
    else:
        print(f"f = {f} over Z_{args.prime}")
        if closed is not None:
            print("\n".join(_render_verdict(closed)))
        print("\n".join(_render_verdict(delta_verdict)))
        if agree is not None:
            print(f"agreement: {'yes' if agree else 'NO'}")
    if agree is False:
        print("decision routes disagree; this is a bug", file=sys.stderr)
        return 2
    final = closed.minimal if closed is not None else delta_verdict.minimal
    return 0 if final else 1


def cmd_cycles(args: argparse.Namespace) -> int:
    f = _parse_poly(args)
    n = args.level if args.level is not None else decision_level(args.prime)
    dec = cycle_decomposition(f, n, table_bound=args.table_bound)
    if args.format == "structured":
        _emit({
            "command": "cycles",
            "prime": args.prime,
            "coeffs": list(f.coefficients),
            "level": n,
            "bijective": dec.bijective,
            "cycles": [list(c) for c in dec.cycles],
            "non_periodic": dec.non_periodic_count,
        })
        return 0
    print(f"f = {f} mod {args.prime}^{n}")
    print(f"bijective: {'yes' if dec.bijective else 'no'}")
    print(f"cycles ({len(dec.cycles)}):")
    for c in dec.cycles:
        print("  " + " ".join(str(x) for x in c))
    print(f"non-periodic residues: {dec.non_periodic_count}")
    return 0


def cmd_conjugacy(args: argparse.Namespace) -> int:
    f = _parse_poly(args)
    if args.nmax is not None:
        report = verify_conjugacy_tower(f, args.nmax, table_bound=args.table_bound)
        if args.format == "structured":
            _emit({
                "command": "conjugacy",
                "prime": args.prime,
                "coeffs": list(f.coefficients),
                "n_max": report.n_max,
                "levels": [
                    {"level": c.level, "conjugation_ok": c.conjugation_ok,
                     "projection_ok": c.projection_ok}
                    for c in report.levels
                ],
                "passed": report.passed,
            })
        else:
            for c in report.levels:
                print(f"level {c.level}: conjugation "
                      f"{'ok' if c.conjugation_ok else 'FAIL'}, projection "
                      f"{'ok' if c.projection_ok else 'FAIL'}")
            print(f"tower: {'ok' if report.passed else 'FAIL'}")
        return 0 if report.passed else 2
    n = args.level if args.level is not None else decision_level(args.prime)
    table = build_psi(f, n, table_bound=args.table_bound)
    if args.format == "structured":
        _emit({
            "command": "conjugacy",
            "prime": args.prime,
            "coeffs": list(f.coefficients),
            "level": n,
            "orbit_index": list(table.orbit_index),
            "orbit_point": list(table.orbit_point),
        })
    else:
        # two columns: residue, its position along the orbit of 0
        for x, k in enumerate(table.orbit_index):
            print(f"{x} {k}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    f = _parse_poly(args)
    n = args.level if args.level is not None else decision_level(args.prime)
    count = args.count if args.count is not None else args.prime**n
    size = args.prime**n
    seed = args.seed % size
    values = full_cycle_stream(f, n, seed, count, table_bound=args.table_bound)
    if args.format == "structured":
        _emit({
            "command": "stream",
            "prime": args.prime,
            "coeffs": list(f.coefficients),
            "level": n,
            "seed": seed,
            "count": count,
            "values": list(values),
        })
        return 0
    if args.format == "packed":
        print(f"{args.prime} {n} {count} {seed}")
        sep = "" if args.prime <= 10 else "."
        for v in values:
            digits = []
            for _ in range(n):
                v, d = divmod(v, args.prime)
                digits.append(str(d))
            print(sep.join(digits))
        return 0
    for v in values:
        print(v)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep_cfg = SweepConfig(
        prime=args.prime,
        degree=args.degree,
        bound=args.bound,
        a0=args.a0,
        n_max=args.nmax,
        table_bound=args.table_bound,
        work_budget=args.work_budget,
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
            "total": report.total,
            "agree_minimal": report.agree_minimal,
            "agree_nonminimal": report.agree_nonminimal,
            "disagreements": report.disagreements,
            "first_counterexample": (
                list(report.first_counterexample)
                if report.first_counterexample is not None else None
            ),
            "first_routes": report.first_routes,
            "sampled": report.sampled,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="minimality analysis of polynomial maps on p-adic integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, required=True)
    common.add_argument("--table-bound", type=int, default=None,
                        help="largest map table materialized (env "
                             f"{TABLE_BOUND_ENV} overrides the default)")

    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--coeffs", type=str, required=True,
                      help="comma-separated coefficients, constant term first")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "structured"], default="text")

    p_an = sub.add_parser("analyze", parents=[common, poly, fmt],
                          help="decide minimality, closed form plus decision-level check")
    p_an.set_defaults(run=cmd_analyze)

    p_cy = sub.add_parser("cycles", parents=[common, poly, fmt],
                          help="cycle decomposition of the reduced map")
    p_cy.set_defaults(run=cmd_cycles)
    p_cy.add_argument("--level", type=int, default=None)

    p_co = sub.add_parser("conjugacy", parents=[common, poly, fmt],
                          help="orbit index table, or tower verification with --nmax")
    p_co.set_defaults(run=cmd_conjugacy)
    p_co.add_argument("--level", type=int, default=None)
    p_co.add_argument("--nmax", type=int, default=None)

    p_st = sub.add_parser("stream", parents=[common, poly],
                          help="emit the maximal-period residue stream")
    p_st.set_defaults(run=cmd_stream)
    p_st.add_argument("--level", type=int, default=None)
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--count", type=int, default=None)
    p_st.add_argument("--format", choices=["text", "packed", "structured"],
                      default="text")

    p_sw = sub.add_parser("sweep", parents=[common, fmt],
                          help="agreement sweep over a coefficient box")
    p_sw.set_defaults(run=cmd_sweep)
    p_sw.add_argument("--degree", type=int, required=True)
    p_sw.add_argument("--bound", type=int, required=True,
                      help="coefficients range over [0, bound)")
    p_sw.add_argument("--a0", type=int, default=1)
    p_sw.add_argument("--nmax", type=int, default=None)
    p_sw.add_argument("--samples", type=int, default=None,
                      help="sample size when the box exceeds the work budget")
    p_sw.add_argument("--rng-seed", type=int, default=0)
    p_sw.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                      help="worker processes for the sweep, at most one per "
                           "CPU (default: cpu count)")

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
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(
        sys.argv[1:] if argv is None else argv))
    try:
        if args.table_bound is None:
            args.table_bound = _env_int(TABLE_BOUND_ENV, DEFAULT_TABLE_BOUND)
        args.work_budget = _env_int(WORK_BUDGET_ENV, DEFAULT_WORK_BUDGET)
        return args.run(args)
    except (PadicError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
