"""Agreement sweeps over coefficient boxes.

Enumerates (a1..ad) in [0, bound)^d lexicographically with a fixed
constant term, runs every applicable decision route on each polynomial
and counts agreement.  Routes per tuple:

    closed      closed-form decider (p = 2 or 3 only)
    class       coefficient rule for maps = x + c mod p (p >= 5 only)
    delta       full cycle at the decision level, decided by lifting
                from mod p on the coefficient tuple
                (dynamics._full_cycle_lifts)
    full-cycle  brute-force orbit walk of 0 at n_max, through head and top
                (below) or, past their size cap, dynamics.is_full_cycle

closed calls the record-free core that criteria._CLOSED_FORMS holds
for the prime, the one its records come from, on a0, a1, a2 and the
class sums (below); it builds no ConditionCheck.  class calls
criteria._class_core only on tuples whose a1 is 1 mod p, so every
other tuple pays one modulo for it; a route that does not apply to a
tuple is left out of its first_routes.  Only is_full_cycle takes an
IntPolynomial, built for it alone: every other route reads the tuple,
trailing zeros and all.  The all-zero tail is the constant map a0,
which every route reports as not minimal.  The index range (or the
sorted sample) is cut into contiguous chunks, one per worker process;
the workers are capped at the CPU count and at the number of tuples.
A sweep imports what only some sweeps use where it is used: random in
the sampled branch of run_sweep, and the process pool in _pool, so
multiprocessing loads at the first sweep on two or more workers.
Neither loads with padicdyn.  Tests replace _pool with an in-process
stand-in.

A chunk steps its tuples as an odometer (see _tables).  At p = 2 and
3 it steps sums = [S_0, .., S_5] (criteria._class_sums, mod p^2) by a
fixed change per digit that steps, a0^(d-1) in S_(d mod 6) for ad.
It keeps two tables mod p^n_max: head[x] = a0 + a1 x + .. +
a_(d-1) x^(d-1), changed in one pass when a digit before a_d steps
(once every bound tuples), and top[x] = x^d.  The brute-force route
walks x -> head[x] + a_d top[x] from 0 to its first repeated residue:
f is one full cycle exactly when that took p^n_max steps and stopped
on 0.  The powers x^i (i < d), the d - 1 step rows, top, head and the
head replacing it fit in (2d + 1) * p^n_max entries; tables are used
only while that is at most TABLE_ENTRIES.

The work budget counts tuples, each weighed by its brute-force walk of
up to p^n_max steps in units of 27, the p = 3 decision-level walk:
p^(n_max - L) * ceil(p^L / 27) at the decision level L.  A box over
budget must be sampled; a sample of tuples that weigh more than 1 is
refused before the sweep starts if it is over budget too.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from operator import mul

from .criteria import _CLOSED_FORMS, _class_core, _class_sums
from .dynamics import IntPolynomial, _full_cycle_lifts, decision_level, is_full_cycle
from .padic import PadicError, _check_prime

# ten million full-cycle checks; larger boxes must opt into sampling
DEFAULT_WORK_BUDGET = 10**7

# largest (2 * degree + 1) * p^n_max entries a chunk's tables may hold (a
# few MB at most); past it the full-cycle route walks the orbit through
# eval_mod, so memory does not grow with n_max
TABLE_ENTRIES = 1 << 16


class SweepConfig(namedtuple(
        "SweepConfig", "prime degree bound a0 n_max work_budget samples seed workers",
        defaults=(1, None, DEFAULT_WORK_BUDGET, None, 0, 1))):
    """A box (a0, a1..ad), a1..ad in [0, bound), and how to sweep it: n_max
    None is the decision level, and samples is the sample size for a box
    over work_budget, which is refused when it is None."""

    __slots__ = ()

    def resolved_n_max(self) -> int:
        return self.n_max if self.n_max is not None else decision_level(self.prime)


class SweepReport(namedtuple(
        "SweepReport", "total agree_minimal agree_nonminimal disagreements "
        "first_counterexample first_routes sampled")):
    """Agreement counts of a sweep.  first_counterexample is the first
    offending tuple in lexicographic order, constant term included, and
    first_routes the per-route verdicts that split there; both are None
    when every route agrees."""

    __slots__ = ()


def _index_to_tail(idx: int, bound: int, degree: int) -> list[int]:
    tail = [0] * degree
    for pos in range(degree - 1, -1, -1):
        idx, tail[pos] = divmod(idx, bound)
    return tail


def _tables(cfg: SweepConfig, indices: range | list[int]):
    """(index, coefficients, sums, tables) for each index in order: the
    tuple (a0, a1..ad), sums (None at p > 3; a list the next step changes
    in place) and tables = (head, top) (module docstring), None past
    TABLE_ENTRIES.  The digits a1..ad step as an odometer: ad goes up by
    one, and a digit that passes bound - 1 returns to 0 and carries into
    the one before it.  sums and head are rebuilt from _index_to_tail
    only at the first index and after a gap in a sample."""
    bound, degree, a0 = cfg.bound, cfg.degree, cfg.a0
    n_max = cfg.resolved_n_max()
    tables = top = sums = None
    # a carry into digit a_i (i <= d; ad + 1 is the common step) raises it
    # by one and wraps every later digit from bound - 1 to 0: it adds
    # steps[i - 1] to head, and to the class sums those of (a0, 0, .., 0, 1,
    # 1 - bound, .., 1 - bound), as their nonzero (class, change) pairs
    m = cfg.prime**2 if cfg.prime in _CLOSED_FORMS else 0
    moves = [[(r, v) for r, v in enumerate(_class_sums(
        (a0, *[0] * i, 1, *[1 - bound] * (degree - 1 - i)), m)) if v] if m else ()
        for i in range(degree)]
    # p^n_max >= 2^n_max passes the cap once n_max reaches its bit length,
    # so a deep n_max gets no table before p^n_max is computed
    if (n_max < TABLE_ENTRIES.bit_length()
            and (2 * degree + 1) * (modulus := cfg.prime**n_max) <= TABLE_ENTRIES):
        # rows[x] = (x, .., x^(d-1)), so map(mul, digits, row) leaves out ad
        rows = [tuple(pow(x, i, modulus) for i in range(1, degree)) for x in range(modulus)]
        steps = [[(row[i] + (1 - bound) * sum(row[i + 1:])) % modulus for row in rows]
                 for i in range(degree - 1)]
        top = [pow(x, degree, modulus) for x in range(modulus)]
    digits = [0] * degree
    last = -2  # no index follows it
    for idx in indices:
        if idx == last + 1:
            pos = degree - 1
            while digits[pos] == bound - 1:
                digits[pos] = 0
                pos -= 1
            digits[pos] += 1
            for r, v in moves[pos]:
                sums[r] = (sums[r] + v) % m
            if top and pos < degree - 1:
                tables = ([(y + v) % modulus for y, v in zip(tables[0], steps[pos])], top)
        else:
            digits = _index_to_tail(idx, bound, degree)
            if m:
                sums = _class_sums((a0, *digits), m)
            if top:
                tables = ([(a0 + sum(map(mul, digits, row))) % modulus for row in rows], top)
        last = idx
        yield idx, (a0, *digits), sums, tables


def _full_cycle_in(head: list[int], top: list[int], ad: int) -> bool:
    """Does x -> (head[x] + ad * top[x]) mod len(head) walk from 0 through
    every residue and first repeat at 0?"""
    m = len(head)
    seen = set()
    x = 0
    while x not in seen:
        seen.add(x)
        x = (head[x] + ad * top[x]) % m
    return x == 0 and len(seen) == m


def _run_chunk(args) -> tuple[int, int, int, tuple | None]:
    """Agreement counts of one chunk, and (index, tuple, routes) of its
    first disagreement, or None."""
    cfg, indices = args
    p, a0 = cfg.prime, cfg.a0
    level = decision_level(p)
    n_max = cfg.resolved_n_max()
    _, closed_core = _CLOSED_FORMS.get(p, (None, None))
    ruled, wide = p > 3, cfg.degree > 1
    agree_min = agree_non = disagree = 0
    first = None
    for idx, coeffs, sums, tables in _tables(cfg, indices):
        closed = closed_core and closed_core(a0, coeffs[1], coeffs[2] if wide else 0, sums)[0]
        rule = _class_core(coeffs, p) if ruled and coeffs[1] % p == 1 else None
        delta = _full_cycle_lifts(coeffs, p, level)
        full = (_full_cycle_in(*tables, coeffs[-1]) if tables
                else is_full_cycle(IntPolynomial(p, coeffs), n_max))
        if delta == full and closed in (None, delta) and rule in (None, delta):
            agree_min += delta
            agree_non += not delta
            continue
        disagree += 1
        if first is None:
            routes = {"closed": closed, "class": rule, "delta": delta, "full-cycle": full}
            first = (idx, coeffs, {k: v for k, v in routes.items() if v is not None})
    return agree_min, agree_non, disagree, first


def run_sweep(cfg: SweepConfig) -> SweepReport:
    # before anything is sized from p^n_max
    _check_prime(cfg.prime)
    if cfg.degree < 1:
        raise PadicError(f"sweep degree must be >= 1, got {cfg.degree}")
    if cfg.bound < 1:
        raise PadicError(f"sweep bound must be >= 1, got {cfg.bound}")
    if cfg.samples is not None and cfg.samples < 0:
        raise PadicError(f"sample count must be >= 0, got {cfg.samples}")
    if cfg.workers < 1:
        raise PadicError(f"worker count must be >= 1, got {cfg.workers}")
    level = decision_level(cfg.prime)
    n_max = cfg.resolved_n_max()
    if n_max < level:
        raise PadicError(
            f"n_max below the decision level {level} cannot settle minimality"
        )
    box = cfg.bound**cfg.degree
    # p^(n_max - L) * ceil(p^L / 27) (module docstring); the exponent is capped
    # where the weight alone exceeds the budget
    weight = (cfg.prime ** min(n_max - level, cfg.work_budget.bit_length() + 1)
              * -(-cfg.prime**level // 27))
    sampled = box * weight > cfg.work_budget
    if sampled:
        if cfg.samples is None:
            raise PadicError(
                f"box of {box} tuples of weight {weight} at n_max {n_max} exceeds "
                f"work budget {cfg.work_budget}; pass a sample count to sweep by sampling"
            )
        if box > sys.maxsize:
            raise PadicError(
                f"box of {box} tuples is too large to sample (at most {sys.maxsize}); "
                f"lower the degree or the bound"
            )
        count = min(cfg.samples, box)
        if weight > 1 and count * weight > cfg.work_budget:
            raise PadicError(
                f"{count} samples of weight {weight} at n_max {n_max} exceed "
                f"work budget {cfg.work_budget}; lower n_max or the sample count"
            )
        import random  # only a sampled box draws; see the module docstring

        indices = sorted(random.Random(cfg.seed).sample(range(box), count))
    else:
        indices = range(box)
    total = len(indices)

    # a process pool forks all of its workers up front, so never ask
    # for more than there are CPUs or tuples
    workers = max(1, min(cfg.workers, os.cpu_count() or 1, total))
    jobs = [(cfg, chunk) for chunk in _split(indices, workers)]
    if workers > 1:
        with _pool(workers) as pool:
            results = list(pool.map(_run_chunk, jobs))
    else:
        results = [_run_chunk(job) for job in jobs]

    # chunks are disjoint, so the lowest index decides and the routes
    # dicts are never compared
    _, first_tuple, first_routes = min(
        (r[3] for r in results if r[3] is not None), default=(None, None, None))
    return SweepReport(
        total=total,
        agree_minimal=sum(r[0] for r in results),
        agree_nonminimal=sum(r[1] for r in results),
        disagreements=sum(r[2] for r in results),
        first_counterexample=first_tuple,
        first_routes=first_routes,
        sampled=sampled,
    )


def _pool(workers: int):
    """A process pool of `workers` workers, imported at its first use
    (see the module docstring)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _split(indices: range | list[int], parts: int) -> list:
    """Cut a range or a list into `parts` contiguous slices whose
    lengths differ by at most one; a slice of a range is a range."""
    n = len(indices)
    return [indices[i * n // parts:(i + 1) * n // parts] for i in range(parts)]
