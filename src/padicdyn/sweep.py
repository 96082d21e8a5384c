"""Agreement sweeps over coefficient boxes.

Enumerates (a1..ad) in [0, bound)^d lexicographically with a fixed
constant term, runs every applicable decision route on each polynomial
and counts agreement.  Routes per tuple:

    closed      closed-form decider (p = 2 or 3 only)
    delta       full cycle at the decision level, decided by lifting
                from mod p (dynamics.full_cycle_by_lifting)
    full-cycle  brute-force orbit walk of 0 at n_max, through a residue
                table (below) or, past its size cap, dynamics.is_full_cycle

closed calls the record-free core that criteria._CLOSED_FORMS holds
for the prime, the one it builds its records from; it builds no
ConditionCheck.  The all-zero tail is built as the constant map a0,
which every route reports as not minimal.  The index range (or the
sorted sample) is cut into contiguous chunks, one per worker process;
the workers are capped at the CPU count and at the number of tuples.
A sweep imports what only some sweeps use where it is used: random in
the sampled branch of run_sweep, and the process pool in _pool, so
multiprocessing loads at the first sweep on two or more workers.
Neither loads with padicdyn.  Tests replace _pool with an in-process
stand-in.

A chunk enumerates consecutive indices as an odometer (see _tables) and
keeps one residue table, table[x] = f(x) mod p^n_max, that each step
updates in one pass instead of an eval_mod per orbit step.  Tables are
used only while the table, the step changes and the powers x^i mod
p^n_max, (2 * degree + 1) * p^n_max entries, stay within TABLE_ENTRIES.

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

from .criteria import _CLOSED_FORMS
from .dynamics import IntPolynomial, decision_level, full_cycle_by_lifting, is_full_cycle
from .padic import PadicError, _check_prime

# ten million full-cycle checks; larger boxes must opt into sampling
DEFAULT_WORK_BUDGET = 10**7

# largest (2 * degree + 1) * p^n_max entries that a chunk's residue table,
# step changes and powers may hold (a few MB at most); past it the
# full-cycle route walks the orbit through eval_mod, so memory does not
# grow with n_max
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
    """(index, coefficients, table) for each index in order: the tuple
    (a0, a1..ad) and table[x] = f(x) mod p^n_max.  From one index to the
    next the digits a1..ad step as an odometer: ad goes up by one, and a
    digit that passes bound - 1 returns to 0 and carries into the one
    before it.  Only the first index and one after a gap in a sample go
    through _index_to_tail, and their table is built from the digits.
    table is None when it, the step changes and the power rows would hold
    more than TABLE_ENTRIES entries."""
    bound, degree, a0 = cfg.bound, cfg.degree, cfg.a0
    n_max = cfg.resolved_n_max()
    table = None
    # p^n_max >= 2^n_max passes the cap once n_max reaches its bit length,
    # so a deep n_max gets no table before p^n_max is computed
    if (n_max < TABLE_ENTRIES.bit_length()
            and (2 * degree + 1) * (modulus := cfg.prime**n_max) <= TABLE_ENTRIES):
        # rows[x] = (x, x^2, .., x^d); a step that carries into digit a_i
        # raises it by one and wraps every later digit from bound - 1 to 0,
        # which adds steps[i - 1] to the table
        rows = [tuple(pow(x, i, modulus) for i in range(1, degree + 1))
                for x in range(modulus)]
        steps = [[(row[i] + (1 - bound) * sum(row[i + 1:])) % modulus for row in rows]
                 for i in range(degree)]
        table = []
    digits = [0] * degree
    last = -2  # no index follows it
    for idx in indices:
        if idx == last + 1:
            pos = degree - 1
            while digits[pos] == bound - 1:
                digits[pos] = 0
                pos -= 1
            digits[pos] += 1
            if table is not None:
                table = [(y + v) % modulus for y, v in zip(table, steps[pos])]
        else:
            digits = _index_to_tail(idx, bound, degree)
            if table is not None:
                table = [(a0 + sum(map(mul, digits, row))) % modulus for row in rows]
        last = idx
        yield idx, (a0, *digits), table


def _full_cycle_in(table: list[int]) -> bool:
    """Is x -> table[x] one cycle through every residue?  The orbit of 0
    returns to 0 first at step len(table) exactly when it is."""
    x = 0
    for _ in range(len(table) - 1):
        x = table[x]
        if x == 0:
            return False
    return table[x] == 0


def _run_chunk(args) -> tuple[int, int, int, tuple | None]:
    """Agreement counts of one chunk, and (index, tuple, routes) of its
    first disagreement, or None."""
    cfg, indices = args
    p = cfg.prime
    level = decision_level(p)
    n_max = cfg.resolved_n_max()
    _, closed_core = _CLOSED_FORMS.get(p, (None, None))
    agree_min = agree_non = disagree = 0
    first = None
    for idx, coeffs, table in _tables(cfg, indices):
        f = IntPolynomial(p, coeffs)
        closed = None if closed_core is None else closed_core(coeffs)[0]
        delta = full_cycle_by_lifting(f, level)
        full = is_full_cycle(f, n_max) if table is None else _full_cycle_in(table)
        if delta == full and closed in (None, delta):
            if delta:
                agree_min += 1
            else:
                agree_non += 1
            continue
        disagree += 1
        if first is None:
            routes = {"closed": closed, "delta": delta, "full-cycle": full}
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
