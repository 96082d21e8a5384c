"""Agreement sweeps over coefficient boxes.

Enumerates (a1..ad) in [0, bound)^d lexicographically with a fixed
constant term, runs every applicable decision route on each polynomial
and counts agreement.  Routes per tuple:

    closed      closed-form decider (p = 2 or 3 only)
    alt         second closed form where one applies: the p = 2 larin
                shape, or the p = 3 degree-5 form (constant term 1)
    delta       full cycle at the decision level, decided by lifting
                from mod p (criteria.full_cycle_by_lifting)
    full-cycle  brute-force orbit walk at n_max (dynamics.is_full_cycle)

The all-zero tail is built as the constant map a0, which every route
reports as not minimal.  The index range (or the sorted sample) is cut
into contiguous chunks, one per worker process; the workers are capped
at the CPU count and at the number of tuples.

The work budget counts tuples, each weighted p^(n_max - L) above the
decision level L; a box over budget must be sampled, and above L a
sample over budget is refused before the sweep starts.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .criteria import (
    closed_form,
    decision_level,
    full_cycle_by_lifting,
    minimal_degree5_z3,
    minimal_z2_larin_form,
)
from .dynamics import IntPolynomial, is_full_cycle
from .padic import PadicError

# ten million full-cycle checks; larger boxes must opt into sampling
DEFAULT_WORK_BUDGET = 10**7


@dataclass(frozen=True)
class SweepConfig:
    prime: int
    degree: int
    bound: int
    a0: int = 1
    n_max: int | None = None
    work_budget: int = DEFAULT_WORK_BUDGET
    samples: int | None = None
    seed: int = 0
    workers: int = 1

    def resolved_n_max(self) -> int:
        return self.n_max if self.n_max is not None else decision_level(self.prime)


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    total: int
    agree_minimal: int
    agree_nonminimal: int
    disagreements: int
    # first offending tuple in lexicographic order, constant term included,
    # with the per-route verdicts that split
    first_counterexample: tuple[int, ...] | None
    first_routes: dict | None
    sampled: bool


def _index_to_tail(idx: int, bound: int, degree: int) -> list[int]:
    tail = [0] * degree
    for pos in range(degree - 1, -1, -1):
        idx, tail[pos] = divmod(idx, bound)
    return tail


def _routes_for(cfg: SweepConfig, tail: list[int]) -> dict[str, bool]:
    p = cfg.prime
    f = IntPolynomial(p, (cfg.a0, *tail), allow_constant=True)
    routes = {}
    closed = closed_form(f)
    if closed is not None:
        routes["closed"] = closed.minimal
    # the alternate forms apply to the whole box or to none of it
    if cfg.a0 == 1:
        if p == 2:
            routes["alt"] = minimal_z2_larin_form(f).minimal
        elif p == 3 and cfg.degree <= 5:
            routes["alt"] = minimal_degree5_z3(f).minimal
    routes["delta"] = full_cycle_by_lifting(f, decision_level(p))
    routes["full-cycle"] = is_full_cycle(f, cfg.resolved_n_max())
    return routes


def _run_chunk(args) -> tuple[int, int, int, int | None, tuple | None, dict | None]:
    cfg, indices = args
    agree_min = agree_non = disagree = 0
    first_idx = None
    first_tuple = None
    first_routes = None
    for idx in indices:
        tail = _index_to_tail(idx, cfg.bound, cfg.degree)
        routes = _routes_for(cfg, tail)
        values = set(routes.values())
        if len(values) > 1:
            disagree += 1
            if first_idx is None:
                first_idx = idx
                first_tuple = (cfg.a0, *tail)
                first_routes = routes
        elif values == {True}:
            agree_min += 1
        else:
            agree_non += 1
    return agree_min, agree_non, disagree, first_idx, first_tuple, first_routes


def run_sweep(cfg: SweepConfig) -> SweepReport:
    if cfg.degree < 1:
        raise PadicError(f"sweep degree must be >= 1, got {cfg.degree}")
    if cfg.bound < 1:
        raise PadicError(f"sweep bound must be >= 1, got {cfg.bound}")
    if cfg.samples is not None and cfg.samples < 0:
        raise PadicError(f"sample count must be >= 0, got {cfg.samples}")
    level = decision_level(cfg.prime)
    n_max = cfg.resolved_n_max()
    if n_max < level:
        raise PadicError(
            f"n_max below the decision level {level} cannot settle minimality"
        )
    box = cfg.bound**cfg.degree
    # the brute-force route walks up to p^n_max orbit steps, so past the
    # decision level a tuple weighs p^(n_max - L); the exponent is capped
    # where the weight alone exceeds the budget
    weight = cfg.prime ** min(n_max - level, cfg.work_budget.bit_length() + 1)
    sampled = box * weight > cfg.work_budget
    if sampled:
        if cfg.samples is None:
            raise PadicError(
                f"box of {box} tuples at n_max {n_max} exceeds work budget "
                f"{cfg.work_budget}; pass a sample count to sweep by sampling"
            )
        count = min(cfg.samples, box)
        if weight > 1 and count * weight > cfg.work_budget:
            raise PadicError(
                f"{count} samples at n_max {n_max} exceed work budget "
                f"{cfg.work_budget}; lower n_max or the sample count"
            )
        rng = random.Random(cfg.seed)
        indices = sorted(rng.sample(range(box), count))
    else:
        indices = range(box)
    total = len(indices)

    # a process pool forks all of its workers up front, so never ask
    # for more than there are CPUs or tuples
    workers = max(1, min(cfg.workers, os.cpu_count() or 1, total))
    jobs = [(cfg, chunk) for chunk in _split(indices, workers)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, jobs))
    else:
        results = [_run_chunk(job) for job in jobs]

    agree_min = sum(r[0] for r in results)
    agree_non = sum(r[1] for r in results)
    disagree = sum(r[2] for r in results)
    first_tuple = None
    first_routes = None
    best = None
    for r in results:
        if r[3] is not None and (best is None or r[3] < best):
            best, first_tuple, first_routes = r[3], r[4], r[5]
    return SweepReport(
        config=cfg,
        total=total,
        agree_minimal=agree_min,
        agree_nonminimal=agree_non,
        disagreements=disagree,
        first_counterexample=first_tuple,
        first_routes=first_routes,
        sampled=sampled,
    )


def _split(indices: range | list[int], parts: int) -> list:
    """Cut a range or a list into `parts` contiguous slices whose
    lengths differ by at most one; a slice of a range is a range."""
    step, extra = divmod(len(indices), parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        out.append(indices[lo:hi])
        lo = hi
    return out
