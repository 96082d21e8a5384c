import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn import criteria, sweep
from padicdyn.dynamics import IntPolynomial, decision_level, full_cycle_by_lifting, reduced_map_table
from padicdyn.padic import PadicError
from padicdyn.sweep import (SweepConfig, _full_cycle_in, _index_to_tail, _split, _tables,
                            run_sweep)

import oracles


class TestConfig:
    def test_resolved_n_max(self):
        assert SweepConfig(2, 3, 4).resolved_n_max() == 3
        assert SweepConfig(5, 2, 4).resolved_n_max() == 2
        assert SweepConfig(3, 2, 4, n_max=5).resolved_n_max() == 5

    def test_n_max_below_decision_level_rejected(self):
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 2, 2, n_max=2))

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 0, 2))
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 1, 0))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(PadicError, match="worker count"):
            run_sweep(SweepConfig(3, 1, 2, workers=workers))


class TestIndexing:
    def test_lexicographic_order(self):
        assert _index_to_tail(0, 3, 2) == [0, 0]
        assert _index_to_tail(1, 3, 2) == [0, 1]
        assert _index_to_tail(3, 3, 2) == [1, 0]
        assert _index_to_tail(8, 3, 2) == [2, 2]

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 500))
    def test_round_trip(self, bound, degree, idx):
        idx %= bound**degree
        tail = _index_to_tail(idx, bound, degree)
        back = 0
        for c in tail:
            back = back * bound + c
        assert back == idx
        assert all(0 <= c < bound for c in tail)

    @given(st.integers(1, 40), st.integers(1, 6))
    def test_splits_partition(self, total, parts):
        parts = min(parts, total)
        for indices in (range(total), [3 * i + 1 for i in range(total)]):
            chunks = _split(indices, parts)
            assert len(chunks) == parts and all(chunks)
            assert [x for c in chunks for x in c] == list(indices)
            assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
            assert all(type(c) is type(indices) for c in chunks)


class TestExhaustiveSweeps:
    def test_frozen_p2_cubic_box(self):
        # all (a1,a2,a3) mod 8 with a0 = 1: 16 minimal of 512
        rep = run_sweep(SweepConfig(2, 3, 8))
        assert rep.total == 512
        assert rep.disagreements == 0
        assert rep.first_counterexample is None
        assert rep.agree_minimal == 16
        assert rep.agree_nonminimal == 496
        assert not rep.sampled

    def test_frozen_p3_quadratic_box(self):
        # all (a1,a2) mod 9 with a0 = 1: 6 minimal of 81
        rep = run_sweep(SweepConfig(3, 2, 9))
        assert rep.total == 81 and rep.disagreements == 0
        assert rep.agree_minimal == 6

    def test_frozen_p5_box(self):
        # no closed form for p = 5: delta and full-cycle routes only
        rep = run_sweep(SweepConfig(5, 2, 5))
        assert rep.total == 25 and rep.disagreements == 0
        assert rep.agree_minimal + rep.agree_nonminimal == 25

    def test_general_constant_term(self):
        rep = run_sweep(SweepConfig(3, 2, 9, a0=5))
        assert rep.disagreements == 0
        # minimality counts depend only on a0 mod 9 up to relabeling;
        # the box with a0 = 5 has its own count, pinned here
        assert rep.agree_minimal == 6

    def test_deeper_n_max_stays_consistent(self):
        rep = run_sweep(SweepConfig(3, 2, 9, n_max=4))
        assert rep.disagreements == 0
        assert rep.agree_minimal == 6

    def test_constant_tuple_counted_nonminimal(self):
        rep = run_sweep(SweepConfig(3, 1, 1))
        assert rep.total == 1
        assert rep.agree_nonminimal == 1 and rep.agree_minimal == 0
        assert rep.disagreements == 0


class TestDifferentials:
    """Closed form, lifting chain and brute-force orbit walk on every
    tuple of a box, for constant terms other than 1 and negative ones,
    and on samples at degrees 8-12; TestClassReductions in test_criteria
    carries these checks to every map."""

    @pytest.mark.parametrize("prime,degree,bound,a0", [
        *((2, 4, 8, a0) for a0 in (3, 5, 7, 9, -1)),
        *((3, 4, 9, a0) for a0 in (2, 4, 5, 7, 8, 10, -1)),
    ])
    def test_routes_agree(self, prime, degree, bound, a0):
        rep = run_sweep(SweepConfig(prime, degree, bound, a0=a0))
        assert rep.total == bound**degree
        assert rep.disagreements == 0, (rep.first_counterexample, rep.first_routes)
        # both verdicts occur, so neither side of the comparison is vacuous
        assert rep.agree_minimal > 0 and rep.agree_nonminimal > 0

    @pytest.mark.parametrize("cfg", [SweepConfig(3, 8, 3, a0=-2), SweepConfig(2, 7, 2, a0=3)])
    def test_wrapped_tails_match_the_oracle(self, cfg):
        # degree above 6, so a six-step class sum takes two stepped
        # coefficients, each weighed by a power of a0 != 1: every tuple's
        # verdict is the brute-force oracle's at the decision level.  At
        # p = 3 bound 3 rather than 2, whose box missed stepped sums that
        # leave out a0's powers
        rep = run_sweep(cfg)
        want = [oracles.full_cycle_oracle((cfg.a0, *_index_to_tail(i, cfg.bound, cfg.degree)),
                                          cfg.prime, decision_level(cfg.prime))
                for i in range(cfg.bound**cfg.degree)]
        assert rep.disagreements == 0, (rep.first_counterexample, rep.first_routes)
        assert (rep.agree_minimal, rep.agree_nonminimal) == (sum(want), len(want) - sum(want))
        assert 0 < sum(want) < len(want)

    @pytest.mark.parametrize("prime,a0", [
        (2, 1), (2, 5), (2, -1), (3, 1), (3, 5), (3, -1),
    ])
    def test_high_degrees_sampled(self, prime, a0):
        # degrees 8-12, where the p = 3 six-step tail sums take more than
        # one term; 400 samples per degree, coefficients mod p^3
        bound = prime**3
        minimal = nonminimal = 0
        for degree in range(8, 13):
            rep = run_sweep(SweepConfig(prime, degree, bound, a0=a0,
                                        samples=400, seed=degree))
            assert rep.sampled and rep.total == 400
            assert rep.disagreements == 0, (rep.first_counterexample, rep.first_routes)
            minimal += rep.agree_minimal
            nonminimal += rep.agree_nonminimal
        assert minimal > 0 and nonminimal > 0


def _runs(box, seed):
    """A sorted sample of [0, box): runs of up to five consecutive indices
    with gaps between them, and the last index."""
    rng = random.Random(seed)
    picked = {box - 1}
    for start in rng.sample(range(box), box // 10):
        picked.update(range(start, min(start + rng.randint(1, 5), box)))
    return sorted(picked)


class TestTables:
    """The coefficients and the head and top tables that each chunk steps
    as an odometer must give the map built from scratch, wherever the
    chunk starts and across the gaps of a sample."""

    @pytest.mark.parametrize("cfg,indices", [
        (SweepConfig(3, 3, 9), range(9**3)),
        (SweepConfig(2, 4, 8, a0=-3), range(8**4)),
        (SweepConfig(3, 3, 9, a0=-5), range(9**3)),
        (SweepConfig(3, 3, 9, n_max=4), range(9**3)),
        (SweepConfig(2, 3, 8, a0=7, n_max=4), range(8**3)),
        (SweepConfig(5, 2, 30), range(30**2)),
        (SweepConfig(3, 4, 27), sorted(random.Random(3).sample(range(27**4), 300))),
        (SweepConfig(3, 3, 9, a0=2), range(250, 600)),
        # bound 2: every other step carries, up to the full width
        (SweepConfig(2, 6, 2), range(2**6)),
        (SweepConfig(3, 5, 2, a0=-1), range(2**5)),
        # runs of consecutive indices, gaps between them
        (SweepConfig(3, 3, 9, a0=4), _runs(9**3, 7)),
        (SweepConfig(2, 4, 3, n_max=4), _runs(3**4, 11)),
        # a chunk that ends at box - 1
        (SweepConfig(3, 4, 9, a0=-2), range(6000, 9**4)),
        # degree 1: head is the constant a0
        (SweepConfig(3, 1, 9), range(9)),
        (SweepConfig(7, 1, 7), range(7)),
    ])
    def test_matches_direct_build(self, cfg, indices):
        n_max = cfg.resolved_n_max()
        modulus = cfg.prime**n_max
        seen = []
        for idx, coeffs, _, (head, top) in _tables(cfg, indices):
            assert coeffs == (cfg.a0, *_index_to_tail(idx, cfg.bound, cfg.degree))
            f = IntPolynomial(cfg.prime, coeffs)
            assert tuple((y + coeffs[-1] * t) % modulus for y, t in zip(head, top)) == \
                tuple(reduced_map_table(f, n_max).entries)
            assert top == [pow(x, cfg.degree, modulus) for x in range(modulus)]
            if cfg.degree == 1:
                assert head == [cfg.a0 % modulus] * modulus
            seen.append(idx)
        assert seen == list(indices)

    @pytest.mark.parametrize("indices", [range(16), _runs(16, 5)])
    def test_no_table_above_the_entry_cap(self, indices):
        # 5 * 1009^2 entries: the full-cycle route walks through eval_mod
        rows = list(_tables(SweepConfig(1009, 2, 4, a0=3), indices))
        assert rows == [(i, (3, *_index_to_tail(i, 4, 2)), None, None) for i in indices]

    @pytest.mark.parametrize("cfg,indices", [
        # bound 2: every other step carries, up to the full width
        (SweepConfig(3, 6, 2), range(2**6)),
        (SweepConfig(2, 5, 2, a0=3), range(2**5)),
        # degree 7 and above: two coefficients in one six-step class
        (SweepConfig(3, 8, 3, a0=-4), range(3**8)),
        (SweepConfig(3, 7, 4, a0=2), range(4**7 - 3000, 4**7)),
        (SweepConfig(2, 8, 3, a0=5), range(3**8)),
        (SweepConfig(3, 13, 2, a0=-1), range(2**13)),
        # runs and gaps, and a sample of a box above the budget
        (SweepConfig(3, 4, 9, a0=-1), _runs(9**4, 3)),
        (SweepConfig(2, 7, 5), _runs(5**7, 4)),
        (SweepConfig(3, 9, 27, a0=2), sorted(random.Random(5).sample(range(27**9), 400))),
        # degree 1 and bounds up to p^2 and past it
        (SweepConfig(3, 1, 9, a0=-4), range(9)),
        (SweepConfig(2, 1, 11, a0=5), range(11)),
        (SweepConfig(2, 3, 8, a0=1, n_max=4), range(8**3)),
        (SweepConfig(3, 3, 27, a0=1), range(27**3)),
    ])
    def test_stepped_sums_match_the_class_sums(self, cfg, indices):
        m, seen = cfg.prime**2, []
        for idx, coeffs, sums, _ in _tables(cfg, indices):
            assert sums == criteria._class_sums(coeffs, m), (idx, coeffs)
            seen.append(idx)
        assert seen == list(indices)

    def test_no_sums_above_three(self):
        assert {sums for _, _, sums, _ in _tables(SweepConfig(5, 3, 4, a0=2), range(64))} == {None}


class TestFullCycleWalk:
    """The brute-force route on hand-made maps: the walk from 0 stops at
    its first repeated residue, and only a repeat at 0 after every
    residue is one full cycle."""

    @pytest.mark.parametrize("table,want", [
        ([1, 2, 3, 4, 5, 0], True),         # one 6-cycle
        ([3, 5, 4, 1, 0, 2], True),         # one 6-cycle, out of order
        ([1, 0, 3, 4, 5, 2], False),        # a permutation, 0 on a 2-cycle
        ([1, 2, 0, 4, 5, 3], False),        # two 3-cycles
        ([0, 2, 3, 4, 5, 1], False),        # 0 fixed
        ([1, 2, 3, 2, 5, 0], False),        # 0 in a tail into a 2-cycle
        ([1, 2, 3, 4, 5, 3], False),        # all six residues, then back at 3
        ([1, 2, 3, 4, 5, 1], False),        # all six residues, then back at 1
    ])
    def test_hand_made_maps(self, table, want):
        m = len(table)
        assert _full_cycle_in(table, [0] * m, 5) is want
        # the same map as head + ad * top: ad = 2 and top[x] = x
        head = [(y - 2 * x) % m for x, y in enumerate(table)]
        assert _full_cycle_in(head, list(range(m)), 2) is want


class TestTableBranches:
    """The sweep with its head and top tables against the same sweep
    through eval_mod, with TABLE_ENTRIES = 0: equal reports."""

    @pytest.mark.parametrize("cfg", [
        SweepConfig(2, 4, 8),                           # C3
        SweepConfig(7, 3, 15),
        SweepConfig(2, 3, 8, a0=3, n_max=4),            # n_max = L + 1
        SweepConfig(3, 3, 9, a0=-1, n_max=4),
        SweepConfig(3, 4, 9, work_budget=100, samples=3000, seed=5),  # runs and gaps
    ])
    def test_reports_equal(self, monkeypatch, cfg):
        tabled = run_sweep(cfg)
        monkeypatch.setattr(sweep, "TABLE_ENTRIES", 0)
        assert run_sweep(cfg) == tabled
        assert tabled.disagreements == 0 and tabled.agree_minimal > 0

    @pytest.mark.parametrize("cfg", [
        SweepConfig(2, 4, 8),
        SweepConfig(3, 3, 9, a0=-1, n_max=4),
        SweepConfig(5, 2, 11),
    ])
    def test_tabled_box_builds_no_polynomial(self, monkeypatch, cfg):
        # every route reads the coefficient tuple; only the full-cycle
        # route past the entry cap builds the polynomial it walks
        want = run_sweep(cfg)

        def refuse(*args):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(sweep, "IntPolynomial", refuse)
        assert run_sweep(cfg) == want
        monkeypatch.setattr(sweep, "TABLE_ENTRIES", 0)
        with pytest.raises(AssertionError, match="a polynomial was built"):
            run_sweep(cfg)


def _flip_on(monkeypatch, name, chosen, degree):
    """Patch the `name` route that the sweep calls to invert its verdict
    on the chosen coefficient tuples (trailing zeros included).  The
    closed-form cores are read from criteria._CLOSED_FORMS and take a0,
    a1, a2 and the class sums, so they flip on those of the chosen tuples
    (each box below has no two tuples that share them); _class_core and
    _full_cycle_lifts, bound in sweep, take the tuple and the prime, and
    the latter the decision level too."""
    closed = name.startswith("_z")
    original = getattr(criteria if closed else sweep, name)
    if closed:
        prime, record = next((p, record) for p, (record, core)
                             in criteria._CLOSED_FORMS.items() if core is original)
        chosen = {(*c[:3], *criteria._class_sums(c, prime**2)) for c in chosen}

    def flipped(*args):
        result = original(*args)
        key = (*args[:3], *args[3]) if closed else args[0] + (0,) * (degree + 1 - len(args[0]))
        if key not in chosen:
            return result
        if isinstance(result, bool):
            return not result
        return (not result[0], *result[1:])

    if closed:
        monkeypatch.setitem(criteria._CLOSED_FORMS, prime, (record, flipped))
    else:
        monkeypatch.setattr(sweep, name, flipped)


class TestDisagreements:
    """A route that splits from the others on chosen tuples is counted
    once per tuple, and the lowest one is reported with every route's
    verdict, on both full-cycle branches, serially and across chunks."""

    @pytest.mark.parametrize("branch", ["table", "eval_mod"])
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("prime,degree,bound,a0,route,keys", [
        (2, 3, 4, 1, "_z2_core", ("closed", "delta", "full-cycle")),
        (2, 3, 4, 3, "_z2_core", ("closed", "delta", "full-cycle")),
        (3, 3, 4, 1, "_z3_core", ("closed", "delta", "full-cycle")),
        (3, 3, 4, 2, "_z3_core", ("closed", "delta", "full-cycle")),
        (3, 6, 2, 1, "_z3_core", ("closed", "delta", "full-cycle")),
        (2, 3, 4, 1, "_full_cycle_lifts", ("closed", "delta", "full-cycle")),
        (3, 3, 4, 2, "_full_cycle_lifts", ("closed", "delta", "full-cycle")),
        (5, 2, 6, 1, "_full_cycle_lifts", ("delta", "full-cycle")),
    ])
    def test_first_disagreement_reported(self, monkeypatch, branch, pooled,
                                         prime, degree, bound, a0, route, keys):
        if branch == "eval_mod":
            monkeypatch.setattr(sweep, "TABLE_ENTRIES", 0)
        pools = []
        if pooled:
            monkeypatch.setattr(_RecordingPool, "instances", pools)
            monkeypatch.setattr(sweep, "_pool", _RecordingPool)
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        box = bound**degree
        baseline = run_sweep(SweepConfig(prime, degree, bound, a0=a0))
        assert baseline.disagreements == 0
        # with two chunks the second starts at box // 2: a disagreement in
        # each, then one in the second chunk only
        for picks in ({3, box // 2 + 1, box - 1}, {box // 2 + 1, box - 1}):
            tuples = {(a0, *_index_to_tail(i, bound, degree)) for i in picks}
            with monkeypatch.context() as m:
                _flip_on(m, route, tuples, degree)
                rep = run_sweep(SweepConfig(prime, degree, bound, a0=a0,
                                            workers=2 if pooled else 1))
            first = (a0, *_index_to_tail(min(picks), bound, degree))
            truth = full_cycle_by_lifting(IntPolynomial(prime, first),
                                          decision_level(prime))
            flipped = "delta" if route == "_full_cycle_lifts" else "closed"
            assert rep.total == box and rep.disagreements == len(picks)
            assert rep.agree_minimal + rep.agree_nonminimal == box - len(picks)
            assert rep.first_counterexample == first
            assert rep.first_routes == {k: truth != (k == flipped) for k in keys}
            assert list(rep.first_routes) == list(keys)
        assert [len(pool.jobs) for pool in pools] == ([2, 2] if pooled else [])

    @pytest.mark.parametrize("branch", ["table", "eval_mod"])
    def test_class_route_reported(self, monkeypatch, branch):
        # p = 5, a1 and a2 in [0, 11): the rule runs on the 22 tuples with
        # a1 in {1, 6} and applies to the 6 of them with a2 in {0, 5, 10};
        # flipped there, each splits from the walks under its own key
        if branch == "eval_mod":
            monkeypatch.setattr(sweep, "TABLE_ENTRIES", 0)
        cfg = SweepConfig(5, 2, 11)
        assert run_sweep(cfg).disagreements == 0
        chosen = {(1, a1, a2) for a1 in (1, 6) for a2 in (0, 5, 10)}
        _flip_on(monkeypatch, "_class_core", chosen, 2)
        flipped, calls = sweep._class_core, []
        monkeypatch.setattr(sweep, "_class_core",
                            lambda c, p: calls.append(c) or flipped(c, p))
        rep = run_sweep(cfg)
        assert len(calls) == 22 and {c[1] for c in calls} == {1, 6}
        assert rep.disagreements == 6
        assert rep.first_counterexample == (1, 1, 0)
        assert list(rep.first_routes.items()) == [
            ("class", False), ("delta", True), ("full-cycle", True)]


class TestSampling:
    def test_budget_exceeded_without_samples(self):
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 4, 9, work_budget=100))

    def test_sampled_run_is_seeded_and_consistent(self):
        cfg = SweepConfig(3, 4, 9, work_budget=100, samples=50, seed=7)
        rep = run_sweep(cfg)
        assert rep.sampled and rep.total == 50
        assert rep.disagreements == 0
        again = run_sweep(cfg)
        assert (rep.agree_minimal, rep.agree_nonminimal) == (
            again.agree_minimal,
            again.agree_nonminimal,
        )

    def test_sample_count_capped_at_box(self):
        rep = run_sweep(SweepConfig(3, 1, 3, work_budget=2, samples=99))
        assert rep.total == 3

    def test_samples_ignored_when_box_fits(self):
        rep = run_sweep(SweepConfig(3, 1, 9, samples=2))
        assert not rep.sampled and rep.total == 9

    def test_negative_samples_rejected(self):
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 1, 9, samples=-1))
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 4, 9, work_budget=100, samples=-5))

    def test_tuples_weighed_above_the_decision_level(self):
        # 9 tuples at n_max = L + 1 weigh 27: over a budget of 20, so the
        # box is sampled, and 7 samples (21) are refused where 6 (18) run
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 1, 9, n_max=4, work_budget=20))
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(3, 1, 9, n_max=4, work_budget=20, samples=7))
        rep = run_sweep(SweepConfig(3, 1, 9, n_max=4, work_budget=20, samples=6))
        assert rep.sampled and rep.total == 6 and rep.disagreements == 0
        # at the decision level the weight is 1 and the box fits
        rep = run_sweep(SweepConfig(3, 1, 9, work_budget=20))
        assert not rep.sampled and rep.total == 9

    def test_tuples_weighed_by_the_decision_level_walk(self):
        # a tuple weighs ceil(p^L / 27): 1 at p = 5, 2 at p = 7
        rep = run_sweep(SweepConfig(5, 1, 5, work_budget=5))
        assert not rep.sampled and rep.total == 5
        rep = run_sweep(SweepConfig(7, 1, 7, work_budget=14))
        assert not rep.sampled and rep.total == 7
        with pytest.raises(PadicError, match="work budget"):
            run_sweep(SweepConfig(7, 1, 7, work_budget=13))
        with pytest.raises(PadicError, match="work budget"):
            run_sweep(SweepConfig(7, 1, 7, work_budget=13, samples=7))
        rep = run_sweep(SweepConfig(7, 1, 7, work_budget=13, samples=6))
        assert rep.sampled and rep.total == 6 and rep.disagreements == 0

    @pytest.mark.parametrize("samples", [None, 1])
    def test_large_prime_refused_at_once(self, samples):
        with pytest.raises(PadicError, match="work budget"):
            run_sweep(SweepConfig(100003, 1, 2, samples=samples))

    def test_sampled_box_up_to_the_largest_range(self):
        # rng.sample draws from a range, whose length must fit sys.maxsize
        # (2^63 - 1 on a 64-bit build): 2^62 tuples are sampled, 2^63 refused
        rep = run_sweep(SweepConfig(2, 62, 2, samples=1))
        assert rep.sampled and rep.total == 1 and rep.disagreements == 0
        with pytest.raises(PadicError, match=f"box of {2**63} tuples is too large"):
            run_sweep(SweepConfig(2, 63, 2, samples=1))

    def test_huge_n_max_refused_at_once(self):
        with pytest.raises(PadicError):
            run_sweep(SweepConfig(2, 1, 2, n_max=10**9, samples=1))


class TestWorkers:
    def test_worker_split_matches_serial(self):
        serial = run_sweep(SweepConfig(3, 3, 6))
        parallel = run_sweep(SweepConfig(3, 3, 6, workers=2))
        assert serial.total == parallel.total == 216
        assert serial.agree_minimal == parallel.agree_minimal
        assert serial.agree_nonminimal == parallel.agree_nonminimal
        assert serial.disagreements == parallel.disagreements == 0

    def test_more_workers_than_tuples(self):
        rep = run_sweep(SweepConfig(3, 1, 2, workers=8))
        assert rep.total == 2


class _RecordingPool:
    """Stand-in for sweep._pool's process pool that runs jobs in this
    process and records what the sweep asked of it."""

    instances = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.jobs = []
        _RecordingPool.instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        self.jobs = list(jobs)
        return [fn(job) for job in self.jobs]


class TestWorkerCap:
    @pytest.fixture
    def pools(self, monkeypatch):
        _RecordingPool.instances = []
        monkeypatch.setattr(sweep, "_pool", _RecordingPool)
        return _RecordingPool.instances

    @pytest.mark.parametrize("threads,cpus,box,want", [
        (64, 4, (3, 2, 3), 4),    # capped at the CPU count
        (64, 16, (3, 1, 3), 3),   # capped at the tuple count
        (3, 16, (3, 2, 3), 3),    # as asked
    ])
    def test_pool_and_chunks_capped(self, pools, monkeypatch, threads, cpus, box, want):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        rep = run_sweep(SweepConfig(*box, workers=threads))
        assert [pool.max_workers for pool in pools] == [want]
        assert len(pools[0].jobs) == want
        serial = run_sweep(SweepConfig(*box))
        assert (rep.total, rep.agree_minimal, rep.agree_nonminimal) == (
            serial.total, serial.agree_minimal, serial.agree_nonminimal)

    def test_single_cpu_runs_without_a_pool(self, pools, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 1)
        assert run_sweep(SweepConfig(3, 2, 3, workers=8)).total == 9
        assert pools == []

    def test_sampled_sweep_is_capped_too(self, pools, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        rep = run_sweep(SweepConfig(3, 4, 9, work_budget=100, samples=50, seed=7,
                                    workers=32))
        assert rep.sampled and rep.total == 50 and rep.disagreements == 0
        assert [pool.max_workers for pool in pools] == [2]
        assert [len(job[1]) for job in pools[0].jobs] == [25, 25]
