import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn import sweep
from padicdyn.padic import PadicError
from padicdyn.sweep import SweepConfig, _index_to_tail, _split, run_sweep


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
    tuple of a box, for constant terms other than 1 and negative ones
    (no alternate form applies there)."""

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
    """Stand-in for ProcessPoolExecutor that runs jobs in this process
    and records what the sweep asked of it."""

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
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _RecordingPool)
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
