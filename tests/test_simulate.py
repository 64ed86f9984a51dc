"""Monte Carlo harness tests: reproducibility, law agreement, grading."""

import ast
import concurrent.futures
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from cccd.densities import Beta, GeneralLinear, Uniform
from cccd.digraph import _cell_gammas
from cccd.exact import p_uniform_fraction
from cccd.simulate import (
    _REDRAW_KEY_BASE,
    BATCH_REPS,
    ComparisonVerdict,
    SimulationPlan,
    _batch_counts,
    _draw,
    _redraw_row,
    _stream,
    _usable_cpus,
    compare,
    run,
)

UNIFORM = Uniform()

P5 = float(p_uniform_fraction(5))


def two_anchor_prediction(n):
    p = float(p_uniform_fraction(n))
    return {1: 1.0 - p, 2: p}


class _GridUniform(Uniform):
    """Uniform draws rounded down to a 1/64 grid, so rows often repeat a point."""

    def _quantile(self, u):
        return np.floor(64.0 * u) / 64.0


class _PointMass(Uniform):
    """Every draw lands on 1/2, so every row of two or more points ties."""

    def _quantile(self, u):
        return np.full_like(u, 0.5)


# recorded from the per-cell mask kernel that preceded the rank-based one, on
# the Philox streams of the ``philox_streams`` fixture; a change means the
# stream layout or a float decision moved
PINNED_COUNTS = [
    (dict(fx=UNIFORM, fy=(0.1, 0.35, 0.6), n=8, reps=5000, seed=2026),
     {1: 5, 2: 222, 3: 1520, 4: 2248, 5: 919, 6: 86}),
    (dict(fx=UNIFORM, fy=UNIFORM, n=7, m=4, reps=5000, seed=2027),
     {1: 54, 2: 576, 3: 1638, 4: 1813, 5: 762, 6: 153, 7: 4}),
    (dict(fx=Beta(2, 5), fy=Beta(2, 5), n=12, m=4, reps=5000, seed=4243),
     {1: 15, 2: 191, 3: 862, 4: 1633, 5: 1446, 6: 731, 7: 115, 8: 7}),
    # the benchmark's Beta shape, counted while Beta quantiles came from betaincinv
    (dict(fx=Beta(2, 2), fy=Beta(2, 2), n=200, m=5, reps=4096, seed=2028),
     {4: 7, 5: 124, 6: 636, 7: 1378, 8: 1254, 9: 592, 10: 105}),
    # about a third of these rows repeat a point and take their cells from a redraw
    # written into the kernel's output; counted before its work arrays became (cells, reps)
    (dict(fx=_GridUniform(), fy=(0.1, 0.35, 0.6), n=8, reps=1200, seed=5),
     {2: 35, 3: 335, 4: 524, 5: 277, 6: 29}),
]

# the same plans on the package's own SFC64 streams
SFC64_COUNTS = [(kwargs, counts) for (kwargs, _), counts in zip(PINNED_COUNTS, [
    {1: 1, 2: 220, 3: 1520, 4: 2201, 5: 945, 6: 113},
    {1: 50, 2: 577, 3: 1639, 4: 1776, 5: 823, 6: 128, 7: 7},
    {1: 13, 2: 189, 3: 868, 4: 1666, 5: 1484, 6: 629, 7: 140, 8: 11},
    {3: 1, 4: 6, 5: 103, 6: 631, 7: 1394, 8: 1295, 9: 567, 10: 99},
    {2: 44, 3: 308, 4: 575, 5: 242, 6: 31},
], strict=True)]


class TestPlanValidation:
    def test_fixed_anchors_normalized(self):
        plan = SimulationPlan(fx=UNIFORM, fy=[1.0, 0.0], n=3)
        assert plan.fy == (0.0, 1.0)
        assert plan.m == 2
        assert not plan.random_anchors
        assert plan.gamma_cap == 3

    def test_m_must_match_fixed_anchors(self):
        with pytest.raises(ValueError, match="disagrees"):
            SimulationPlan(fx=UNIFORM, fy=[0.0, 1.0], n=3, m=3)

    def test_duplicate_anchors_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            SimulationPlan(fx=UNIFORM, fy=[0.5, 0.5], n=2)

    @pytest.mark.parametrize("fy", [(math.nan,), (0.5, math.nan), (0.5, math.nan, math.nan),
                                    (math.inf,), (0.2, -math.inf)])
    def test_non_finite_anchors_rejected(self, fy):
        # NaN fails both support comparisons, so only a finiteness check keeps it out
        with pytest.raises(ValueError, match="finite"):
            SimulationPlan(fx=UNIFORM, fy=fy, n=5, reps=4096)

    def test_fixed_anchors_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="nonempty 1-d sequence"):
            SimulationPlan(fx=UNIFORM, fy=[[0.2, 0.4], [0.6, 0.8]], n=3)

    def test_anchors_outside_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            SimulationPlan(fx=UNIFORM, fy=[0.2, 1.3], n=2)

    def test_reps_and_n_and_parallelism_bounds(self):
        with pytest.raises(ValueError, match="reps"):
            SimulationPlan(fx=UNIFORM, fy=[0.5], n=2, reps=0)
        with pytest.raises(ValueError, match="n must"):
            SimulationPlan(fx=UNIFORM, fy=[0.5], n=0)
        with pytest.raises(ValueError, match="parallelism"):
            SimulationPlan(fx=UNIFORM, fy=[0.5], n=2, parallelism=0)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError, match="64"):
            SimulationPlan(fx=UNIFORM, fy=[0.5], n=2, seed=2**64)
        with pytest.raises(ValueError, match="64"):
            SimulationPlan(fx=UNIFORM, fy=[0.5], n=2, seed=-1)

    def test_random_anchors_need_m(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            SimulationPlan(fx=UNIFORM, fy=UNIFORM, n=2)

    def test_support_mismatch_rejected(self):
        wide = GeneralLinear(0.0, (0.0, 2.0))
        with pytest.raises(ValueError, match="support"):
            SimulationPlan(fx=UNIFORM, fy=wide, n=2, m=2)

    def test_fx_must_be_model(self):
        with pytest.raises(TypeError):
            SimulationPlan(fx="uniform", fy=[0.5], n=2)


class TestRunExamples:
    def test_single_point_always_gamma_one(self):
        plan = SimulationPlan(fx=UNIFORM, fy=[0.0, 1.0], n=1, reps=500, seed=7)
        assert run(plan) == {1: 500}

    def test_uniform_five_points_matches_closed_form(self):
        plan = SimulationPlan(fx=UNIFORM, fy=[0.0, 1.0], n=5, reps=200_000, seed=20260815)
        counts = run(plan)
        assert set(counts) == {1, 2}
        verdict = compare(counts, two_anchor_prediction(5))
        assert verdict.passed
        phat = counts[2] / plan.reps
        sigma = math.sqrt(P5 * (1 - P5) / plan.reps)
        assert abs(phat - P5) <= 4 * sigma

    def test_many_anchors_cap_gamma_at_n(self):
        plan = SimulationPlan(fx=UNIFORM, fy=UNIFORM, n=3, m=50, reps=2_000, seed=11)
        counts = run(plan)
        assert sum(counts.values()) == 2_000
        assert max(counts) <= 3

    def test_counts_sum_to_reps_and_respect_bound(self):
        for seed, n, m in [(1, 4, 1), (2, 2, 5), (3, 7, 3)]:
            plan = SimulationPlan(fx=UNIFORM, fy=UNIFORM, n=n, m=m, reps=4_000, seed=seed)
            counts = run(plan)
            assert sum(counts.values()) == 4_000
            assert min(counts) >= 1
            assert max(counts) <= min(n, 2 * m)


class TestDeterminism:
    def test_identical_plans_identical_counts(self):
        kwargs = dict(fx=UNIFORM, fy=UNIFORM, n=5, m=3, reps=10_000, seed=99)
        assert run(SimulationPlan(**kwargs)) == run(SimulationPlan(**kwargs))

    def test_parallelism_does_not_change_counts(self):
        base = dict(fx=UNIFORM, fy=UNIFORM, n=6, m=2, reps=30_000, seed=5150)
        serial = run(SimulationPlan(parallelism=1, **base))
        threaded = run(SimulationPlan(parallelism=8, **base))
        assert serial == threaded

    # five full batches and a short one, so worker counts of 2, 3 and 7 split them unevenly
    @pytest.mark.parametrize("kwargs", [
        dict(fx=UNIFORM, fy=(0.1, 0.35, 0.6), n=8),
        dict(fx=UNIFORM, fy=UNIFORM, n=7, m=4),
        dict(fx=Beta(2, 2), fy=Beta(2, 2), n=20, m=3),
    ], ids=["fixed", "random", "beta"])
    def test_worker_counts_split_batches_without_changing_counts(self, monkeypatch, kwargs):
        monkeypatch.setattr("cccd.simulate._usable_cpus", lambda: 8)   # so 3 and 7 workers run
        reps = 5 * BATCH_REPS + 17
        counts = [run(SimulationPlan(reps=reps, seed=31, parallelism=p, **kwargs)) for p in (1, 2, 3, 7)]
        assert sum(counts[0].values()) == reps
        assert all(c == counts[0] for c in counts[1:])

    @pytest.mark.parametrize("parallelism, reps, threads", [
        (1, 3 * BATCH_REPS, 0), (4, BATCH_REPS, 0), (2, 3 * BATCH_REPS, 1),
        (3, 5 * BATCH_REPS + 17, 2), (8, 3 * BATCH_REPS, 2),
    ])
    def test_caller_is_worker_zero_beside_the_pool_threads(self, monkeypatch, parallelism, reps, threads):
        monkeypatch.setattr("cccd.simulate._usable_cpus", lambda: 8)
        pools, seen = [], []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr("cccd.simulate._batch_counts",
                            lambda plan, b: (seen.append((threading.get_ident(), b)), _batch_counts(plan, b))[1])
        run(SimulationPlan(fx=UNIFORM, fy=(0.25, 0.75), n=4, reps=reps, seed=8, parallelism=parallelism))
        assert pools == ([threads] if threads else [])
        n_batches = -(-reps // BATCH_REPS)
        workers = {}
        for ident, batch in seen:
            workers.setdefault(ident, []).append(batch)
        assert len(workers) == threads + 1
        # worker w of k counts batches w, w + k, ..., in order; the caller is worker 0
        assert workers[threading.get_ident()] == list(range(0, n_batches, threads + 1))
        assert sorted(workers.values()) == [list(range(w, n_batches, threads + 1)) for w in range(threads + 1)]

    @pytest.mark.parametrize("cpus, parallelism, workers", [(2, 1000, 2), (3, 1000, 3), (4, 2, 2), (1, 8, 1)])
    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch, cpus, parallelism, workers):
        pools = []

        class InlinePool:
            """Records max_workers and runs each submitted share at once, starting no thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr("cccd.simulate._usable_cpus", lambda: cpus)
        reps = 5 * BATCH_REPS + 17
        kwargs = dict(fx=UNIFORM, fy=(0.25, 0.75), n=4, reps=reps, seed=8)
        counts = run(SimulationPlan(parallelism=parallelism, **kwargs))
        assert pools == ([workers - 1] if workers > 1 else [])
        assert counts == run(SimulationPlan(parallelism=1, **kwargs))

    def test_usable_cpus_reads_the_affinity_mask_or_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

    def test_partial_final_batch(self):
        plan = SimulationPlan(fx=UNIFORM, fy=[0.0, 1.0], n=5, reps=BATCH_REPS + 1, seed=3)
        counts = run(plan)
        assert sum(counts.values()) == BATCH_REPS + 1

    def test_counts_are_pinned(self, philox_streams):
        for kwargs, want in PINNED_COUNTS:
            assert run(SimulationPlan(**kwargs)) == want

    def test_counts_are_pinned_on_sfc64_streams(self):
        for kwargs, want in SFC64_COUNTS:
            assert run(SimulationPlan(**kwargs)) == want

    def test_only_stream_builds_a_generator(self):
        # every Monte Carlo number of the package comes from simulate._stream
        package = Path(__file__).resolve().parents[1] / "src" / "cccd"
        sources = sorted(package.glob("*.py"))
        assert sources
        offenders = []
        for path in sources:
            tree = ast.parse(path.read_text())
            allowed = set()
            if path.name == "simulate.py":
                stream = next(node for node in tree.body
                              if isinstance(node, ast.FunctionDef) and node.name == "_stream")
                allowed = {id(node) for node in ast.walk(stream)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                    if any(name == "random" or name.startswith("numpy.random") for name in names):
                        offenders.append((path.name, node.lineno))
                elif (isinstance(node, ast.Call) and id(node) not in allowed
                      and ast.unparse(node.func).startswith(("np.random.", "numpy.random."))):
                    offenders.append((path.name, node.lineno))
        assert offenders == []

    def test_stream_is_a_function_of_seed_and_word(self):
        draws = _stream(2**32, 5).random(8)
        assert np.array_equal(draws, _stream(2**32, 5).random(8))
        # the words of SeedSequence([seed, word]) would alias these two pairs
        assert not np.array_equal(draws, _stream(0, 1 + 5 * 2**32).random(8))
        assert not np.array_equal(_stream(7, 3).random(8), _stream(7, _REDRAW_KEY_BASE + 3).random(8))
        assert not np.array_equal(_stream(7, 3).random(8), _stream(3, 7).random(8))

    def test_seed_changes_counts(self):
        base = dict(fx=UNIFORM, fy=UNIFORM, n=5, m=3, reps=10_000)
        assert run(SimulationPlan(seed=1, **base)) != run(SimulationPlan(seed=2, **base))


class TestPerCellLaw:
    def test_middle_cell_is_one_plus_bernoulli(self):
        rng = np.random.default_rng(424242)
        anchors = np.array([0.25, 0.6])
        reps, n = 200_000, 6
        xs = np.sort(rng.random((reps, n)), axis=1)
        cells, _ = _cell_gammas(xs, anchors)
        assert set(np.unique(cells[:, 1])) <= {0, 1, 2}
        idx = (xs[:, :, None] >= anchors[None, None, :]).sum(axis=2)
        counts = (idx == 1).sum(axis=1)
        assert ((cells[:, 1] == 0) == (counts == 0)).all()
        for t in range(1, n + 1):
            bucket = counts == t
            size = int(bucket.sum())
            if size < 1_000:
                continue
            p_t = float(p_uniform_fraction(t))
            phat = float((cells[bucket, 1] == 2).mean())
            if t == 1:
                assert phat == 0.0
                continue
            z = (phat - p_t) / math.sqrt(p_t * (1 - p_t) / size)
            assert abs(z) <= 4.0

    def test_end_cells_count_occupancy_only(self):
        rng = np.random.default_rng(7)
        anchors = np.array([0.3, 0.8])
        xs = np.sort(rng.random((5_000, 4)), axis=1)
        cells, _ = _cell_gammas(xs, anchors)
        idx = (xs[:, :, None] >= anchors[None, None, :]).sum(axis=2)
        assert (cells[:, 0] == (idx == 0).any(axis=1)).all()
        assert (cells[:, 2] == (idx == 2).any(axis=1)).all()


class TestCompare:
    def test_matching_prediction_passes(self):
        counts = run(SimulationPlan(fx=UNIFORM, fy=[0.0, 1.0], n=5, reps=50_000, seed=77))
        verdict = compare(counts, two_anchor_prediction(5))
        assert isinstance(verdict, ComparisonVerdict)
        assert verdict.verdict == "pass"
        assert verdict.threshold == 4.0
        assert [atom[0] for atom in verdict.per_atom] == [1, 2]
        assert verdict.statistic < 16.0

    def test_wrong_prediction_fails_loudly(self):
        counts = run(SimulationPlan(fx=UNIFORM, fy=[0.0, 1.0], n=5, reps=200_000, seed=20260815))
        verdict = compare(counts, {1: 0.5, 2: 0.5})
        assert verdict.verdict == "fail"
        worst = max(abs(atom[3]) for atom in verdict.per_atom)
        assert 40.0 < worst < 62.0

    def test_empty_empirical_raises(self):
        with pytest.raises(ValueError, match="empty"):
            compare({}, {1: 1.0})
        with pytest.raises(ValueError, match="empty"):
            compare({1: 0}, {1: 1.0})

    def test_mass_on_impossible_atom_fails_with_infinite_z(self):
        verdict = compare({1: 90, 3: 10}, {1: 1.0})
        assert verdict.verdict == "fail"
        scores = {atom[0]: atom[3] for atom in verdict.per_atom}
        assert scores[3] == math.inf
        assert verdict.statistic == math.inf

    def test_certain_atom_with_full_mass_passes(self):
        verdict = compare({1: 500}, {1: 1.0})
        assert verdict.passed
        assert verdict.per_atom == ((1, 1.0, 1.0, 0.0),)

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
    def test_predicted_atom_outside_the_unit_interval_raises(self, bad):
        with pytest.raises(ValueError, match=r"predicted\[2\]: probability must lie in \[0, 1\]"):
            compare({1: 60, 2: 40}, {1: 0.5, 2: bad})

    def test_threshold_is_adjustable(self):
        counts = {1: 560, 2: 440}
        loose = compare(counts, {1: 0.5, 2: 0.5}, threshold=10.0)
        tight = compare(counts, {1: 0.5, 2: 0.5}, threshold=2.0)
        assert loose.passed and not tight.passed
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                compare(counts, {1: 1.0}, threshold=bad)


class TestChunkedBatches:
    def test_chunks_of_a_few_rows_leave_counts_unchanged(self, monkeypatch, request):
        plans = [
            dict(fx=UNIFORM, fy=(0.1, 0.35, 0.6), n=8, reps=BATCH_REPS + 300, seed=2026),
            dict(fx=UNIFORM, fy=UNIFORM, n=7, m=4, reps=BATCH_REPS + 300, seed=2027),
            # about a third of these rows repeat a point and are redrawn by
            # replicate index
            dict(fx=_GridUniform(), fy=(0.1, 0.35, 0.6), n=8, reps=1200, seed=5),
        ]
        want = [run(SimulationPlan(**kwargs)) for kwargs in plans]
        redrawn, drawn = [], []
        monkeypatch.setattr("cccd.simulate._redraw_row",
                            lambda plan, r: (redrawn.append(r), _redraw_row(plan, r))[1])
        monkeypatch.setattr("cccd.simulate._draw", lambda plan, rng, rows: (
            drawn.append(rows * (plan.n + (plan.m if plan.random_anchors else 0))), _draw(plan, rng, rows))[1])
        monkeypatch.setattr("cccd.simulate._CHUNK_VALUES", 64)   # 4 to 8 rows a chunk
        assert [run(SimulationPlan(**kwargs)) for kwargs in plans] == want
        assert len(set(redrawn)) == len(redrawn) > 300
        assert max(drawn) <= 64
        request.getfixturevalue("philox_streams")
        for kwargs, pinned in PINNED_COUNTS:
            assert run(SimulationPlan(**kwargs)) == pinned


class TestTieHandling:
    def test_tie_flags_mark_duplicates_and_anchor_hits(self):
        ys = np.array([[0.3, 0.7]])
        assert _cell_gammas(np.array([[0.1, 0.1, 0.5]]), ys)[1][0]
        assert _cell_gammas(np.array([[0.1, 0.3, 0.5]]), ys)[1][0]
        assert not _cell_gammas(np.array([[0.1, 0.4, 0.5]]), ys)[1][0]
        assert _cell_gammas(np.array([[0.2, 0.4]]), np.array([[0.5, 0.5]]))[1][0]

    def test_redraw_row_is_deterministic_and_clean(self):
        plan = SimulationPlan(fx=UNIFORM, fy=UNIFORM, n=4, m=2, reps=10, seed=123)
        xs1, ys1 = _redraw_row(plan, 3)
        xs2, ys2 = _redraw_row(plan, 3)
        assert (xs1 == xs2).all() and (ys1 == ys2).all()
        assert not _cell_gammas(xs1, ys1)[1][0]
        xs3, _ = _redraw_row(plan, 4)
        assert (xs1 != xs3).any()

    def test_persistent_ties_raise_after_cap(self, monkeypatch):
        plan = SimulationPlan(fx=UNIFORM, fy=[0.5], n=2, reps=10, seed=1)
        calls = []
        monkeypatch.setattr(
            "cccd.simulate._cell_gammas",
            lambda xs, ys: (calls.append(1), (np.ones((xs.shape[0], 2), dtype=np.int64),
                                              np.ones(xs.shape[0], dtype=bool)))[1],
        )
        with pytest.raises(ValueError, match="degenerate"):
            _redraw_row(plan, 0)
        assert len(calls) == 100

    def test_a_model_that_always_ties_raises_from_any_worker(self):
        plan = SimulationPlan(fx=_PointMass(), fy=[0.25], n=2, reps=3 * BATCH_REPS, seed=1, parallelism=3)
        with pytest.raises(ValueError, match="tied points"):
            run(plan)
