import itertools
import math
import random

import numpy as np
import pytest

from erbimatch import Matching
from erbimatch.evaluation import (
    DEFAULT_GRID,
    GroundTruth,
    benchmark,
    emit_report,
    evaluate,
    friedman_test,
    mean_ranks,
    nemenyi_cd,
    parse_report,
    sweep_report,
    threshold_sweep,
)
import erbimatch.matchers as matchers
from erbimatch.matchers import (
    _INTERVAL_FORMS,
    _PREPARED_RUNS,
    ALGORITHMS,
    BahConfig,
    Basis,
    _matching_at,
    get_matcher,
    match_bah,
)
from erbimatch.reference import REFERENCE_TRUE_PAIRS

from conftest import make_random_graph
from oracles import friedman_permutation_pvalue


class TestGroundTruth:
    def test_one_to_one_enforced(self):
        with pytest.raises(ValueError):
            GroundTruth([("a", "x"), ("a", "y")])
        with pytest.raises(ValueError):
            GroundTruth([("a", "x"), ("b", "x")])

    def test_empty(self):
        assert len(GroundTruth()) == 0


class TestEvaluate:
    IDS = (["a", "c"], ["b", "d"])

    def test_perfect_output(self):
        gt = GroundTruth([("a", "b"), ("c", "d")])
        m = Matching([(0, 0), (1, 1)])
        score = evaluate(m, gt, *self.IDS)
        assert (score.precision, score.recall, score.f_measure) == (1.0, 1.0, 1.0)

    def test_partial_recall(self):
        gt = GroundTruth([("a", "b"), ("c", "d")])
        score = evaluate(Matching([(0, 0)]), gt, *self.IDS)
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f_measure == pytest.approx(2 / 3)

    def test_no_overlap(self):
        gt = GroundTruth([("a", "b")])
        score = evaluate(Matching([(0, 1)]), gt, *self.IDS)  # (a, d)
        assert (score.precision, score.recall, score.f_measure) == (0.0, 0.0, 0.0)

    def test_empty_matching_convention(self):
        gt = GroundTruth([("a", "b")])
        score = evaluate(Matching(), gt, *self.IDS)
        assert (score.precision, score.recall, score.f_measure) == (0.0, 0.0, 0.0)

    def test_f1_matches_recomputation(self):
        gt = GroundTruth([("a", "b"), ("c", "d")])
        score = evaluate(Matching([(0, 0)]), gt, *self.IDS)
        p, r = score.precision, score.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert abs(score.f_measure - expected) < 1e-12


class TestThresholdSweep:
    def test_grid_defaults(self):
        assert len(DEFAULT_GRID) == 20
        assert DEFAULT_GRID[0] == 0.05 and DEFAULT_GRID[-1] == 1.0

    def test_reference_umc_sweep(self, g_ref):
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        result = threshold_sweep(g_ref, "umc", gt)
        for t, score in zip(result.grid, result.scores):
            if t <= 0.70:
                assert score.f_measure == 1.0, t
            else:
                assert score.f_measure < 1.0
        assert result.optimal_t == 0.70
        assert result.optimal_score.f_measure == 1.0

    def test_empty_ground_truth_ties_resolve_to_largest(self, g_ref):
        result = threshold_sweep(g_ref, "umc", GroundTruth())
        assert all(s.f_measure == 0.0 for s in result.scores)
        assert result.optimal_t == 1.00

    def test_single_point_grid(self, g_ref):
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        result = threshold_sweep(g_ref, "umc", gt, grid=[0.5])
        assert result.optimal_t == 0.5

    def test_callable_algorithm(self, g_ref):
        from erbimatch import match_umc

        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        byname = threshold_sweep(g_ref, "umc", gt)
        bycall = threshold_sweep(g_ref, match_umc, gt)
        assert byname == bycall

    def test_sweep_optimality_invariant(self, g_ref):
        gt = GroundTruth([("A1", "B1"), ("A2", "B2")])
        result = threshold_sweep(g_ref, "krc", gt)
        best = result.optimal_score.f_measure
        for t, score in zip(result.grid, result.scores):
            assert score.f_measure <= best
            if t > result.optimal_t:
                assert score.f_measure < best


# Small bah budget, so the per-threshold loop oracle stays fast.
SWEEP_CONFIG = {"bah": {"max_moves": 200, "rng_seed": 5},
                "bmc": {"basis": "right"}}


def _sweep_case(rng):
    """A random graph with tied weights and spare isolated nodes, a ground
    truth that names ids absent from the graph, and an unsorted grid with
    duplicates and both ends of [0, 1]."""
    g = make_random_graph(rng, max_side=9, density=0.5,
                          weight_grid=rng.choice([None, 2, 4, 20]), spare=2)
    rights = list(g.right_ids) + ["absent-right"]
    rng.shuffle(rights)
    pairs = [(l, r) for l, r in zip(g.left_ids + ("absent-left",), rights)
             if rng.random() < 0.6]
    grid = rng.sample(DEFAULT_GRID, rng.randint(1, 6)) + [0.0, 1.0, 0.5, 0.5]
    rng.shuffle(grid)
    return g, GroundTruth(pairs), grid


def _evaluate_each(graph, matcher, gt, grid):
    """Reference scores: the matcher at every t, scored by ``evaluate``."""
    return tuple(evaluate(matcher(graph, t), gt, graph.left_ids,
                          graph.right_ids) for t in grid)


class TestSweepEngine:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_equals_per_threshold_loop(self, name):
        config = SWEEP_CONFIG.get(name, {})
        m = get_matcher(name, **config)
        rng = random.Random(7)
        for case in range(60):
            g, gt, grid = _sweep_case(rng)
            if case % 10 == 0:
                gt = GroundTruth()
            fast = threshold_sweep(g, name, gt, grid=grid,
                                   matcher_config=config)
            loop = threshold_sweep(g, lambda graph, t: m(graph, t), gt,
                                   grid=grid)
            assert fast == loop
            assert fast.scores == _evaluate_each(g, m, gt, grid)

    @pytest.mark.parametrize("name", sorted(_INTERVAL_FORMS))
    def test_interval_filter_equals_matcher(self, name):
        form = _INTERVAL_FORMS[name]
        matcher = ALGORITHMS[name]
        rng = random.Random(11)
        for _ in range(60):
            g, _, grid = _sweep_case(rng)
            for t in grid:
                floor = rng.choice([0.0, t, rng.uniform(0.0, t)])
                assert _matching_at(form(g, floor), t) == matcher(g, t)

    @pytest.mark.parametrize("name, option", [
        ("rsr", None), ("krc", None), ("bmc", Basis.LEFT),
        ("bmc", Basis.RIGHT), ("bmc", Basis.AUTO),
        ("bah", BahConfig(max_moves=300, rng_seed=3)),
    ])
    def test_prepared_run_equals_matcher(self, name, option):
        prepare, run = _PREPARED_RUNS[name]
        options = () if option is None else (option,)
        rng = random.Random(13)
        for _ in range(60):
            g, _, grid = _sweep_case(rng)
            # one preparation shared by the whole grid, in any order
            shared = prepare(g, min(grid), option)
            for t in grid:
                floor = rng.choice([0.0, t, rng.uniform(0.0, t)])
                expected = ALGORITHMS[name](g, t, *options)
                assert run(prepare(g, floor, option), t) == expected
                assert run(shared, t) == expected

    def test_prepared_bah_traces_equal_matcher(self):
        prepare, run = _PREPARED_RUNS["bah"]
        config = BahConfig(max_moves=300, rng_seed=9)
        rng = random.Random(17)
        for _ in range(40):
            g, _, grid = _sweep_case(rng)
            shared = prepare(g, min(grid), config)
            for t in grid:
                expected: list[float] = []
                match_bah(g, t, config, value_trace=expected)
                for prepared in (shared, prepare(g, rng.uniform(0.0, t),
                                                 config)):
                    trace: list[float] = []
                    run(prepared, t, trace)
                    assert trace == expected

    def test_bah_time_limit_stops_every_run(self, g_ref, monkeypatch):
        """On a clock that advances one second per read, a 2.5 s limit
        stops every grid point's run at its third check, after 2048 moves,
        however many moves are allowed; the shared draw holds those 2048
        proposals and no more."""
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        bounded = BahConfig(max_moves=2048)
        expected = {t: [] for t in DEFAULT_GRID}
        for t, trace in expected.items():
            match_bah(g_ref, t, bounded, value_trace=trace)
        reference = threshold_sweep(g_ref, "bah", gt,
                                    matcher_config={"config": bounded})

        prepare, run = _PREPARED_RUNS["bah"]
        runs = []

        def traced_run(prepared, t):
            runs.append((prepared, t, []))
            return run(prepared, t, runs[-1][2])

        monkeypatch.setitem(_PREPARED_RUNS, "bah", (prepare, traced_run))
        ticks = itertools.count()
        monkeypatch.setattr(matchers.time, "perf_counter",
                            lambda: float(next(ticks)))
        sweep = threshold_sweep(g_ref, "bah", gt, matcher_config={
            "max_moves": 10**6, "time_limit": 2.5})
        monkeypatch.undo()

        # per run: the start, then the checks at moves 0, 1024 and 2048
        assert next(ticks) == 4 * len(DEFAULT_GRID)
        assert [t for _, t, _ in runs] == list(DEFAULT_GRID)
        assert all(trace == expected[t] for _, t, trace in runs)
        assert sweep == reference
        firsts, seconds, _ = runs[0][0][-1]
        assert all(prepared[-1][0] is firsts for prepared, _, _ in runs)
        assert len(firsts) == len(seconds) == 2048

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("bad", [-0.05, 1.5, float("nan")])
    def test_grid_out_of_range_rejected(self, name, bad, g_ref):
        with pytest.raises(ValueError):
            threshold_sweep(g_ref, name, GroundTruth(), grid=[0.5, bad])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_unknown_matcher_option_rejected(self, name, g_ref):
        with pytest.raises(ValueError, match="unexpected matcher options"):
            threshold_sweep(g_ref, name, GroundTruth(),
                            matcher_config={"bogus": 1})

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_empty_grid_rejected(self, name, g_ref):
        with pytest.raises(ValueError, match="non-empty"):
            threshold_sweep(g_ref, name, GroundTruth(), grid=[])


class TestBenchmark:
    def test_statistics_sanity(self, g_ref):
        result = benchmark(g_ref, "umc", 0.5, repetitions=4)
        assert result.repetitions == 4
        assert result.stddev >= 0.0
        assert result.mean >= min(result.times)
        assert all(t >= 0 for t in result.times)

    def test_single_repetition_zero_stddev(self, g_ref):
        result = benchmark(g_ref, "cnc", 0.5, repetitions=1)
        assert result.stddev == 0.0

    def test_validates_repetitions(self, g_ref):
        with pytest.raises(ValueError):
            benchmark(g_ref, "cnc", 0.5, repetitions=0)


class TestMeanRanks:
    def test_constant_order(self):
        ranks = mean_ranks([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        assert ranks.tolist() == [1.0, 2.0]

    def test_fractional_ties(self):
        ranks = mean_ranks([[0.5, 0.5], [0.5, 0.5]])
        assert ranks.tolist() == [1.5, 1.5]

    def test_hand_ranked_matrix(self):
        matrix = [
            [0.3, 0.2, 0.1],   # ranks 1 2 3
            [0.1, 0.3, 0.2],   # ranks 3 1 2
            [0.2, 0.2, 0.9],   # ranks 2.5 2.5 1
        ]
        assert mean_ranks(matrix).tolist() == pytest.approx(
            [(1 + 3 + 2.5) / 3, (2 + 1 + 2.5) / 3, (3 + 2 + 1) / 3])


def _friedman_statistic(matrix):
    return friedman_test(matrix).statistic


class TestFriedman:
    def test_identical_columns_do_not_reject(self):
        matrix = np.tile([0.4, 0.4, 0.4], (10, 1))
        result = friedman_test(matrix)
        assert result.statistic == pytest.approx(0.0, abs=1e-9)
        assert not result.reject

    def test_dominance_rejects_and_agrees_with_permutation_oracle(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.3, 0.5, size=(20, 3))
        base[:, 0] += 0.4  # one algorithm always best, others comparable
        result = friedman_test(base)
        assert result.reject
        pvalue = friedman_permutation_pvalue(base.copy(), _friedman_statistic)
        assert (pvalue < 0.05) == result.reject

    def test_no_rejection_agrees_with_permutation_oracle(self):
        # decisive null case; near the alpha boundary the asymptotic
        # chi-square and the exact permutation reference may differ
        rng = np.random.default_rng(0)
        noise = rng.uniform(0.4, 0.6, size=(12, 3))
        result = friedman_test(noise)
        pvalue = friedman_permutation_pvalue(noise.copy(), _friedman_statistic)
        assert pvalue > 0.2 and not result.reject

    def test_paper_scale_dominant_matrix_rejects(self):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(0.2, 0.6, size=(739, 8))
        matrix[:, 5] += 0.5
        assert friedman_test(matrix).reject

    def test_statistic_matches_scipy_on_tie_free_data(self):
        from scipy.stats import friedmanchisquare

        rng = np.random.default_rng(5)
        matrix = rng.uniform(size=(15, 4))  # continuous, so no ties
        stat, _ = friedmanchisquare(*[matrix[:, j] for j in range(4)])
        assert friedman_test(matrix).statistic == pytest.approx(stat)

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        matrix = rng.uniform(size=(15, 4))
        transformed = np.exp(3 * matrix) + 1
        assert friedman_test(matrix).statistic == pytest.approx(
            friedman_test(transformed).statistic)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            friedman_test(np.ones((1, 3)))
        with pytest.raises(ValueError):
            friedman_test(np.ones((5, 2)))


class TestNemenyi:
    def test_paper_scale_critical_distance(self):
        cd = nemenyi_cd(8, 739, 0.05)
        assert 0.36 <= cd <= 0.40
        assert cd == pytest.approx(3.030878 * math.sqrt(8 * 9 / (6 * 739)))

    def test_quadrupling_inputs_halves_cd(self):
        assert nemenyi_cd(5, 100) == pytest.approx(2 * nemenyi_cd(5, 400))

    def test_two_algorithms_formula(self):
        assert nemenyi_cd(2, 50) == pytest.approx(1.959964 * math.sqrt(6 / 300))

    def test_cd_monotone_in_k_and_n(self):
        assert nemenyi_cd(9, 100) > nemenyi_cd(8, 100)
        assert nemenyi_cd(8, 200) < nemenyi_cd(8, 100)

    def test_untabulated_inputs_rejected(self):
        with pytest.raises(ValueError):
            nemenyi_cd(25, 100)
        with pytest.raises(ValueError):
            nemenyi_cd(8, 100, alpha=0.10)
        with pytest.raises(ValueError):
            nemenyi_cd(8, 1)

    def test_tables_match_scipy_oracle(self):
        from scipy.stats import chi2, studentized_range

        from erbimatch.critical_values import CHI2_CRITICAL, NEMENYI_Q

        for alpha, row in CHI2_CRITICAL.items():
            for df, value in row.items():
                assert value == pytest.approx(chi2.ppf(1 - alpha, df), abs=2e-4)
        for alpha, row in NEMENYI_Q.items():
            for k, value in row.items():
                expected = studentized_range.ppf(1 - alpha, k, np.inf) / math.sqrt(2)
                assert value == pytest.approx(expected, abs=2e-4)


class TestReports:
    def test_sweep_round_trip(self, g_ref, tmp_path):
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        sweep = threshold_sweep(g_ref, "umc", gt)
        payload = sweep_report(sweep, algorithm="umc", config={"threshold": "sweep"})
        path = tmp_path / "report.json"
        emit_report(payload, path)
        assert parse_report(path) == payload

    def test_csv_rows_cover_grid(self, g_ref, tmp_path):
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        sweep = threshold_sweep(g_ref, "umc", gt)
        payload = sweep_report(sweep, algorithm="umc")
        path = tmp_path / "report.csv"
        emit_report(payload, path, fmt="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(DEFAULT_GRID)
        assert lines[0].startswith("dataset,algorithm,threshold")

    def test_deterministic_bytes(self, g_ref, tmp_path):
        gt = GroundTruth(REFERENCE_TRUE_PAIRS)
        payloads = []
        for run in range(2):
            sweep = threshold_sweep(g_ref, "krc", gt)
            payload = sweep_report(sweep, algorithm="krc")
            path = tmp_path / f"r{run}.json"
            emit_report(payload, path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_two_algorithm_stats_payload(self):
        ranks = mean_ranks([[0.9, 0.1], [0.8, 0.3]])
        payload = {"kind": "stats",
                   "mean_ranks": {"umc": ranks[0], "cnc": ranks[1]}}
        assert set(payload["mean_ranks"]) == {"umc", "cnc"}
