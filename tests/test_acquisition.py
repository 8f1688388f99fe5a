import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poolbo import acquisition
from poolbo.acquisition import (
    _CONSTRAINT_STREAM,
    AcquisitionResult,
    _least_margins,
    _winner_counts,
    constrained_qpmhi,
    estimate_qpmhi,
    estimate_qpo,
    qehvi_mc,
    random_select,
    select_batch,
    thompson_hvi,
)
from poolbo.bench import make_ablation_pool
from poolbo.generation import load_pool, read_pool
from poolbo.gp import Dataset, Posterior, fit, pool_posterior
from poolbo.pareto import FrontStack, ParetoFront, build_front, hvi_many, strictly_dominated_mask
from poolbo.seeds import derive_seed
from refimpl import (
    DiscretePosterior,
    best_subset_sum,
    broadcast_margins,
    greedy_joint_ehvi_trace,
    per_draw_qehvi_mc,
    per_step_thompson,
    tiered_batch,
    whole_draw_qpmhi,
)

REF = np.array([0.0, 0.0])
FRONT_PTS = np.array([[1.0, 2.0], [2.0, 1.0]])


def make_front():
    return build_front(FRONT_PTS, ["a", "b"], REF)


def deterministic(mean):
    """Posterior with zero variance: every draw returns the mean exactly."""
    mean = np.asarray(mean, dtype=float)
    n, m = mean.shape
    return Posterior(mean=mean, cov=np.zeros((m, n, n)), stochastic_idx=np.arange(n))


def gaussian(mean, scale=0.3, seed=0):
    mean = np.asarray(mean, dtype=float)
    n, m = mean.shape
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n, n)) * scale
    cov = a @ a.transpose(0, 2, 1) + 1e-8 * np.eye(n)[None, :, :]
    return Posterior(mean=mean, cov=cov, stochastic_idx=np.arange(n))


# atom tables reused across the enumeration tests; expected values below were
# produced by exhaustive enumeration of every joint outcome (refimpl)
ATOM_VALUES = [
    [[3.0, 3.0], [0.5, 0.5]],
    [[2.5, 2.5], [4.0, 1.2]],
    [[1.5, 2.6], [0.2, 0.2]],
    [[2.0, 1.0]],
]
ATOM_PROBS = [[0.5, 0.5], [0.6, 0.4], [0.3, 0.7], [1.0]]
ENUM_PROBS = np.array([0.5, 0.5, 0.0, 0.0])
ENUM_MEMBERSHIP = np.array([0.5, 1.0, 0.3, 1.0])


class TestQpmhi:
    def test_unique_deterministic_improver(self):
        """One candidate always improves, the others never do."""
        post = deterministic([[3.0, 3.0], [0.2, 0.2], [1.2, 0.4]])
        res = estimate_qpmhi(post, make_front(), n_samples=32, seed=1)
        assert np.array_equal(res.probs, [1.0, 0.0, 0.0])
        assert res.improving_fraction == 1.0
        assert np.array_equal(res.pareto_membership, [1.0, 0.0, 0.0])
        assert res.mean_hvi[0] == pytest.approx(6.0)

    def test_all_dominated_scores_zero(self):
        post = deterministic([[0.5, 0.5], [0.9, 1.9]])
        res = estimate_qpmhi(post, make_front(), n_samples=16, seed=2)
        assert np.array_equal(res.probs, [0.0, 0.0])
        assert res.improving_fraction == 0.0

    def test_ties_attribute_to_lowest_index(self):
        post = deterministic([[2.5, 2.5], [2.5, 2.5]])
        res = estimate_qpmhi(post, make_front(), n_samples=16, seed=3)
        assert np.array_equal(res.probs, [1.0, 0.0])

    def test_matches_exhaustive_enumeration(self):
        post = DiscretePosterior(ATOM_VALUES, ATOM_PROBS)
        res = estimate_qpmhi(post, make_front(), n_samples=20_000, seed=5)
        assert np.abs(res.probs - ENUM_PROBS).max() < 0.02
        assert np.abs(res.pareto_membership - ENUM_MEMBERSHIP).max() < 0.02
        assert abs(res.improving_fraction - 1.0) < 0.02
        # candidates 2 and 3 sometimes improve but are always beaten, so
        # their estimates must be exactly zero, not merely small
        assert res.probs[2] == 0.0
        assert res.probs[3] == 0.0

    def test_iid_candidates_share_equally(self):
        n = 4
        post = Posterior(
            mean=np.full((n, 2), 1.8),
            cov=np.stack([np.eye(n) * 0.25] * 2),
            stochastic_idx=np.arange(n),
        )
        res = estimate_qpmhi(post, make_front(), n_samples=4096, seed=23)
        share = res.improving_fraction / n
        bound = 4 * np.sqrt(0.25 / 4096)
        assert np.abs(res.probs - share).max() < bound

    def test_error_shrinks_with_draws(self):
        post = DiscretePosterior(ATOM_VALUES, ATOM_PROBS)
        front = make_front()
        errs = {}
        for n_samples in (128, 8192):
            res = estimate_qpmhi(post, front, n_samples=n_samples, seed=17)
            errs[n_samples] = np.abs(res.probs - ENUM_PROBS).max()
        assert errs[8192] < errs[128]
        assert errs[8192] < 0.02

    def test_empty_front_counts_every_upward_draw(self):
        front = build_front(np.zeros((0, 2)), [], REF)
        post = deterministic([[0.4, 0.7], [-1.0, 5.0]])
        res = estimate_qpmhi(post, front, n_samples=8, seed=0)
        assert np.array_equal(res.probs, [1.0, 0.0])
        assert np.array_equal(res.pareto_membership, [1.0, 1.0])
        assert res.mean_hvi[0] == pytest.approx(0.28)

    def test_same_seed_reproduces(self):
        post = gaussian([[2.0, 2.0], [1.5, 2.5], [0.5, 0.5]], seed=4)
        front = make_front()
        a = estimate_qpmhi(post, front, n_samples=128, seed=11)
        b = estimate_qpmhi(post, front, n_samples=128, seed=11)
        c = estimate_qpmhi(post, front, n_samples=128, seed=12)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.pareto_membership, b.pareto_membership)
        assert not np.array_equal(a.probs, c.probs)

    def test_rejects_bad_inputs(self):
        post = deterministic([[3.0, 3.0]])
        with pytest.raises(ValueError):
            estimate_qpmhi(post, make_front(), n_samples=0, seed=1)
        front_3d = build_front(np.array([[1.0, 1.0, 1.0]]), ["a"], np.zeros(3))
        with pytest.raises(ValueError):
            estimate_qpmhi(post, front_3d, n_samples=8, seed=1)


class TestPartition:
    """The per-candidate probabilities split the improving event exactly."""

    def test_probs_sum_to_improving_fraction(self):
        post = gaussian([[1.8, 1.8], [2.2, 0.8], [0.9, 2.1], [0.3, 0.3]], seed=8)
        # power-of-two draw count keeps every count/L exactly representable
        res = estimate_qpmhi(post, make_front(), n_samples=256, seed=21)
        assert res.probs.sum() == res.improving_fraction
        counts = res.probs * 256
        assert np.array_equal(counts, np.round(counts))

    def test_certain_improvement_sums_to_one(self):
        post = gaussian([[5.0, 5.0], [6.0, 4.0]], scale=0.05, seed=9)
        res = estimate_qpmhi(post, make_front(), n_samples=512, seed=33)
        assert res.improving_fraction == 1.0
        assert res.probs.sum() == 1.0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 5))
    def test_attribution_counts_partition_draws(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(-1.0, 1.0, size=(rows, n))
        wins = _winner_counts(deltas)
        probs, frac = wins / rows, float(wins.sum() / rows)
        counts = probs * rows
        assert np.allclose(counts, np.round(counts), atol=1e-12)
        assert counts.sum() == pytest.approx(frac * rows, abs=1e-9)
        assert counts.sum() == (deltas.max(axis=1) > 0).sum()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
    def test_pointwise_beaten_candidate_never_wins(self, seed, n):
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(0.0, 1.0, size=(20, n))
        # candidate n-1 never exceeds candidate 0, which also wins index ties
        deltas[:, -1] = deltas[:, 0] - rng.uniform(0.0, 0.5, size=20)
        probs = _winner_counts(deltas) / 20
        assert probs[-1] == 0.0


class TestSelectBatch:
    def result(self, probs, membership, mean_hvi):
        return AcquisitionResult(
            probs=np.asarray(probs, dtype=float),
            pareto_membership=np.asarray(membership, dtype=float),
            mean_hvi=np.asarray(mean_hvi, dtype=float),
            improving_fraction=float(np.sum(probs)),
            n_samples=64,
            seed=0,
        )

    def test_ranks_by_probability_then_membership_then_mean(self):
        res = self.result(
            probs=[0.5, 0.0, 0.3, 0.0, 0.0],
            membership=[1.0, 0.8, 1.0, 0.0, 0.2],
            mean_hvi=[9.0, 9.0, 9.0, 0.7, 0.1],
        )
        assert select_batch(res, 4) == [0, 2, 1, 4]
        assert select_batch(res, 5) == [0, 2, 1, 4, 3]

    def test_ties_break_to_lowest_index(self):
        res = self.result([0.2, 0.4, 0.4], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert select_batch(res, 2) == [1, 2]

    @given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=9), st.data())
    def test_top_q_sum_is_subset_optimal(self, raw, data):
        """Greedy top-q equals the best size-q subset by summed probability."""
        probs = np.asarray(raw) / (sum(raw) + 1.0)
        q = data.draw(st.integers(1, len(raw)))
        res = self.result(probs, np.ones(len(raw)), np.zeros(len(raw)))
        picked = select_batch(res, q)
        assert len(set(picked)) == q
        _, best_sum = best_subset_sum(probs, q)
        assert probs[picked].sum() == pytest.approx(best_sum, abs=1e-12)

    def test_truncates_when_pool_is_small(self, caplog):
        res = self.result([0.5, 0.5], [1.0, 1.0], [1.0, 2.0])
        with caplog.at_level("WARNING"):
            picked = select_batch(res, 5)
        assert picked == [0, 1]
        assert "truncating" in caplog.text

    def test_rejects_nonpositive_q(self):
        res = self.result([1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            select_batch(res, 0)

    def test_one_sort_is_the_three_ranked_passes(self):
        # tie-heavy scores on a few levels, -0.0 among them, for every q up to n + 1
        rng = np.random.default_rng(13)
        probs_levels = np.array([-0.0, 0.0, 0.0, 0.25, 0.5])
        levels = np.array([-0.0, 0.0, 0.5, 1.0])
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            res = self.result(probs_levels[rng.integers(0, 5, size=n)],
                              levels[rng.integers(0, 4, size=n)],
                              levels[rng.integers(0, 4, size=n)])
            for q in range(1, n + 2):
                assert select_batch(res, q) == tiered_batch(res, q)


class TestQpo:
    def test_matches_enumeration(self):
        post = DiscretePosterior(
            atom_values=[[[0.9], [0.1]], [[0.8], [1.5]], [[0.4]]],
            atom_probs=[[0.5, 0.5], [0.7, 0.3], [1.0]],
        )
        res = estimate_qpo(post, 0.5, n_samples=20_000, seed=7)
        assert np.abs(res.probs - np.array([0.35, 0.65, 0.0])).max() < 0.02
        assert abs(res.improving_fraction - 1.0) < 0.02
        assert res.probs[2] == 0.0

    def test_reduces_to_qpmhi_on_scalarized_front(self):
        """With front {best} and ref best-1 the two estimators coincide."""
        rng = np.random.default_rng(42)
        n = 30
        mean = rng.normal(size=(n, 1))
        a = rng.normal(size=(1, n, n)) * 0.4
        cov = a @ a.transpose(0, 2, 1) + 1e-8 * np.eye(n)[None]
        post = Posterior(mean=mean, cov=cov, stochastic_idx=np.arange(n))
        best = 0.3
        front = build_front(np.array([[best]]), ["inc"], np.array([best - 1.0]))
        via_qpo = estimate_qpo(post, best, n_samples=512, seed=9)
        via_qpmhi = estimate_qpmhi(post, front, n_samples=512, seed=9)
        assert np.array_equal(via_qpo.probs, via_qpmhi.probs)
        assert np.array_equal(via_qpo.pareto_membership, via_qpmhi.pareto_membership)
        assert np.array_equal(via_qpo.mean_hvi, via_qpmhi.mean_hvi)
        assert via_qpo.improving_fraction == via_qpmhi.improving_fraction
        assert select_batch(via_qpo, 8) == select_batch(via_qpmhi, 8)

    def test_requires_single_objective(self):
        post = deterministic([[1.0, 2.0]])
        with pytest.raises(ValueError):
            estimate_qpo(post, 0.0, n_samples=8, seed=0)


class TestNoCandidates:
    """A pool whose rows are all labeled leaves no open row to score."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_estimators_return_empty_scores(self, m):
        post = Posterior(mean=np.zeros((0, m)), cov=np.zeros((m, 0, 0)))
        results = [estimate_qpmhi(post, build_front(np.ones((1, m)), ["a"], np.zeros(m)),
                                  n_samples=16, seed=3)]
        if m == 1:
            results.append(estimate_qpo(post, 1.0, n_samples=16, seed=3))
        for res in results:
            assert res.n == 0
            assert res.probs.shape == res.pareto_membership.shape == res.mean_hvi.shape == (0,)
            assert res.improving_fraction == 0.0
            assert (res.n_samples, res.seed) == (16, 3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("maker", ["select_batch", "qehvi_mc", "thompson_hvi", "random_select"])
    def test_batch_makers_return_empty_batches(self, m, maker):
        post = Posterior(mean=np.zeros((0, m)), cov=np.zeros((m, 0, 0)))
        front = build_front(np.ones((1, m)), ["a"], np.zeros(m))
        make = {
            "select_batch": lambda: select_batch(estimate_qpmhi(post, front, n_samples=16, seed=3), 4),
            "qehvi_mc": lambda: qehvi_mc(post, front, q=4, n_samples=16, seed=3),
            "thompson_hvi": lambda: thompson_hvi(post, front, q=4, seed=3),
            "random_select": lambda: random_select(post.n, q=4, seed=3),
        }[maker]
        assert make() == []


class TestConstrained:
    def objective(self):
        return DiscretePosterior(ATOM_VALUES[:3], ATOM_PROBS[:3])

    def test_all_infeasible_yields_zeros(self):
        post = deterministic([[3.0, 3.0], [2.5, 2.5]])
        con = deterministic([[-1.0], [-2.0]])
        res = constrained_qpmhi(post, con, [0.0], make_front(), n_samples=32, seed=3)
        assert np.array_equal(res.probs, [0.0, 0.0])
        assert res.improving_fraction == 0.0

    def test_vacuous_thresholds_match_unconstrained_exactly(self):
        post = gaussian([[2.0, 2.0], [1.5, 2.5], [0.5, 0.5]], seed=6)
        con = deterministic([[0.0]] * 3)
        front = make_front()
        plain = estimate_qpmhi(post, front, n_samples=256, seed=14)
        gated = constrained_qpmhi(post, con, [-10.0], front, n_samples=256, seed=14)
        assert np.array_equal(plain.probs, gated.probs)
        assert np.array_equal(plain.pareto_membership, gated.pareto_membership)
        assert plain.improving_fraction == gated.improving_fraction

    def test_feasibility_gates_the_winner(self):
        # candidate 1 improves more but fails its constraint every draw
        post = deterministic([[2.5, 2.5], [3.0, 3.0]])
        con = deterministic([[1.0], [-1.0]])
        res = constrained_qpmhi(post, con, [0.0], make_front(), n_samples=16, seed=5)
        assert np.array_equal(res.probs, [1.0, 0.0])

    def test_matches_exhaustive_enumeration(self):
        con = DiscretePosterior(
            atom_values=[[[1.0], [-1.0]], [[2.0]], [[-3.0], [0.5]]],
            atom_probs=[[0.8, 0.2], [1.0], [0.4, 0.6]],
        )
        res = constrained_qpmhi(self.objective(), con, [0.0], make_front(),
                                n_samples=20_000, seed=7)
        assert np.abs(res.probs - np.array([0.4, 0.6, 0.0])).max() < 0.02
        assert abs(res.improving_fraction - 1.0) < 0.02

    def test_validates_shapes(self):
        post = deterministic([[3.0, 3.0], [2.0, 2.0]])
        con = deterministic([[0.0], [0.0]])
        with pytest.raises(ValueError):
            constrained_qpmhi(post, con, [0.0, 0.0], make_front(), n_samples=8, seed=1)
        short = deterministic([[0.0]])
        with pytest.raises(ValueError):
            constrained_qpmhi(post, short, [0.0], make_front(), n_samples=8, seed=1)


class TestDominatedSkip:
    """estimate_qpmhi scores only draws the front does not strictly dominate."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_bitwise_equal_to_scoring_every_draw(self, m, constrained):
        rng = np.random.default_rng(40 + m)
        pts = rng.uniform(0.2, 1.0, size=(12, m))
        front = build_front(pts, list(range(12)), np.zeros(m))
        n, n_samples, seed = 30, 256, 21
        post = gaussian(rng.uniform(0.3, 0.9, size=(n, m)), scale=0.05, seed=m)
        con, thresholds = None, None
        if constrained:
            con, thresholds = gaussian(rng.normal(size=(n, 1)), scale=0.3, seed=9), [0.0]
        res = estimate_qpmhi(post, front, n_samples, seed, constraint_post=con,
                             thresholds=thresholds)

        flat = post.sample(n_samples, seed).reshape(-1, m)
        dominated = strictly_dominated_mask(flat, front)
        assert 0.2 < dominated.mean() < 0.8
        feasible = None
        if constrained:
            con_draws = con.sample(n_samples, derive_seed(seed, _CONSTRAINT_STREAM))
            feasible = np.all(con_draws >= 0.0, axis=-1)
            assert 0.2 < feasible.mean() < 0.8
        deltas = hvi_many(flat, front).reshape(n_samples, n)
        wins = _winner_counts(deltas, feasible=feasible)
        probs, improving_fraction = wins / n_samples, float(wins.sum() / n_samples)
        assert np.array_equal(res.probs, probs)
        assert res.improving_fraction == improving_fraction
        assert np.array_equal(res.pareto_membership,
                              1.0 - dominated.reshape(n_samples, n).mean(axis=0))
        assert np.array_equal(res.mean_hvi, hvi_many(post.mean, front))
        if constrained:
            wrapped = constrained_qpmhi(post, con, thresholds, front, n_samples, seed)
            assert np.array_equal(wrapped.probs, res.probs)

    def test_constraint_arguments_go_together(self):
        post = deterministic([[3.0, 3.0]])
        with pytest.raises(ValueError):
            estimate_qpmhi(post, make_front(), 8, 1, constraint_post=deterministic([[0.0]]))
        with pytest.raises(ValueError):
            estimate_qpmhi(post, make_front(), 8, 1, thresholds=[0.0])


def random_atoms(rng, n, m, low, high):
    """DiscretePosterior over n candidates of one to three atoms each."""
    sizes = rng.integers(1, 4, size=n)
    return DiscretePosterior([rng.uniform(low, high, size=(k, m)) for k in sizes],
                             [rng.dirichlet(np.ones(k)) for k in sizes])


class TestDrawBlocks:
    """estimate_qpmhi walks its draws one SAMPLE_BLOCK at a time."""

    @pytest.mark.parametrize("kind", ["gaussian", "discrete"])
    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 200, 256])
    def test_bitwise_equal_to_whole_draw_reference(self, kind, constrained, m, n_samples):
        rng = np.random.default_rng(100 + m)
        pts = rng.uniform(0.2, 1.0, size=(12, m))
        front = build_front(pts, list(range(12)), np.zeros(m))
        n, seed = 30, 23
        con, thresholds = None, None
        if kind == "gaussian":
            post = gaussian(rng.uniform(0.3, 0.9, size=(n, m)), scale=0.05, seed=m)
            if constrained:
                con, thresholds = gaussian(rng.normal(size=(n, 1)), scale=0.3, seed=9), [0.0]
        else:
            post = random_atoms(rng, n, m, *{2: (0.3, 1.1), 3: (0.2, 0.9)}[m])
            if constrained:
                con, thresholds = random_atoms(rng, n, 2, -1.0, 1.0), [0.0, -0.5]
        got = estimate_qpmhi(post, front, n_samples, seed, constraint_post=con,
                             thresholds=thresholds)
        want = whole_draw_qpmhi(post, front, n_samples, seed, constraint_post=con,
                                thresholds=thresholds)
        if n_samples > 1:
            assert want.improving_fraction > 0.0 and 0.1 < want.pareto_membership.mean() < 0.9
        for name in ("probs", "pareto_membership", "mean_hvi"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.improving_fraction == want.improving_fraction

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m", [2, 3])
    def test_no_candidates_match_the_reference(self, constrained, m):
        post = Posterior(mean=np.zeros((0, m)), cov=np.zeros((m, 0, 0)))
        con = Posterior(mean=np.zeros((0, 1)), cov=np.zeros((1, 0, 0))) if constrained else None
        thresholds = [0.0] if constrained else None
        front = build_front(np.ones((1, m)), ["a"], np.zeros(m))
        for n_samples in (1, 65):
            got = estimate_qpmhi(post, front, n_samples, 3, constraint_post=con,
                                 thresholds=thresholds)
            want = whole_draw_qpmhi(post, front, n_samples, 3, constraint_post=con,
                                    thresholds=thresholds)
            for name in ("probs", "pareto_membership", "mean_hvi"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.improving_fraction == want.improving_fraction == 0.0

    def test_peak_memory_does_not_grow_with_the_draw_count(self):
        # the (L, u, m) draws alone are 2.5 MB at L = 256 and 9.8 MB at
        # L = 1,024; one block of them is 0.6 MB
        rng = np.random.default_rng(6)
        u, m = 600, 2
        post = gaussian(rng.uniform(0.3, 0.9, size=(u, m)), scale=0.02, seed=6)
        front = build_front(rng.uniform(0.2, 1.0, size=(20, m)), list(range(20)), np.zeros(m))
        post.sample(1, 0)  # factor the covariance before measuring
        peaks = []
        tracemalloc.start()
        try:
            for n_samples in (256, 1024):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                res = estimate_qpmhi(post, front, n_samples, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                assert res.improving_fraction > 0.0
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]


@pytest.fixture(scope="module")
def scored_pool(tmp_path_factory):
    """600-row ablation pool (candidates, objectives) with 60 labeled rows."""
    path = tmp_path_factory.mktemp("pool") / "pool.csv"
    make_ablation_pool(path, n=600, bits=24, seed=20240301)
    cands = load_pool(path)
    labeled = np.sort(np.random.default_rng(3).choice(len(cands), 60, replace=False))
    return cands, np.array(read_pool(path).labels), labeled


def pinned_posterior(cands, y, labeled):
    """Pool posterior with the labeled rows pinned at y, and the front of y."""
    data = Dataset(tuple(cands[i].id for i in labeled),
                   np.stack([cands[i].features for i in labeled]), y)
    lo = y.min(axis=0)
    front = build_front(y, data.ids, lo - 1e-6 * (y.max(axis=0) - lo))
    return pool_posterior(fit(data), np.stack([c.features for c in cands]), labeled, y), front


class TestRescalingInvariance:
    @staticmethod
    def qpmhi_on_labels(cands, objectives, labeled, scale):
        """qPMHI probs and top-20 batch with objectives and ref scaled by `scale`."""
        post, front = pinned_posterior(cands, objectives[labeled] * scale, labeled)
        res = estimate_qpmhi(post, front, n_samples=256, seed=7)
        return res.probs, select_batch(res, 20)

    @pytest.mark.parametrize("scale", [(1e-3, 1e-3), (1e-3, 1.0), (2.0 ** -10, 8.0), (1e3, 1.0)])
    def test_probs_and_batch_invariant_to_objective_scale(self, scored_pool, scale):
        cands, objectives, labeled = scored_pool
        probs, batch = self.qpmhi_on_labels(cands, objectives, labeled, np.ones(2))
        scaled_probs, scaled_batch = self.qpmhi_on_labels(cands, objectives, labeled,
                                                          np.array(scale))
        assert np.count_nonzero(probs) > 20
        assert np.array_equal(scaled_probs, probs)
        assert scaled_batch == batch


class TestQehvi:
    def test_deterministic_matches_exact_greedy(self):
        """Single-atom candidates make the Monte Carlo trace exactly greedy."""
        post = deterministic([[2.5, 0.5], [3.0, 3.0], [2.6, 2.6], [0.5, 3.5], [2.5, 0.5]])
        front = make_front()
        assert qehvi_mc(post, front, q=3, n_samples=1, seed=0) == [1, 3, 0]
        assert qehvi_mc(post, front, q=3, n_samples=7, seed=4) == [1, 3, 0]

    def test_stochastic_matches_exact_greedy(self):
        # expected greedy trace [0, 1, 2] computed by enumeration; smallest
        # step gap is 0.048 so 2000 shared draws resolve the ordering
        post = DiscretePosterior(
            atom_values=[
                [[2.8, 2.8], [0.5, 0.5]],
                [[3.2, 1.4], [1.2, 3.1]],
                [[2.2, 2.2], [2.4, 2.0]],
                [[0.6, 3.4], [3.4, 0.6]],
                [[1.1, 1.1]],
            ],
            atom_probs=[[0.7, 0.3], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [1.0]],
        )
        assert qehvi_mc(post, make_front(), q=3, n_samples=2000, seed=3) == [0, 1, 2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_objectives_match_exact_greedy(self, seed):
        """Zero-variance draws make the trace the exact greedy one, and
        Thompson's fantasy updates follow it while every step improves."""
        rng = np.random.default_rng(seed)
        ref = np.zeros(3)
        front_pts = rng.uniform(0.5, 2.0, size=(4, 3))
        front = build_front(front_pts, range(4), ref)
        mean = rng.uniform(0.8, 2.4, size=(7, 3))
        atoms = DiscretePosterior([row[None, :] for row in mean], [[1.0]] * 7)
        expected = greedy_joint_ehvi_trace(atoms, 3, front.points, ref)
        assert qehvi_mc(deterministic(mean), front, q=3, n_samples=2, seed=seed) == expected
        assert thompson_hvi(deterministic(mean), front, q=3, seed=seed) == expected

    def test_zero_variance_single_pick_is_best_mean(self):
        mean = np.array([[1.5, 2.5], [2.6, 2.6], [0.2, 0.2]])
        post = deterministic(mean)
        front = make_front()
        expected = int(np.argmax(hvi_many(mean, front)))
        assert qehvi_mc(post, front, q=1, n_samples=4, seed=2) == [expected]

    def test_full_pool_is_permutation(self):
        post = gaussian([[2.0, 2.0], [1.0, 1.5], [0.4, 2.4]], seed=5)
        picked = qehvi_mc(post, make_front(), q=3, n_samples=64, seed=8)
        assert sorted(picked) == [0, 1, 2]

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n_samples", [1, 7, 64, 65, 256])
    def test_matches_per_draw_reference(self, m, n_samples):
        rng = np.random.default_rng(10 * n_samples + m)
        front = build_front(rng.uniform(0.5, 2.0, size=(6, m)), range(6), np.zeros(m))
        post = gaussian(rng.uniform(0.5, 2.5, size=(24, m)), scale=0.2, seed=n_samples)
        picked = qehvi_mc(post, front, q=8, n_samples=n_samples, seed=m)
        assert picked == per_draw_qehvi_mc(post, front, q=8, n_samples=n_samples, seed=m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_empty_front_whole_pool_matches_per_draw_reference(self, m):
        post = gaussian(np.random.default_rng(m).uniform(0.0, 2.0, size=(12, m)), seed=m)
        front = ParetoFront.empty(np.zeros(m))
        picked = qehvi_mc(post, front, q=12, n_samples=65, seed=3)
        assert sorted(picked) == list(range(12))
        assert picked == per_draw_qehvi_mc(post, front, q=12, n_samples=65, seed=3)

    def test_pinned_pool_posterior_matches_per_draw_reference(self, scored_pool):
        cands, objectives, labeled = scored_pool
        post, front = pinned_posterior(cands, objectives[labeled], labeled)
        picked = qehvi_mc(post, front, q=20, n_samples=64, seed=11)
        assert not set(picked) & set(labeled.tolist())
        assert picked == per_draw_qehvi_mc(post, front, q=20, n_samples=64, seed=11)

    def test_pick_that_changes_no_front_leaves_gains_unchanged(self, monkeypatch):
        """Once (3, 3) joins every draw, the second pick is dominated in all of
        them: no front or box is rewritten and every candidate scores as before."""
        steps = []

        class Recording(FrontStack):
            def insert(self, values):
                boxes = self.boxes.copy()
                super().insert(values)
                gains = [self.gains(samples[:, i]) for i in range(samples.shape[1])]
                steps.append((gains, np.array_equal(boxes, self.boxes)))

        post = deterministic([[3.0, 3.0], [2.9, 2.9], [1.5, 2.5], [0.5, 0.5]])
        samples = post.sample(5, 2)
        monkeypatch.setattr(acquisition, "FrontStack", Recording)
        assert qehvi_mc(post, make_front(), q=3, n_samples=5, seed=2) == [0, 1, 2]
        (first, first_kept), (second, kept) = steps[:2]
        assert not first_kept and kept
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_truncates_and_validates(self):
        post = deterministic([[3.0, 3.0], [2.5, 2.5]])
        assert len(qehvi_mc(post, make_front(), q=9, n_samples=4, seed=1)) == 2
        with pytest.raises(ValueError):
            qehvi_mc(post, make_front(), q=0, n_samples=4, seed=1)


class TestThompson:
    def test_zero_variance_greedy_with_fantasy_updates(self):
        """After (3,3) joins, nothing improves; margins order the rest."""
        post = deterministic([[3.0, 3.0], [2.9, 2.9], [1.5, 2.5]])
        assert thompson_hvi(post, make_front(), q=3, seed=99) == [0, 1, 2]
        swapped = deterministic([[2.9, 2.9], [3.0, 3.0], [1.5, 2.5]])
        assert thompson_hvi(swapped, make_front(), q=3, seed=99) == [1, 0, 2]

    def test_single_pick_matches_single_draw_winner(self):
        post = gaussian([[2.5, 2.5], [2.0, 3.0], [3.0, 2.0]], scale=0.1, seed=7)
        front = make_front()
        for seed in (0, 1, 2, 3):
            res = estimate_qpmhi(post, front, n_samples=1, seed=seed)
            assert res.improving_fraction == 1.0
            assert thompson_hvi(post, front, q=1, seed=seed) == select_batch(res, 1)

    def test_batch_indices_are_distinct(self):
        post = gaussian([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [0.1, 0.1]], seed=10)
        picked = thompson_hvi(post, make_front(), q=4, seed=6)
        assert sorted(picked) == [0, 1, 2, 3]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_running_margin_is_the_broadcast_margin(self, m):
        # coarse levels make ties between coordinates, rows and front points;
        # a max and a min round nothing, so the running minimum is exact
        rng = np.random.default_rng(m)
        for _ in range(50):
            n, f = int(rng.integers(1, 40)), int(rng.integers(1, 20))
            values = rng.integers(-3, 4, size=(n, m)) / 2.0
            points = rng.integers(-3, 4, size=(f, m)) / 2.0
            assert np.array_equal(_least_margins(values, points), broadcast_margins(values, points))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("empty", [True, False])
    def test_matches_per_step_reference(self, m, empty):
        rng = np.random.default_rng(20 + m)
        ref = np.zeros(m)
        front = (ParetoFront.empty(ref) if empty
                 else build_front(rng.uniform(0.5, 2.0, size=(6, m)), range(6), ref))
        for seed in range(4):
            post = gaussian(rng.uniform(-0.2, 2.5, size=(30, m)), scale=0.2, seed=seed)
            picked = thompson_hvi(post, front, q=12, seed=seed)
            assert picked == per_step_thompson(post, front, q=12, seed=seed)

    @pytest.mark.parametrize("m", [2, 3])
    def test_pinned_pool_posterior_matches_per_step_reference(self, scored_pool, m):
        cands, objectives, labeled = scored_pool
        # a third objective drawn per row, so the m = 3 pool has labels too
        extra = np.random.default_rng(4).random((len(cands), 1))
        y = np.hstack([objectives, extra])[labeled, :m]
        post, front = pinned_posterior(cands, y, labeled)
        picked = thompson_hvi(post, front, q=40, seed=11)
        assert not set(picked) & set(labeled.tolist())
        assert picked == per_step_thompson(post, front, q=40, seed=11)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("empty", [True, False])
    def test_margin_fallback_matches_per_step_reference(self, m, empty):
        """Zero-variance draws on a coarse grid: once the best rows join the
        fantasy front nothing improves, so later steps take the margin
        fallback; with an empty front and every row below the reference in
        some objective, every step does, against the reference point."""
        rng = np.random.default_rng(m)
        ref = np.zeros(m)
        front = ParetoFront.empty(ref) if empty else build_front(np.ones((1, m)), ["a"], ref)
        mean = rng.integers(-2, 5, size=(25, m)) / 2.0
        if empty:
            mean[np.arange(25), rng.integers(m, size=25)] = rng.integers(-2, 1, size=25) / 2.0
        # a row that improves nothing now never does, so taking it is a fallback
        zero = hvi_many(mean, front) == 0.0
        assert zero.all() if empty else zero.sum() > 5
        post = deterministic(mean)
        picked = thompson_hvi(post, front, q=25, seed=0)
        assert sorted(picked) == list(range(25))
        assert picked == per_step_thompson(post, front, q=25, seed=0)

    def test_truncates_and_validates(self):
        post = deterministic([[3.0, 3.0]])
        assert thompson_hvi(post, make_front(), q=3, seed=0) == [0]
        with pytest.raises(ValueError):
            thompson_hvi(post, make_front(), q=0, seed=0)


class TestRandomSelect:
    def test_full_pool_is_permutation(self):
        assert sorted(random_select(6, 6, seed=1)) == list(range(6))

    def test_reproducible_per_seed(self):
        assert random_select(20, 5, seed=3) == random_select(20, 5, seed=3)
        assert random_select(20, 5, seed=3) != random_select(20, 5, seed=4)

    def test_truncates_and_validates(self):
        assert sorted(random_select(3, 10, seed=0)) == [0, 1, 2]
        with pytest.raises(ValueError):
            random_select(3, 0, seed=0)

    def test_roughly_uniform_over_seeds(self):
        hits = np.zeros(10)
        for seed in range(300):
            hits[random_select(10, 1, seed=seed)[0]] += 1
        assert hits.min() > 10  # each index expected 30 times


class TestResultSerialization:
    def test_score_vectors_validated(self):
        with pytest.raises(ValueError):
            AcquisitionResult(
                probs=np.array([1.5]),
                pareto_membership=np.array([1.0]),
                mean_hvi=np.array([0.0]),
                improving_fraction=1.0,
                n_samples=4,
                seed=0,
            )
        with pytest.raises(ValueError):
            AcquisitionResult(
                probs=np.array([0.5, 0.5]),
                pareto_membership=np.array([1.0]),
                mean_hvi=np.array([0.0, 0.0]),
                improving_fraction=1.0,
                n_samples=4,
                seed=0,
            )
