import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolbo.pareto import (
    FrontIndex,
    FrontStack,
    MetricRecord,
    ParetoFront,
    _dominated_by,
    build_front,
    fraction_recovered,
    front_from_dict,
    front_to_dict,
    hvi_many,
    hypervolume,
    non_dominated_mask,
    read_metrics_csv,
    relative_hvi,
    save_front,
    strictly_dominated_mask,
    update_front,
    write_metrics_csv,
)
from refimpl import (
    dominates,
    folded_front,
    hvi_by_inclusion_exclusion,
    mc_box_union_volume,
    pairwise_non_dominated_mask,
    slab_recursion_boxes,
    union_box_volume,
)

coord = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)


def point_lists(m, max_points=8):
    return st.lists(st.tuples(*([coord] * m)), min_size=0, max_size=max_points)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def unit_arrays(m, max_points, min_points=0):
    rows = st.lists(st.tuples(*([unit] * m)), min_size=min_points, max_size=max_points)
    return rows.map(lambda r: np.asarray(r, dtype=float).reshape(len(r), m))


def mask_dominates(a, b) -> bool:
    """Whether a strictly dominates b, as both dominance masks decide it."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    by_pair = not non_dominated_mask(np.stack([a, b]))[1]
    front = ParetoFront(points=a[None, :], ids=("a",), ref=np.minimum(a, b) - 1.0)
    assert bool(strictly_dominated_mask(b[None, :], front)[0]) == by_pair
    return by_pair


class TestDominates:
    def test_strict_dominance(self):
        assert mask_dominates((2.0, 3.0), (1.0, 3.0))
        assert mask_dominates((2.0, 3.0), (1.0, 2.0))
        assert mask_dominates((2.0, 3.0, 1.0), (1.0, 3.0, 1.0))

    def test_equal_vectors_do_not_dominate(self):
        assert not mask_dominates((1.0, 2.0), (1.0, 2.0))
        assert not mask_dominates((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    def test_incomparable_pair(self):
        assert not mask_dominates((2.0, 1.0), (1.0, 2.0))
        assert not mask_dominates((1.0, 2.0), (2.0, 1.0))
        assert not mask_dominates((2.0, 1.0, 1.0), (1.0, 1.0, 2.0))

    def test_dimension_mismatch_raises(self):
        front = build_front([(1.0, 2.0)], ["a"], (0.0, 0.0))
        with pytest.raises(ValueError, match="dimensions must match"):
            strictly_dominated_mask([(1.0, 2.0, 3.0)], front)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            non_dominated_mask([(np.nan, 1.0), (0.0, 0.0)])
        with pytest.raises(ValueError):
            strictly_dominated_mask([(np.inf, 0.0)], build_front([(1.0, 1.0)], ["a"], (0.0, 0.0)))

    @given(st.lists(coord, min_size=1, max_size=5))
    def test_irreflexive(self, vec):
        assert not mask_dominates(vec, vec)

    @given(st.lists(st.tuples(coord, coord), min_size=2, max_size=2))
    def test_asymmetric(self, pair):
        a, b = pair
        if mask_dominates(a, b):
            assert not mask_dominates(b, a)

    @given(
        st.lists(coord, min_size=2, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=4),
    )
    def test_transitive_on_constructed_chain(self, base, up, down):
        m = min(len(base), len(up), len(down))
        b = np.asarray(base[:m])
        a = b + np.asarray(up[:m]) + 1e-3
        c = b - np.asarray(down[:m]) - 1e-3
        assert mask_dominates(a, b) and mask_dominates(b, c)
        assert mask_dominates(a, c)


class TestDominanceMasksOnTies:
    """Both public masks against the pairwise definition on half-integer
    levels, where first-objective ties, duplicates and -0.0 are common."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_masks_match_pairwise_dominance(self, m):
        rng = np.random.default_rng(m)
        levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        ref = np.full(m, -2.0)
        for _ in range(500):
            n, k = rng.integers(0, 10, size=2)
            pts = levels[rng.integers(0, 6, size=(n, m))]
            others = levels[rng.integers(0, 6, size=(k, m))]
            if n and rng.random() < 0.5:  # others repeat some points exactly
                others = np.vstack([others, pts[rng.integers(0, n, size=3)]])
            front = build_front(others, range(len(others)), ref)
            expected = [any(dominates(p, y) for p in others) for y in pts]
            assert np.array_equal(strictly_dominated_mask(pts, front), expected)
            assert np.array_equal(non_dominated_mask(pts),
                                  [not any(dominates(p, y) for p in pts) for y in pts])


class TestDominanceMasksAcrossChunks:
    """_dominated_by beyond two objectives against the pairwise definition,
    on ties, equal points and -0.0, on both sides of its chunk boundary of
    2**16 // F rows."""

    @staticmethod
    def pairwise(points, others):
        ge = (others[None, :, :] >= points[:, None, :]).all(axis=-1)
        gt = (others[None, :, :] > points[:, None, :]).any(axis=-1)
        return (ge & gt).any(axis=1)

    @pytest.mark.parametrize("m", [1, 3, 4, 6])
    def test_ties_and_equal_points_match_pairwise(self, m):
        rng = np.random.default_rng(60 + m)
        levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        for _ in range(300):
            n, k = rng.integers(0, 12, size=2)
            pts = levels[rng.integers(0, 6, size=(n, m))]
            others = levels[rng.integers(0, 6, size=(k, m))]
            if n:  # others repeat some points exactly
                others = np.vstack([others, pts[rng.integers(0, n, size=3)]])
            expected = [any(dominates(p, y) for p in others) for y in pts]
            assert np.array_equal(_dominated_by(pts, others), expected)

    @pytest.mark.parametrize("m", [1, 3, 4, 6])
    @pytest.mark.parametrize("n_others", [1, 60])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundary_matches_pairwise(self, m, n_others, offset):
        rng = np.random.default_rng(m * 100 + n_others)
        others = rng.integers(0, 4, size=(n_others, m)) / 2.0
        pts = rng.integers(-1, 6, size=(2 ** 16 // n_others + offset, m)) / 2.0
        assert np.array_equal(_dominated_by(pts, others), self.pairwise(pts, others))

    @pytest.mark.parametrize("m", [1, 3, 4, 6])
    def test_more_others_than_a_chunk_takes_one_row_chunks(self, m):
        rng = np.random.default_rng(70 + m)
        others = rng.integers(0, 5, size=(2 ** 16 + 3, m)) / 2.0
        pts = np.vstack([rng.integers(0, 6, size=(4, m)) / 2.0, others[-1], np.full(m, 9.0)])
        got = _dominated_by(pts, others)
        assert np.array_equal(got, self.pairwise(pts, others))
        assert not got[-1]


class TestNonDominatedMask:
    def test_basic(self):
        pts = [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5), (2.0, 2.0)]
        np.testing.assert_array_equal(non_dominated_mask(pts), [False, False, False, True])

    def test_duplicates_all_kept(self):
        pts = [(1.0, 1.0), (1.0, 1.0), (0.0, 0.0)]
        np.testing.assert_array_equal(non_dominated_mask(pts), [True, True, False])

    @given(point_lists(2, max_points=12))
    def test_matches_bruteforce(self, pts):
        pts = np.asarray(pts, dtype=float).reshape(len(pts), 2)
        mask = non_dominated_mask(pts)
        for i in range(len(pts)):
            dominated = any(dominates(pts[j], pts[i]) for j in range(len(pts)) if j != i)
            assert mask[i] == (not dominated)


    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40),
           st.sampled_from(["random", "tied", "duplicated", "grid"]))
    def test_two_objective_sweep_matches_pairwise(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        if kind == "tied":
            pts[:, seed % 2] = rng.integers(0, 3, size=n)
        elif kind == "duplicated":
            pts = pts[rng.integers(0, max(1, n // 3), size=n)]
        elif kind == "grid":
            # -0.0 and 0.0 compare equal and must tie like any other pair
            pts = np.array([-0.0, 0.0, 1.0, 2.0])[rng.integers(0, 4, size=(n, 2))]
        np.testing.assert_array_equal(non_dominated_mask(pts), pairwise_non_dominated_mask(pts))

    def test_three_objective_mask_across_chunks_matches_pairwise(self):
        # 1,500 rows make the all-pairs loop take two chunks
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 6, size=(1500, 3)).astype(float)
        np.testing.assert_array_equal(non_dominated_mask(pts), pairwise_non_dominated_mask(pts))

    def test_two_objective_screen_across_chunks_matches_pairwise(self):
        # 2 * 4096 + 1 rows make the sweep take three chunks, the last of
        # one row; half-integer levels tie with the front's coordinates
        rng = np.random.default_rng(4)
        front = build_front(rng.integers(0, 12, size=(60, 2)) / 2.0, range(60), (-1.0, -1.0))
        pts = rng.integers(-1, 13, size=(2 * 4096 + 1, 2)) / 2.0
        ge = (front.points[None, :, :] >= pts[:, None, :]).all(axis=-1)
        gt = (front.points[None, :, :] > pts[:, None, :]).any(axis=-1)
        np.testing.assert_array_equal(strictly_dominated_mask(pts, front), (ge & gt).any(axis=1))


class TestUpdateFront:
    def make_front(self):
        return build_front([(1.0, 3.0), (3.0, 1.0)], ["a", "b"], ref=(0.0, 0.0))

    def test_dominating_point_replaces_dominated(self):
        front = update_front(self.make_front(), (2.0, 4.0), "c")
        assert set(front.ids) == {"b", "c"}
        assert front.size == 2

    def test_incomparable_point_joins(self):
        front = update_front(self.make_front(), (2.0, 2.0), "c")
        assert set(front.ids) == {"a", "b", "c"}

    def test_dominated_point_rejected(self):
        before = self.make_front()
        after = update_front(before, (0.5, 0.5), "c")
        assert after.ids == before.ids
        np.testing.assert_array_equal(after.points, before.points)

    def test_equal_duplicate_rejected(self):
        before = self.make_front()
        after = update_front(before, (1.0, 3.0), "dup")
        assert after.ids == before.ids

    def test_point_not_above_ref_rejected(self):
        before = self.make_front()
        after = update_front(before, (0.0, 5.0), "c")
        assert after.ids == before.ids

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions must match"):
            update_front(self.make_front(), (1.0, 2.0, 3.0), "c")

    @given(point_lists(2, max_points=8), st.randoms(use_true_random=False))
    def test_insertion_order_invariant(self, pts, rnd):
        ref = (-9.0, -9.0)
        ordered = build_front(pts, range(len(pts)), ref)
        shuffled = list(enumerate(pts))
        rnd.shuffle(shuffled)
        permuted = build_front([p for _, p in shuffled], [i for i, _ in shuffled], ref)
        a = sorted(map(tuple, ordered.points.tolist()))
        b = sorted(map(tuple, permuted.points.tolist()))
        assert a == b

    @given(point_lists(2, max_points=8))
    def test_front_members_never_dominated_by_input(self, pts):
        ref = (-9.0, -9.0)
        front = build_front(pts, range(len(pts)), ref)
        for p in pts:
            assert not strictly_dominated_mask(front.points, build_front([p], [0], ref)).any()


# ties, duplicate rows, rows on the reference and -0.0 beside 0.0
tied = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])


class TestUnvalidatedFold:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_fold_is_a_validated_front(self, m, data):
        # update_front builds its result without __post_init__; each step
        # must equal the validated ParetoFront of the same parts, through
        # duplicates, ties and points on the reference
        rows = data.draw(st.lists(st.tuples(*([st.one_of(tied, coord)] * m)), max_size=14))
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=4))
        ref = np.full(m, data.draw(st.sampled_from([-0.5, -0.0, 0.0])))
        front = ParetoFront.empty(ref)
        for i, row in enumerate(rows):
            front = update_front(front, row, f"p{i}")
            checked = ParetoFront(points=front.points, ids=front.ids, ref=front.ref)
            assert checked.ids == front.ids and isinstance(front.ids, tuple)
            assert checked.points.tobytes() == front.points.tobytes()
            assert front.points.dtype == float and front.points.shape == checked.points.shape
            assert checked.ref.tobytes() == front.ref.tobytes()
            assert front.hypervolume() == checked.hypervolume()


class TestBuildFront:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_fold(self, m, data):
        rows = data.draw(st.lists(st.tuples(*([st.one_of(tied, coord)] * m)), max_size=12))
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=4))
        pts = np.asarray(rows, dtype=float).reshape(len(rows), m)
        ref = np.full(m, data.draw(st.sampled_from([-0.5, -0.0, 0.0])))
        ids = [f"p{i}" for i in range(pts.shape[0])]
        got, want = build_front(pts, ids, ref), folded_front(pts, ids, ref)
        assert got.ids == want.ids
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_unchecked_result_is_a_validated_front(self, m, data):
        # build_front skips __post_init__'s checks; its result must equal the
        # validated ParetoFront of the same parts
        rows = data.draw(st.lists(st.tuples(*([st.one_of(tied, coord)] * m)), max_size=12))
        if rows:
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=4))
        pts = np.asarray(rows, dtype=float).reshape(len(rows), m)
        ref = np.full(m, data.draw(st.sampled_from([-0.5, -0.0, 0.0])))
        got = build_front(pts, [f"p{i}" for i in range(len(rows))], ref)
        checked = ParetoFront(points=got.points, ids=got.ids, ref=got.ref)
        assert checked.ids == got.ids and isinstance(got.ids, tuple)
        assert got.points.dtype == float and got.points.shape == checked.points.shape
        assert checked.points.tobytes() == got.points.tobytes()
        assert checked.ref.tobytes() == got.ref.tobytes()
        assert got.hypervolume() == checked.hypervolume()

    def test_ids_must_match_points(self):
        with pytest.raises(ValueError, match="ids length 1 does not match point count 2"):
            build_front([(1.0, 2.0), (2.0, 1.0)], ["a"], (0.0, 0.0))
        with pytest.raises(ValueError, match="ids length 3 does not match point count 2"):
            build_front([(1.0, 2.0), (2.0, 1.0)], ["a", "b", "c"], (0.0, 0.0))


class TestHypervolume:
    def test_two_point_front(self):
        # rectangle union pinned by inclusion-exclusion: 1*2 + 2*1 - 1*1
        assert hypervolume([(1.0, 2.0), (2.0, 1.0)], (0.0, 0.0)) == pytest.approx(3.0, abs=1e-15)

    def test_empty_set(self):
        assert hypervolume(np.empty((0, 2)), (0.0, 0.0)) == 0.0

    def test_single_point_box(self):
        assert hypervolume([(1.0, 1.0)], (0.0, 0.0)) == pytest.approx(1.0)

    def test_unit_cube(self):
        assert hypervolume([(1.0, 1.0, 1.0)], (0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_one_objective(self):
        assert hypervolume([(3.0,), (5.0,), (4.0,)], (1.0,)) == pytest.approx(4.0)

    def test_points_below_ref_contribute_nothing(self):
        assert hypervolume([(1.0, 1.0), (-1.0, 5.0)], (0.0, 0.0)) == pytest.approx(1.0)

    def test_point_on_ref_boundary_contributes_nothing(self):
        assert hypervolume([(0.0, 5.0)], (0.0, 0.0)) == 0.0

    def test_duplicate_points_counted_once(self):
        assert hypervolume([(1.0, 1.0), (1.0, 1.0)], (0.0, 0.0)) == pytest.approx(1.0)

    def test_dimension_above_limit_raises(self):
        with pytest.raises(ValueError, match="at most 6"):
            hypervolume([tuple(range(7))], tuple([-1.0] * 7))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensions must match"):
            hypervolume([(1.0, 2.0, 3.0)], (0.0, 0.0))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_inclusion_exclusion_random_sets(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(25):
            n = rng.integers(1, 9)
            pts = rng.uniform(-1.0, 4.0, size=(n, m))
            ref = np.full(m, -1.5)
            expected = union_box_volume(pts, ref)
            assert hypervolume(pts, ref) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_rejection_sampling(self, m):
        rng = np.random.default_rng(7 + m)
        pts = rng.uniform(0.0, 3.0, size=(8, m))
        ref = np.zeros(m)
        est, se = mc_box_union_volume(pts, ref, 200_000, seed=11)
        assert abs(hypervolume(pts, ref) - est) <= 3.0 * se

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_thin_l_shaped_front_keeps_precision(self, m, eps):
        # three points along each axis, eps-thin across it: the volume is
        # O(eps**(m-1)) inside a unit enclosing box, so a formula that
        # subtracts from the enclosing box would lose digits
        pts = np.vstack([np.full((3, m), [[eps], [2 * eps], [3 * eps]])
                         + np.outer([1.0 - eps, 0.7 - 2 * eps, 0.4 - 3 * eps], np.eye(m)[i])
                         for i in range(m)])
        ref = np.zeros(m)
        assert hypervolume(pts, ref) == pytest.approx(union_box_volume(pts, ref), rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_front_hypervolume_builds_the_index_hvi_reuses(self, m):
        front = ParetoFront.empty(np.zeros(m)) if m > 1 else build_front([(0.7,)], ["a"], (0.0,))
        assert "index" not in vars(front)
        assert front.hypervolume() == (0.7 if m == 1 else 0.0)
        index = vars(front)["index"]
        hvi_many(np.ones((3, m)), front)
        assert hvi_many([np.ones(m)], front)[0] > 0.0
        assert front.index is index

    @given(point_lists(3, max_points=6), st.tuples(coord, coord, coord))
    def test_adding_point_never_decreases(self, pts, extra):
        ref = (-9.0, -9.0, -9.0)
        base = hypervolume(np.asarray(pts, dtype=float).reshape(len(pts), 3), ref)
        grown = hypervolume(list(pts) + [extra], ref)
        assert grown >= base - 1e-12


class TestHvi:
    def front(self):
        return build_front([(1.0, 2.0), (2.0, 1.0)], ["a", "b"], (0.0, 0.0))

    def test_extending_point(self):
        # pinned by inclusion-exclusion on the enlarged union
        assert hvi_many([(2.0, 2.0)], self.front())[0] == pytest.approx(1.0, abs=1e-15)

    def test_gap_filling_point(self):
        assert hvi_many([(1.5, 1.5)], self.front())[0] == pytest.approx(0.25, abs=1e-15)

    def test_dominated_point_zero(self):
        assert hvi_many([(0.5, 0.5)], self.front())[0] == 0.0

    def test_duplicate_of_front_point_zero(self):
        assert hvi_many([(1.0, 2.0)], self.front())[0] == 0.0

    def test_point_below_ref_zero(self):
        assert hvi_many([(-1.0, 5.0)], self.front())[0] == 0.0

    def test_empty_front_gives_box_volume(self):
        front = ParetoFront.empty((0.0, 0.0))
        assert hvi_many([(2.0, 3.0)], front)[0] == pytest.approx(6.0)

    def test_single_objective_is_shortfall_to_best(self):
        front = build_front([(0.7,)], ["a"], (0.0,))
        assert hvi_many([(0.9,)], front)[0] == 0.9 - 0.7
        assert hvi_many([(0.7,)], front)[0] == 0.0
        assert hvi_many([(0.2,)], front)[0] == 0.0
        assert np.array_equal(
            hvi_many(np.array([[0.9], [0.2], [-1.0]]), front),
            [0.9 - 0.7, 0.0, 0.0],
        )
        empty = ParetoFront.empty((0.5,))
        assert hvi_many([(0.9,)], empty)[0] == pytest.approx(0.4)

    @given(point_lists(2, max_points=7), st.tuples(coord, coord))
    def test_consistent_with_hv_difference(self, pts, y):
        ref = (-9.0, -9.0)
        front = build_front(pts, range(len(pts)), ref)
        direct = union_box_volume(list(front.points) + [y], ref) - union_box_volume(front.points, ref)
        assert hvi_many([y], front)[0] == pytest.approx(direct, rel=1e-10, abs=1e-10)

    @given(point_lists(3, max_points=5), st.tuples(coord, coord, coord))
    def test_consistent_with_oracle_three_objectives(self, pts, y):
        ref = (-9.0, -9.0, -9.0)
        front = build_front(pts, range(len(pts)), ref)
        expected = hvi_by_inclusion_exclusion(y, front.points, ref)
        assert hvi_many([y], front)[0] == pytest.approx(expected, rel=1e-10, abs=1e-10)

    @given(point_lists(2, max_points=7), st.lists(st.tuples(coord, coord), max_size=20))
    def test_hvi_many_matches_loop(self, pts, queries):
        ref = (-9.0, -9.0)
        front = build_front(pts, range(len(pts)), ref)
        queries = np.asarray(queries, dtype=float).reshape(len(queries), 2)
        batch = hvi_many(queries, front)
        for row, expected in zip(queries, batch):
            assert hvi_many([row], front)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_iff_dominated_or_below_ref(self):
        rng = np.random.default_rng(3)
        front = build_front(rng.uniform(0, 3, size=(6, 2)), range(6), (0.0, 0.0))
        for _ in range(200):
            y = rng.uniform(-0.5, 3.5, size=2)
            value = hvi_many([y], front)[0]
            weakly_dominated = bool(np.any(np.all(front.points >= y, axis=1)))
            expect_zero = weakly_dominated or not np.all(y > front.ref)
            assert (value == 0.0) == expect_zero


def staircase_gains(front, pts):
    """Two-objective improvement by the staircase formula: one product per
    segment, added in order of ascending first objective."""
    order = np.argsort(front.points[:, 0])
    xs, ys = front.points[order, 0], front.points[order, 1]
    left = np.concatenate(([front.ref[0]], xs))
    right = np.concatenate((xs, [np.inf]))
    height = np.concatenate((ys, [front.ref[1]]))
    out = np.zeros(pts.shape[0])
    for lo_x, hi_x, lo_y in zip(left, right, height):
        width = np.clip(np.minimum(pts[:, 0], hi_x) - lo_x, 0.0, None)
        out += width * np.clip(pts[:, 1] - lo_y, 0.0, None)
    return out


def in_order_sum(terms):
    """Column sums of a (boxes, k) array, one row at a time from the first."""
    out = np.zeros(terms.shape[1])
    for row in terms:
        out = out + row
    return out


def in_order_gains(index, pts):
    """FrontIndex gains as an explicit in-order sum over its boxes."""
    terms = np.ones((index.lo.shape[1], pts.shape[0]))
    for j in range(pts.shape[1]):
        terms *= np.clip(np.minimum(pts[:, j], index.hi[j][:, None]) - index.lo[j][:, None], 0.0, None)
    return in_order_sum(terms)


class TestFrontIndex:
    @given(point_lists(2, max_points=10), st.lists(st.tuples(coord, coord), max_size=30))
    def test_two_objectives_bitwise_equal_to_staircase(self, pts, queries):
        front = build_front(pts, range(len(pts)), (-9.0, -9.0))
        queries = np.asarray(queries, dtype=float).reshape(len(queries), 2)
        assert np.array_equal(FrontIndex(front.points, front.ref).gains(queries),
                              staircase_gains(front, queries))

    def test_two_objectives_bitwise_across_chunks(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 1.0, 300)
        front = build_front(np.c_[x, 1.0 - x ** 2], range(300), (0.0, 0.0))
        queries = rng.uniform(-0.1, 1.1, size=(5000, 2))
        index = FrontIndex(front.points, front.ref)
        assert 5000 * index.lo.shape[1] > 2 ** 17
        assert np.array_equal(index.gains(queries), staircase_gains(front, queries))
        assert np.array_equal(hvi_many(queries, front), staircase_gains(front, queries))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_gains_match_inclusion_exclusion(self, m, data):
        pts = data.draw(unit_arrays(m, 5))
        front = build_front(pts, range(len(pts)), np.zeros(m))
        queries = data.draw(unit_arrays(m, 6))
        got = FrontIndex(front.points, front.ref).gains(queries)
        for y, value in zip(queries, got):
            assert value == pytest.approx(
                hvi_by_inclusion_exclusion(y, front.points, front.ref), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_inserts_match_folded_front(self, m, data):
        pts = data.draw(unit_arrays(m, 8))
        queries = data.draw(unit_arrays(m, 10))
        ref = np.zeros(m)
        index = FrontIndex(np.empty((0, m)), ref)
        for y in pts:
            index = index.insert(y)
        built = FrontIndex(build_front(pts, range(len(pts)), ref).points, ref)
        assert np.array_equal(index.points, built.points)
        assert np.array_equal(index.lo, built.lo) and np.array_equal(index.hi, built.hi)
        assert np.array_equal(index.gains(queries), built.gains(queries))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_boundary_dominated_and_duplicate_points_score_zero(self, m, data):
        pts = data.draw(unit_arrays(m, 5))
        front = build_front(pts, range(len(pts)), np.zeros(m))
        shrink = data.draw(unit_arrays(m, front.size, min_points=front.size))
        boundary = data.draw(unit_arrays(m, 4))
        boundary[:, 0] = 0.0
        below = boundary.copy()
        below[:, -1] = -0.5
        queries = np.vstack([front.points, front.points - shrink, boundary, below])
        assert np.all(FrontIndex(front.points, front.ref).gains(queries) == 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_empty_front_gives_box_volume(self, m):
        rng = np.random.default_rng(m)
        ref = rng.uniform(-1.0, 0.0, m)
        queries = rng.uniform(0.0, 2.0, size=(20, m))
        got = FrontIndex(np.empty((0, m)), ref).gains(queries)
        assert got.tolist() == [math.prod(y - ref) for y in queries]

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_zero_iff_weakly_dominated_or_not_above_ref(self, m):
        rng = np.random.default_rng(30 + m)
        front = build_front(rng.uniform(0, 3, size=(8, m)), range(8), np.zeros(m))
        queries = rng.uniform(-0.5, 3.5, size=(400, m))
        got = hvi_many(queries, front)
        weakly = np.array([bool(np.any(np.all(front.points >= y, axis=1))) for y in queries])
        below = ~np.all(queries > front.ref, axis=1)
        assert np.array_equal(got == 0.0, weakly | below)
        assert np.all(got >= 0.0)

    def test_front_builds_its_index_once(self):
        front = build_front([(1.0, 2.0, 3.0), (3.0, 2.0, 1.0)], ["a", "b"], (0.0, 0.0, 0.0))
        assert front.index is front.index
        assert front.index.insert((0.5, 0.5, 0.5)) is front.index
        grown = front.index.insert((2.0, 2.5, 2.0))
        assert grown is not front.index and front.index.points.shape == (2, 3)


class TestSlabBoxes:
    """The one-pass slab split against the recursion it replaced
    (refimpl.slab_recursion_boxes): the same boxes in the same order."""

    @staticmethod
    def assert_same_boxes(points, ref):
        want = slab_recursion_boxes(points, ref)
        index = FrontIndex(points, ref)
        for got, expected in zip((index.lo, index.hi), want):
            assert got.shape == expected.shape and np.array_equal(got, expected)
        return index

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["random", "grid", "sphere"])
    def test_fronts_match_slab_recursion(self, m, kind):
        rng = np.random.default_rng(m)
        for trial in range(60 if m < 5 else 15):
            n = int(rng.integers(1, 14 if m < 5 else 8))
            if kind == "random":
                pts = rng.normal(size=(n, m))
            elif kind == "grid":  # shared levels and shared first objectives
                pts = rng.integers(0, 4, size=(n, m)).astype(float)
            else:
                pts = np.abs(rng.normal(size=(n, m)))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            self.assert_same_boxes(build_front(pts, range(n), np.full(m, -3.0)).points, np.full(m, -3.0))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_thin_l_shaped_fronts_match_slab_recursion(self, m):
        for eps in (1e-3, 1e-9):
            pts = np.vstack([np.full((3, m), [[eps], [2 * eps], [3 * eps]])
                             + np.outer([1.0 - eps, 0.7 - 2 * eps, 0.4 - 3 * eps], np.eye(m)[i])
                             for i in range(m)])
            self.assert_same_boxes(build_front(pts, range(len(pts)), np.zeros(m)).points, np.zeros(m))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_empty_single_point_and_repeated_rows_match_slab_recursion(self, m):
        ref = np.zeros(m)
        assert self.assert_same_boxes(np.empty((0, m)), ref).lo.shape == (m, 1)
        self.assert_same_boxes(np.full((1, m), 0.5), ref)
        # a validated front may hold equal rows; each counts once
        rng = np.random.default_rng(80 + m)
        for _ in range(10):
            front = build_front(rng.integers(1, 4, size=(6, m)).astype(float), range(6), ref)
            rows = np.vstack([front.points, front.points[rng.integers(0, front.size, size=3)]])
            self.assert_same_boxes(ParetoFront(points=rows, ids=(None,) * len(rows), ref=ref).points, ref)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_signed_zeros_keep_hypervolume_and_gains_bitwise(self, m):
        # -0.0 and 0.0 are one level, and a slab bound may keep the other
        # sign than the recursion's; no volume or gain can tell them apart
        rng = np.random.default_rng(100 + m)
        grid = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
        for _ in range(150):
            front = build_front(grid[rng.integers(0, 6, size=(8, m))], range(8), np.full(m, -2.0))
            index = self.assert_same_boxes(front.points, front.ref)
            old = object.__new__(FrontIndex)
            old.points, old.ref = index.points, index.ref
            old.lo, old.hi = slab_recursion_boxes(index.points, index.ref)
            queries = grid[rng.integers(0, 6, size=(50, m))]
            assert np.float64(index.hypervolume()).tobytes() == np.float64(old.hypervolume()).tobytes()
            assert index.gains(queries).tobytes() == old.gains(queries).tobytes()

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_fronts_grown_by_inserts_match_slab_recursion(self, m):
        rng = np.random.default_rng(90 + m)
        for _ in range(3):
            index = FrontIndex(np.empty((0, m)), np.zeros(m))
            for step in range(10 if m < 5 else 6):
                y = rng.uniform(0.0, 2.0, size=m)
                if step % 2:  # half-step grid: ties with incumbents
                    y = rng.integers(1, 5, size=m) / 2.0
                index = index.insert(y)
                self.assert_same_boxes(index.points, index.ref)


def grown_stack(m, n_draws, steps, seed):
    """A FrontStack whose draws were grown by independent random points, so
    their fronts differ in size and box count, and each draw's index grown
    alone by FrontIndex.insert. Every other step draws from a half-step grid
    that includes the reference, so values tie with incumbents and with ref."""
    rng = np.random.default_rng(seed)
    stack = FrontStack(ParetoFront.empty(np.zeros(m)), n_draws)
    alone = [FrontIndex(np.empty((0, m)), np.zeros(m))] * n_draws
    for step in range(steps):
        values = rng.uniform(0.0, 2.5, size=(n_draws, m))
        if step % 2:
            values = rng.integers(0, 6, size=(n_draws, m)) / 2.0
        stack.insert(values)
        alone = [index.insert(y) for index, y in zip(alone, values)]
    return stack, alone


def sphere_stack(m, n_draws, n_points, seed):
    """A FrontStack whose draws each took n_points distinct points of the
    positive unit sphere, so every point joins its front and the box count
    grows with each insert, and each draw's index grown alone."""
    rng = np.random.default_rng(seed)
    stack = FrontStack(ParetoFront.empty(np.zeros(m)), n_draws)
    alone = [FrontIndex(np.empty((0, m)), np.zeros(m))] * n_draws
    for _ in range(n_points):
        values = np.abs(rng.normal(size=(n_draws, m)))
        values /= np.linalg.norm(values, axis=1, keepdims=True)
        stack.insert(values)
        alone = [index.insert(y) for index, y in zip(alone, values)]
    return stack, alone


class TestReductionOrder:
    """Every HVI score rests on numpy summing axis 0 of a C-ordered
    (boxes, k) array one box at a time, in order, for k >= 2."""

    @pytest.mark.parametrize("k", [2, 3, 7, 64, 257])
    def test_axis_zero_sum_is_in_order(self, k):
        rng = np.random.default_rng(k)
        for boxes in range(1, 301):
            # zeros stand for pad boxes; the spread of magnitudes makes any
            # other summation order round differently
            terms = rng.uniform(0.0, 1.0, size=(boxes, k)) * 10.0 ** rng.integers(-8, 8, size=(boxes, k))
            terms[rng.random((boxes, k)) < 0.3] = 0.0
            assert np.array_equal(terms.sum(axis=0), in_order_sum(terms))

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_row_gains_and_one_draw_stack_sum_in_order(self, m):
        rng = np.random.default_rng(40 + m)
        stack, (index,) = sphere_stack(m, 1, n_points=40, seed=m)
        assert index.lo.shape[1] > 40
        for y in rng.uniform(0.0, 1.2, size=(200, 1, m)):
            expected = in_order_gains(index, y)
            assert np.array_equal(index.gains(y), expected)
            assert np.array_equal(stack.gains(y), expected)

    @pytest.mark.parametrize("m", [2, 3])
    def test_gains_sum_in_order_across_blocks(self, m):
        rng = np.random.default_rng(50 + m)
        _, (index,) = sphere_stack(m, 1, n_points=60, seed=10 + m)
        rows = 2 ** 16 // index.lo.shape[1]
        # the last block holds one row
        queries = rng.uniform(0.0, 1.2, size=(2 * rows + 1, m))
        assert np.array_equal(index.gains(queries), in_order_gains(index, queries))


class TestFrontStack:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n_draws", [1, 2, 7, 65, 256])
    def test_grouped_gains_bitwise_equal_single_row_gains(self, m, n_draws):
        """Every draw scored at once, in one padded box array, equals each
        draw scored alone and the explicit in-order sum."""
        stack, alone = grown_stack(m, n_draws, steps=12, seed=m * 1000 + n_draws)
        if n_draws > 7:
            assert len({index.lo.shape[1] for index in alone}) > 2
        queries = np.random.default_rng(n_draws).uniform(0.0, 3.0, size=(20, n_draws, m))
        for k, values in enumerate(queries):
            expected = [index.gains(y[None, :])[0] for index, y in zip(alone, values)]
            assert np.array_equal(stack.gains(values), expected)
            if k < 3:
                assert np.array_equal(expected, [in_order_gains(index, y[None, :])[0]
                                                 for index, y in zip(alone, values)])

    @pytest.mark.parametrize("m", [2, 3])
    def test_each_column_holds_its_draws_boxes_then_pad(self, m):
        for n_draws in (1, 64):
            stack, alone = grown_stack(m, n_draws, steps=8, seed=m)
            boxes = max(index.lo.shape[1] for index in alone)
            assert stack.boxes.shape == (2, m, boxes, n_draws)
            if m == 3:
                assert all(np.array_equal(index.points, single.points)
                           for index, single in zip(stack.indexes, alone))
            for ell, single in enumerate(alone):
                b = single.lo.shape[1]
                assert np.array_equal(stack.boxes[0, :, :b, ell], single.lo)
                assert np.array_equal(stack.boxes[1, :, :b, ell], single.hi)
                assert np.all(stack.boxes[:, :, b:, ell] == np.inf)

    @pytest.mark.parametrize("n_draws", [1, 2, 63, 64, 65, 256])
    def test_two_objective_splice_equals_each_draw_grown_alone(self, n_draws):
        """At m = 2 an insert splices every draw's column at once. After each
        one the box array is bitwise each draw's boxes grown alone by
        FrontIndex.insert, padded with +inf, and B is the most boxes any draw
        has held, so it never shrinks. Values tie: half-integer levels, the
        reference, a duplicate, one coordinate of a front point, or the
        corner of a run of front points, which it weakly dominates."""
        rng = np.random.default_rng(n_draws)
        ref = np.zeros(2)
        stack = FrontStack(ParetoFront.empty(ref), n_draws)
        alone = [FrontIndex(np.empty((0, 2)), ref)] * n_draws
        most = 1
        for _ in range(60):
            # half-integer levels near x + y = 8.5, the reference among them
            x = rng.integers(0, 17, n_draws) / 2.0
            values = np.c_[x, 8.5 - x - rng.integers(0, 2, n_draws) / 2.0]
            for ell, index in enumerate(alone):
                kind, pts = rng.integers(8), index.points[np.argsort(index.points[:, 0])]
                if kind in (3, 4):
                    x = rng.uniform(0.0, 8.0)
                    values[ell] = x, 8.25 - x + rng.uniform(-0.25, 0.25)
                elif kind > 4 and len(pts):
                    k, j = rng.integers(len(pts)), rng.integers(2)
                    if kind == 5:
                        values[ell] = pts[k]
                    elif kind == 6:
                        values[ell, j] = pts[k, j]
                    else:  # the corner of a run of two or three points
                        values[ell] = pts[k:k + 2 + (rng.random() < 0.2)].max(axis=0)
            stack.insert(values)
            alone = [index.insert(y) for index, y in zip(alone, values)]
            b = stack.boxes.shape[2]
            assert b >= most
            most = max(most, *(index.lo.shape[1] for index in alone))
            assert b == most
            expected = np.full((2, 2, b, n_draws), np.inf)
            for ell, index in enumerate(alone):
                expected[:, :, :index.lo.shape[1], ell] = index.lo, index.hi
            assert np.array_equal(stack.boxes, expected)

    @pytest.mark.parametrize("m", [2, 3])
    def test_insert_that_changes_no_front_rebuilds_nothing(self, m):
        stack, alone = grown_stack(m, 32, steps=6, seed=7 + m)
        queries = np.random.default_rng(m).uniform(0.0, 3.0, size=(10, 32, m))
        before = [stack.gains(values) for values in queries]
        # at m = 2 the box array is the only per-draw state
        indexes, boxes, copied = list(stack.indexes or ()), stack.boxes, stack.boxes.copy()
        # each value equals or is dominated by a point of its own draw's
        # front, or sits on the reference in its first objective
        edge = np.full(m, 10.0)
        edge[0] = 0.0
        stack.insert(np.stack([(index.points[0], index.points[0] * 0.5, edge)[ell % 3]
                               for ell, index in enumerate(alone)]))
        assert all(a is b for a, b in zip(stack.indexes or (), indexes))
        assert stack.boxes is boxes and np.array_equal(boxes, copied)
        for values, gains in zip(queries, before):
            assert np.array_equal(stack.gains(values), gains)


class TestStrictlyDominatedMask:
    @given(point_lists(2, max_points=6), st.lists(st.tuples(coord, coord), max_size=15))
    def test_matches_bruteforce(self, pts, queries):
        ref = (-9.0, -9.0)
        front = build_front(pts, range(len(pts)), ref)
        queries = np.asarray(queries, dtype=float).reshape(len(queries), 2)
        mask = strictly_dominated_mask(queries, front)
        for row, got in zip(queries, mask):
            expected = any(dominates(p, row) for p in front.points)
            assert got == expected

    @given(point_lists(3, max_points=6), st.lists(st.tuples(coord, coord, coord), max_size=10))
    def test_matches_bruteforce_three_objectives(self, pts, queries):
        ref = (-9.0, -9.0, -9.0)
        front = build_front(pts, range(len(pts)), ref)
        queries = np.asarray(queries, dtype=float).reshape(len(queries), 3)
        mask = strictly_dominated_mask(queries, front)
        for row, got in zip(queries, mask):
            assert got == any(dominates(p, row) for p in front.points)


class TestFractionRecovered:
    def test_half_recovered(self):
        assert fraction_recovered({"a", "b"}, {"a", "c"}) == pytest.approx(0.5)

    def test_full_recovery(self):
        assert fraction_recovered({"a", "b", "c"}, {"a", "b"}) == pytest.approx(1.0)

    def test_none_recovered(self):
        assert fraction_recovered({"x"}, {"a", "b"}) == 0.0

    def test_empty_true_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            fraction_recovered({"a"}, set())


class TestRelativeHvi:
    def test_no_change(self):
        assert relative_hvi(2.0, 2.0) == 0.0

    def test_doubling(self):
        assert relative_hvi(4.0, 2.0) == pytest.approx(1.0)

    def test_consistent_with_back_derived_baseline(self):
        # a run summary reporting final volume 18.15 as an 8.49% gain implies
        # this baseline; the metric must reproduce the quoted percentage
        hv_final = 18.15
        hv_baseline = hv_final / 1.0849
        assert relative_hvi(hv_final, hv_baseline) == pytest.approx(0.0849, abs=1e-12)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            relative_hvi(1.0, 0.0)


class TestFrontSerialization:
    def test_round_trip(self, tmp_path):
        front = build_front([(1.0, 3.0), (3.0, 1.0)], ["a", "b"], (0.0, 0.0))
        path = tmp_path / "front.json"
        save_front(front, path)
        loaded = front_from_dict(json.loads(path.read_text()))
        np.testing.assert_array_equal(loaded.points, front.points)
        assert loaded.ids == front.ids
        np.testing.assert_array_equal(loaded.ref, front.ref)

    def test_dict_shape(self):
        front = build_front([(1.0, 3.0)], ["a"], (0.0, 0.0))
        payload = front_to_dict(front)
        assert payload == {"ref_point": [0.0, 0.0], "points": [{"id": "a", "values": [1.0, 3.0]}]}

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            front_from_dict({"points": [{"id": 1}]})

    def test_dominated_payload_rejected(self):
        payload = {
            "ref_point": [0.0, 0.0],
            "points": [{"id": "a", "values": [1.0, 1.0]}, {"id": "b", "values": [2.0, 2.0]}],
        }
        with pytest.raises(ValueError, match="non-dominated"):
            front_from_dict(payload)


class TestMetricsCsv:
    def records(self):
        return [
            MetricRecord(0, 1.5, None, 0.25, ()),
            MetricRecord(1, 2.25, 0.5, None, ("a", "b")),
            MetricRecord(2, 2.8000000000000003, 0.8666666666666667, 1.0, ("c",)),
        ]

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, self.records())
        loaded = read_metrics_csv(path)
        assert loaded == self.records()

    def test_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [])
        assert path.read_text().splitlines()[0] == "iteration,hv,relative_hvi,fraction_recovered,batch_ids"

    def test_batch_ids_semicolon_joined(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [MetricRecord(1, 1.0, None, None, ("x1", "x2", "x3"))])
        assert "x1;x2;x3" in path.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_metrics_csv(path)

    def test_invalid_record_rejected(self):
        with pytest.raises(ValueError):
            MetricRecord(-1, 1.0, None, None, ())
        with pytest.raises(ValueError):
            MetricRecord(0, -0.5, None, None, ())
        with pytest.raises(ValueError):
            MetricRecord(0, 1.0, None, 1.5, ())
