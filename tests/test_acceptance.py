"""Acceptance gate: one test per release criterion, each printing a verdict.

Every check here runs the real implementation against an independent route
(exhaustive enumeration, inclusion-exclusion, closed-form algebra, or Monte
Carlo with known error bars) at pinned tolerances. Scales and budgets are
fixed; shrinking them to pass is not an option.
"""
import dataclasses
import time

import numpy as np
import pytest

from poolbo.acquisition import (
    constrained_qpmhi,
    estimate_qpmhi,
    estimate_qpo,
    select_batch,
)
from poolbo.bench import BenchSpec, make_ablation_pool, run_bench, true_pareto_ids
from poolbo.campaign import (
    CampaignConfig,
    build_initial_data,
    init_campaign,
    load_checkpoint,
    run,
    save_checkpoint,
)
from poolbo.gp import Dataset, GpConfig, Posterior, fit, posterior
from poolbo.oracles import LookupOracle
from poolbo.pareto import build_front, hypervolume
from refimpl import (
    DiscretePosterior,
    best_subset_sum,
    enumerate_qpmhi,
    gp_posterior_oracle,
    mc_box_union_volume,
    union_box_volume,
)

REF = (0.0, 0.0)
FRONT_PTS = np.array([[1.0, 2.0], [2.0, 1.0]])


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def front_2d():
    return build_front(FRONT_PTS, ["a", "b"], REF)


def random_discrete_instance(seed: int, n: int = 4):
    """A few atoms per candidate, continuous values so ties never happen."""
    rng = np.random.default_rng(seed)
    values, probs = [], []
    for _ in range(n):
        k = int(rng.integers(2, 4))
        values.append(rng.uniform(-0.5, 3.0, size=(k, 2)))
        w = rng.uniform(0.2, 1.0, size=k)
        probs.append(w / w.sum())
    return DiscretePosterior(values, probs)


def gaussian_posterior(seed: int, n: int, m: int, spread: float = 3.0):
    rng = np.random.default_rng(seed)
    mean = rng.uniform(0.0, spread, size=(n, m))
    cov = np.empty((m, n, n))
    for j in range(m):
        a = rng.normal(size=(n, n))
        cov[j] = 0.3 * a @ a.T + 0.05 * np.eye(n)
    return Posterior(mean=mean, cov=cov)


def test_criterion_1_probabilities_match_exhaustive_enumeration():
    start = time.perf_counter()
    front = front_2d()
    worst = 0.0
    for seed in (101, 102, 103, 104, 105):
        post = random_discrete_instance(seed, n=4 + seed % 2)
        exact_probs, exact_frac = enumerate_qpmhi(post, FRONT_PTS, REF)
        res = estimate_qpmhi(post, front, 50_000, seed=seed)
        worst = max(
            worst,
            float(np.abs(res.probs - exact_probs).max()),
            abs(res.improving_fraction - exact_frac),
        )
    elapsed = time.perf_counter() - start
    verdict(
        1, worst <= 0.02 and elapsed < 60.0,
        f"50k-draw estimates vs enumeration: max error {worst:.5f} "
        f"(tol 0.02) in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_ranked_batch_maximizes_probability_mass():
    start = time.perf_counter()
    front = front_2d()
    checked = exact = 0
    for i in range(100):
        post = gaussian_posterior(500 + i, n=8, m=2)
        res = estimate_qpmhi(post, front, 128, seed=1000 + i)
        for q in (2, 3, 4):
            batch = select_batch(res, q)
            batch_sum = float(res.probs[batch].sum())
            _, best = best_subset_sum(res.probs, q)
            checked += 1
            if batch_sum >= best - 1e-12:
                exact += 1
    elapsed = time.perf_counter() - start
    verdict(
        2, exact == checked and elapsed < 5.0,
        f"top-q batch optimal on {exact}/{checked} exhaustive subset checks "
        f"(n=8, q in 2..4) in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_3_hypervolume_agrees_with_independent_routes():
    start = time.perf_counter()
    # route one: inclusion-exclusion on small fronts, every dimension
    worst_ie = 0.0
    for m in range(2, 7):
        rng = np.random.default_rng(40 + m)
        for _ in range(20):
            pts = rng.uniform(0.1, 1.0, size=(int(rng.integers(1, 4)), m))
            ref = np.zeros(m)
            worst_ie = max(worst_ie, abs(hypervolume(pts, ref) - union_box_volume(pts, ref)))
    # route two: rejection sampling with its own error bar
    hits = {}
    for m in (2, 3):
        ok = 0
        for i in range(50):
            rng = np.random.default_rng(7000 + 100 * m + i)
            pts = rng.uniform(0.2, 1.0, size=(int(rng.integers(1, 7)), m))
            ref = np.zeros(m)
            exact = hypervolume(pts, ref)
            est, se = mc_box_union_volume(pts, ref, 40_000, seed=9000 + i)
            if abs(exact - est) <= 3.0 * se:
                ok += 1
        hits[m] = ok
    elapsed = time.perf_counter() - start
    verdict(
        3,
        worst_ie <= 1e-12 and all(v >= 48 for v in hits.values()) and elapsed < 120.0,
        f"inclusion-exclusion max gap {worst_ie:.2e} (tol 1e-12); MC within "
        f"3 SE on {hits[2]}/50 (m=2) and {hits[3]}/50 (m=3) sets "
        f"(need 48) in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_4_probability_mass_partitions_exactly():
    front = front_2d()
    ok = True
    for seed in (101, 102, 103, 104, 105):
        post = random_discrete_instance(seed, n=4 + seed % 2)
        res = estimate_qpmhi(post, front, 4096, seed=seed)
        counts = res.probs * 4096
        ok &= bool(np.all(np.abs(counts - np.round(counts)) < 1e-9))
        ok &= float(res.probs.sum()) == res.improving_fraction
    # a posterior that always lands beyond the front must partition all mass
    rng = np.random.default_rng(77)
    always = DiscretePosterior(
        [rng.uniform(2.5, 3.5, size=(2, 2)) for _ in range(3)],
        [[0.5, 0.5]] * 3,
    )
    res = estimate_qpmhi(always, front, 4096, seed=77)
    ok &= res.improving_fraction == 1.0 and float(res.probs.sum()) == 1.0
    verdict(
        4, ok,
        "attributed probabilities are integer counts over draws, sum equals "
        "the improving fraction exactly, and certain improvement gives 1.0",
    )


@pytest.fixture(scope="module")
def ablation_pool(tmp_path_factory):
    path = tmp_path_factory.mktemp("ablation") / "pool.csv"
    meta = make_ablation_pool(path, n=2000, bits=24, seed=20240301, front_range=(20, 60))
    assert 20 <= meta["front_size"] <= 60
    return path


def test_criterion_5_ablation_separates_acquisitions(ablation_pool, tmp_path):
    start = time.perf_counter()
    spec = BenchSpec(
        pool_path=str(ablation_pool),
        output_dir=str(tmp_path / "ablation"),
        batch_size=100,
        init_size=100,
        acquisitions=("qpmhi", "qehvi_mc", "thompson", "random"),
        seeds=(0, 1, 2, 3, 4),
        iterations=20,
        mc_samples=256,
    )
    result = run_bench(spec)
    elapsed = time.perf_counter() - start
    by_cell = {(r["acquisition"], r["iteration"]): r for r in result["summary"]}

    q_final = by_cell[("qpmhi", 20)]
    r_final = by_cell[("random", 20)]
    sep = q_final["mean_hv"] - q_final["ci95_hv"] > r_final["mean_hv"] + r_final["ci95_hv"]
    frac_best = all(
        q_final["mean_fraction"] >= by_cell[(acq, 20)]["mean_fraction"]
        for acq in spec.acquisitions
    )
    dominated = all(
        by_cell[("qpmhi", t)]["mean_hv"] >= by_cell[("random", t)]["mean_hv"]
        for t in range(2, 21)
    )
    print(f"criterion 5 runtime: {elapsed / 60.0:.1f} min (target 30 min)")
    verdict(
        5, sep and frac_best and dominated,
        f"final hv {q_final['mean_hv']:.5f}+-{q_final['ci95_hv']:.5f} vs random "
        f"{r_final['mean_hv']:.5f}+-{r_final['ci95_hv']:.5f} (CIs disjoint: {sep}); "
        f"front recovery {q_final['mean_fraction']:.3f} best of all ({frac_best}); "
        f"hv curve dominates random from iteration 2 on ({dominated})",
    )


def test_criterion_6_single_objective_reduction_is_bitwise():
    start = time.perf_counter()
    ok = True
    for i in range(20):
        rng = np.random.default_rng(2200 + i)
        post = gaussian_posterior(2200 + i, n=6, m=1, spread=2.0)
        best = float(rng.uniform(0.5, 1.5))
        front = build_front([[best]], ["incumbent"], (best - 1.0,))
        a = estimate_qpo(post, best, 256, seed=31 + i)
        b = estimate_qpmhi(post, front, 256, seed=31 + i)
        ok &= bool(
            np.array_equal(a.probs, b.probs)
            and np.array_equal(a.pareto_membership, b.pareto_membership)
            and np.array_equal(a.mean_hvi, b.mean_hvi)
            and a.improving_fraction == b.improving_fraction
            and select_batch(a, 3) == select_batch(b, 3)
        )
    elapsed = time.perf_counter() - start
    verdict(
        6, ok and elapsed < 60.0,
        f"scalar probability-of-improvement equals the one-objective special "
        f"case bitwise on 20/20 instances in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_surrogate_matches_closed_form_and_interpolates():
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        binary = seed % 2 == 1
        kernel = "tanimoto" if binary else "rbf"
        if binary:
            X = rng.integers(0, 2, size=(10, 6)).astype(float)
            Xq = rng.integers(0, 2, size=(5, 6)).astype(float)
        else:
            X = rng.normal(size=(10, 4))
            Xq = rng.normal(size=(5, 4))
        y = rng.normal(size=(10, 1))
        data = Dataset(tuple(f"x{i}" for i in range(10)), X, y,
                       feature_kind="binary" if binary else "dense_real")
        model = fit(data, GpConfig(kernel=kernel, lengthscale=1.0, signal_variance=1.0))
        post = posterior(model, Xq)
        mean, cov = gp_posterior_oracle(X, y[:, 0], Xq, kernel,
                                        lengthscale=1.0, signal_variance=1.0)
        worst = max(worst, float(np.abs(post.mean[:, 0] - mean).max()))
        worst = max(worst, float(np.abs(post.cov[0] - cov - 1e-8 * np.eye(5)).max()))
    # near-noiseless fits must reproduce their training targets
    rng = np.random.default_rng(99)
    X = rng.uniform(-2, 2, size=(12, 3))
    y = np.column_stack([np.sin(X.sum(axis=1)), X[:, 0] ** 2 / 4.0])
    data = Dataset(tuple(f"t{i}" for i in range(12)), X, y, feature_kind="dense_real")
    post = posterior(fit(data), data.features)
    interp = float(np.abs(post.mean - y).max())
    verdict(
        7, worst <= 1e-8 and interp <= 1e-3,
        f"posterior vs closed form: max gap {worst:.2e} (tol 1e-8); "
        f"training-point interpolation gap {interp:.2e} (tol 1e-3)",
    )


def test_criterion_8_campaign_is_deterministic_and_resumable(tmp_path):
    start = time.perf_counter()
    pool = tmp_path / "pool.csv"
    make_ablation_pool(pool, n=500, bits=16, seed=88, front_range=(5, 120))
    cfg = CampaignConfig(
        iterations=10, batch_size=20, mc_samples=64,
        pool_path=str(pool), oracle=f"lookup:{pool}",
        init={"pool_sample": 20}, seed=3,
    )
    oracle = LookupOracle.from_pool_csv(pool)

    def fresh():
        return init_campaign(cfg, build_initial_data(cfg, oracle))

    paths = {name: tmp_path / f"{name}.csv" for name in ("one", "two", "resumed")}
    fronts = {name: tmp_path / f"{name}_front.json" for name in ("one", "resumed")}
    run(fresh(), cfg, oracle=oracle, metrics_path=paths["one"], front_path=fronts["one"])
    run(fresh(), cfg, oracle=oracle, metrics_path=paths["two"])

    half = dataclasses.replace(cfg, iterations=5)
    state = run(fresh(), half, oracle=oracle)
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, state, cfg)
    resumed, stored_cfg = load_checkpoint(ckpt)
    run(resumed, stored_cfg, oracle=oracle,
        metrics_path=paths["resumed"], front_path=fronts["resumed"])

    identical = paths["one"].read_bytes() == paths["two"].read_bytes()
    resumed_ok = (
        paths["resumed"].read_bytes() == paths["one"].read_bytes()
        and fronts["resumed"].read_bytes() == fronts["one"].read_bytes()
    )
    elapsed = time.perf_counter() - start
    verdict(
        8, identical and resumed_ok and elapsed < 300.0,
        f"repeat runs byte-identical ({identical}); resume from iteration 5 "
        f"byte-identical ({resumed_ok}) in {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_9_constraint_gating_is_sound():
    front = front_2d()
    # permissive thresholds must not perturb the unconstrained result at all
    post = gaussian_posterior(321, n=6, m=2)
    con = gaussian_posterior(654, n=6, m=1)
    loose = constrained_qpmhi(post, con, [-1e9], front, 2048, seed=5)
    plain = estimate_qpmhi(post, front, 2048, seed=5)
    vacuous = bool(
        np.array_equal(loose.probs, plain.probs)
        and loose.improving_fraction == plain.improving_fraction
        and select_batch(loose, 3) == select_batch(plain, 3)
    )

    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(3300 + i)
        obj = random_discrete_instance(3300 + i, n=4)
        con_values = [np.array([[0.0], [1.0]]) for _ in range(4)]
        con_probs = [[p, 1.0 - p] for p in rng.uniform(0.2, 0.8, size=4)]
        con_post = DiscretePosterior(con_values, con_probs)
        exact_probs, exact_frac = enumerate_qpmhi(
            obj, FRONT_PTS, REF, constraint_posterior=con_post, thresholds=[0.5]
        )
        res = constrained_qpmhi(obj, con_post, [0.5], front, 50_000, seed=61 + i)
        worst = max(
            worst,
            float(np.abs(res.probs - exact_probs).max()),
            abs(res.improving_fraction - exact_frac),
        )
    verdict(
        9, vacuous and worst <= 0.02,
        f"permissive thresholds reproduce the unconstrained result bitwise "
        f"({vacuous}); gated estimates vs enumeration max error {worst:.5f} "
        f"(tol 0.02) on 10 instances",
    )
