import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import blas, cho_solve, lapack, solve_triangular
from scipy.optimize import minimize

import poolbo.gp as gp
from poolbo.acquisition import estimate_qpmhi
from poolbo.gp import (
    BASE_NUGGET,
    JITTER_LADDER,
    LENGTHSCALE_BOUNDS,
    N_STARTS,
    SAMPLE_BLOCK,
    SIGNAL_VARIANCE_BOUNDS,
    TILE,
    Dataset,
    FitError,
    GpConfig,
    GpModel,
    KeptCovariance,
    Posterior,
    ScaledBlocks,
    _escalated_cholesky,
    _jittered_cholesky,
    _lml,
    _normalized,
    _ObjectiveGp,
    fit,
    pool_posterior,
    posterior,
    posterior_mean,
    rbf_kernel,
    squared_distances,
    tanimoto_kernel,
)
from poolbo.pareto import build_front
from poolbo.seeds import child_rng
from refimpl import (
    DiscretePosterior,
    gp_posterior_oracle,
    lengthscale_lml,
    multistart_lengthscale,
    scaled_copy_posterior,
    scaled_copy_sample,
    tanimoto_similarity,
    zeroing_search_lengthscales,
)


def toy_dataset(seed=0, n=3, d=2, m=1, binary=False):
    rng = np.random.default_rng(seed)
    if binary:
        feats = rng.integers(0, 2, size=(n, d)).astype(float)
        while np.unique(feats, axis=0).shape[0] < n:
            feats = rng.integers(0, 2, size=(n, d)).astype(float)
    else:
        feats = rng.normal(size=(n, d))
    objs = rng.normal(size=(n, m))
    return Dataset(ids=tuple(f"x{i}" for i in range(n)), features=feats, objectives=objs)


def reference_posterior(model, Xq):
    """(mean, cov, chol, jitter) from the closed form one objective at a time,
    with the kernels recomputed here and a fresh jitter ladder per block.

    The normalized covariance rqq - v^T v is BLAS syrk's update of the query
    kernel's lower triangle, made symmetric here; the library's ladder puts
    the jitter on it. The block and its factor are then scaled by the raw
    signal variance c, and the recorded jitter is c times the normalized one.
    """
    X = model.data.features
    means, covs, chols, jitters = [], [], [], []
    for part in model.parts:
        if part.kernel == "tanimoto":
            rq, rqq = tanimoto_kernel(Xq, X), tanimoto_kernel(Xq, Xq)
        else:
            rq, rqq = rbf_kernel(Xq, X, part.lengthscale), rbf_kernel(Xq, Xq, part.lengthscale)
        mean_z = rq @ part.alpha
        v = solve_triangular(part.chol, rq.T, lower=True)
        blas.dsyrk(-1.0, v, beta=1.0, c=rqq.T, trans=1, lower=0, overwrite_c=1)
        base = np.tril(rqq) + np.tril(rqq, -1).T
        factor = base.copy()
        jitter = _jittered_cholesky(factor, JITTER_LADDER)[1]
        base = base + jitter * np.eye(base.shape[0])
        c = part.sigma2 * part.out_std ** 2
        means.append(part.out_mean + part.out_std * mean_z)
        covs.append(c * base)
        chols.append(np.sqrt(c) * np.tril(factor))
        jitters.append(c * jitter)
    return np.stack(means, axis=1), np.stack(covs), np.stack(chols), np.array(jitters)


def gemv_draws(post, n_samples, seed):
    """Joint draws one matrix-vector product per draw and objective."""
    idx = np.arange(post.n) if post.stochastic_idx is None else post.stochastic_idx
    out = np.repeat(post.mean[None, :, :], n_samples, axis=0)
    for ell in range(n_samples):
        zs = child_rng(seed, ell).standard_normal((post.cov.shape[1], post.m))
        for j in range(post.m):
            out[ell, idx, j] += post.chol[j] @ zs[:, j]
    return out


def open_pool_posterior(m, seed=0):
    """Pool posterior over 40 rows of which 12 are labeled, one RBF part per objective."""
    data = toy_dataset(seed=seed, n=12, d=3, m=m)
    rng = np.random.default_rng(seed + 50)
    pool = np.vstack([rng.normal(size=(28, 3)), data.features])
    order = rng.permutation(40)
    pool = pool[order]
    known_idx = np.flatnonzero(order >= 28)
    known_values = data.objectives[order[known_idx] - 28]
    return pool_posterior(fit(data), pool, known_idx, known_values)


def grouped_model(case):
    """(model, data): Tanimoto m=2 in one group, RBF m=3 with a pinned
    lengthscale each, or RBF objectives 0 and 1 sharing a pinned lengthscale
    beside objective 2. Pinning keeps the group count independent of the
    lengthscale search."""
    binary = case == "tanimoto"
    data = toy_dataset(seed=12, n=10, d=8, m=2 if binary else 3, binary=binary)
    if binary:
        return fit(data, GpConfig(kernel="tanimoto")), data
    def part_of(cols, lengthscale):
        return fit(Dataset(data.ids, data.features, data.objectives[:, cols]),
                   GpConfig(lengthscale=lengthscale)).parts

    pins = {"rbf": [([0], 0.7), ([1], 1.0), ([2], 2.0)], "mixed": [([0, 1], 1.0), ([2], 2.0)]}
    return GpModel(data=data, parts=[p for cols, ls in pins[case] for p in part_of(cols, ls)]), data


class TestDataset:
    def test_kind_autodetect(self):
        binary = Dataset(("a", "b"), [[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
        dense = Dataset(("a", "b"), [[0.5, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
        assert binary.feature_kind == "binary"
        assert dense.feature_kind == "dense_real"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(("a", "a"), [[0.0], [1.0]], [[0.0], [1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(("a",), [[np.nan]], [[0.0]])

    def test_append(self):
        data = toy_dataset(n=2)
        grown = data.append(("x9",), [[0.0, 0.0]], [[1.0]])
        assert grown.n == 3 and grown.ids[-1] == "x9"
        assert data.n == 2


class TestKernels:
    def test_rbf_diagonal_and_range(self):
        X = np.random.default_rng(1).normal(size=(5, 3))
        K = rbf_kernel(X, X, 0.7)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)
        assert np.all(K > 0) and np.all(K <= 1.0 + 1e-12)

    def test_rbf_kernel_is_bitwise_the_formula(self):
        # the sums of squared norms are formed a few rows at a time: the
        # larger pairs span several of those chunks, the last one partial
        rng = np.random.default_rng(7)
        small, big_a, big_b = rng.normal(size=(9, 5)), rng.normal(size=(700, 5)), rng.normal(size=(300, 5))
        assert len(big_a) > 2 * (TILE * TILE // len(big_b))
        for x, y in ((small, small), (small, big_b), (big_a, big_b), (big_b, big_a), (big_a, big_a)):
            aa, bb = (x * x).sum(axis=1), (y * y).sum(axis=1)
            d2 = np.maximum(aa[:, None] + bb[None, :] - 2.0 * (x @ y.T), 0.0)
            np.testing.assert_array_equal(squared_distances(x, y), d2)
            for lengthscale in (0.3, 1.0, 2.5):
                np.testing.assert_array_equal(rbf_kernel(x, y, lengthscale),
                                              np.exp(-0.5 * d2 / lengthscale ** 2))

    def test_tanimoto_identity_and_bounds(self):
        X = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        K = tanimoto_kernel(X, X)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
        assert np.all(K >= 0.0) and np.all(K <= 1.0)

    def test_tanimoto_known_value(self):
        a = np.array([[1.0, 1.0, 0.0]])
        b = np.array([[1.0, 0.0, 1.0]])
        # one shared bit, three distinct bits set in the union
        assert tanimoto_kernel(a, b)[0, 0] == pytest.approx(1.0 / 3.0)

    def test_signal_variance_scales_posterior_prior(self):
        data = toy_dataset(binary=True, n=4, d=6)
        model = fit(data, GpConfig(signal_variance=2.5))
        far = posterior(model, 1.0 - data.features[:1])
        part = model.parts[0]
        assert part.sigma2 == 2.5
        assert part.signal_variance == pytest.approx(2.5 * part.out_std ** 2)


class TestFit:
    def test_deterministic(self):
        data = toy_dataset(seed=5, n=6, m=2)
        a, b = fit(data), fit(data)
        for pa, pb in zip(a.parts, b.parts):
            assert pa.lengthscale == pb.lengthscale
            assert pa.sigma2 == pb.sigma2

    def test_interpolates_training_targets(self):
        data = Dataset(("a", "b"), [[0.0], [1.0]], [[0.0], [2.0]], feature_kind="dense_real")
        model = fit(data)
        post = posterior(model, data.features)
        np.testing.assert_allclose(post.mean[:, 0], [0.0, 2.0], atol=1e-3)

    def test_symmetric_pair_averages_at_midpoint(self):
        data = Dataset(("a", "b"), [[-1.0], [1.0]], [[0.0], [4.0]], feature_kind="dense_real")
        model = fit(data, GpConfig(lengthscale=1.5, signal_variance=1.0))
        post = posterior(model, [[0.0]])
        assert post.mean[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_degenerate_targets_fit(self):
        data = Dataset(("a", "b", "c"), [[0.0], [1.0], [2.0]], [[3.0]] * 3, feature_kind="dense_real")
        model = fit(data)
        post = posterior(model, [[0.5]])
        assert post.mean[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit(Dataset((), np.empty((0, 2)), np.empty((0, 1))))

    def test_hyperparams_record(self):
        model = fit(toy_dataset(n=4, m=2, binary=True, d=5))
        records = model.hyperparams()
        assert [r["objective"] for r in records] == [0, 1]
        for r in records:
            assert r["kernel"] == "tanimoto"
            assert r["lengthscale"] is None
            assert r["signal_variance"] > 0

    def test_lengthscale_fit_recovers_scale_regime(self):
        # a smooth function sampled densely should not produce a tiny lengthscale;
        # a one-point grid sits at the bounds' log-midpoint and refines over both
        # bounds, where one start on the lower bound stayed on its plateau
        x = np.linspace(0.0, 4.0, 12)[:, None]
        y = np.sin(x)
        data = Dataset(tuple(range(12)), x, y, feature_kind="dense_real")
        for config in (GpConfig(), GpConfig(n_starts=1)):
            assert fit(data, config).parts[0].lengthscale > 0.1

    def test_search_matches_the_multistart_likelihood(self):
        # 200 fits over three target families; each column's chosen lengthscale
        # is scored beside the old 8-start optimum under one pure LML
        config, shortfalls = GpConfig(), []
        for k in range(200):
            rng = np.random.default_rng([0, k])
            n, d, m = int(rng.integers(4, 61)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
            if k % 3 == 1:  # small-integer counts, as k-gram features and labels
                X = rng.integers(0, 4, size=(n, d)).astype(float)
                Y = rng.integers(0, 5, size=(n, m)).astype(float)
            elif k % 3 == 0:
                X, Y = rng.normal(size=(n, d)), rng.normal(size=(n, m))
            else:  # smooth: about one radian of phase per unit of feature spread
                X, w = rng.normal(size=(n, d)), rng.normal(size=(d, m)) / np.sqrt(d)
                Y = np.sin(X @ w) + 0.1 * rng.normal(size=(n, m))
            model = fit(Dataset(tuple(range(n)), X, Y, feature_kind="dense_real"), config)
            for j, part in enumerate(model.parts):
                z = _normalized(Y[:, j])[2]
                reference = multistart_lengthscale(X, z, config)
                shortfalls.append(lengthscale_lml(X, z, reference, config)
                                  - lengthscale_lml(X, z, part.lengthscale, config))
        assert max(shortfalls) < 0.01

    @pytest.mark.parametrize("n", [32, 64, 120, 200])
    def test_search_is_bitwise_the_zeroing_search(self, n):
        # every grid and refinement factor keeps the matrix above its
        # diagonal; the solves and the LML read only the factor, so each
        # lengthscale, nugget and final factor is the zeroing search's
        rng = np.random.default_rng([3, n])
        counts = rng.integers(0, 4, size=(n, 8)).astype(float)  # as k-gram features
        x = np.sort(rng.uniform(0.0, 4.0, size=30))[:, None]
        cases = [(counts, rng.integers(0, 5, size=(n, 3)).astype(float)),
                 (rng.normal(size=(n, 3)), rng.normal(size=(n, 2))),
                 # 30 points clustered far from the origin: some factorisations
                 # escalate their nugget (more points would not factorize)
                 (1e5 + x, np.hstack([x, np.sin(3.0 * x)]))]
        for X, Y in cases:
            data = Dataset(tuple(range(len(X))), X, Y, feature_kind="dense_real")
            model = fit(data)
            zs = [_normalized(Y[:, j])[2] for j in range(Y.shape[1])]
            want = zeroing_search_lengthscales(squared_distances(X, X), zs, GpConfig())
            assert [p.lengthscale for p in model.parts] == want
            for part in model.parts:
                chol, nugget = _escalated_cholesky(rbf_kernel(X, X, part.lengthscale), BASE_NUGGET)
                assert part.nugget == nugget
                np.testing.assert_array_equal(part.chol, chol)

    def test_a_flat_run_of_grid_scores_is_refined_once(self, monkeypatch):
        # features ten apart make every grid kernel below a lengthscale of
        # about 0.25 exactly the identity, so those grid points tie exactly
        x = 10.0 * np.arange(20.0)[:, None]
        y = np.random.default_rng(7).normal(size=(20, 1))
        starts = []

        def recording(fun, x0, **kwargs):
            starts.append(x0[0])
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", recording)
        fit(Dataset(tuple(range(20)), x, y, feature_kind="dense_real"))
        grid = np.log(np.geomspace(*LENGTHSCALE_BOUNDS, N_STARTS))
        z = _normalized(y[:, 0])[2]
        scores = np.array([lengthscale_lml(x, z, ls, GpConfig()) for ls in np.exp(grid)])
        run = np.cumsum(np.append(True, scores[1:] != scores[:-1]))
        assert np.sum(run == 1) >= 3 and starts[0] == grid[0]
        started = [run[np.flatnonzero(grid == t)[0]] for t in starts]
        assert len(started) == len(set(started))

    def test_one_column_fits_as_in_all_columns(self):
        data = toy_dataset(seed=21, n=30, d=3, m=3)
        model = fit(data)
        for j, part in enumerate(model.parts):
            alone = fit(Dataset(data.ids, data.features, data.objectives[:, [j]])).parts[0]
            assert alone.lengthscale == part.lengthscale and alone.nugget == part.nugget
            np.testing.assert_array_equal(alone.alpha, part.alpha)
            np.testing.assert_array_equal(alone.chol, part.chol)

    def test_each_grid_kernel_is_factored_once_for_all_objectives(self, monkeypatch):
        data = toy_dataset(seed=22, n=25, d=3, m=3)
        bases = []

        # the search factors its kernels with _jittered_cholesky directly and
        # the final factors go through _escalated_cholesky, which calls it
        def recording(base, *args):
            bases.append(base.copy())
            return _jittered_cholesky(base, *args)

        monkeypatch.setattr(gp, "_jittered_cholesky", recording)

        def factorisations(dataset):
            bases.clear()
            model = fit(dataset)
            return model, list(bases)

        model, calls = factorisations(data)
        X = data.features
        lengthscales = list(dict.fromkeys(p.lengthscale for p in model.parts))
        search, finals = calls[:-len(lengthscales)], calls[-len(lengthscales):]
        d2 = squared_distances(X, X)
        grid = [np.exp(-0.5 * d2 / np.exp(2.0 * t))
                for t in np.log(np.geomspace(*LENGTHSCALE_BOUNDS, N_STARTS))]
        for k, kernel in enumerate(grid):
            np.testing.assert_array_equal(search[k], kernel)
            assert sum(np.array_equal(base, kernel) for base in search) == 1
        for base, lengthscale in zip(finals, lengthscales):
            np.testing.assert_array_equal(base, rbf_kernel(X, X, lengthscale))
        # one objective at a time, every grid kernel and final factor is paid per column
        alone = sum(len(factorisations(Dataset(data.ids, X, data.objectives[:, [j]]))[1])
                    for j in range(3))
        assert alone == len(calls) + 2 * N_STARTS + (3 - len(lengthscales))

    def test_final_nugget_is_the_one_its_lengthscale_needs(self):
        # clustered far from the origin, the kernel's rounding makes some
        # lengthscales' factorisations escalate
        x = np.sort(np.random.default_rng(4).uniform(0.0, 4.0, size=30))[:, None]
        X = 1e5 + x
        model = fit(Dataset(tuple(range(30)), X, np.hstack([x, np.sin(x)])))
        assert max(p.nugget for p in model.parts) > BASE_NUGGET
        for part in model.parts:
            chol, nugget = _escalated_cholesky(rbf_kernel(X, X, part.lengthscale), BASE_NUGGET)
            assert part.nugget == nugget
            np.testing.assert_array_equal(part.chol, chol)

    def test_profiled_variance_and_lml_are_the_closed_form(self):
        data = toy_dataset(seed=8, n=32, d=4, m=3)
        model = fit(data)
        n = data.n
        for j, part in enumerate(model.parts):
            y = data.objectives[:, j]
            z = (y - y.mean()) / y.std()
            alpha = cho_solve((part.chol, True), z)
            s = float(z @ alpha)
            np.testing.assert_array_equal(part.alpha, alpha)
            assert part.sigma2 == float(np.clip(s / n, *SIGNAL_VARIANCE_BOUNDS))
            cov = part.sigma2 * (part.chol @ part.chol.T)
            closed = (-0.5 * z @ np.linalg.solve(cov, z) - 0.5 * np.linalg.slogdet(cov)[1]
                      - 0.5 * n * np.log(2.0 * np.pi))
            assert _lml(part.chol, s, part.sigma2) == pytest.approx(closed, rel=1e-9)

    def test_tanimoto_objectives_share_one_training_factor(self):
        data = toy_dataset(seed=3, n=9, d=7, m=3, binary=True)
        model = fit(data)
        chol, nugget = _escalated_cholesky(tanimoto_kernel(data.features, data.features),
                                           BASE_NUGGET)
        for part in model.parts:
            assert part.chol is model.parts[0].chol and part.nugget == nugget
        np.testing.assert_array_equal(model.parts[0].chol, chol)

    def test_escalated_cholesky_doubles_until_pd(self):
        base = np.diag([1.0, -4e-3])
        chol, nugget = _escalated_cholesky(base.copy(), BASE_NUGGET)
        assert nugget > 4e-3
        np.testing.assert_allclose(chol @ chol.T, base + nugget * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 300, 700])
    def test_escalated_cholesky_is_tril_of_the_factored_kernel(self, n):
        # the upper triangle is zeroed a tile at a time: the factor is
        # bitwise np.tril of LAPACK's in-place result
        X = (np.random.default_rng(n).random((n, 24)) < 0.5).astype(float)
        kernel = tanimoto_kernel(X, X)
        factored = kernel.copy()
        chol, nugget = _escalated_cholesky(kernel, BASE_NUGGET)
        _jittered_cholesky(factored, [nugget])
        assert chol is kernel
        np.testing.assert_array_equal(chol, np.tril(factored))

    def test_fit_holds_one_kernel_sized_array(self):
        # the final factor is the kernel factored in place: beyond that one
        # n x n array the temporaries stay small
        n = 800
        data = toy_dataset(seed=5, n=n, d=24, m=2, binary=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = fit(data)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert model.parts[0].chol.shape == (n, n)
        assert peak <= 1.3 * n * n * 8

    def test_escalation_failure_raises(self):
        with pytest.raises(FitError, match="singular"):
            _escalated_cholesky(np.diag([1.0, -1.0]), BASE_NUGGET)


class TestPosterior:
    @pytest.mark.parametrize("kernel,binary", [("rbf", False), ("tanimoto", True)])
    def test_matches_closed_form_oracle(self, kernel, binary):
        for seed in range(10):
            data = toy_dataset(seed=seed, n=3, d=4, binary=binary)
            config = GpConfig(kernel=kernel, lengthscale=1.0, signal_variance=1.0)
            model = fit(data, config)
            rng = np.random.default_rng(100 + seed)
            if binary:
                Xq = rng.integers(0, 2, size=(4, 4)).astype(float)
            else:
                Xq = rng.normal(size=(4, 4))
            post = posterior(model, Xq)
            mean, cov = gp_posterior_oracle(
                data.features, data.objectives[:, 0], Xq, kernel,
                lengthscale=1.0, signal_variance=1.0)
            np.testing.assert_allclose(post.mean[:, 0], mean, atol=1e-8)
            # stored covariance carries the explicit base jitter
            np.testing.assert_allclose(post.cov[0], cov + 1e-8 * np.eye(4), atol=1e-8)

    def test_training_inputs_have_tiny_variance(self):
        data = toy_dataset(seed=2, n=5, m=2)
        model = fit(data)
        post = posterior(model, data.features)
        for j in range(2):
            assert np.all(np.diag(post.cov[j]) <= 1e-4)

    def test_far_query_variance_approaches_signal_variance(self):
        data = Dataset(tuple("abc"), [[0.0], [0.5], [1.0]], [[0.1], [0.4], [0.2]],
                       feature_kind="dense_real")
        model = fit(data, GpConfig(lengthscale=1.0))
        post = posterior(model, [[60.0]])
        assert post.cov[0][0, 0] == pytest.approx(model.parts[0].signal_variance, rel=0.01)

    def test_variance_nonnegative_and_bounded(self):
        data = toy_dataset(seed=9, n=8, d=3, m=2)
        model = fit(data)
        post = posterior(model, np.random.default_rng(3).normal(size=(20, 3)))
        for j, part in enumerate(model.parts):
            diag = np.diag(post.cov[j])
            assert np.all(diag >= 0.0)
            assert np.all(diag <= part.signal_variance * (1.0 + 1e-6) + 1e-3)

    def test_adding_data_never_increases_variance(self):
        config = GpConfig(lengthscale=0.8, signal_variance=1.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=(6, 1))
            y = rng.normal(size=(6, 1))
            grid = np.linspace(-2, 2, 9)[:, None]
            var_small = posterior(fit(Dataset(tuple(range(5)), x[:5], y[:5]), config), grid).cov[0].diagonal()
            var_big = posterior(fit(Dataset(tuple(range(6)), x, y), config), grid).cov[0].diagonal()
            assert np.all(var_big <= var_small + 1e-8)

    def test_objective_permutation_equivariance(self):
        data = toy_dataset(seed=4, n=5, m=2)
        swapped = Dataset(data.ids, data.features, data.objectives[:, ::-1])
        q = np.random.default_rng(0).normal(size=(3, 2))
        a = posterior(fit(data), q)
        b = posterior(fit(swapped), q)
        np.testing.assert_array_equal(a.mean[:, 0], b.mean[:, 1])
        np.testing.assert_array_equal(a.cov[0], b.cov[1])

    @pytest.mark.parametrize("kernel,binary,m", [("tanimoto", True, 2), ("rbf", False, 3)])
    def test_bitwise_equal_to_per_objective_closed_form(self, kernel, binary, m):
        data = toy_dataset(seed=12, n=10, d=6, m=m, binary=binary)
        model = fit(data, GpConfig(kernel=kernel))
        if kernel == "rbf":
            # one solve per objective: no two parts share a training factor
            assert len({p.lengthscale for p in model.parts}) == m
        rng = np.random.default_rng(3)
        Xq = rng.normal(size=(25, 6))
        if binary:
            Xq = (Xq > 0).astype(float)
        post = posterior(model, Xq)
        mean, cov, chol, jitter = reference_posterior(model, Xq)
        np.testing.assert_array_equal(post.mean, mean)
        np.testing.assert_array_equal(post.cov, cov)
        np.testing.assert_array_equal(post.chol, chol)
        np.testing.assert_array_equal(post.jitter, jitter)
        signal = [p.signal_variance for p in model.parts]
        np.testing.assert_array_equal(post.jitter, np.multiply(signal, JITTER_LADDER[0]))

    def test_second_jitter_rung_is_recorded_per_block(self):
        # a training factor slightly too small makes the normalized variance
        # at the training input -delta: 1e-8 of jitter is too little, 1e-7
        # enough. Parts 0 and 1 share that factor, so their group takes the
        # second rung whatever their scales; part 2, with its own nugget and
        # an exact factor, takes the first.
        delta = 5e-8
        data = Dataset(("a",), [[0.0]], [[0.0]], feature_kind="dense_real")

        def part(out_std, nugget, chol):
            return _ObjectiveGp(kernel="rbf", lengthscale=1.0, sigma2=1.0, nugget=nugget,
                                out_mean=0.0, out_std=out_std, alpha=np.array([0.5]),
                                chol=np.array([[chol]]))

        short = np.sqrt(1.0 / (1.0 + delta))
        model = GpModel(data=data, parts=[part(1.0, BASE_NUGGET, short),
                                          part(1e-3, BASE_NUGGET, short),
                                          part(8.0, 2 * BASE_NUGGET, 1.0)])
        Xq = np.array([[0.0], [5.0]])
        post = posterior(model, Xq)
        mean, cov, chol, jitter = reference_posterior(model, Xq)
        np.testing.assert_array_equal(post.jitter, jitter)
        np.testing.assert_array_equal(
            post.jitter, [JITTER_LADDER[1], 1e-6 * JITTER_LADDER[1], 64.0 * JITTER_LADDER[0]])
        np.testing.assert_array_equal(post.mean, mean)
        np.testing.assert_array_equal(post.cov, cov)
        np.testing.assert_array_equal(post.chol, chol)

    def test_rung_failing_past_the_first_pivot_restores_the_lower_triangle(self):
        # the first rung fails at the third pivot, after LAPACK has
        # overwritten the first two columns of the lower triangle with
        # factor entries; the second rung must factor the matrix itself
        M = np.array([[4.0, 2.0, 0.0], [2.0, 2.0, 1.0], [0.0, 1.0, 1.0 - 5e-8]])
        assert lapack.dpotrf(M + 1e-8 * np.eye(3))[1] == 3
        a, fresh = M.copy(), M.copy()
        diag, jitter = _jittered_cholesky(a, (1e-8, 1e-7))
        assert jitter == 1e-7 and _jittered_cholesky(fresh, (1e-7,))[1] == 1e-7
        np.testing.assert_array_equal(a, fresh)
        np.testing.assert_array_equal(np.triu(a, 1), np.triu(M, 1))
        np.testing.assert_array_equal(diag, M.diagonal() + 1e-7)

    def test_posterior_rung_failing_at_the_second_pivot(self):
        # one part of the second-rung model, with the training input queried
        # second: the first rung fails at its pivot after LAPACK has
        # overwritten the first column
        data = Dataset(("a",), [[0.0]], [[0.0]], feature_kind="dense_real")
        part = _ObjectiveGp(kernel="rbf", lengthscale=1.0, sigma2=1.0, nugget=BASE_NUGGET,
                            out_mean=0.0, out_std=1.0, alpha=np.array([0.5]),
                            chol=np.array([[np.sqrt(1.0 / (1.0 + 5e-8))]]))
        post = posterior(GpModel(data=data, parts=[part]), np.array([[0.3], [0.0]]))
        cov = post.cov[0]
        step = JITTER_LADDER[1] - JITTER_LADDER[0]
        assert post.jitter[0] == JITTER_LADDER[1]
        assert lapack.dpotrf(cov - step * np.eye(2))[1] == 2
        fresh = cov.copy()
        lapack.dpotrf(fresh.T, lower=0, overwrite_a=1)
        np.testing.assert_array_equal(post.chol[0], np.tril(fresh))

    @pytest.mark.parametrize("kernel,binary", [("tanimoto", True), ("rbf", False)])
    def test_normalized_query_block_is_exactly_symmetric(self, kernel, binary):
        # the kernels are exactly symmetric, so the jitter ladder can take
        # fit's kernels as they are; the posterior's covariance is symmetric
        # by construction and its factor lower triangular
        data = toy_dataset(seed=5, n=30, d=8, m=1, binary=binary)
        model = fit(data, GpConfig(kernel=kernel))
        part = model.parts[0]
        rng = np.random.default_rng(8)
        Xq = rng.normal(size=(300, 8))
        if binary:
            Xq = (Xq > 0).astype(float)
        rqq = tanimoto_kernel(Xq, Xq) if kernel == "tanimoto" else rbf_kernel(Xq, Xq, part.lengthscale)
        np.testing.assert_array_equal(rqq, rqq.T)
        post = posterior(model, Xq)
        np.testing.assert_array_equal(post.cov[0], post.cov[0].T)
        np.testing.assert_array_equal(post.chol[0], np.tril(post.chol[0]))

    def test_tanimoto_kernel_is_bitwise_the_reference_formula(self):
        rng = np.random.default_rng(6)
        a = (rng.random((40, 12)) < 0.3).astype(float)
        b = rng.integers(0, 3, size=(25, 12)).astype(float)  # k-gram counts
        a[[0, 7]] = 0.0
        b[3] = 0.0
        # the denominators are formed a few rows at a time: all-zero rows of
        # the larger pair sit on both sides of its chunk boundaries
        big_a = (rng.random((700, 24)) < 0.4).astype(float)
        big_b = rng.integers(0, 3, size=(300, 24)).astype(float)
        step = TILE * TILE // len(big_b)
        assert len(big_a) > 2 * step
        big_a[[0, step - 1, step, 2 * step, 699]] = 0.0
        big_b[[0, 150, 299]] = 0.0
        for x, y in ((a, b), (a, a), (b, a), (big_a, big_b), (big_a, big_a), (big_b, big_a)):
            np.testing.assert_array_equal(tanimoto_kernel(x, y), tanimoto_similarity(x, y))
        assert tanimoto_kernel(a, b)[0, 3] == tanimoto_kernel(a, a)[0, 7] == 1.0
        assert tanimoto_kernel(big_a, big_b)[step, 150] == 1.0

    def test_no_open_rows(self):
        data = toy_dataset(seed=6, n=5, d=3, m=2)
        model = fit(data)
        post = pool_posterior(model, data.features, np.arange(5), data.objectives)
        assert post.cov.shape == (2, 0, 0) and np.asarray(post.cov).shape == (2, 0, 0)
        assert post.chol[1].shape == (0, 0)
        np.testing.assert_array_equal(post.jitter, post.cov.scale * JITTER_LADDER[0])
        np.testing.assert_array_equal(post.sample(3, seed=1), np.repeat(data.objectives[None], 3, axis=0))

    @pytest.mark.parametrize("kernel,binary", [("tanimoto", True), ("rbf", False)])
    def test_one_open_row(self, kernel, binary):
        data = toy_dataset(seed=6, n=5, d=6, m=2, binary=binary)
        model = fit(data, GpConfig(kernel=kernel))
        Xq = np.random.default_rng(1).normal(size=(1, 6))
        if binary:
            Xq = (Xq > 0).astype(float)
        post = posterior(model, Xq)
        mean, cov, chol, jitter = reference_posterior(model, Xq)
        np.testing.assert_array_equal(post.mean, mean)
        np.testing.assert_array_equal(post.cov, cov)
        np.testing.assert_array_equal(post.chol, chol)
        np.testing.assert_array_equal(post.jitter, jitter)
        assert post.sample(SAMPLE_BLOCK + 1, seed=2).shape == (SAMPLE_BLOCK + 1, 1, 2)

    @pytest.mark.parametrize("n_samples", [1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 4 * SAMPLE_BLOCK])
    @pytest.mark.parametrize("case,n_groups", [("tanimoto", 1), ("rbf", 3), ("mixed", 2)])
    def test_one_block_per_group_matches_scaled_copies(self, case, n_groups, n_samples):
        model, data = grouped_model(case)
        rng = np.random.default_rng(9)
        fresh = rng.normal(size=(30, data.d))
        pool = np.vstack([(fresh > 0).astype(float) if case == "tanimoto" else fresh,
                          data.features])
        post = pool_posterior(model, pool, np.arange(30, 40), data.objectives)
        assert len(post.cov.blocks) == len(post.chol.blocks) == n_groups
        mean, cov, chol, jitter = scaled_copy_posterior(model, pool[post.stochastic_idx])
        np.testing.assert_array_equal(post.mean[post.stochastic_idx], mean)
        np.testing.assert_array_equal(post.jitter, jitter)
        for j in range(model.m):
            np.testing.assert_array_equal(post.cov[j], cov[j])
            np.testing.assert_array_equal(post.chol[j], chol[j])
        # the draws are a triangular multiply scaled by sqrt(c) against the
        # reference's dense product of a scaled copy: equal up to rounding
        np.testing.assert_allclose(
            post.sample(n_samples, seed=5),
            scaled_copy_sample(post.mean, chol, post.stochastic_idx, n_samples, 5),
            rtol=0, atol=1e-14)

    def test_query_dimension_mismatch(self):
        model = fit(toy_dataset())
        with pytest.raises(ValueError, match="query features"):
            posterior(model, [[1.0, 2.0, 3.0]])


class TestPosteriorMean:
    @pytest.mark.parametrize("kernel", ["rbf", "tanimoto", "pinned"])
    def test_is_bitwise_the_posterior_mean(self, kernel):
        # three objectives in two kernel groups when pinned, up to three otherwise
        data = toy_dataset(seed=31, n=40, d=12, m=3, binary=kernel == "tanimoto")
        config = GpConfig(lengthscale=0.9) if kernel == "pinned" else GpConfig()
        model = fit(data, config)
        if kernel == "pinned":
            model.parts[2] = dataclasses.replace(model.parts[2], nugget=2 * BASE_NUGGET)
        rng = np.random.default_rng(4)
        for Xq in (data.features, rng.normal(size=(25, 12)), np.empty((0, 12))):
            got = posterior_mean(model, Xq)
            assert got.tobytes() == posterior(model, Xq).mean.tobytes()

    def test_rejects_bad_query_shape(self):
        model = fit(toy_dataset(seed=1, n=5, d=2, m=1))
        with pytest.raises(ValueError, match="query features"):
            posterior_mean(model, [[1.0, 2.0, 3.0]])


class TestSampling:
    def test_zero_covariance_returns_mean_exactly(self):
        mean = np.array([[1.0, -2.0], [0.5, 3.0]])
        post = Posterior(mean=mean, cov=np.zeros((2, 2, 2)))
        samples = post.sample(4, seed=0)
        assert samples.shape == (4, 2, 2)
        for ell in range(4):
            np.testing.assert_array_equal(samples[ell], mean)

    def test_bitwise_deterministic(self):
        data = toy_dataset(seed=1, n=4, m=2)
        post = posterior(fit(data), data.features)
        a = post.sample(16, seed=42)
        b = post.sample(16, seed=42)
        np.testing.assert_array_equal(a, b)
        c = post.sample(16, seed=43)
        assert not np.array_equal(a, c)

    def test_draws_reproducible_in_isolation(self):
        data = toy_dataset(seed=1, n=4, m=2)
        post = posterior(fit(data), data.features)
        full = post.sample(8, seed=7)
        short = post.sample(3, seed=7)
        np.testing.assert_array_equal(full[:3], short)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_draws_isolated_across_block_boundaries(self, m):
        post = open_pool_posterior(m)
        assert post.cov.shape[1] == 28
        w = SAMPLE_BLOCK
        full = post.sample(2 * w + 3, seed=11)
        for n_samples in (1, w - 1, w, w + 1):
            np.testing.assert_array_equal(post.sample(n_samples, seed=11), full[:n_samples])

    @pytest.mark.parametrize("case", ["open-1", "open-2", "open-3", "all-open", "u=0", "discrete"])
    def test_draw_range_is_the_tail_of_the_longer_run(self, case):
        if case.startswith("open"):
            post = open_pool_posterior(int(case[-1]))
        elif case == "all-open":
            data = toy_dataset(seed=5, n=6, d=2, m=2)
            post = posterior(fit(data), np.random.default_rng(5).normal(size=(30, 2)))
            assert post.stochastic_idx is None
        elif case == "u=0":
            data = toy_dataset(seed=5, n=6, d=2, m=2)
            post = pool_posterior(fit(data), data.features, np.arange(6), data.objectives)
            assert post.cov.shape[1] == 0
        else:
            post = DiscretePosterior([[[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5]], [[2.0, 0.0], [0.0, 2.0]]],
                                     [[0.3, 0.7], [1.0], [0.5, 0.5]])
        w = SAMPLE_BLOCK
        for first in (0, 1, w - 1, w, w + 1, 2 * w):
            for n_samples in (1, w - 1, w, w + 1):
                np.testing.assert_array_equal(post.sample(n_samples, 11, first=first),
                                              post.sample(first + n_samples, 11)[first:])

    def test_draw_range_rejects_a_negative_first(self):
        with pytest.raises(ValueError, match="first"):
            open_pool_posterior(1).sample(4, 11, first=-1)

    @pytest.mark.parametrize("m", [1, 3])
    def test_draws_match_matrix_vector_reference(self, m):
        post = open_pool_posterior(m, seed=4)
        n_samples = SAMPLE_BLOCK + 5
        np.testing.assert_allclose(post.sample(n_samples, seed=2), gemv_draws(post, n_samples, 2),
                                   rtol=0, atol=1e-15)

    def test_empirical_mean_converges(self):
        data = toy_dataset(seed=3, n=3, d=2, m=2)
        model = fit(data)
        post = posterior(model, np.random.default_rng(8).normal(size=(3, 2)))
        n = 100_000
        samples = post.sample(n, seed=5)
        se = np.sqrt(np.stack([np.diag(post.cov[j]) for j in range(2)], axis=1) / n)
        np.testing.assert_array_less(np.abs(samples.mean(axis=0) - post.mean), 4.0 * se + 1e-12)

    def test_posterior_allocates_one_block_per_group(self):
        # the query kernel becomes the covariance, and LAPACK factors it in
        # place: beyond that one u x u array the temporaries stay small
        u, n = 800, 40
        data = toy_dataset(seed=2, n=n, d=24, m=2, binary=True)
        model = fit(data)
        Xq = (np.random.default_rng(0).random((u, 24)) < 0.5).astype(float)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            post = posterior(model, Xq)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(post.cov.blocks) == 1
        assert peak <= 1.3 * u * u * 8

    @pytest.mark.parametrize("u", [300, 800])
    def test_qpmhi_frees_its_draws_before_scoring(self, u):
        # the open-row view that campaign.select_next scores: once the
        # undominated draws are copied out, the draws are freed, so the
        # screen's and the scoring's temporaries never sit beside them
        # (1.50x the draws; keeping them through the scoring, 2.13x at
        # u = 800). At u = 300 the m = 2 screen's chunk temporaries set the
        # peak: 2.40x the draws with 2**16-row chunks.
        n, n_samples = 40, 256
        data = toy_dataset(seed=2, n=n, d=24, m=2, binary=True)
        model = fit(data)
        fresh = (np.random.default_rng(0).random((u, 24)) < 0.5).astype(float)
        post = pool_posterior(model, np.vstack([data.features, fresh]), np.arange(n),
                              data.objectives)
        view = dataclasses.replace(post, mean=post.mean[post.stochastic_idx], stochastic_idx=None)
        front = build_front(data.objectives, data.ids, data.objectives.min(axis=0) - 1e-6)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = estimate_qpmhi(view, front, n_samples, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert result.improving_fraction > 0
        assert peak <= 1.75 * n_samples * u * 2 * 8

    def test_rbf_posterior_allocates_one_block(self):
        # the RBF query kernel is formed in place in its one u x u array
        u, n = 800, 40
        model = fit(toy_dataset(seed=2, n=n, d=24, m=1), GpConfig(kernel="rbf"))
        Xq = np.random.default_rng(0).normal(size=(u, 24))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            post = posterior(model, Xq)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert model.parts[0].kernel == "rbf" and len(post.cov.blocks) == 1
        assert peak <= 1.3 * u * u * 8

    def test_pool_draws_peak_below_four_blocks(self):
        # the posterior holds one array per group, which keeps both the
        # covariance and its factor; sampling adds no u x u array. One
        # scaled copy of both per objective peaked at seven.
        u, n = 1500, 40
        data = toy_dataset(seed=2, n=n, d=24, m=2, binary=True)
        model = fit(data)
        fresh = (np.random.default_rng(0).random((u, 24)) < 0.5).astype(float)
        pool = np.vstack([data.features, fresh])
        tracemalloc.start()
        try:
            post = pool_posterior(model, pool, np.arange(n), data.objectives)
            posterior_peak = tracemalloc.get_traced_memory()[1]
            post.sample(256, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = u * u * 8
        assert post.cov.shape == (2, u, u)
        assert posterior_peak < 2.5 * block
        assert peak < 4 * block

    def test_sampling_peak_below_one_block(self):
        # the triangular multiply reads each group's factor in place and
        # overwrites the normals, so no scaled u x u copy of a factor is made
        u, n = 1500, 40
        data = toy_dataset(seed=2, n=n, d=24, m=2, binary=True)
        fresh = (np.random.default_rng(0).random((u, 24)) < 0.5).astype(float)
        post = pool_posterior(fit(data), np.vstack([data.features, fresh]), np.arange(n),
                              data.objectives)
        tracemalloc.start()
        try:
            post.sample(256, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.cov.shape == (2, u, u)
        assert peak < u * u * 8

    @pytest.mark.parametrize("m", [1, 3])
    def test_upper_triangle_of_factor_is_never_read(self, m):
        base = open_pool_posterior(m)
        scale = np.linspace(0.5, 2.0, m)
        lower = [np.asarray(base.chol[j]) for j in range(m)]
        upper = np.triu(np.ones_like(lower[0], dtype=bool), k=1)

        def with_factors(blocks):
            return Posterior(mean=base.mean, cov=base.cov,
                             stochastic_idx=base.stochastic_idx,
                             chol=ScaledBlocks(blocks, scale, np.arange(m)))

        poisoned = [np.where(upper, np.nan, f) for f in lower]
        draws = with_factors(poisoned).sample(SAMPLE_BLOCK + 3, seed=6)
        assert np.isfinite(draws).all()
        np.testing.assert_array_equal(draws, with_factors(lower).sample(SAMPLE_BLOCK + 3, seed=6))

    def test_dense_cov_is_factored_when_made(self):
        # one block factors with no jitter, a rank-one block needs the first
        # rung, and an all-zero block keeps a zero factor; sampling keeps both
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5))
        cov = np.stack([a @ a.T + np.eye(5), np.ones((5, 5)), np.zeros((5, 5))])
        post = Posterior(mean=np.zeros((5, 3)), cov=cov)
        np.testing.assert_array_equal(post.jitter, [0.0, JITTER_LADDER[0], 0.0])
        for j, jitter in enumerate(post.jitter):
            ref = cov[j] + jitter * np.eye(5)
            if ref.any():
                lapack.dpotrf(ref.T, lower=0, overwrite_a=1)
            np.testing.assert_array_equal(post.chol[j], np.tril(ref))
        np.testing.assert_array_equal(post.cov, cov)
        chol, jitter = post.chol, post.jitter.copy()
        post.sample(3, seed=1)
        assert post.chol is chol
        np.testing.assert_array_equal(post.jitter, jitter)

    def test_scaled_blocks_cov_needs_its_factors(self):
        base = open_pool_posterior(2)
        with pytest.raises(ValueError, match="chol"):
            Posterior(mean=base.mean, cov=base.cov, stochastic_idx=base.stochastic_idx)

    @pytest.mark.parametrize("chol", ["array", "scaled blocks"])
    def test_dense_cov_takes_no_factors(self, chol):
        # a dense cov is always factored by the posterior itself
        cov = np.stack([np.eye(3), 2.0 * np.eye(3)])
        given = (np.stack([np.eye(3), np.sqrt(2.0) * np.eye(3)]) if chol == "array"
                 else Posterior(mean=np.zeros((3, 2)), cov=cov).chol)
        with pytest.raises(ValueError, match="never with an array cov"):
            Posterior(mean=np.zeros((3, 2)), cov=cov, chol=given)

    def test_invalid_count_rejected(self):
        post = Posterior(mean=np.zeros((1, 1)), cov=np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            post.sample(0, seed=1)


class TestPoolPosterior:
    def test_known_rows_deterministic_and_block_matches(self):
        data = toy_dataset(seed=6, n=4, d=3, m=2)
        model = fit(data)
        rng = np.random.default_rng(2)
        pool = np.vstack([data.features[:2], rng.normal(size=(3, 3))])
        known_values = data.objectives[:2]
        post = pool_posterior(model, pool, known_idx=[0, 1], known_values=known_values)
        np.testing.assert_array_equal(post.mean[:2], known_values)
        dense = posterior(model, pool[2:])
        np.testing.assert_allclose(post.mean[2:], dense.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, dense.cov, atol=1e-12)
        samples = post.sample(5, seed=3)
        for ell in range(5):
            np.testing.assert_array_equal(samples[ell, :2], known_values)

    def test_marginal_consistency_with_dense_posterior(self):
        data = toy_dataset(seed=7, n=5, d=2, m=1)
        model = fit(data)
        pool = np.vstack([data.features[:3], np.random.default_rng(4).normal(size=(4, 2))])
        structured = pool_posterior(model, pool, known_idx=[0, 1, 2], known_values=data.objectives[:3])
        dense = posterior(model, pool)
        open_idx = structured.stochastic_idx
        np.testing.assert_allclose(
            structured.cov[0], dense.cov[0][np.ix_(open_idx, open_idx)], atol=1e-9)


def labeled_pool(seed, n):
    """(read-only binary pool of n 24-bit rows, its labels, a labelling order)."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, 24)) < 0.5).astype(float)
    X.flags.writeable = False
    return X, rng.normal(size=(n, 2)), list(rng.permutation(n))


def fit_labels(X, Y, labeled, config=GpConfig()):
    return fit(Dataset(tuple(f"x{i}" for i in labeled), X[labeled], Y[labeled]), config)


class TestKeptCovariance:
    """pool_posterior with a KeptCovariance conditions the last posterior's
    array in place on the rows labeled since (Rasmussen & Williams 2006,
    A.3), and rebuilds it fresh when a group key or the data changes."""

    @staticmethod
    def assert_close_on_normalized_scale(post, fresh, atol):
        np.testing.assert_array_equal(post.mean, fresh.mean)
        for j in range(post.m):
            np.testing.assert_allclose(post.cov[j] / post.cov.scale[j],
                                       fresh.cov[j] / fresh.cov.scale[j], rtol=0, atol=atol)

    @staticmethod
    def assert_bitwise(post, fresh):
        np.testing.assert_array_equal(post.mean, fresh.mean)
        np.testing.assert_array_equal(post.jitter, fresh.jitter)
        for j in range(post.m):
            np.testing.assert_array_equal(post.cov[j], fresh.cov[j])
            np.testing.assert_array_equal(post.chol[j], fresh.chol[j])

    @settings(max_examples=25)
    @given(st.integers(30, 150), st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from([0, 1, 2, 7]), min_size=1, max_size=5))
    def test_chained_conditioning_is_the_fresh_posterior(self, n, seed, batches):
        # batches of one, of several and empty ones, then one labelling
        # every open row; each step's array is the one the step before kept
        X, Y, order = labeled_pool(seed, n)
        kept, labeled, block = KeptCovariance(X), order[:5], None
        for size in batches + [n]:
            labeled = order[:len(labeled) + size]
            model = fit_labels(X, Y, labeled)
            post = pool_posterior(model, X, labeled, Y[labeled], kept)
            fresh = pool_posterior(model, X, labeled, Y[labeled])
            assert post.cov.shape[1] == n - len(labeled) == len(post.stochastic_idx)
            np.testing.assert_array_equal(post.stochastic_idx, fresh.stochastic_idx)
            if block is None:
                self.assert_bitwise(post, fresh)
            else:
                assert post.cov.blocks[0] is block
                self.assert_close_on_normalized_scale(post, fresh, 1e-12)
            block = post.cov.blocks[0]
            assert kept.arrays[model.parts[0].kernel, None, model.parts[0].nugget][0] is block

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_chain_stays_the_fresh_posterior(self, seed):
        # 200 single-row conditionings of one array, with no rebuild between:
        # rounding must not build up along the chain
        X, Y, order = labeled_pool(seed, 300)
        kept = KeptCovariance(X)
        for size in range(5, 206):
            labeled = order[:size]
            model = fit_labels(X, Y, labeled)
            post = pool_posterior(model, X, labeled, Y[labeled], kept)
            fresh = posterior(model, X[post.stochastic_idx])
            assert post.cov.shape[1] == 300 - size
            self.assert_close_on_normalized_scale(
                dataclasses.replace(post, mean=post.mean[post.stochastic_idx], stochastic_idx=None),
                fresh, 1e-12)

    @settings(max_examples=15)
    @given(st.integers(30, 150), st.integers(0, 2 ** 32 - 1))
    def test_nugget_escalation_rebuilds_then_chains_again(self, n, seed):
        # the last row to be labeled copies the first: labelling it makes the
        # training kernel singular, so the fit nugget escalates (1e-17 to
        # 1.6e-16), the group key changes and the covariance is rebuilt
        X, Y, order = labeled_pool(seed, n)
        X = X.copy()
        X[order[-1]] = X[order[0]]
        X.flags.writeable = False
        order = order[:-1][:20] + order[-1:] + order[20:-1]
        config = GpConfig(kernel="tanimoto", nugget=1e-17)
        kept, nuggets = KeptCovariance(X), []
        for size, chained in ((5, False), (12, True), (20, True), (21, False), (26, True)):
            labeled = order[:size]
            model = fit_labels(X, Y, labeled, config)
            block = next(iter(kept.arrays.values()), (None,))[0]
            post = pool_posterior(model, X, labeled, Y[labeled], kept)
            fresh = pool_posterior(model, X, labeled, Y[labeled])
            nuggets.append(model.parts[0].nugget)
            assert (post.cov.blocks[0] is block) == chained
            if chained:
                self.assert_close_on_normalized_scale(post, fresh, 1e-12)
            else:
                self.assert_bitwise(post, fresh)
        assert nuggets == [1e-17] * 3 + [nuggets[3]] * 2 and nuggets[3] > 1e-17

    def test_data_that_is_not_the_kept_data_plus_the_new_rows_rebuilds(self):
        X, Y, order = labeled_pool(4, 60)
        kept = KeptCovariance(X)
        pool_posterior(fit_labels(X, Y, order[:10]), X, order[:10], Y[order[:10]], kept)
        # one more labeled design that is no pool row: the open rows are
        # unchanged, but the covariance must condition on the new design too
        extra = Dataset(tuple(f"x{i}" for i in order[:10]) + ("outside",),
                        np.vstack([X[order[:10]], np.ones((1, 24))]),
                        np.vstack([Y[order[:10]], [[0.0, 0.0]]]))
        model = fit(extra)
        post = pool_posterior(model, X, order[:10], Y[order[:10]], kept)
        self.assert_bitwise(post, pool_posterior(model, X, order[:10], Y[order[:10]]))
        # a row labeled with another pool row's features
        kept = KeptCovariance(X)
        pool_posterior(fit_labels(X, Y, order[:10]), X, order[:10], Y[order[:10]], kept)
        labeled = order[:11]
        model = fit(Dataset(extra.ids[:10] + ("y",), np.vstack([X[order[:10]], X[order[12]]]),
                            Y[labeled]))
        post = pool_posterior(model, X, labeled, Y[labeled], kept)
        self.assert_bitwise(post, pool_posterior(model, X, labeled, Y[labeled]))

    def test_kept_covariance_of_another_matrix_rejected(self):
        X, Y, order = labeled_pool(5, 30)
        with pytest.raises(ValueError, match="another feature matrix"):
            pool_posterior(fit_labels(X, Y, order[:5]), X.copy(), order[:5], Y[order[:5]],
                           KeptCovariance(X))
