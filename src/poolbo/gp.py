"""Exact Gaussian-process surrogates: one independent GP per objective.

Targets are normalized per objective before fitting. Hyperparameters maximize
the log marginal likelihood, with the signal variance profiled out in closed
form at every evaluation. RBF lengthscales come from one log-spaced grid whose
kernels are each factored once for all objectives, then a bounded L-BFGS-B
refinement of each objective's grid maxima. Kernels: isotropic RBF for dense
real features, Tanimoto for binary features.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import blas, cho_solve, lapack, solve_triangular
from scipy.optimize import minimize

from .seeds import child_rng

LENGTHSCALE_BOUNDS = (1e-2, 1e3)
SIGNAL_VARIANCE_BOUNDS = (1e-3, 1e3)
BASE_NUGGET = 1e-6
MAX_NUGGET = 1e-2
JITTER_LADDER = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# draws per zero-padded block that Posterior.sample multiplies by a factor
SAMPLE_BLOCK = 64
# a u x u block is built through temporaries of at most TILE x TILE entries
TILE = 256
# a kept covariance is compacted through row tiles of at most ROW_TILE rows
ROW_TILE = 32
N_STARTS = 21  # lengthscale grid points, four per decade


class FitError(RuntimeError):
    """Raised when a kernel matrix stays singular through nugget escalation."""


class NumericalError(RuntimeError):
    """Raised when a posterior covariance cannot be factorized."""


@dataclass(frozen=True)
class Dataset:
    """Labeled designs: parallel ids, feature rows, and objective rows.

    `genomes` optionally keeps the raw design strings so downstream pool
    generators can breed from labeled designs; the surrogate ignores it.
    """

    ids: tuple
    features: np.ndarray
    objectives: np.ndarray
    feature_kind: str = "auto"
    genomes: tuple | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        objs = np.asarray(self.objectives, dtype=float)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if objs.ndim != 2:
            raise ValueError(f"objectives must be 2-d, got shape {objs.shape}")
        if feats.shape[0] != objs.shape[0] or feats.shape[0] != len(self.ids):
            raise ValueError("ids, features, and objectives must have matching length")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(objs)):
            raise ValueError("dataset contains non-finite entries")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("dataset ids must be unique")
        if self.genomes is not None and len(self.genomes) != len(self.ids):
            raise ValueError("one genome per labeled design is required")
        kind = self.feature_kind
        if kind == "auto":
            kind = "binary" if feats.size and np.all((feats == 0) | (feats == 1)) else "dense_real"
        elif kind not in ("binary", "dense_real"):
            raise ValueError(f"unknown feature kind: {self.feature_kind}")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "objectives", objs)
        object.__setattr__(self, "feature_kind", kind)
        if self.genomes is not None:
            object.__setattr__(self, "genomes", tuple(str(g) for g in self.genomes))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def m(self) -> int:
        return self.objectives.shape[1]

    def append(self, ids, features, objectives, genomes=None) -> "Dataset":
        if not len(ids):
            return self
        if (self.genomes is None) != (genomes is None):
            raise ValueError("genomes must be given for all designs or none")
        return Dataset(
            ids=self.ids + tuple(ids),
            features=np.vstack([self.features, np.asarray(features, dtype=float)]),
            objectives=np.vstack([self.objectives, np.asarray(objectives, dtype=float)]),
            feature_kind=self.feature_kind,
            genomes=None if genomes is None else self.genomes + tuple(genomes),
        )


@dataclass(frozen=True)
class GpConfig:
    """Fit settings; lengthscale/signal_variance pin hyperparameters when set.

    Pinned values are on the normalized-target scale. n_starts counts the
    points of the RBF lengthscale grid.
    """

    kernel: str = "auto"
    lengthscale: float | None = None
    signal_variance: float | None = None
    n_starts: int = N_STARTS
    nugget: float = BASE_NUGGET

    def __post_init__(self):
        if self.kernel not in ("auto", "rbf", "tanimoto"):
            raise ValueError(f"unknown kernel: {self.kernel}")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if not 0 < self.nugget <= MAX_NUGGET:
            raise ValueError(f"nugget must lie in (0, {MAX_NUGGET}]")


def _norm_sums(out: np.ndarray, na: np.ndarray, nb: np.ndarray):
    """(rows of out, na_i + nb_k over those rows), a few rows at a time; the
    sums share one buffer of at most TILE * TILE entries."""
    step = max(1, TILE * TILE // max(1, out.shape[1]))
    buf = np.empty((min(step, len(out)), out.shape[1]))
    for start in range(0, len(out), step):
        rows = out[start:start + step]
        yield rows, np.add(na[start:start + step, None], nb, out=buf[:len(rows)])


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(|a_i|^2 + |b_k|^2 - 2 a_i.b_k, 0), formed in place in a @ b.T."""
    out = a @ b.T
    out *= 2.0
    for rows, sums in _norm_sums(out, (a * a).sum(axis=1), (b * b).sum(axis=1)):
        np.subtract(sums, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return out


def rbf_kernel(a: np.ndarray, b: np.ndarray, lengthscale: float) -> np.ndarray:
    """Unit-variance isotropic RBF kernel matrix, formed in place."""
    out = squared_distances(a, b)
    out *= -0.5
    out /= lengthscale ** 2
    return np.exp(out, out=out)


def tanimoto_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit-variance Tanimoto similarity for non-negative (binary) vectors.

    The all-zero pair has similarity 1 so k(x, x) stays constant. The
    denominators are formed a few rows at a time (_norm_sums), so the result
    is the only len(a) x len(b) array.
    """
    out = a @ b.T
    na = (a * a).sum(axis=1)
    nb = (b * b).sum(axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 at the all-zero pairs, set below
        for rows, denom in _norm_sums(out, na, nb):
            denom -= rows
            rows /= denom
    # non-negative rows have a zero denominator only when both are all zero
    out[np.ix_(na == 0, nb == 0)] = 1.0
    return out


def _kernel(kind: str, lengthscale: float | None, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unit-variance kernel block k(a, b) of one objective's kernel."""
    return tanimoto_kernel(a, b) if kind == "tanimoto" else rbf_kernel(a, b, lengthscale)


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of the square `a` over its strict upper
    one, one TILE x TILE tile at a time; `_mirror_lower(a.T)` copies back."""
    for r in range(0, len(a), TILE):
        rows = slice(r, r + TILE)
        for c in range(0, r, TILE):
            a[c:c + TILE, rows] = a[rows, c:c + TILE].T
        tile = a[rows, rows]
        np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool).T)


def _jittered_cholesky(a: np.ndarray, ladder, error=NumericalError):
    """Factor a + jitter*I in place for the first jitter on `ladder` that factorizes.

    `a` is C-ordered and symmetric. LAPACK dpotrf leaves the lower factor in
    its lower triangle and the matrix in its strict upper one, from which a
    failed rung restores the lower triangle. Every rung jitters the original
    diagonal, so the factored matrix is exactly a + jitter*I. Returns
    (diagonal, jitter): the factored matrix's diagonal and the jitter.
    """
    diag = a.diagonal().copy()
    for k, jitter in enumerate(ladder):
        if k:
            _mirror_lower(a.T)
        np.fill_diagonal(a, diag + jitter)
        # a.T is F-ordered, so LAPACK works in place: its upper factor is a's lower one
        if not lapack.dpotrf(a.T, lower=0, clean=0, overwrite_a=1)[1]:
            return diag + jitter, jitter
    raise error(f"matrix singular: not positive definite with jitter up to {ladder[-1]:.0e}")


def _nugget_ladder(start_nugget: float) -> list:
    """start_nugget doubled until it would pass MAX_NUGGET."""
    doubling = (start_nugget * 2.0 ** k for k in itertools.count())
    return list(itertools.takewhile(lambda nugget: nugget <= MAX_NUGGET, doubling))


def _escalated_cholesky(a: np.ndarray, start_nugget: float):
    """(lower factor, nugget) of a + nugget*I, doubling the nugget until it
    factorizes. a, symmetric and C-ordered, becomes the factor in place: its
    strict upper triangle is zeroed a tile at a time, making no n x n copy."""
    nugget = _jittered_cholesky(a, _nugget_ladder(start_nugget), FitError)[1]
    for r in range(0, len(a), TILE):
        a[r:r + TILE, r + TILE:] = 0.0
        a[r:r + TILE, r:r + TILE] = np.tril(a[r:r + TILE, r:r + TILE])
    return a, nugget


@dataclass
class _ObjectiveGp:
    kernel: str
    lengthscale: float | None
    sigma2: float          # normalized-scale signal variance
    nugget: float
    out_mean: float
    out_std: float
    alpha: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)

    @property
    def signal_variance(self) -> float:
        """Signal variance in raw output units."""
        return self.sigma2 * self.out_std ** 2


@dataclass
class GpModel:
    """Independent per-objective exact GPs sharing one training set."""

    data: Dataset
    parts: list

    @property
    def m(self) -> int:
        return len(self.parts)

    def hyperparams(self) -> list:
        return [
            {
                "objective": i,
                "kernel": p.kernel,
                "lengthscale": None if p.lengthscale is None else float(p.lengthscale),
                "signal_variance": float(p.signal_variance),
            }
            for i, p in enumerate(self.parts)
        ]


def _profile_sigma2(s: float, n: int, pinned: float | None) -> float:
    """The signal variance maximising the LML, given s = z' K^-1 z over n points."""
    if pinned is not None:
        return float(pinned)
    low, high = SIGNAL_VARIANCE_BOUNDS
    return float(min(max(s / max(n, 1), low), high))


def _lml(chol: np.ndarray, s: float, sigma2: float) -> float:
    """Log marginal likelihood of sigma2 * K, given chol(K) and s = z' K^-1 z."""
    n = chol.shape[0]
    logdet_base = 2.0 * float(np.log(np.diag(chol)).sum())
    return -0.5 * s / sigma2 - 0.5 * (n * np.log(sigma2) + logdet_base) - 0.5 * n * np.log(2.0 * np.pi)


def _normalized(y: np.ndarray):
    """(mean, std, z) of one objective column; a constant column keeps std 1."""
    out_mean, out_std = float(y.mean()), float(y.std())
    out_std = out_std if out_std >= 1e-12 else 1.0
    return out_mean, out_std, (y - out_mean) / out_std


def _search_lengthscales(d2: np.ndarray, zs: list, config: GpConfig) -> list:
    """Each normalized target's LML-maximising RBF lengthscale, given the
    squared distances d2, which become -0.5 d2 in place.

    Each kernel on a log-spaced grid is factored once and scores every
    target with its own solve, so a target's lengthscale depends on it
    alone. L-BFGS-B then refines each grid point scoring better than its left
    neighbour and at least as well as its right one, bounded by them, so a
    flat run of tied scores is refined once, from its left end; the best
    refinement is kept.
    """
    # a one-point grid sits at the bounds' log-midpoint, off the lower bound's plateau
    grid = (np.log(np.geomspace(*LENGTHSCALE_BOUNDS, config.n_starts)) if config.n_starts > 1
            else np.mean(np.log(LENGTHSCALE_BOUNDS), keepdims=True))
    edges = np.concatenate([np.log(LENGTHSCALE_BOUNDS[:1]), grid, np.log(LENGTHSCALE_BOUNDS[1:])])

    # each kernel is exp(-0.5 d2 / exp(2t)), formed and factored in one reused
    # buffer whose strict upper triangle keeps the matrix: neither _lml nor
    # the solves (cho_solve's LAPACK potrs, without its wrapper) read it
    half_d2 = np.multiply(d2, -0.5, out=d2)
    kernel = np.empty_like(d2)
    ladder = _nugget_ladder(config.nugget)

    def neg_lmls(t, targets):
        np.divide(half_d2, np.exp(2.0 * t), out=kernel)
        np.exp(kernel, out=kernel)
        # each factorisation escalates from config.nugget, so LML(t) is a pure function
        _jittered_cholesky(kernel, ladder, FitError)
        ss = [float(z @ lapack.dpotrs(kernel.T, z, lower=0)[0]) for z in targets]
        return [-_lml(kernel, s, _profile_sigma2(s, len(d2), config.signal_variance)) for s in ss]

    lengthscales = []
    for z, f in zip(zs, np.array([neg_lmls(t, zs) for t in grid]).T):
        # z's score at each point it has reached, so that refining factors no
        # grid point again, nor a point L-BFGS-B comes back to
        seen = dict(zip(grid.tolist(), f.tolist()))
        padded = np.concatenate([[np.inf], f, [np.inf]])
        # a finite-difference step of 1e-5 in log-lengthscale stays above the
        # rounding noise of an ill-conditioned LML, which 1e-8 does not; a
        # slope under 1e-3 nats per unit log-lengthscale counts as flat
        runs = [minimize(lambda t: seen[t[0]] if t[0] in seen
                         else seen.setdefault(t[0], neg_lmls(t[0], [z])[0]),
                         [grid[i]], method="L-BFGS-B", bounds=[edges[i:i + 3:2]],
                         options={"eps": 1e-5, "gtol": 1e-3})
                for i in np.flatnonzero((f < padded[:-2]) & (f <= padded[2:]))]
        lengthscales.append(float(np.exp(min(runs, key=lambda r: r.fun).x[0])))
    return lengthscales


def fit(data: Dataset, config: GpConfig = GpConfig()) -> GpModel:
    """Fit one exact GP per objective column; deterministic given (data, config)."""
    if data.n < 1:
        raise ValueError("fit requires at least one labeled point")
    kernel = config.kernel
    if kernel == "auto":
        kernel = "tanimoto" if data.feature_kind == "binary" else "rbf"
    X = data.features
    columns = [_normalized(data.objectives[:, j]) for j in range(data.m)]
    if kernel == "tanimoto":
        lengthscales = [None] * data.m
    elif config.lengthscale is not None:
        lengthscales = [float(config.lengthscale)] * data.m
    else:
        lengthscales = _search_lengthscales(squared_distances(X, X), [c[2] for c in columns], config)
    # one final factor per distinct lengthscale (Tanimoto has one, None), with
    # the nugget that kernel needs
    factors = {ls: _escalated_cholesky(_kernel(kernel, ls, X, X), config.nugget)
               for ls in dict.fromkeys(lengthscales)}
    parts = []
    for (out_mean, out_std, z), lengthscale in zip(columns, lengthscales):
        chol, nugget = factors[lengthscale]
        # LAPACK solves with chol.T, the F-ordered upper factor, without a copy
        alpha = cho_solve((chol.T, False), z, check_finite=False)
        sigma2 = _profile_sigma2(float(z @ alpha), z.size, config.signal_variance)
        parts.append(_ObjectiveGp(kernel, lengthscale, sigma2, nugget, out_mean, out_std, alpha, chol))
    return GpModel(data=data, parts=parts)


class ScaledBlocks:
    """Read-only (m, u, u) stack whose block j is scale[j] times a view of
    group group[j]'s C-ordered array: `[j]` and np.asarray build bitwise
    what one scaled copy per objective held.

    Each array keeps a lower factor in its lower triangle and, above it, the
    strict upper triangle of the symmetric matrix it factors. With `diag`,
    one vector per array, a block is that matrix with the diagonal restored
    from `diag`; without, it is the factor, the lower triangle.
    """

    def __init__(self, blocks, scale, group, diag=None):
        self.blocks = blocks
        self.scale = scale
        self.group = group
        self.diag = diag

    @property
    def shape(self) -> tuple:
        return (len(self.group),) + self.blocks[0].shape

    def __getitem__(self, j) -> np.ndarray:
        g = self.group[j]
        if self.diag is None:
            out = np.tril(self.blocks[g])
        else:
            out = np.triu(self.blocks[g], 1)
            out += out.T
            np.fill_diagonal(out, self.diag[g])
        out *= self.scale[j]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.stack(list(self)).astype(dtype or float, copy=False)


@dataclass
class Posterior:
    """Joint posterior over a candidate pool.

    `cov` holds one covariance block per objective over the stochastic
    subset of the pool, as ScaledBlocks or an (m, u, u) array whose lower
    triangles are taken as the blocks; `stochastic_idx` of None means the
    full pool is stochastic. Rows outside the subset are deterministic at
    `mean`. `chol` holds the lower factors, scaled by the square roots of
    cov's scales, and `jitter` the diagonal jitter each block needed to
    factorize. A ScaledBlocks cov comes with its `chol`, as posterior()
    gives them. A cov given as an array comes without `chol`: it is factored
    when the posterior is made, in place in cov's own copy of the blocks.
    """

    mean: np.ndarray
    cov: ScaledBlocks
    stochastic_idx: np.ndarray | None = None
    chol: ScaledBlocks | None = field(default=None, repr=False)
    jitter: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.ndim != 2:
            raise ValueError(f"mean must be 2-d, got shape {self.mean.shape}")
        shape = self.cov.shape if isinstance(self.cov, ScaledBlocks) else np.shape(self.cov)
        if len(shape) != 3 or shape[0] != self.mean.shape[1] or shape[1] != shape[2]:
            raise ValueError("cov must be one square block per objective")
        u = shape[1]
        if self.stochastic_idx is None:
            if u != self.mean.shape[0]:
                raise ValueError("cov block size must match the pool when stochastic_idx is None")
        else:
            self.stochastic_idx = np.asarray(self.stochastic_idx, dtype=int)
            if self.stochastic_idx.size != u:
                raise ValueError("stochastic_idx length must match cov block size")
        if isinstance(self.cov, ScaledBlocks) != (self.chol is not None):
            raise ValueError("chol comes with a ScaledBlocks cov, and never with an array cov")
        if isinstance(self.cov, ScaledBlocks):
            return
        blocks = [np.array(b, dtype=float, order="C") for b in np.asarray(self.cov)]
        for b in blocks:
            _mirror_lower(b)
        scale, group = np.ones(len(blocks)), np.arange(len(blocks))
        self.cov = ScaledBlocks(blocks, scale, group, [b.diagonal().copy() for b in blocks])
        # an exactly-degenerate block keeps a zero factor, which reproduces the mean
        self.jitter = np.array([_jittered_cholesky(b, (0.0,) + JITTER_LADDER)[1]
                                if b.any() else 0.0 for b in blocks])
        self.chol = ScaledBlocks(blocks, scale, group)

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    @property
    def m(self) -> int:
        return self.mean.shape[1]

    def sample(self, n_samples: int, seed: int, first: int = 0) -> np.ndarray:
        """Draw joint samples first ... first + n_samples - 1, shape (n_samples, n, m).

        Sample ell is generated from a stream derived from (seed, ell) and
        multiplied by each factor as column ell % SAMPLE_BLOCK of a
        zero-padded block of SAMPLE_BLOCK columns aligned on absolute draw
        index. Every draw thus meets a product of the same shape in the same
        column whatever range is asked for, so any single draw is bitwise
        reproducible in isolation. The normals are drawn one block at a time,
        and BLAS trmm multiplies each block in place by the scaled factor's
        lower triangle. With every row stochastic each product is added into
        a slice of the output in place.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if first < 0:
            raise ValueError("first must be non-negative")
        factors, u = self.chol, self.cov.shape[1]
        idx = slice(None) if self.stochastic_idx is None else self.stochastic_idx
        out = np.repeat(self.mean[None, :, :], n_samples, axis=0)
        if u == 0:
            return out
        w, end = SAMPLE_BLOCK, first + n_samples
        for block in range(first - first % w, end, w):
            start, stop = max(block, first), min(block + w, end)
            zs = np.zeros((self.m, w, u))
            for ell in range(start, stop):
                zs[:, ell - block] = child_rng(seed, ell).standard_normal((u, self.m)).T
            for j in range(self.m):
                # .T of each C-ordered array is F-ordered, so BLAS copies neither
                blas.dtrmm(factors.scale[j], factors.blocks[factors.group[j]].T, zs[j].T,
                           lower=0, trans_a=1, overwrite_b=1)
                out[start - first:stop - first, idx, j] += zs[j, start - block:stop - block]
        return out


def _kernel_groups(model: GpModel, features) -> tuple:
    """(query features, objective indices by (kernel, lengthscale, nugget));
    the objectives of a group share one training factor."""
    Xq = np.asarray(features, dtype=float)
    if Xq.ndim != 2 or Xq.shape[1] != model.data.d:
        raise ValueError(f"query features must be (n, {model.data.d}), got {Xq.shape}")
    groups: dict = {}
    for j, part in enumerate(model.parts):
        groups.setdefault((part.kernel, part.lengthscale, part.nugget), []).append(j)
    return Xq, groups


def _group_mean(model: GpModel, Xq: np.ndarray, key: tuple, members: list, mean) -> np.ndarray:
    """Write a kernel group's posterior means over Xq in mean; returns k(Xq, X)."""
    rq = _kernel(key[0], key[1], Xq, model.data.features)
    for j in members:
        part = model.parts[j]
        mean[:, j] = part.out_mean + part.out_std * (rq @ part.alpha)
    return rq


def posterior_mean(model: GpModel, features) -> np.ndarray:
    """The posterior mean over query features, without the covariance:
    bitwise posterior(model, features).mean."""
    Xq, groups = _kernel_groups(model, features)
    mean = np.empty((Xq.shape[0], model.m))
    for key, members in groups.items():
        _group_mean(model, Xq, key, members, mean)
    return mean


def posterior(model: GpModel, features) -> Posterior:
    """Exact joint posterior over query features, one covariance block per objective.

    Objectives that share a kernel, lengthscale and nugget share one
    normalized covariance (_covariance), factored in place in its one u x u
    array with a jitter from 1e-8, escalating tenfold to at most 1e-4. Each
    member reads that array scaled by its raw signal variance c (the factor
    by sqrt(c)), so `jitter` records c times the normalized jitter and no
    jitter depends on the objectives' units.
    """
    return _posterior(model, *_kernel_groups(model, features), {}, None)[0]


def _posterior(model: GpModel, Xq: np.ndarray, groups: dict, kept: dict, positions) -> tuple:
    """(posterior() over Xq, {group key: its _covariance}). Per group, the
    cross kernel k(Xq, X) gives the means and goes to the covariance step,
    whose array is then factored in place."""
    mean, jitter = np.empty((Xq.shape[0], model.m)), np.empty(model.m)
    scale = np.array([part.signal_variance for part in model.parts])
    group, diags, held = np.empty(model.m, dtype=int), [], {}
    for g, (key, members) in enumerate(groups.items()):
        held[key] = _covariance(model, Xq, key, members, kept, positions,
                                _group_mean(model, Xq, key, members, mean))
        diag, base_jitter = _jittered_cholesky(held[key][0], JITTER_LADDER)
        diags.append(diag)
        group[members], jitter[members] = g, scale[members] * base_jitter
    blocks = [blk for blk, _ in held.values()]
    return Posterior(mean, ScaledBlocks(blocks, scale, group, diags),
                     chol=ScaledBlocks(blocks, np.sqrt(scale), group), jitter=jitter), held


def _covariance(model: GpModel, Xq: np.ndarray, key: tuple, members: list, kept: dict,
                positions, rq: np.ndarray | None = None) -> tuple:
    """The covariance step of one kernel group: (u x u array, its diagonal
    without jitter), its covariance over Xq. kept's array under key is
    conditioned at positions; without one, or if that fails, it is built
    fresh from rq = k(Xq, X), which the solve overwrites (made if not given)."""
    kind, lengthscale, nugget = key
    blk = _conditioned(*kept.pop(key), *positions, nugget) if key in kept else None
    if blk is None:
        rq = _kernel(kind, lengthscale, Xq, model.data.features) if rq is None else rq
        blk = _kernel(kind, lengthscale, Xq, Xq)
        _schur(model.parts[members[0]].chol, rq.T, blk, lower=True)
    return blk, blk.diagonal().copy()


def _schur(factor: np.ndarray, b: np.ndarray, c: np.ndarray, lower: bool) -> None:
    """c -= w^T w for w = factor^-1 b (factor lower; an F-ordered b becomes
    w) on the lower or upper triangle of the C-ordered c, then mirrored: a
    fresh build's lower, _conditioned's upper. BLAS syrk can round the two
    triangles differently, so each keeps its own."""
    if len(b) and len(c):  # BLAS rejects empty arrays
        w = solve_triangular(factor, b, lower=True, overwrite_b=True, check_finite=False)
        # w and c.T are F-ordered, so BLAS copies neither
        blas.dsyrk(-1.0, w, beta=1.0, c=c.T, trans=1, lower=int(not lower), overwrite_c=1)
    _mirror_lower(c if lower else c.T)


def _conditioned(a: np.ndarray, diag: np.ndarray, keep: np.ndarray, new: np.ndarray,
                 nugget: float) -> np.ndarray | None:
    """a, shrunk in place to the covariance S over rows `keep` conditioned
    on observations with noise variance `nugget` at rows `new`: S[K,K] -
    S[K,N] (S[N,N] + nugget I)^-1 S[N,K] (Rasmussen & Williams 2006, A.3),
    symmetric; None if S[N,N] + nugget I does not factor.

    S is a's strict upper triangle with diagonal `diag`; nothing below it is
    used. Row i of the result lands below row keep[i]'s offset (keep[i] >= i),
    so compacting tiles in order never overwrites a row a later tile reads.
    """
    u, k = len(keep), len(new)
    s_new = a[new]  # rows N of S: right of the diagonal in place, left of it read down columns
    for i, r in enumerate(new):
        s_new[i, :r] = a[:r, r]
    s_new[np.arange(k), new] = diag[new]
    factor, info = lapack.dpotrf(s_new[:, new] + nugget * np.eye(k), lower=1, clean=1)
    if info:
        return None
    w = s_new[:, keep]
    del s_new
    out = a.reshape(-1)[:u * u].reshape(u, u)
    for r in range(0, u, ROW_TILE):
        out[r:r + ROW_TILE, r:] = a.take(keep[r:r + ROW_TILE], axis=0).take(keep[r:], axis=1)
    del out
    a.resize((u, u), refcheck=False)  # frees the tail; no view of a is left to dangle
    np.fill_diagonal(a, diag[keep])
    _schur(factor, w, a, lower=False)
    return a


@dataclass
class KeptCovariance:
    """One pool's feature matrix and, per group key (kernel, lengthscale,
    nugget), its last covariance step's u x u array, the covariance above
    the diagonal (below it, the factor or after `condition` the covariance),
    and the jitter-free diagonal, over rows `open_idx` given `n_train` labels."""

    features: np.ndarray
    arrays: dict = field(default_factory=dict, repr=False)
    open_idx: np.ndarray | None = None
    n_train: int = 0

    def condition(self, model: GpModel, known_idx) -> None:
        """pool_posterior's covariance step alone, making no mean or factor."""
        Xq, groups, arrays, positions = self._next(model, known_idx)
        self.arrays = {key: _covariance(model, Xq, key, members, arrays, positions)
                       for key, members in groups.items()}

    def _next(self, model: GpModel, known_idx) -> tuple:
        """(open rows' features, kernel groups, arrays, positions): the
        covariance step's arguments for model over the rows known_idx leaves
        open. positions are (keep, new) in open_idx, or None with no arrays if
        model's data is not the kept data plus the newly labeled rows. kept
        holds no array until the step returns, so one that raises is rebuilt."""
        known = np.zeros(len(self.features), dtype=bool)
        known[known_idx] = True
        positions, open_idx = None, np.flatnonzero(~known)
        if self.open_idx is not None:
            keep, new = np.flatnonzero(~known[self.open_idx]), np.flatnonzero(known[self.open_idx])
            added, rows = model.data.features[self.n_train:], self.features[self.open_idx[new]]
            if len(keep) == len(open_idx) and model.data.n - self.n_train == len(new) \
                    and sorted(x.tobytes() for x in added) == sorted(x.tobytes() for x in rows):
                positions = keep, new
        Xq, groups = _kernel_groups(model, self.features[open_idx])
        arrays = {key: a for key, a in self.arrays.items() if key in groups and positions}
        self.arrays, self.open_idx, self.n_train = {}, open_idx, model.data.n
        return Xq, groups, arrays, positions


def pool_posterior(model: GpModel, features, known_idx, known_values,
                   kept: KeptCovariance | None = None) -> Posterior:
    """Pool posterior with already-labeled members held at their observed values.

    Labeled pool rows are deterministic (a noise-free GP interpolates them);
    only the unlabeled block carries covariance, which keeps joint sampling
    over large, mostly-labeled pools cheap.

    With `kept` (over this same `features` matrix), each group conditions
    kept's array in place where it can (see KeptCovariance._next); kept then
    holds this posterior's arrays, and the one it held is not to be used.
    """
    known_idx = np.asarray(known_idx, dtype=int)
    known_values = np.asarray(known_values, dtype=float).reshape(known_idx.size, model.m)
    if kept is None:
        kept = KeptCovariance(np.asarray(features, dtype=float))
    elif features is not kept.features:
        raise ValueError("kept covariance belongs to another feature matrix")
    sub, kept.arrays = _posterior(model, *kept._next(model, known_idx))
    mean = np.empty((len(kept.features), model.m))
    mean[kept.open_idx] = sub.mean
    mean[known_idx] = known_values
    return replace(sub, mean=mean, stochastic_idx=kept.open_idx)
