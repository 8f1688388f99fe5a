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
import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import blas, cho_solve, solve_triangular
from scipy.optimize import minimize

from .seeds import child_rng

logger = logging.getLogger(__name__)

LENGTHSCALE_BOUNDS = (1e-2, 1e3)
SIGNAL_VARIANCE_BOUNDS = (1e-3, 1e3)
BASE_NUGGET = 1e-6
MAX_NUGGET = 1e-2
JITTER_LADDER = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# draws per zero-padded block that Posterior.sample multiplies by a factor
SAMPLE_BLOCK = 64
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


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def rbf_kernel(a: np.ndarray, b: np.ndarray, lengthscale: float) -> np.ndarray:
    """Unit-variance isotropic RBF kernel matrix."""
    return np.exp(-0.5 * squared_distances(a, b) / lengthscale ** 2)


def tanimoto_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit-variance Tanimoto similarity for non-negative (binary) vectors.

    The all-zero pair has similarity 1 so k(x, x) stays constant.
    """
    dots = a @ b.T
    na = (a * a).sum(axis=1)
    nb = (b * b).sum(axis=1)
    denom = na[:, None] + nb[None, :]
    denom -= dots  # in place: two len(a) x len(b) arrays at most
    np.divide(dots, denom, out=dots, where=denom != 0)
    dots[denom == 0] = 1.0
    return dots


def _kernel(kind: str, lengthscale: float | None, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unit-variance kernel block k(a, b) of one objective's kernel."""
    return tanimoto_kernel(a, b) if kind == "tanimoto" else rbf_kernel(a, b, lengthscale)


def _jittered_cholesky(a: np.ndarray, ladder, error=NumericalError):
    """Factor a + jitter*I for the first jitter on `ladder` that factorizes.

    Returns (factor, jitter). Every rung jitters the original diagonal, so the
    factored matrix is exactly a + jitter*I; `a` is overwritten with it.
    """
    diag = a.diagonal().copy()
    for jitter in ladder:
        np.fill_diagonal(a, diag + jitter)
        try:
            return np.linalg.cholesky(a), jitter
        except np.linalg.LinAlgError:
            continue
    raise error(f"matrix singular: not positive definite with jitter up to {ladder[-1]:.0e}")


def _escalated_cholesky(base: np.ndarray, start_nugget: float):
    """Cholesky of base + nugget*I, doubling the nugget until it succeeds."""
    doubling = (start_nugget * 2.0 ** k for k in itertools.count())
    ladder = list(itertools.takewhile(lambda nugget: nugget <= MAX_NUGGET, doubling))
    return _jittered_cholesky(base.copy(), ladder, FitError)


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
    return float(np.clip(s / max(n, 1), *SIGNAL_VARIANCE_BOUNDS))


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
    """Each normalized target's LML-maximising RBF lengthscale.

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

    def neg_lmls(t, targets):
        # each factorisation escalates from config.nugget, so LML(t) is a pure function
        chol = _escalated_cholesky(np.exp(-0.5 * d2 / np.exp(2.0 * t)), config.nugget)[0]
        ss = [float(z @ cho_solve((chol, True), z)) for z in targets]
        return [-_lml(chol, s, _profile_sigma2(s, len(d2), config.signal_variance)) for s in ss]

    lengthscales = []
    for z, f in zip(zs, np.array([neg_lmls(t, zs) for t in grid]).T):
        on_grid = dict(zip(grid.tolist(), f.tolist()))  # refining factors no grid point again
        padded = np.concatenate([[np.inf], f, [np.inf]])
        # a finite-difference step of 1e-5 in log-lengthscale stays above the
        # rounding noise of an ill-conditioned LML, which 1e-8 does not; a
        # slope under 1e-3 nats per unit log-lengthscale counts as flat
        runs = [minimize(lambda t: on_grid[t[0]] if t[0] in on_grid else neg_lmls(t[0], [z])[0],
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
        alpha = cho_solve((chol, True), z)
        sigma2 = _profile_sigma2(float(z @ alpha), z.size, config.signal_variance)
        parts.append(_ObjectiveGp(kernel, lengthscale, sigma2, nugget, out_mean, out_std, alpha, chol))
    return GpModel(data=data, parts=parts)


class ScaledBlocks:
    """Read-only (m, u, u) stack whose block j is scale[j] * blocks[group[j]]:
    `[j]` and np.asarray build bitwise what one scaled copy per objective
    held. By default each block is one objective's, at scale 1 (exact)."""

    def __init__(self, blocks, scale=None, group=None):
        self.blocks = blocks
        self.scale = np.ones(len(blocks)) if scale is None else scale
        self.group = np.arange(len(blocks)) if group is None else group

    @property
    def shape(self) -> tuple:
        return (len(self.group),) + self.blocks[0].shape

    def __getitem__(self, j) -> np.ndarray:
        return np.multiply(self.scale[j], self.blocks[self.group[j]])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.stack(list(self)).astype(dtype or float, copy=False)


@dataclass
class Posterior:
    """Joint posterior over a candidate pool.

    `cov` holds one covariance block per objective over the stochastic
    subset of the pool, as ScaledBlocks or an (m, u, u) array;
    `stochastic_idx` of None means the full pool is stochastic. Rows
    outside the subset are deterministic at `mean`. `chol` holds the lower
    factors, scaled by the square roots of cov's scales, and `jitter` the
    diagonal jitter each block needed to factorize; both are computed on
    first use when not given.
    """

    mean: np.ndarray
    cov: ScaledBlocks
    stochastic_idx: np.ndarray | None = None
    chol: ScaledBlocks | None = field(default=None, repr=False)
    jitter: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if not isinstance(self.cov, ScaledBlocks):
            self.cov = ScaledBlocks(np.asarray(self.cov, dtype=float))
        if self.mean.ndim != 2:
            raise ValueError(f"mean must be 2-d, got shape {self.mean.shape}")
        if len(self.cov.shape) != 3 or self.cov.shape[0] != self.mean.shape[1]:
            raise ValueError("cov must be one square block per objective")
        u = self.cov.shape[1]
        if self.stochastic_idx is None:
            if u != self.mean.shape[0]:
                raise ValueError("cov block size must match the pool when stochastic_idx is None")
        else:
            self.stochastic_idx = np.asarray(self.stochastic_idx, dtype=int)
            if self.stochastic_idx.size != u:
                raise ValueError("stochastic_idx length must match cov block size")

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    @property
    def m(self) -> int:
        return self.mean.shape[1]

    def _factors(self) -> ScaledBlocks:
        if self.chol is None:
            # an exactly-degenerate block keeps a zero factor, which reproduces the mean
            pairs = [_jittered_cholesky(b.copy(), (0.0,) + JITTER_LADDER) if b.any()
                     else (np.zeros_like(b), 0.0) for b in self.cov.blocks]
            self.chol = ScaledBlocks([f for f, _ in pairs], np.sqrt(self.cov.scale), self.cov.group)
            self.jitter = self.cov.scale * np.array([jit for _, jit in pairs])[self.cov.group]
        return self.chol

    def sample(self, n_samples: int, seed: int) -> np.ndarray:
        """Draw joint samples, shape (n_samples, n, m).

        Sample ell is generated from a stream derived from (seed, ell) and
        multiplied by each factor as column ell % SAMPLE_BLOCK of a
        zero-padded block of SAMPLE_BLOCK columns. Every draw thus meets a
        product of the same shape in the same column whatever n_samples is,
        so any single draw is bitwise reproducible in isolation. BLAS trmm
        multiplies each block in place by the scaled factor's lower triangle.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        factors = self._factors()
        u = self.cov.shape[1]
        idx = np.arange(self.n) if self.stochastic_idx is None else self.stochastic_idx
        out = np.repeat(self.mean[None, :, :], n_samples, axis=0)
        if u == 0:
            return out
        w = SAMPLE_BLOCK
        zs = np.zeros((-(-n_samples // w), self.m, w, u))
        for ell in range(n_samples):
            zs[ell // w, :, ell % w] = child_rng(seed, ell).standard_normal((u, self.m)).T
        for j in range(self.m):
            for b, start in enumerate(range(0, n_samples, w)):
                # .T of each C-ordered array is F-ordered, so BLAS copies neither
                blas.dtrmm(factors.scale[j], factors.blocks[factors.group[j]].T, zs[b, j].T,
                           lower=0, trans_a=1, overwrite_b=1)
                out[start:start + w, idx, j] += zs[b, j, :n_samples - start]
        return out


def posterior(model: GpModel, features) -> Posterior:
    """Exact joint posterior over query features, one covariance block per objective.

    Objectives that share a kernel, lengthscale and nugget share one
    training factor and so one normalized covariance, which is factored
    once with a diagonal jitter (1e-8, escalating tenfold to at most 1e-4)
    on the normalized scale. The posterior keeps that block and factor
    once per group; each member reads them scaled by its raw signal
    variance c (the factor by sqrt(c)), so `jitter` records c times the
    normalized jitter and no jitter depends on the objectives' units.
    """
    Xq = np.asarray(features, dtype=float)
    if Xq.ndim != 2 or Xq.shape[1] != model.data.d:
        raise ValueError(f"query features must be (n, {model.data.d}), got {Xq.shape}")
    X = model.data.features
    u = Xq.shape[0]
    mean, jitter = np.empty((u, model.m)), np.empty(model.m)
    scale = np.array([part.signal_variance for part in model.parts])
    groups: dict = {}
    for j, part in enumerate(model.parts):
        groups.setdefault((part.kernel, part.lengthscale, part.nugget), []).append(j)
    group, covs, factors = np.empty(model.m, dtype=int), [], []
    for g, ((kind, lengthscale, _), members) in enumerate(groups.items()):
        rq, rqq = _kernel(kind, lengthscale, Xq, X), _kernel(kind, lengthscale, Xq, Xq)
        v = solve_triangular(model.parts[members[0]].chol, rq.T, lower=True)
        # rqq - v^T v is exactly symmetric: v^T v runs as a symmetric rank-k
        # update and both kernels are symmetric by construction
        base = v.T @ v
        np.subtract(rqq, base, out=base)
        del v, rqq  # frees the query kernel before factoring
        # factoring leaves the jitter on base's diagonal, as every cov keeps it
        factor, base_jitter = _jittered_cholesky(base, JITTER_LADDER)
        covs.append(base)
        factors.append(factor)
        group[members], jitter[members] = g, scale[members] * base_jitter
        for j in members:
            part = model.parts[j]
            mean[:, j] = part.out_mean + part.out_std * (rq @ part.alpha)
    return Posterior(mean, ScaledBlocks(covs, scale, group),
                     chol=ScaledBlocks(factors, np.sqrt(scale), group), jitter=jitter)


def pool_posterior(model: GpModel, features, known_idx, known_values) -> Posterior:
    """Pool posterior with already-labeled members held at their observed values.

    Labeled pool rows are deterministic (a noise-free GP interpolates them);
    only the unlabeled block carries covariance, which keeps joint sampling
    over large, mostly-labeled pools cheap.
    """
    Xq = np.asarray(features, dtype=float)
    known_idx = np.asarray(known_idx, dtype=int)
    known_values = np.asarray(known_values, dtype=float).reshape(known_idx.size, model.m)
    mask = np.zeros(Xq.shape[0], dtype=bool)
    mask[known_idx] = True
    open_idx = np.flatnonzero(~mask)
    sub = posterior(model, Xq[open_idx])
    mean = np.empty((Xq.shape[0], model.m))
    mean[open_idx] = sub.mean
    mean[known_idx] = known_values
    return replace(sub, mean=mean, stochastic_idx=open_idx)
