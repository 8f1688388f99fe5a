"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the library's own algorithms: volumes come
from inclusion-exclusion or rejection sampling, Gaussian-process predictions
from explicit matrix inversion, and acquisition probabilities from exhaustive
enumeration of joint outcomes. The exceptions are kept as the library wrote
them before a faster version replaced them, which must match them bit for
bit: whole_draw_qpmhi, qPMHI scoring all its draws at once;
per_draw_qehvi_mc, the greedy select's per-draw loop;
per_step_thompson, Thompson scoring every row against a growing ParetoFront;
slab_recursion_boxes, the box decomposition that rebuilt each slab's front
from scratch; pairwise_non_dominated_mask, the all-pairs test the two-objective sweep
replaced; folded_front, build_front as one update_front per point;
scaled_copy_posterior, which stores one scaled copy of the covariance and
factor per objective; broadcast_margins, Thompson's fallback margin as
one (n, F, m) temporary; tiered_batch, select_batch's three ranked
passes; string_propose_pool, the genetic proposer breeding genome strings
with dict-counted k-gram features (dict_kgram_featurizer);
zeroing_search_lengthscales, the lengthscale search that zeroed every
factor's upper triangle; per_genome_featurizer, the featurizers before they
took batches; row_read_pool, the pool reader as a loop over rows;
string_ablation_pool, the pool writer that joined each genome bit by bit;
and sequential_init_genomes, the random initial designs drawn one by one. multistart_lengthscale, the per-objective search
the shared lengthscale grid replaced, is matched in likelihood, not bits.
"""
from __future__ import annotations

from itertools import combinations, product

import heapq

import numpy as np


def union_box_volume(points, ref) -> float:
    """Volume of the union of boxes [ref, p] via inclusion-exclusion."""
    ref = np.asarray(ref, dtype=float)
    pts = [np.asarray(p, dtype=float) for p in points]
    pts = [p for p in pts if np.all(p > ref)]
    total = 0.0
    for size in range(1, len(pts) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for combo in combinations(pts, size):
            corner = np.min(np.stack(combo), axis=0)
            total += sign * float(np.prod(np.maximum(corner - ref, 0.0)))
    return total


def dominates(a, b) -> bool:
    """Strict Pareto dominance of one pair, compared coordinate by coordinate."""
    pairs = list(zip(a, b))
    return all(x >= y for x, y in pairs) and any(x > y for x, y in pairs)


def pairwise_non_dominated_mask(points) -> np.ndarray:
    """Points no other point strictly dominates, by testing every pair."""
    pts = np.asarray(points, dtype=float)
    ge = (pts[:, None, :] >= pts[None, :, :]).all(axis=-1)
    gt = (pts[:, None, :] > pts[None, :, :]).any(axis=-1)
    return ~(ge & gt).any(axis=0)


def folded_front(points, ids, ref):
    """build_front as a fold: update_front admits one point at a time."""
    from poolbo.pareto import ParetoFront, update_front

    front = ParetoFront.empty(ref)
    for values, point_id in zip(points, ids):
        front = update_front(front, values, point_id)
    return front


def slab_recursion_boxes(points, ref):
    """pareto._boxes as a recursion that rebuilds each slab's reaching front
    with np.unique and non_dominated_mask."""
    from poolbo.pareto import non_dominated_mask

    m = ref.size
    if m == 1:
        best = points[:, 0].max() if points.shape[0] else ref[0]
        return np.array([[best]]), np.array([[np.inf]])
    if m == 2:
        order = np.argsort(points[:, 0])
        xs, ys = points[order, 0], points[order, 1]
        lo = np.concatenate((ref[:1], xs, ys, ref[1:])).reshape(2, -1)
        hi = np.concatenate((xs, np.full(xs.size + 2, np.inf))).reshape(2, -1)
        return lo, hi
    levels = np.unique(points[:, -1])[::-1]
    los, his = [], []
    for top, bottom in zip(np.concatenate(([np.inf], levels)), np.concatenate((levels, ref[-1:]))):
        reach = np.unique(points[points[:, -1] >= top, :-1], axis=0)
        lo, hi = slab_recursion_boxes(reach[non_dominated_mask(reach)], ref[:-1])
        los.append(np.vstack((lo, np.full((1, lo.shape[1]), bottom))))
        his.append(np.vstack((hi, np.full((1, hi.shape[1]), top))))
    return np.hstack(los), np.hstack(his)


def hvi_by_inclusion_exclusion(y, points, ref) -> float:
    return union_box_volume(list(points) + [y], ref) - union_box_volume(points, ref)


def mc_box_union_volume(points, ref, n_samples: int, seed: int):
    """Rejection-sampling estimate of the union volume and its standard error."""
    ref = np.asarray(ref, dtype=float)
    pts = np.asarray(points, dtype=float)
    keep = np.all(pts > ref, axis=1)
    pts = pts[keep]
    if pts.shape[0] == 0:
        return 0.0, 0.0
    upper = pts.max(axis=0)
    box = float(np.prod(upper - ref))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n_samples:
        n = min(200_000, n_samples - done)
        draws = rng.uniform(ref, upper, size=(n, ref.size))
        covered = np.zeros(n, dtype=bool)
        for p in pts:
            covered |= np.all(draws <= p, axis=1)
        hits += int(covered.sum())
        done += n
    p_hat = hits / n_samples
    est = box * p_hat
    se = box * np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_samples)
    return est, se


def gp_posterior_oracle(X, y, Xq, kernel: str, lengthscale, signal_variance, nugget=1e-6):
    """Closed-form GP prediction by explicit matrix inversion.

    Mirrors the pipeline conventions (population-std output normalization,
    nugget added to the unit-scale kernel) but shares no code with the
    library: kernels are recomputed locally and solves use np.linalg.inv.
    """
    X = np.asarray(X, dtype=float)
    Xq = np.asarray(Xq, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = float(y.mean())
    sd = float(y.std())
    if sd < 1e-12:
        sd = 1.0
    z = (y - mu) / sd

    def base(a, b):
        if kernel == "rbf":
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
            return np.exp(-0.5 * d2 / lengthscale ** 2)
        if kernel == "tanimoto":
            return tanimoto_similarity(a, b)
        raise ValueError(kernel)

    R = base(X, X) + nugget * np.eye(X.shape[0])
    A = np.linalg.inv(R)
    Rq = base(Xq, X)
    Rqq = base(Xq, Xq)
    mean = mu + sd * (Rq @ A @ z)
    cov = sd ** 2 * signal_variance * (Rqq - Rq @ A @ Rq.T)
    return mean, cov


def tanimoto_similarity(a, b) -> np.ndarray:
    """Tanimoto similarity, 1 where both vectors are all zero."""
    dots = a @ b.T
    na = (a * a).sum(axis=1)
    nb = (b * b).sum(axis=1)
    denom = na[:, None] + nb[None, :] - dots
    out = np.ones_like(dots, dtype=float)
    nz = denom != 0
    out[nz] = dots[nz] / denom[nz]
    return out


def scaled_copy_posterior(model, Xq):
    """(mean, cov, chol, jitter) of the posterior with one scaled copy per
    objective: cov and chol are (m, u, u), each objective's block and factor
    multiplied out by its raw signal variance c and by sqrt(c). Each group's
    normalized block is BLAS syrk's update of the query kernel's lower
    triangle, made symmetric and factored by the library's ladder."""
    from scipy.linalg import blas, solve_triangular

    from poolbo.gp import JITTER_LADDER, _jittered_cholesky, rbf_kernel, tanimoto_kernel

    X = model.data.features
    u = Xq.shape[0]
    mean, jitter = np.empty((u, model.m)), np.empty(model.m)
    cov, chol = np.empty((model.m, u, u)), np.empty((model.m, u, u))
    groups: dict = {}
    for j, part in enumerate(model.parts):
        groups.setdefault((part.kernel, part.lengthscale, part.nugget), []).append(j)
    for (kernel, lengthscale, _), members in groups.items():
        if kernel == "tanimoto":
            rq, rqq = tanimoto_kernel(Xq, X), tanimoto_kernel(Xq, Xq)
        else:
            rq, rqq = rbf_kernel(Xq, X, lengthscale), rbf_kernel(Xq, Xq, lengthscale)
        v = solve_triangular(model.parts[members[0]].chol, rq.T, lower=True)
        blas.dsyrk(-1.0, v, beta=1.0, c=rqq.T, trans=1, lower=0, overwrite_c=1)
        base = np.tril(rqq) + np.tril(rqq, -1).T
        factor = base.copy()
        base_jitter = _jittered_cholesky(factor, JITTER_LADDER)[1]
        base[np.diag_indices(u)] += base_jitter
        factor = np.tril(factor)
        for j in members:
            part = model.parts[j]
            c = part.signal_variance
            mean[:, j] = part.out_mean + part.out_std * (rq @ part.alpha)
            np.multiply(c, base, out=cov[j])
            np.multiply(np.sqrt(c), factor, out=chol[j])
            jitter[j] = c * base_jitter
    return mean, cov, chol, jitter


def multistart_lengthscale(X, z, config, n_starts: int = 8) -> float:
    """The RBF lengthscale search of one objective before the shared grid:
    L-BFGS-B over the full log bounds from n_starts log-spaced starts, each
    evaluation's nugget escalating from where the last one ended."""
    from scipy.linalg import cho_solve
    from scipy.optimize import minimize

    from poolbo.gp import (LENGTHSCALE_BOUNDS, _escalated_cholesky, _lml, _profile_sigma2,
                           squared_distances)

    d2 = squared_distances(X, X)
    state = {"nugget": config.nugget}

    def neg_lml(t):
        chol, state["nugget"] = _escalated_cholesky(np.exp(-0.5 * d2 / np.exp(2.0 * t[0])),
                                                    state["nugget"])
        s = float(z @ cho_solve((chol, True), z))
        return -_lml(chol, s, _profile_sigma2(s, z.size, config.signal_variance))

    bounds = [tuple(np.log(LENGTHSCALE_BOUNDS))]
    runs = [minimize(neg_lml, x0=[t0], method="L-BFGS-B", bounds=bounds)
            for t0 in np.log(np.geomspace(*LENGTHSCALE_BOUNDS, n_starts))]
    return float(np.exp(min(runs, key=lambda r: r.fun).x[0]))


def lengthscale_lml(X, z, lengthscale: float, config) -> float:
    """Profiled LML of one normalized target at a lengthscale, the nugget
    escalating from config.nugget: a pure function of the lengthscale."""
    from scipy.linalg import cho_solve

    from poolbo.gp import _escalated_cholesky, _lml, _profile_sigma2, rbf_kernel

    chol, _ = _escalated_cholesky(rbf_kernel(X, X, lengthscale), config.nugget)
    s = float(z @ cho_solve((chol, True), z))
    return _lml(chol, s, _profile_sigma2(s, z.size, config.signal_variance))


def broadcast_margins(values, points) -> np.ndarray:
    """Each row's least margin over the front, min over points of max_j(v_j - p_j),
    through one (n, F, m) temporary."""
    return (values[:, None, :] - points[None, :, :]).max(axis=2).min(axis=1)


def tiered_batch(result, q: int) -> list:
    """select_batch as three ranked passes: the candidates with positive
    probability by descending probability, then those with positive
    membership by descending membership, then the rest by descending mean
    improvement; each pass breaks ties toward the lower index."""
    def ranked(values, pool):
        return list(pool[np.argsort(-values[pool], kind="stable")])

    idx = np.arange(result.n)
    first = result.probs > 0
    second = ~first & (result.pareto_membership > 0)
    order = (ranked(result.probs, idx[first]) + ranked(result.pareto_membership, idx[second])
             + ranked(result.mean_hvi, idx[~first & ~second]))
    return [int(i) for i in order[:q]]


def scaled_copy_sample(mean, chol, stochastic_idx, n_samples: int, seed: int) -> np.ndarray:
    """Joint draws from (m, u, u) factors, one zero-padded block of draws at
    a time with every objective's product inside it."""
    from poolbo.gp import SAMPLE_BLOCK
    from poolbo.seeds import child_rng

    m, u = chol.shape[0], chol.shape[1]
    out = np.repeat(mean[None, :, :], n_samples, axis=0)
    for start in range(0, n_samples, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, n_samples)
        zs = np.zeros((m, u, SAMPLE_BLOCK))
        for ell in range(start, stop):
            zs[:, :, ell - start] = child_rng(seed, ell).standard_normal((u, m)).T
        for j in range(m):
            out[start:stop, stochastic_idx, j] += (chol[j] @ zs[j])[:, :stop - start].T
    return out


class DiscretePosterior:
    """Sampling test double: each candidate draws independently from a few atoms.

    Implements the same surface the acquisition layer consumes (mean and
    per-draw seeded sampling) while keeping every joint outcome enumerable.
    """

    def __init__(self, atom_values, atom_probs):
        self.atom_values = [np.asarray(v, dtype=float) for v in atom_values]
        self.atom_probs = [np.asarray(p, dtype=float) for p in atom_probs]
        for probs in self.atom_probs:
            assert abs(probs.sum() - 1.0) < 1e-12
        self.n = len(self.atom_values)
        self.m = self.atom_values[0].shape[1]
        self.mean = np.stack([
            (p[:, None] * v).sum(axis=0) for v, p in zip(self.atom_values, self.atom_probs)
        ])
        self._cum = [np.cumsum(p) for p in self.atom_probs]

    def sample(self, n_samples: int, seed: int, first: int = 0) -> np.ndarray:
        """Draws first ... first + n_samples - 1, draw ell from its own stream."""
        out = np.empty((n_samples, self.n, self.m))
        for ell in range(first, first + n_samples):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ell,)))
            u = rng.random(self.n)
            for i in range(self.n):
                k = min(int(np.searchsorted(self._cum[i], u[i], side="right")),
                        self.atom_probs[i].size - 1)
                out[ell - first, i] = self.atom_values[i][k]
        return out


def enumerate_qpmhi(posterior: DiscretePosterior, front_points, ref,
                    constraint_posterior: DiscretePosterior | None = None,
                    thresholds=None):
    """Exact attribution probabilities by enumerating every joint outcome.

    Returns (probs, improving_fraction). A draw is attributed to the unique
    feasible candidate with the largest positive hypervolume improvement,
    lowest index on ties; draws with no such candidate go unattributed.
    """
    n = posterior.n
    probs = np.zeros(n)
    improving = 0.0
    obj_choices = [range(v.shape[0]) for v in posterior.atom_values]
    con_choices = [range(v.shape[0]) for v in constraint_posterior.atom_values] \
        if constraint_posterior is not None else [range(1)] * n
    for obj_pick in product(*obj_choices):
        w_obj = float(np.prod([posterior.atom_probs[i][k] for i, k in enumerate(obj_pick)]))
        values = np.stack([posterior.atom_values[i][k] for i, k in enumerate(obj_pick)])
        deltas = np.array([hvi_by_inclusion_exclusion(v, front_points, ref) for v in values])
        # the union-minus-union subtraction can leave ~1e-16 residue where the
        # true improvement is exactly zero; that must not count as a win
        deltas[np.abs(deltas) < 1e-12] = 0.0
        for con_pick in product(*con_choices):
            if constraint_posterior is not None:
                w_con = float(np.prod([
                    constraint_posterior.atom_probs[i][k] for i, k in enumerate(con_pick)
                ]))
                cvals = np.stack([
                    constraint_posterior.atom_values[i][k] for i, k in enumerate(con_pick)
                ])
                feasible = np.all(cvals >= np.asarray(thresholds, dtype=float), axis=1)
            else:
                w_con = 1.0
                feasible = np.ones(n, dtype=bool)
            w = w_obj * w_con
            if w == 0.0:
                continue
            eligible = feasible & (deltas > 0.0)
            if not eligible.any():
                continue
            masked = np.where(eligible, deltas, -np.inf)
            winner = int(np.argmax(masked))
            probs[winner] += w
            improving += w
    return probs, improving


def enumerate_membership(posterior: DiscretePosterior, front_points) -> np.ndarray:
    """Exact probability that each candidate's draw is non-dominated by the front."""
    front = np.asarray(front_points, dtype=float)
    out = np.zeros(posterior.n)
    for i in range(posterior.n):
        for k, w in enumerate(posterior.atom_probs[i]):
            v = posterior.atom_values[i][k]
            dominated = any(
                np.all(p >= v) and np.any(p > v) for p in front
            )
            if not dominated:
                out[i] += float(w)
    return out


def best_subset_sum(values, q: int):
    """Exhaustive search for the size-q index set with the largest value sum."""
    best = None
    best_sum = -np.inf
    for combo in combinations(range(len(values)), q):
        s = float(sum(values[i] for i in combo))
        if s > best_sum + 1e-15:
            best = combo
            best_sum = s
    return set(best), best_sum


def expected_joint_hvi(posterior: DiscretePosterior, subset, front_points, ref) -> float:
    """Expected HV(front + sampled subset) - HV(front), by enumeration."""
    subset = list(subset)
    base = union_box_volume(front_points, ref)
    total = 0.0
    choices = [range(posterior.atom_values[i].shape[0]) for i in subset]
    for pick in product(*choices):
        w = float(np.prod([posterior.atom_probs[i][k] for i, k in zip(subset, pick)]))
        pts = list(front_points) + [posterior.atom_values[i][k] for i, k in zip(subset, pick)]
        total += w * (union_box_volume(pts, ref) - base)
    return total


def zdt1_reference(bits) -> tuple:
    """Published ZDT1 on 0/1 decision variables, negated for maximization.

    f1 = x1, g = 1 + 9*mean(x2..xn), f2 = g*(1 - sqrt(f1/g)); both minimized
    in the original formulation.
    """
    x = [float(b) for b in bits]
    f1 = x[0]
    tail = x[1:]
    g = 1.0 + 9.0 * (sum(tail) / len(tail) if tail else 0.0)
    f2 = g * (1.0 - (f1 / g) ** 0.5)
    return (-f1, -f2)


def greedy_joint_ehvi_trace(posterior: DiscretePosterior, q: int, front_points, ref):
    """Greedy batch built on exact expected joint gains, lowest index on ties."""
    selected = []
    for _ in range(q):
        base = expected_joint_hvi(posterior, selected, front_points, ref)
        best_idx, best_gain = None, -np.inf
        for i in range(posterior.n):
            if i in selected:
                continue
            gain = expected_joint_hvi(posterior, selected + [i], front_points, ref) - base
            if gain > best_gain + 1e-12:
                best_idx, best_gain = i, gain
        selected.append(best_idx)
    return selected


def whole_draw_qpmhi(post, front, n_samples: int, seed: int, constraint_post=None,
                     thresholds=None):
    """estimate_qpmhi holding all n_samples draws and their (n_samples, n)
    improvements at once, attributing each draw to its winner as _winner_counts
    does."""
    from poolbo.acquisition import _CONSTRAINT_STREAM, AcquisitionResult, _undominated_hvi
    from poolbo.pareto import hvi_many, strictly_dominated_mask
    from poolbo.seeds import derive_seed

    feasible = None
    if constraint_post is not None:
        thresholds = np.asarray(thresholds, dtype=float)
        con_samples = constraint_post.sample(n_samples, derive_seed(seed, _CONSTRAINT_STREAM))
        feasible = np.all(con_samples >= thresholds[None, None, :], axis=-1)
    flat = post.sample(n_samples, seed).reshape(-1, post.m)
    dominated = strictly_dominated_mask(flat, front)
    deltas = _undominated_hvi(flat[~dominated], dominated, front).reshape(n_samples, post.n)
    counts = np.zeros(post.n, dtype=int)
    if post.n:
        masked = deltas if feasible is None else np.where(feasible, deltas, -np.inf)
        winners = np.argmax(masked, axis=1)
        counted = masked[np.arange(n_samples), winners] > 0.0
        counts = np.bincount(winners[counted], minlength=post.n)
    membership = 1.0 - dominated.reshape(n_samples, post.n).mean(axis=0)
    return AcquisitionResult(
        probs=counts / n_samples,
        pareto_membership=membership,
        mean_hvi=hvi_many(post.mean, front),
        improving_fraction=float(counts.sum() / n_samples),
        n_samples=n_samples,
        seed=seed,
    )


def per_draw_qehvi_mc(post, front, q: int, n_samples: int, seed: int) -> list:
    """qehvi_mc with one ParetoFront.gains call per draw per re-evaluation."""
    from poolbo.acquisition import _batch_size, _undominated_hvi
    from poolbo.pareto import strictly_dominated_mask, update_front

    q = _batch_size(q, post.n)
    if post.m != front.m:
        raise ValueError(f"objective dimensions must match: {post.m} vs {front.m}")
    n = post.n
    samples = post.sample(n_samples, seed)
    # one front per draw; a draw's front is replaced as its batch grows
    fronts = [front] * n_samples
    flat = samples.reshape(-1, post.m)
    dominated = strictly_dominated_mask(flat, front)
    gains = _undominated_hvi(flat[~dominated], dominated, front).reshape(n_samples, n).mean(axis=0)
    heap = [(-gains[i], i) for i in range(n)]
    heapq.heapify(heap)
    stamp = np.zeros(n, dtype=int)
    selected: list = []
    for step in range(1, q + 1):
        while True:
            neg_gain, i = heapq.heappop(heap)
            if stamp[i] == step - 1:
                selected.append(int(i))
                break
            fresh = float(np.mean([
                fronts[ell].gains(samples[ell, i][None, :])[0] for ell in range(n_samples)
            ]))
            stamp[i] = step - 1
            heapq.heappush(heap, (-fresh, i))
        for ell in range(n_samples):
            fronts[ell] = update_front(fronts[ell], samples[ell, selected[-1]])
    return selected


def per_step_thompson(post, front, q: int, seed: int) -> list:
    """thompson_hvi scoring every pool row of each step's draw with
    ParetoFront.gains, and growing the fantasy front by update_front."""
    from poolbo.acquisition import _batch_size, _least_margins
    from poolbo.pareto import update_front

    q = _batch_size(q, post.n)
    if post.m != front.m:
        raise ValueError(f"objective dimensions must match: {post.m} vs {front.m}")
    samples = post.sample(q, seed)
    taken = np.zeros(post.n, dtype=bool)
    selected: list = []
    for values in samples:
        deltas = front.gains(values)
        deltas[taken] = -np.inf
        if deltas.max() > 0:
            pick = int(np.argmax(deltas))
        else:
            if front.size:
                margins = _least_margins(values, front.points)
            else:
                margins = (values - front.ref[None, :]).max(axis=1)
            margins[taken] = -np.inf
            pick = int(np.argmax(margins))
        selected.append(pick)
        taken[pick] = True
        front = update_front(front, values[pick])
    return selected


def per_genome_featurizer(name: str, alphabet: str = "01"):
    """make_featurizer as one call per genome: identity reads one genome's
    bytes, whatever its length, and kgram:k codes one genome's windows and
    counts them with its own bincount."""
    if name == "identity":
        def identity_features(genome: str) -> np.ndarray:
            bad = set(genome) - {"0", "1"}
            if bad:
                raise ValueError(f"identity featurizer needs a 0/1 genome, found {sorted(bad)!r}")
            return np.frombuffer(genome.encode("ascii"), dtype=np.uint8).astype(float) - ord("0")

        return identity_features
    k = int(name.split(":", 1)[1])

    def code_points(text: str) -> np.ndarray:
        return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")

    symbols = np.unique(code_points(alphabet))
    members = set(alphabet)
    digits = len(symbols) ** np.arange(k)
    size = len(symbols) ** k

    def kgram_features(genome: str) -> np.ndarray:
        if len(genome) < k:
            return np.zeros(size)
        if not members.issuperset(genome):
            start = max(0, [ch in members for ch in genome].index(False) - k + 1)
            raise ValueError(f"genome symbol outside alphabet {alphabet!r}: "
                             f"{genome[start:start + k]!r}")
        codes = np.searchsorted(symbols, code_points(genome))
        return np.bincount(np.convolve(codes, digits, "valid"), minlength=size).astype(float)

    return kgram_features


def row_read_pool(path) -> list:
    """read_pool as a loop over csv rows: (row, id, genome, objectives)
    tuples, each row checked in turn, non-finite labels checked last."""
    import csv

    from poolbo.generation import PoolFormatError, _validate_genome

    seen_keys, seen_ids, out, values = set(), set(), [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PoolFormatError("pool file has no header") from None
        if header[:2] != ["id", "genome"]:
            raise PoolFormatError(f"pool header must start with id,genome, got {header[:2]}")
        n_obj = len(header) - 2
        if any(h != f"obj_{j + 1}" for j, h in enumerate(header[2:])):
            raise PoolFormatError(f"objective columns must be obj_1..obj_{n_obj}, got {header[2:]}")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise PoolFormatError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
            cid, genome = row[0], _validate_genome(row[1], row_num)
            try:
                objs = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise PoolFormatError(f"row {row_num}: bad objective value ({exc})") from None
            values.extend(objs)
            if not cid or ";" in cid:
                raise PoolFormatError(f"row {row_num}: id {cid!r} must be non-empty and free of ';'")
            if cid in seen_ids:
                raise PoolFormatError(f"row {row_num}: duplicate id {cid!r}")
            seen_ids.add(cid)
            if genome not in seen_keys:
                seen_keys.add(genome)
                out.append((row_num, cid, genome, objs))
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite)) // n_obj
        raise PoolFormatError(f"row {k + 2}: objective values must be finite, "
                              f"got {values[k * n_obj:(k + 1) * n_obj]}")
    return out


def string_ablation_pool(path, n: int = 2000, bits: int = 24, seed: int = 20240301,
                         front_range: tuple = (20, 60)) -> None:
    """make_ablation_pool with each genome joined bit by bit, its features
    read back character by character, and one csv.writer row per genome."""
    import csv

    from poolbo.pareto import non_dominated_mask

    rng = np.random.default_rng(seed)
    genomes, seen = [], set()
    while len(genomes) < n:
        block = rng.integers(0, 2, size=(n, bits))
        for row in block:
            g = "".join("1" if b else "0" for b in row)
            if g not in seen:
                seen.add(g)
                genomes.append(g)
                if len(genomes) == n:
                    break
    x = np.array([[int(c) for c in g] for g in genomes], dtype=float)
    w1 = rng.uniform(0.5, 1.5, size=bits)
    w2 = rng.uniform(0.5, 1.5, size=bits)
    u = x @ w1 / w1.sum()
    v = x @ w2 / w2.sum()
    for alpha in np.linspace(0.05, 0.95, 19):
        s = alpha * u + (1.0 - alpha) * v
        objectives = np.column_stack([u, 1.0 - s ** 2])
        if front_range[0] <= int(non_dominated_mask(objectives).sum()) <= front_range[1]:
            break
    else:
        raise ValueError(f"no mixing weight gave a front in {front_range}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "genome", "obj_1", "obj_2"])
        for i, g in enumerate(genomes):
            writer.writerow([f"p{i}", g, repr(float(objectives[i, 0])),
                             repr(float(objectives[i, 1]))])


def sequential_init_genomes(seed: int, count: int, length: int) -> list:
    """build_initial_data's random designs drawn one genome per attempt."""
    from poolbo.generation import random_genome
    from poolbo.seeds import child_rng

    rng = child_rng(seed, 0)
    genomes, seen, attempts = [], set(), 0
    while len(genomes) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("could not draw enough distinct init genomes")
        g = random_genome(rng, "01", length)
        if g not in seen:
            seen.add(g)
            genomes.append(g)
    return genomes


def dict_kgram_featurizer(name: str, alphabet: str = "01"):
    """per_genome_featurizer with k-gram counts looked up window by window
    in a dict over the alphabet^k vocabulary."""
    if not name.startswith("kgram:"):
        return per_genome_featurizer(name, alphabet)
    k = int(name.split(":", 1)[1])
    if k < 1:
        raise ValueError("k-gram size must be at least 1")
    vocab = {"".join(gram): i for i, gram in enumerate(product(sorted(alphabet), repeat=k))}

    def kgram_features(genome: str) -> np.ndarray:
        out = np.zeros(len(vocab))
        for start in range(len(genome) - k + 1):
            gram = genome[start:start + k]
            if gram not in vocab:
                raise ValueError(f"genome symbol outside alphabet {alphabet!r}: {gram!r}")
            out[vocab[gram]] += 1.0
        return out

    return kgram_features


def string_crossover(rng, a: str, b: str, mode: str) -> str:
    if len(a) < 2 or len(b) < 2:
        return a
    if mode == "one_point":
        point = int(rng.integers(1, min(len(a), len(b))))
        return a[:point] + b[point:]
    cut = min(len(a), len(b))
    picks = rng.integers(0, 2, size=cut)
    head = "".join(a[i] if picks[i] == 0 else b[i] for i in range(cut))
    return head + b[cut:]


def string_mutate(rng, genome: str, rate: float, alphabet: str) -> str:
    if rate <= 0.0 or len(alphabet) < 2:
        return genome
    flips = rng.random(len(genome)) < rate
    if not flips.any():
        return genome
    chars = list(genome)
    for i in np.flatnonzero(flips):
        options = alphabet.replace(chars[i], "")
        chars[i] = options[int(rng.integers(0, len(options)))] if options else chars[i]
    return "".join(chars)


def string_propose_pool(data, model, cfg, seed: int) -> list:
    """propose_pool breeding genome strings: parents drawn by
    Generator.choice, features from dict_kgram_featurizer, and the
    surrogate's parent weights read off a full posterior()."""
    from poolbo.generation import (ATTEMPT_CAP_FACTOR, Candidate, GenerationStarvedError,
                                   genome_alphabet, parse_predicate, random_genome)
    from poolbo.gp import posterior
    from poolbo.pareto import build_front, hvi_many, non_dominated_mask
    from poolbo.seeds import child_rng

    def parent_weights():
        n = data.n
        if cfg.parent_selection == "uniform" or model is None:
            return np.full(n, 1.0 / n)
        post_mean = posterior(model, data.features).mean
        lo = data.objectives.min(axis=0)
        spread = data.objectives.max(axis=0) - lo
        ref = lo - np.where(spread > 0, 1e-9 * spread, 1.0)
        gains = hvi_many(post_mean, build_front(data.objectives, data.ids, ref))
        std = gains.std()
        z = (gains - gains.mean()) / std if std > 1e-12 else np.zeros(n)
        w = np.exp(z)
        return w / w.sum()

    predicates = [parse_predicate(c) for c in cfg.constraints]
    genomes = list(data.genomes)
    alphabet = genome_alphabet(genomes)
    bitstring = alphabet == "01"
    feat = dict_kgram_featurizer(cfg.featurizer, alphabet)
    n_total = cfg.pool_size
    n_elite = int(cfg.elite_fraction * n_total + 1e-9)
    n_random = int(cfg.random_fraction * n_total + 1e-9)
    cap = ATTEMPT_CAP_FACTOR * n_total
    pool: list = []
    keys: set = set()

    def admit(cid, genome) -> bool:
        if genome in keys or not all(p(genome) for p in predicates):
            return False
        keys.add(genome)
        pool.append(Candidate(id=cid, genome=genome, features=feat(genome)))
        return True

    for i in np.flatnonzero(non_dominated_mask(data.objectives)):
        if len(pool) >= n_elite:
            break
        admit(data.ids[i], genomes[i])
    n_copied = len(pool)
    weights = None
    attempts = 0
    random_quota = min(n_random, n_total - len(pool))
    random_done = 0
    while len(pool) < n_total and attempts < cap:
        rng = child_rng(seed, attempts)
        attempts += 1
        if random_done < random_quota:
            length = len(genomes[0]) if bitstring else len(genomes[int(rng.integers(0, len(genomes)))])
            if admit(f"gen-{seed:x}-{attempts - 1}", random_genome(rng, alphabet, length)):
                random_done += 1
            continue
        if weights is None:
            weights = parent_weights()
        pa, pb = rng.choice(len(genomes), size=2, p=weights)
        child = string_crossover(rng, genomes[int(pa)], genomes[int(pb)], cfg.crossover)
        child = string_mutate(rng, child, cfg.mutation_rate, alphabet)
        admit(f"gen-{seed:x}-{attempts - 1}", child)
    if len(pool) < n_total:
        raise GenerationStarvedError(n_total, len(pool), (len(pool) - n_copied) / max(attempts, 1))
    return pool


def zeroing_search_lengthscales(d2, zs: list, config) -> list:
    """gp._search_lengthscales with every grid and refinement kernel formed
    through temporaries and factored by _escalated_cholesky, which zeroes
    the factor's upper triangle, the nugget ladder built per factorisation."""
    from scipy.linalg import cho_solve
    from scipy.optimize import minimize

    from poolbo.gp import LENGTHSCALE_BOUNDS, _escalated_cholesky, _lml, _profile_sigma2

    grid = (np.log(np.geomspace(*LENGTHSCALE_BOUNDS, config.n_starts)) if config.n_starts > 1
            else np.mean(np.log(LENGTHSCALE_BOUNDS), keepdims=True))
    edges = np.concatenate([np.log(LENGTHSCALE_BOUNDS[:1]), grid, np.log(LENGTHSCALE_BOUNDS[1:])])

    def neg_lmls(t, targets):
        chol = _escalated_cholesky(np.exp(-0.5 * d2 / np.exp(2.0 * t)), config.nugget)[0]
        ss = [float(z @ cho_solve((chol.T, False), z)) for z in targets]
        return [-_lml(chol, s, _profile_sigma2(s, len(d2), config.signal_variance)) for s in ss]

    lengthscales = []
    for z, f in zip(zs, np.array([neg_lmls(t, zs) for t in grid]).T):
        on_grid = dict(zip(grid.tolist(), f.tolist()))
        padded = np.concatenate([[np.inf], f, [np.inf]])
        runs = [minimize(lambda t: on_grid[t[0]] if t[0] in on_grid else neg_lmls(t[0], [z])[0],
                         [grid[i]], method="L-BFGS-B", bounds=[edges[i:i + 3:2]],
                         options={"eps": 1e-5, "gtol": 1e-3})
                for i in np.flatnonzero((f < padded[:-2]) & (f <= padded[2:]))]
        lengthscales.append(float(np.exp(min(runs, key=lambda r: r.fun).x[0])))
    return lengthscales
