"""Batch acquisition over discrete candidate pools.

The flagship scorer estimates, per candidate, the posterior probability of
attaining the pool-wide maximum hypervolume improvement. Every joint draw
elects at most one winner, so the per-candidate probabilities partition the
improving event exactly and the top-q ranking is the exact batch optimizer
of the summed score. Baselines: greedy Monte Carlo joint-improvement,
Thompson sampling with fantasy updates, and uniform random selection.
"""
from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .gp import SAMPLE_BLOCK, Posterior
from .pareto import FrontStack, ParetoFront, hvi_many, strictly_dominated_mask, update_front
from .seeds import derive_seed

logger = logging.getLogger(__name__)

_CONSTRAINT_STREAM = 0xC057


@dataclass
class AcquisitionResult:
    """Per-candidate scores that select_batch ranks.

    probs sums exactly to improving_fraction: draws where no candidate
    strictly improves attribute to nobody.
    """

    probs: np.ndarray
    pareto_membership: np.ndarray
    mean_hvi: np.ndarray
    improving_fraction: float
    n_samples: int
    seed: int

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.pareto_membership = np.asarray(self.pareto_membership, dtype=float)
        self.mean_hvi = np.asarray(self.mean_hvi, dtype=float)
        n = self.probs.size
        if self.pareto_membership.size != n or self.mean_hvi.size != n:
            raise ValueError("score vectors must have equal length")
        if np.any(self.probs < 0) or np.any(self.probs > 1):
            raise ValueError("probs must lie in [0, 1]")
        if np.any(self.pareto_membership < 0) or np.any(self.pareto_membership > 1):
            raise ValueError("pareto_membership must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.probs.size

    def summary(self) -> dict:
        return {
            "improving_fraction": float(self.improving_fraction),
            "L": int(self.n_samples),
            "seed": int(self.seed),
        }


def _winner_counts(deltas: np.ndarray, feasible: np.ndarray | None = None) -> np.ndarray:
    """Count, per candidate, the draws (rows of deltas) in which it is the unique winner.

    A draw's winner is the feasible candidate with the largest strictly
    positive improvement, lowest index on ties; draws without one go
    unattributed, as every draw does when there are no candidates.
    """
    n = deltas.shape[1]
    if n == 0:
        return np.zeros(0, dtype=int)
    masked = deltas if feasible is None else np.where(feasible, deltas, -np.inf)
    winners = np.argmax(masked, axis=1)
    best = masked[np.arange(deltas.shape[0]), winners]
    return np.bincount(winners[best > 0.0], minlength=n)


def _undominated_hvi(rows: np.ndarray, dominated: np.ndarray, front: ParetoFront) -> np.ndarray:
    """HVI of every point a dominance mask screened, given the rows it left.

    rows are the points where dominated is False, in order; the others get
    exactly 0.0, which is what the box engine gives any weakly dominated
    point, so the result is bitwise hvi_many of all the points. Callers pass
    only the rows, so they may free the points before scoring.
    """
    out = np.zeros(dominated.size)
    out[~dominated] = hvi_many(rows, front)
    return out


def estimate_qpmhi(post: Posterior, front: ParetoFront, n_samples: int, seed: int,
                   constraint_post: Posterior | None = None, thresholds=None) -> AcquisitionResult:
    """Monte Carlo probability that each candidate maximizes hypervolume improvement.

    Improvements are measured against the fixed current front; the front is
    never updated within a draw, and only draws it does not strictly
    dominate are scored, since no other draw can win. The draws are taken
    one block of SAMPLE_BLOCK at a time: each block is screened, its
    undominated rows copied out and scored, and only per-candidate winner
    and dominated counts are kept, so memory beside the posterior is one
    block of draws whatever n_samples is.

    With `constraint_post` and `thresholds`, each draw also samples the
    constraints, and a candidate is eligible to win a draw only when every
    sampled constraint value meets its threshold (value >= threshold).
    Constraint draws come from an independent stream derived from the seed,
    so vacuous thresholds reproduce the unconstrained result bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if post.m != front.m:
        raise ValueError(f"objective dimensions must match: {post.m} vs {front.m}")
    if (constraint_post is None) != (thresholds is None):
        raise ValueError("constraint_post and thresholds must be given together")
    if constraint_post is not None:
        thresholds = np.asarray(thresholds, dtype=float)
        if constraint_post.n != post.n:
            raise ValueError("constraint posterior must cover the same pool")
        if thresholds.size != constraint_post.m:
            raise ValueError("one threshold per constraint is required")
        con_seed = derive_seed(seed, _CONSTRAINT_STREAM)
    wins, dominated_draws = np.zeros(post.n, dtype=int), np.zeros(post.n, dtype=int)
    for first in range(0, n_samples, SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, n_samples - first)
        feasible = None
        if constraint_post is not None:
            feasible = np.all(constraint_post.sample(size, con_seed, first=first) >= thresholds, axis=-1)
        flat = post.sample(size, seed, first=first).reshape(-1, post.m)
        dominated = strictly_dominated_mask(flat, front)
        undominated = flat[~dominated]
        del flat
        deltas = _undominated_hvi(undominated, dominated, front).reshape(size, post.n)
        del undominated
        wins += _winner_counts(deltas, feasible)
        dominated_draws += dominated.reshape(size, post.n).sum(axis=0)
    return AcquisitionResult(
        probs=wins / n_samples,
        pareto_membership=1.0 - dominated_draws / n_samples,
        mean_hvi=hvi_many(post.mean, front),
        improving_fraction=float(wins.sum() / n_samples),
        n_samples=n_samples,
        seed=seed,
    )


def estimate_qpo(post: Posterior, best_observed: float, n_samples: int, seed: int) -> AcquisitionResult:
    """Single-objective reduction: probability of being the pool-wide best improver.

    The hypervolume improvement collapses to max(0, f - best_observed).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if post.m != 1:
        raise ValueError(f"single-objective acquisition requires one objective, got {post.m}")
    best = float(best_observed)
    samples = post.sample(n_samples, seed)[:, :, 0]
    wins = _winner_counts(np.maximum(0.0, samples - best))
    return AcquisitionResult(
        probs=wins / n_samples,
        pareto_membership=(samples >= best).mean(axis=0),
        mean_hvi=np.maximum(0.0, post.mean[:, 0] - best),
        improving_fraction=float(wins.sum() / n_samples),
        n_samples=n_samples,
        seed=seed,
    )


def constrained_qpmhi(post: Posterior, constraint_post: Posterior, thresholds,
                      front: ParetoFront, n_samples: int, seed: int) -> AcquisitionResult:
    """Feasibility-filtered qPMHI; see estimate_qpmhi."""
    return estimate_qpmhi(post, front, n_samples, seed,
                          constraint_post=constraint_post, thresholds=thresholds)


def _batch_size(q: int, n: int) -> int:
    """q capped at the pool size n, with a warning when it is capped."""
    if q < 1:
        raise ValueError("batch size must be at least 1")
    if q > n:
        logger.warning("batch size %d exceeds pool size %d; truncating", q, n)
    return min(q, n)


def select_batch(result: AcquisitionResult, q: int) -> list:
    """Ordered batch of q candidate indices.

    Ranks by descending winner probability; remaining slots fall back to
    descending Pareto-membership probability, then to the improvement of the
    posterior mean. Ties always break toward the lower index. Each fallback
    key is zero on the rows an earlier key already ranks, so one sort over
    the four keys gives the whole order.
    """
    q = _batch_size(q, result.n)
    probs, membership = result.probs, result.pareto_membership
    improving = probs > 0
    order = np.lexsort((np.arange(result.n),
                        np.where(improving | (membership > 0), 0.0, -result.mean_hvi),
                        np.where(improving, 0.0, -membership),
                        -probs))
    return [int(i) for i in order[:q]]


def qehvi_mc(post: Posterior, front: ParetoFront, q: int, n_samples: int, seed: int) -> list:
    """Greedy batch maximizing Monte Carlo expected joint hypervolume improvement.

    One shared set of joint samples scores every greedy step; each step adds
    the candidate with the largest mean incremental improvement against the
    per-draw augmented fronts. Stale gains are re-evaluated lazily, which is
    exact because incremental improvements only shrink as the batch grows;
    a re-evaluation scores the candidate against every draw's front at once
    (pareto.FrontStack): one box-major product over a padded box array of
    at least two columns, summing each draw's boxes in order, so a per-draw
    gain is bitwise hvi_many against that draw's front alone. At m = 2 a
    pick is spliced into every draw's column of that array at once; m >= 3
    rebuilds each changed draw's front.
    """
    q = _batch_size(q, post.n)
    if post.m != front.m:
        raise ValueError(f"objective dimensions must match: {post.m} vs {front.m}")
    n = post.n
    samples = post.sample(n_samples, seed)
    fronts = FrontStack(front, n_samples)
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
            fresh = float(np.mean(fronts.gains(samples[:, i])))
            stamp[i] = step - 1
            heapq.heappush(heap, (-fresh, i))
        fronts.insert(samples[:, selected[-1]])
    return selected


def _least_margins(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per row of values, min over points p of max_j(v_j - p_j), as running
    n-vector maxima and minima: no (n, F, m) temporary is made."""
    cols = np.ascontiguousarray(values.T)
    margins = np.full(values.shape[0], np.inf)
    for p in points:
        worst = cols[0] - p[0]
        for col, level in zip(cols[1:], p[1:]):
            np.maximum(worst, col - level, out=worst)
        np.minimum(margins, worst, out=margins)
    return margins


def thompson_hvi(post: Posterior, front: ParetoFront, q: int, seed: int) -> list:
    """Sequential Thompson batch: draw j's maximizer joins as a fantasy point.

    Step j maximizes the sampled hypervolume improvement against the front
    augmented with earlier fantasies, scoring only the draws that front does
    not strictly dominate; when nothing improves, the candidate whose draw
    is least dominated (largest non-domination margin; against the
    reference point while the front is empty) is taken.
    """
    q = _batch_size(q, post.n)
    if post.m != front.m:
        raise ValueError(f"objective dimensions must match: {post.m} vs {front.m}")
    samples = post.sample(q, seed)
    taken = np.zeros(post.n, dtype=bool)
    selected: list = []
    for values in samples:
        dominated = strictly_dominated_mask(values, front)
        deltas = _undominated_hvi(values[~dominated], dominated, front)
        deltas[taken] = -np.inf
        if deltas.max() > 0:
            pick = int(np.argmax(deltas))
        else:
            margins = _least_margins(values, front.points if front.size else front.ref[None, :])
            margins[taken] = -np.inf
            pick = int(np.argmax(margins))
        selected.append(pick)
        taken[pick] = True
        front = update_front(front, values[pick])
    return selected


def random_select(pool_size: int, q: int, seed: int) -> list:
    """Uniform batch without replacement."""
    q = _batch_size(q, pool_size)
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.permutation(pool_size)[:q]]

