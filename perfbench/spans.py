"""Spans and counts at poolbo's layer boundaries, recorded from outside the
library.

The tracer rebinds, for the length of a traced run, the public names that
`campaign.run()` and its callees look up at call time. Each call becomes a
span (name, start, end, campaign, iteration, parent span) kept in memory; observers
add exact counts at the same boundary. Nothing under src/ is edited.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    campaign: int
    iteration: int
    parent: int | None


# observers: (tracer, args, result) -> None, adding exact counts

def _open_rows(tr, args, post):
    tr.counts["gp.open_rows"] += post.cov.shape[1]


def _sample_values(tr, args, draws):
    post, n_samples = args[0], args[1]
    tr.counts["gp.sample_values"] += n_samples * post.cov.shape[1] * post.m


def _hvi_points(tr, args, gains):
    tr.counts["pareto.hvi_points"] += len(gains)


def _improving(tr, args, result):
    tr.improving.append(result.improving_fraction)


def _fallback(tr, args, selected):
    probs = args[0].probs
    tr.counts["acquisition.fallback_slots"] += sum(1 for i in selected if probs[i] <= 0)


def _accepted(tr, args, pool):
    # propose_pool names offspring f"gen-{seed:x}-{attempt}" and stops on the
    # attempt that fills the pool; other ids are copied elites
    prefix = f"gen-{args[3]:x}-"
    attempts = [int(c.id[len(prefix):]) for c in pool if c.id.startswith(prefix)]
    tr.counts["generation.accepted"] += len(attempts)
    tr.counts["generation.attempts"] += max(attempts) + 1 if attempts else 0


def _evaluated(tr, args, values):
    tr.counts["oracles.evaluated"] += len(args[1])


def _checkpoint_bytes(tr, args, _):
    tr.counts["campaign.checkpoint_bytes"] += os.path.getsize(args[0])


# (span name, owner, attribute, observer); the owner is where the caller
# looks the name up, so one definition may appear under several owners
PATCHES = (
    ("gp.fit", "poolbo.campaign", "fit", None),
    ("gp.pool_posterior", "poolbo.campaign", "pool_posterior", _open_rows),
    ("gp.sample", "poolbo.gp:Posterior", "sample", _sample_values),
    ("pareto.hvi_many", "poolbo.acquisition", "hvi_many", _hvi_points),
    ("pareto.hvi_many", "poolbo.generation", "hvi_many", _hvi_points),
    ("pareto.update_front", "poolbo.campaign", "update_front", None),
    ("acquisition.estimate_qpmhi", "poolbo.campaign", "estimate_qpmhi", _improving),
    ("acquisition.select_batch", "poolbo.campaign", "select_batch", _fallback),
    ("acquisition.qehvi_mc", "poolbo.campaign", "qehvi_mc", None),
    ("acquisition.thompson_hvi", "poolbo.campaign", "thompson_hvi", None),
    ("generation.propose_pool", "poolbo.campaign", "propose_pool", _accepted),
    ("generation.load_pool", "poolbo.campaign", "load_pool", None),
    ("generation.load_pool", "poolbo.generation", "load_pool", None),
    ("generation.load_pool", "poolbo.oracles", "load_pool", None),
    ("oracles.evaluate", "poolbo.oracles:LookupOracle", "evaluate", _evaluated),
    ("oracles.evaluate", "workloads:Synth3Oracle", "evaluate", _evaluated),
    ("campaign.write_metrics_csv", "poolbo.campaign", "write_metrics_csv", None),
    ("campaign.save_front", "poolbo.campaign", "save_front", None),
    ("campaign.save_checkpoint", "poolbo.campaign", "save_checkpoint", _checkpoint_bytes),
)

SELECT_SPANS = ("acquisition.select_batch", "acquisition.qehvi_mc", "acquisition.thompson_hvi")
ARTIFACT_SPANS = ("campaign.write_metrics_csv", "campaign.save_front", "campaign.save_checkpoint")


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one phase (set-up or campaign) of a
    traced run, summed over the run's campaigns."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list = []
        self.counts: Counter = Counter()
        self.improving: list = []
        self.campaign = -1
        self.campaign_seed = None
        self.iteration = 0
        self._stack: list = []

    def begin_campaign(self, campaign: int, campaign_seed: int) -> None:
        self.campaign, self.campaign_seed, self.iteration = campaign, campaign_seed, 0

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, self.campaign, self.iteration, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name: str, fn, observe):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def _mark_iteration(self, fn):
        # run() opens iteration t with derive_seed(cfg.seed, t)
        def marked(*parts):
            if len(parts) == 2 and parts[0] == self.campaign_seed:
                self.iteration = int(parts[1])
            return fn(*parts)
        return marked

    @contextmanager
    def installed(self):
        """Rebind every patched name for the duration of the block."""
        saved = []
        try:
            for name, owner, attr, observe in PATCHES + (("", "poolbo.campaign", "derive_seed", None),):
                target = resolve(owner)
                if attr not in vars(target):
                    raise RuntimeError(f"traced name {owner}.{attr} no longer exists")
                original = vars(target)[attr]
                saved.append((target, attr, original))
                wrapped = self.wrap(name, original, observe) if name else self._mark_iteration(original)
                setattr(target, attr, wrapped)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total(self, *names) -> float:
        return sum((s.end - s.start for s in self.spans if s.name in names), 0.0)

    def self_time(self, *names) -> float:
        """Duration of the named spans minus what their child spans cover."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return sum((s.end - s.start - child[i] for i, s in enumerate(self.spans) if s.name in names), 0.0)

    def write(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({"phase": self.phase, **asdict(s)}) + "\n")


def layer_metrics(tr: Tracer, front_size: int, skipped: int) -> dict:
    """Per-layer numbers of a traced run, summed over its campaigns:
    (value, unit)."""
    c = tr.counts
    attempts = c["generation.attempts"]
    return {
        "gp.fit_s": (tr.total("gp.fit"), "s"),
        "gp.fit_calls": (tr.calls("gp.fit"), "count"),
        "gp.pool_posterior_s": (tr.total("gp.pool_posterior"), "s"),
        "gp.open_rows": (c["gp.open_rows"], "count"),
        "gp.sample_s": (tr.total("gp.sample"), "s"),
        "gp.sample_values": (c["gp.sample_values"], "count"),
        "pareto.hvi_many_s": (tr.total("pareto.hvi_many"), "s"),
        "pareto.hvi_points": (c["pareto.hvi_points"], "count"),
        "pareto.update_front_s": (tr.total("pareto.update_front"), "s"),
        "pareto.front_size": (front_size, "count"),
        "acquisition.score_self_s": (tr.self_time("acquisition.estimate_qpmhi"), "s"),
        "acquisition.select_s": (tr.self_time(*SELECT_SPANS), "s"),
        "acquisition.improving_fraction": (
            sum(tr.improving) / len(tr.improving) if tr.improving else 0.0, "fraction"),
        "acquisition.fallback_slots": (c["acquisition.fallback_slots"], "count"),
        "generation.propose_s": (tr.total("generation.propose_pool"), "s"),
        "generation.accept_rate": (
            c["generation.accepted"] / attempts if attempts else 0.0, "fraction"),
        "generation.load_pool_s": (tr.total("generation.load_pool"), "s"),
        "generation.load_pool_calls": (tr.calls("generation.load_pool"), "count"),
        "oracles.evaluate_s": (tr.total("oracles.evaluate"), "s"),
        "oracles.evaluated": (c["oracles.evaluated"], "count"),
        "oracles.skipped_labeled": (skipped, "count"),
        "campaign.artifacts_s": (tr.total(*ARTIFACT_SPANS), "s"),
        "campaign.checkpoint_bytes": (c["campaign.checkpoint_bytes"], "bytes"),
        "campaign.loop_self_s": (tr.self_time("campaign.run"), "s"),
    }
