"""The benchmark's workloads: how each one sets up a campaign, and the true
Pareto front its quality metrics are measured against."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from poolbo.bench import BenchSpec, make_ablation_pool, shared_ref_point, true_pareto_ids
from poolbo.campaign import CampaignConfig, build_initial_data, init_campaign
from poolbo.generation import GeneratorConfig
from poolbo.oracles import LookupOracle


@dataclass
class Cell:
    """One campaign ready to run, plus what its output is checked against."""

    cfg: CampaignConfig
    state: object
    oracle: object
    true_front_ids: tuple | None = None
    pool_ids: frozenset | None = None      # None: a fresh pool is bred each iteration
    truth: frozenset = frozenset()         # objective vectors of the true front


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object          # (seed, workdir) -> Cell, the part setup_s times
    reference: object      # (cell, workdir) -> Cell with pool_ids and truth, untimed
    writes_artifacts: bool
    expected_spans: tuple  # spans a traced campaign must see at least once
    setup_reps: int        # timed set-ups before each campaign, and again after the last
    campaigns: int = 1     # campaigns per run, each on its own derived seed


# ---------------------------------------------------------------------------
# static pool: the ROADMAP headline ablation cell

STATIC_POOL = "pool.csv"


def _static_setup(acquisition: str, batch_size: int, iterations: int):
    def setup(seed: int, workdir: str) -> Cell:
        # mirrors poolbo.bench.run_cell: build the pool, resolve truth and the
        # shared reference point, label the initial sample
        path = os.path.join(workdir, STATIC_POOL)
        make_ablation_pool(path)
        spec = BenchSpec(pool_path=path, output_dir=workdir, batch_size=batch_size, init_size=100)
        true_ids = true_pareto_ids(path)
        ref = shared_ref_point(spec)
        oracle = LookupOracle.from_pool_csv(path)
        cfg = CampaignConfig(
            iterations=iterations, batch_size=batch_size, mc_samples=256, n_objectives=oracle.m,
            acquisition=acquisition, ref_rule="explicit", ref_point=ref, pool_path=path,
            init={"pool_sample": 100}, seed=seed,
        )
        state = init_campaign(cfg, build_initial_data(cfg, oracle))
        return Cell(cfg=cfg, state=state, oracle=oracle, true_front_ids=true_ids)
    return setup


def _static_reference(cell: Cell, workdir: str) -> Cell:
    with open(os.path.join(workdir, STATIC_POOL), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    on_front = set(cell.true_front_ids)
    cell.pool_ids = frozenset(r[0] for r in rows)
    cell.truth = frozenset(tuple(float(v) for v in r[2:]) for r in rows if r[0] in on_front)
    return cell


# ---------------------------------------------------------------------------
# bred pools with a 3-objective synthetic oracle

GENOME_BITS = 48
TARGETS = (16, 24, 32)
BRED_REF = (-1.0, -1.0, -1.0)


def synth3_objectives(ones: int, bits: int) -> tuple:
    """Negated distances of the ones count to three targets, per bit."""
    return tuple(-abs(ones - t) / bits for t in TARGETS)


class Synth3Oracle:
    """Deterministic 3-objective oracle on 48-bit genomes. The ones count is
    a linear function of 3-gram counts, so the kgram:3 surrogate can learn it."""

    m = 3

    def evaluate(self, candidates) -> np.ndarray:
        if not candidates:
            raise ValueError("oracle batch must be non-empty")
        return np.array([synth3_objectives(c.genome.count("1"), len(c.genome))
                         for c in candidates], dtype=float)


def synth3_front(bits: int) -> frozenset:
    """Every Pareto-optimal objective vector of Synth3Oracle: one per ones
    count between the outer targets, where moving toward one target moves
    away from another; counts outside are dominated by the nearer end."""
    return frozenset(synth3_objectives(ones, bits) for ones in range(TARGETS[0], TARGETS[-1] + 1))


def _bred_setup(seed: int, workdir: str) -> Cell:
    oracle = Synth3Oracle()
    cfg = CampaignConfig(
        iterations=13, batch_size=16, mc_samples=32, n_objectives=3, acquisition="qpmhi",
        ref_rule="explicit", ref_point=BRED_REF,
        generator=GeneratorConfig(pool_size=128, parent_selection="surrogate_weighted",
                                  featurizer="kgram:3"),
        init={"random": {"count": 32, "length": GENOME_BITS}}, seed=seed,
    )
    state = init_campaign(cfg, build_initial_data(cfg, oracle))
    return Cell(cfg=cfg, state=state, oracle=oracle)


def _bred_reference(cell: Cell, workdir: str) -> Cell:
    cell.truth = synth3_front(GENOME_BITS)
    return cell


_SURROGATE = ("gp.fit", "gp.pool_posterior", "gp.sample", "pareto.hvi_many",
              "pareto.update_front", "oracles.evaluate")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="static-m2-qpmhi",
            why="ROADMAP headline cell (2000-row pool, q=100, L=256) cut to 16 iterations: "
                "pool posterior and joint sampling over up to 1900 open rows dominate.",
            setup=_static_setup("qpmhi", 100, 16),
            reference=_static_reference,
            writes_artifacts=False,
            expected_spans=_SURROGATE + ("acquisition.estimate_qpmhi",
                                         "acquisition.select_batch", "generation.load_pool"),
            setup_reps=3,
        ),
        Workload(
            name="static-m2-qehvi",
            why="Same pool and L=256 with qehvi_mc, 5 two-iteration campaigns at q=10: the "
                "greedy select over per-draw fronts is the largest layer, using pareto read-write.",
            setup=_static_setup("qehvi_mc", 10, 2),
            reference=_static_reference,
            writes_artifacts=False,
            expected_spans=_SURROGATE + ("acquisition.qehvi_mc", "generation.load_pool"),
            # the greedy select's lazy re-evaluations vary with the seed by up
            # to 2x per iteration, so one run pools the waits of five seeds
            setup_reps=1,
            campaigns=5,
        ),
        Workload(
            name="bred-m3-qpmhi",
            why="Bred 128-row pools, m=3, RBF surrogate on kgram:3, artifacts every "
                "iteration: m>=3 HVI, generation, RBF fit and writes; posterior is tiny.",
            setup=_bred_setup,
            reference=_bred_reference,
            writes_artifacts=True,
            expected_spans=_SURROGATE + ("acquisition.estimate_qpmhi", "acquisition.select_batch",
                                         "generation.propose_pool", "campaign.write_metrics_csv",
                                         "campaign.save_front", "campaign.save_checkpoint"),
            setup_reps=150,
        ),
    )
}
