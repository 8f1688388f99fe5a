"""Acquisition comparison harness: run matched campaigns over one labeled
pool, one cell per (acquisition, seed), and aggregate recovery curves."""
from __future__ import annotations

import csv
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .campaign import (
    ACQUISITIONS,
    CampaignConfig,
    build_initial_data,
    config_from_mapping,
    init_campaign,
    nadir_ref_point,
    run,
)
from .files import atomic_write
from .generation import bit_strings, make_featurizer, read_pool
from .gp import GpConfig
from .oracles import LookupOracle
from .pareto import (
    MetricRecord,
    fraction_recovered,
    non_dominated_mask,
    write_metrics_csv,
)

logger = logging.getLogger("poolbo.bench")

SUMMARY_HEADER = (
    "acquisition", "iteration", "mean_hv", "ci95_hv",
    "mean_fraction", "ci95_fraction", "n_seeds",
)


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark: a labeled pool, a set of acquisitions, matched seeds."""

    pool_path: str
    output_dir: str
    batch_size: int
    init_size: int
    acquisitions: tuple = ("qpmhi", "qehvi_mc", "thompson", "random")
    seeds: tuple = (0, 1, 2, 3, 4)
    iterations: int = 20
    mc_samples: int = 256
    ref_rule: str = "nadir_minus_epsilon"
    true_front_ids: tuple | None = None
    featurizer: str = "identity"
    gp: GpConfig = field(default_factory=GpConfig)

    def __post_init__(self):
        object.__setattr__(self, "acquisitions", tuple(self.acquisitions))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.acquisitions:
            raise ValueError("need at least one acquisition")
        unknown = set(self.acquisitions) - set(ACQUISITIONS)
        if unknown:
            raise ValueError(f"unknown acquisition(s): {sorted(unknown)}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be non-empty and distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.init_size < 2:
            raise ValueError("init_size must be at least 2")
        if self.ref_rule not in ("nadir_of_initial", "nadir_minus_epsilon"):
            raise ValueError(
                "bench ref_rule must be 'nadir_of_initial' or 'nadir_minus_epsilon', "
                f"got {self.ref_rule!r}"
            )
        if self.true_front_ids is not None:
            object.__setattr__(self, "true_front_ids", tuple(self.true_front_ids))
        make_featurizer(self.featurizer)  # an unknown name fails before any cell runs

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchSpec":
        return config_from_mapping(cls, payload, "bench spec", "bench")


@dataclass(frozen=True)
class PoolTable:
    """One read of a labeled pool: its lookup oracle, true front and reference point."""

    oracle: LookupOracle
    true_ids: tuple
    ref_point: tuple


def read_pool_table(pool_path, ref_rule: str, true_front_ids=None) -> PoolTable:
    """Read a labeled pool once; resolve its front and its shared reference point.

    Per-cell nadir rules would give every seed its own reference point and
    make hypervolumes incomparable across cells, so the rule is applied once
    to the whole labeled pool and handed to each campaign as explicit.
    `true_front_ids`, when given, must match the front the labels give.
    """
    pool = read_pool(pool_path)
    oracle = LookupOracle.from_rows(pool)
    true_ids = tuple(pool.ids[i] for i in np.flatnonzero(non_dominated_mask(pool.labels)))
    if true_front_ids is not None and set(true_front_ids) != set(true_ids):
        raise ValueError(
            "true_front_ids in the bench spec disagree with the pool labels; "
            f"spec has {len(true_front_ids)}, labels give {len(true_ids)}"
        )
    ref = nadir_ref_point(pool.labels, ref_rule, CampaignConfig.ref_epsilon)
    return PoolTable(oracle, true_ids, tuple(float(v) for v in ref))


def true_pareto_ids(pool_path) -> tuple:
    """Recompute the non-dominated ids from the pool's own labels."""
    return read_pool_table(pool_path, "nadir_of_initial").true_ids


def shared_ref_point(spec: BenchSpec) -> tuple:
    """The bench spec's nadir rule resolved against the full pool labels."""
    return read_pool_table(spec.pool_path, spec.ref_rule).ref_point


def run_cell(spec: BenchSpec, acquisition: str, seed: int, table: PoolTable | None = None) -> list:
    """Run one campaign cell and write its per-iteration metrics CSV.

    `table` is the spec's pool as read_pool_table gives it, read here when
    omitted. The file gets an extra iteration-0 row for the initial sample
    so curves start at the shared baseline.
    """
    logger.info("bench cell: acquisition=%s seed=%d", acquisition, seed)
    if table is None:
        table = read_pool_table(spec.pool_path, spec.ref_rule, spec.true_front_ids)
    cfg = CampaignConfig(
        iterations=spec.iterations,
        batch_size=spec.batch_size,
        mc_samples=spec.mc_samples,
        n_objectives=table.oracle.m,
        acquisition=acquisition,
        ref_rule="explicit",
        ref_point=table.ref_point,
        pool_path=spec.pool_path,
        featurizer=spec.featurizer,
        oracle=f"lookup:{spec.pool_path}",
        init={"pool_sample": spec.init_size},
        seed=seed,
        gp=spec.gp,
    )
    state = init_campaign(cfg, build_initial_data(cfg, table.oracle))
    baseline = MetricRecord(
        iteration=0,
        hv=state.hv_initial,
        relative_hvi=0.0 if state.hv_initial > 0 else None,
        fraction_recovered=fraction_recovered(state.dataset.ids, table.true_ids),
        batch_ids=(),
    )
    state = run(state, cfg, oracle=table.oracle, true_front_ids=table.true_ids)
    records = [baseline] + state.history
    path = os.path.join(spec.output_dir, "cells", f"{acquisition}_seed{seed}.csv")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_metrics_csv(path, records)
    return records


def _mean_ci(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate(records_by_cell: dict) -> list:
    """Mean and normal 95% interval per acquisition per iteration."""
    by_acq: dict = {}
    for (acq, _), records in records_by_cell.items():
        by_acq.setdefault(acq, []).append(records)
    rows = []
    for acq in sorted(by_acq):
        runs = by_acq[acq]
        lengths = {len(r) for r in runs}
        if len(lengths) != 1:
            raise ValueError(f"cells for {acq} have unequal lengths: {sorted(lengths)}")
        for t in range(lengths.pop()):
            hv_mean, hv_ci = _mean_ci([r[t].hv for r in runs])
            fracs = [r[t].fraction_recovered for r in runs]
            if any(f is None for f in fracs):
                frac_mean, frac_ci = "", ""
            else:
                frac_mean, frac_ci = _mean_ci(fracs)
            rows.append({
                "acquisition": acq,
                "iteration": runs[0][t].iteration,
                "mean_hv": hv_mean,
                "ci95_hv": hv_ci,
                "mean_fraction": frac_mean,
                "ci95_fraction": frac_ci,
                "n_seeds": len(runs),
            })
    return rows


def write_summary_csv(path, rows) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_HEADER)
        writer.writeheader()
        writer.writerows(rows)


def run_bench(spec: BenchSpec, workers: int = 1) -> dict:
    """Run every (acquisition, seed) cell and write cell CSVs plus a summary.

    All acquisitions share the same initial sample at each seed, and every
    cell measures hypervolume against one reference point resolved from the
    full pool, so curves are comparable across both axes. Cells are
    independent, which is what makes `workers > 1` safe; each one rewrites
    its own file, so reruns are idempotent. The executor may start every
    worker at once, so there are never more workers than cells.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    table = read_pool_table(spec.pool_path, spec.ref_rule, spec.true_front_ids)
    os.makedirs(spec.output_dir, exist_ok=True)
    cells = [(acq, seed) for acq in spec.acquisitions for seed in spec.seeds]
    acqs, seeds = zip(*cells)
    workers = min(workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_cell, repeat(spec), acqs, seeds, repeat(table)))
    else:
        records = list(map(run_cell, repeat(spec), acqs, seeds, repeat(table)))
    records_by_cell = dict(zip(cells, records))
    rows = aggregate(records_by_cell)
    summary_path = os.path.join(spec.output_dir, "summary.csv")
    write_summary_csv(summary_path, rows)
    return {
        "records": records_by_cell,
        "summary": rows,
        "summary_path": summary_path,
        "true_front_ids": table.true_ids,
        "ref_point": table.ref_point,
    }


# ---------------------------------------------------------------------------
# synthetic pool for acquisition ablations

def make_ablation_pool(path, n: int = 2000, bits: int = 24, seed: int = 20240301,
                       front_range: tuple = (20, 60)) -> dict:
    """Write a labeled pool whose true front size lands in `front_range`.

    Objectives are weighted ones-fractions pushed through a tunable mixing
    knob: with mixing near 1 the two objectives are tightly anti-correlated
    (nearly every point is non-dominated), near 0 they are independent (the
    front shrinks to a handful). The knob is swept until the front size fits.
    """
    rng = np.random.default_rng(seed)
    blocks, drawn = [], []
    while len(set(drawn)) < n:
        blocks.append(rng.integers(0, 2, size=(n, bits)))
        drawn += bit_strings(blocks[-1])
    # the first n distinct genomes, each at its first draw
    keep = sorted(dict(zip(reversed(drawn), range(len(drawn) - 1, -1, -1))).values())[:n]
    genomes = [drawn[i] for i in keep]
    x = np.concatenate(blocks, dtype=float)[keep]
    w1 = rng.uniform(0.5, 1.5, size=bits)
    w2 = rng.uniform(0.5, 1.5, size=bits)
    u = x @ w1 / w1.sum()
    v = x @ w2 / w2.sum()
    lo, hi = front_range
    chosen = None
    for alpha in np.linspace(0.05, 0.95, 19):
        s = alpha * u + (1.0 - alpha) * v
        objectives = np.column_stack([u, 1.0 - s ** 2])
        size = int(non_dominated_mask(objectives).sum())
        if lo <= size <= hi:
            chosen = (float(alpha), objectives, size)
            break
    if chosen is None:
        raise ValueError(f"no mixing weight gave a front in {front_range}")
    alpha, objectives, front_size = chosen
    # csv's excel dialect: \r\n line ends, and no field here needs quoting
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,genome,obj_1,obj_2\r\n")
        fh.writelines(f"p{i},{g},{a!r},{b!r}\r\n"
                      for i, (g, a, b) in enumerate(zip(genomes, *objectives.T.tolist())))
    logger.info("ablation pool: n=%d bits=%d mixing=%.2f front=%d", n, bits, alpha, front_size)
    return {"n": n, "bits": bits, "alpha": alpha, "front_size": front_size, "path": str(path)}
