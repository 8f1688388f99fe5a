#!/usr/bin/env python3
"""poolbo benchmark: run one workload as a closed-loop campaign.

    python3 perfbench/run.py --workload static-m2-qpmhi --seed 0 --seconds 25 --trace 0

Run from the repository root; poolbo is imported from ./src. The campaign is
the only caller of its oracle and each batch waits for the previous one, as
in a lab loop. `--seed` derives the campaign seed, which fixes the initial
sample and every Monte Carlo and breeding stream.

--trace 0 runs the workload's fixed number of campaigns (one, or five short
ones where the work varies much with the seed), times set-up a fixed number
of times before each campaign and after the last, and prints the end-to-end
metrics. The work of a run is fixed per workload,
sized so that one run takes about `--seconds` on a 2-CPU host; a faster
program ends sooner rather than doing other work.
--trace 1 runs each campaign twice on its seed, untraced and traced,
checks that their artifacts are byte-identical, and prints per-layer
metrics, summed over the campaigns, taken from spans around poolbo's
public functions.

Every campaign's output is checked; the last stdout line is a JSON result,
and the exit code is 1 when a check failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "campaign_s": "s", "decide_s_p50": "s", "peak_rss_mb": "MiB",
    "recovery_auc": "fraction", "hv_auc": "fraction",
}


def cap_blas_threads() -> int:
    """Run BLAS/OpenMP single-threaded; must run before numpy is imported.

    With a thread per CPU every matrix call waits for the slower CPU, so
    any other busy process on the host slows a run far more: one busy
    process on a 2-CPU host slowed a static-m2-qehvi iteration by ~45 % at
    two BLAS threads and by ~15 % at one."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def git_commit(root: str) -> str | None:
    """Commit of the checkout read from .git, or None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Lab:
    """The oracle as the campaign sees it: times each wait between a batch
    returning and the campaign's next request."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.waits: list = []
        self.ready = 0.0

    def evaluate(self, candidates):
        self.waits.append(time.perf_counter() - self.ready)
        values = self.oracle.evaluate(candidates)
        self.ready = time.perf_counter()
        return values


@contextmanager
def recorded_pools(pools: list):
    """Keep the ids of every pool run() breeds, for the batch-membership check."""
    from poolbo import campaign

    original = campaign.propose_pool

    def propose(*args, **kwargs):
        pool = original(*args, **kwargs)
        pools.append(frozenset(c.id for c in pool))
        return pool

    campaign.propose_pool = propose
    try:
        yield
    finally:
        campaign.propose_pool = original


@dataclass
class Outcome:
    state: object
    initial: object        # the dataset before the first iteration
    campaign_s: float
    waits: list
    pools: list
    error: str | None = None


def run_campaign(workload, cell, outdir: str, tracer=None) -> Outcome:
    from poolbo.campaign import run
    from poolbo.pareto import write_metrics_csv

    os.makedirs(outdir, exist_ok=True)
    paths = {}
    if workload.writes_artifacts:
        paths = {"metrics_path": os.path.join(outdir, "metrics.csv"),
                 "front_path": os.path.join(outdir, "front.json"),
                 "checkpoint_path": os.path.join(outdir, "checkpoint.json")}
    lab = Lab(cell.oracle)
    bred: list = []
    initial = cell.state.dataset
    error = None
    with recorded_pools(bred) if cell.pool_ids is None else nullcontext():
        with tracer.span("campaign.run") if tracer else nullcontext():
            start = time.perf_counter()
            lab.ready = start
            try:
                state = run(cell.state, cell.cfg, oracle=lab,
                            true_front_ids=cell.true_front_ids, **paths)
            except Exception:  # reported as failed iterations, never hidden
                error = traceback.format_exc()
                state = cell.state
            campaign_s = time.perf_counter() - start
    if not workload.writes_artifacts:
        write_metrics_csv(os.path.join(outdir, "metrics.csv"), state.history)
    pools = bred if cell.pool_ids is None else [cell.pool_ids] * len(state.history)
    return Outcome(state, initial, campaign_s, lab.waits, pools, error)


def judge(cell, out: Outcome) -> tuple:
    """(failed iteration count, recovery per iteration, hv_auc) of one campaign."""
    from checks import check_campaign, iteration_labels, reference_hypervolume

    failures = check_campaign(out.state, out.state.hv_initial, cell.cfg.ref_point, out.pools)
    if out.error:
        print(out.error, file=sys.stderr, end="")
        failures += [(t, "not completed")
                     for t in range(len(out.state.history) + 1, cell.cfg.iterations + 1)]
    for t, msg in failures:
        print(f"check failed at iteration {t}: {msg}", file=sys.stderr)
    found = {tuple(row) for row in out.initial.objectives}
    recovery = []
    for rows in iteration_labels(out.state, out.initial.ids):
        found.update(rows)
        recovery.append(len(found & cell.truth) / len(cell.truth))
    hv_true = reference_hypervolume(cell.truth, cell.cfg.ref_point)
    hvs = [rec.hv / hv_true for rec in out.state.history]
    hv_auc = statistics.fmean(hvs) if hvs else 0.0
    return len({t for t, _ in failures}), recovery, hv_auc


def timed_setup(workload, seed: int, workdir: str) -> tuple:
    start = time.perf_counter()
    cell = workload.setup(seed, workdir)
    return cell, time.perf_counter() - start


def setup_burst(workload, seed: int, workdir: str, times: list):
    """Set up workload.setup_reps times on one seed; return the last cell."""
    # collect first, so the burst does not pay for what came before it
    gc.collect()
    for _ in range(workload.setup_reps):
        cell, took = timed_setup(workload, seed, workdir)
        times.append(took)
    return cell


def measure(workload, seed: int, workdir: str) -> tuple:
    """--trace 0: end-to-end metrics of workload.campaigns campaigns, the
    k-th on derive_seed(seed, k). Waits are pooled over the campaigns; the
    other campaign figures are their means."""
    from poolbo.seeds import derive_seed

    # set-up is timed in bursts, before each campaign and after the last, and
    # reported as the fastest sample: on a shared host the slower samples
    # measure the neighbours as much as the code
    setups: list = []
    waits: list = []
    campaign_s, recovery_auc, hv_auc = [], [], []
    attempted = failed = 0
    for k in range(workload.campaigns):
        campaign_seed = derive_seed(seed, k)
        cell = setup_burst(workload, campaign_seed, workdir, setups)
        cell = workload.reference(cell, workdir)
        out = run_campaign(workload, cell, os.path.join(workdir, f"campaign{k}"))
        bad, recovery, hv = judge(cell, out)
        attempted += cell.cfg.iterations
        failed += bad
        waits += out.waits
        campaign_s.append(out.campaign_s)
        recovery_auc.append(statistics.fmean(recovery) if recovery else 0.0)
        hv_auc.append(hv)
    setup_burst(workload, derive_seed(seed, 0), workdir, setups)
    metrics = {
        "setup_s": min(setups),
        "campaign_s": statistics.fmean(campaign_s),
        "decide_s_p50": statistics.median(waits) if waits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recovery_auc": statistics.fmean(recovery_auc),
        "hv_auc": statistics.fmean(hv_auc),
    }
    notes = {"campaigns": workload.campaigns, "setups": len(setups),
             "setup_s_median": statistics.median(setups), "decide_samples": len(waits)}
    return ({n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()},
            attempted, failed, notes)


ARTIFACTS = ("metrics.csv", "front.json", "checkpoint.json")


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def traced(workload, seed: int, workdir: str) -> tuple:
    """--trace 1: per-layer metrics summed over traced campaigns, each next
    to an untraced one on the same seed."""
    from poolbo.seeds import derive_seed
    from checks import iteration_labels
    from spans import Tracer, layer_metrics

    # set-up and campaign are traced apart, so that the campaign's counts
    # hold no set-up work (such as labelling the initial sample)
    setup_tracer, tracer = Tracer("setup"), Tracer("campaign")
    plain_s = traced_s = 0.0
    attempted = failed = front_size = skipped = 0
    differ: list = []
    for k in range(workload.campaigns):
        campaign_seed = derive_seed(seed, k)
        plain_dir = os.path.join(workdir, f"untraced{k}")
        traced_dir = os.path.join(workdir, f"traced{k}")

        cell, _ = timed_setup(workload, campaign_seed, workdir)
        cell = workload.reference(cell, workdir)
        plain = run_campaign(workload, cell, plain_dir)
        bad_plain, _, _ = judge(cell, plain)

        setup_tracer.begin_campaign(k, campaign_seed)
        tracer.begin_campaign(k, campaign_seed)
        with setup_tracer.installed():
            cell, _ = timed_setup(workload, campaign_seed, workdir)
        cell = workload.reference(cell, workdir)
        with tracer.installed():
            out = run_campaign(workload, cell, traced_dir, tracer)
        bad_traced, _, _ = judge(cell, out)
        if tracer.iteration != cell.cfg.iterations:
            raise RuntimeError(f"iteration marker reached {tracer.iteration}, "
                               f"expected {cell.cfg.iterations}")
        differ += [f"{name} (campaign {k})" for name in ARTIFACTS
                   if _read(os.path.join(plain_dir, name)) != _read(os.path.join(traced_dir, name))]
        skipped += sum(len(rec.batch_ids) - len(rows) for rec, rows in
                       zip(out.state.history, iteration_labels(out.state, out.initial.ids)))
        front_size += out.state.front.size
        plain_s += plain.campaign_s
        traced_s += out.campaign_s
        attempted += 2 * cell.cfg.iterations
        failed += bad_plain + bad_traced

    spans_path = os.path.join(WORK, f"spans-{workload.name}-seed{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        setup_tracer.write(fh)
        tracer.write(fh)
    print(f"spans: {os.path.relpath(spans_path, ROOT)} "
          f"({len(setup_tracer.spans) + len(tracer.spans)} spans)")

    missing = [name for name in workload.expected_spans if tracer.calls(name) == 0]
    if missing:
        raise RuntimeError(f"{workload.name}: traced layers never called: {missing}")
    if differ:
        print(f"check failed: traced artifacts differ from untraced: {differ}", file=sys.stderr)

    metrics = layer_metrics(tracer, front_size, skipped)
    metrics["setup.load_pool_s"] = (setup_tracer.total("generation.load_pool"), "s")
    metrics["setup.load_pool_calls"] = (setup_tracer.calls("generation.load_pool"), "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    failed += 1 if differ else 0
    notes = {"campaigns": workload.campaigns, "untraced_campaign_s": plain_s,
             "traced_campaign_s": traced_s, "artifacts_identical": not differ}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="the run length the benchmark is sized for; recorded, "
                             "the work of a run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    blas_threads = cap_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "poolbo", "__init__.py")):
        print(f"perfbench: no poolbo sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy
    import scipy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(ROOT),
    }
    print("env " + json.dumps(env))

    workdir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced(workload, args.seed, workdir)
        else:
            metrics, attempted, failed, notes = measure(workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("notes " + json.dumps(notes))
    timings = {n: vu for n, vu in metrics.items() if vu[1] == "s"}
    others = {n: vu for n, vu in metrics.items() if vu[1] != "s"}
    for title, group in (("timings", timings), ("counts and ratios", others)):
        print(f"{title}:")
        for name, (value, unit) in group.items():
            print(f"  {name:<32} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
