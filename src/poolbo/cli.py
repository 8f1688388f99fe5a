"""Command line front end.

Subcommands: `run` drives a campaign from a JSON config, `hv` computes exact
hypervolume for a saved front, `bench` runs the acquisition comparison grid,
and `select` scores one pool against a checkpointed campaign. Exit codes: 0
on success, 2 for bad configs or inputs (a malformed checkpoint among them),
1 for runtime failures (the last checkpoint is left on disk).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .bench import BenchSpec, run_bench
from .campaign import (
    CampaignConfig,
    build_initial_data,
    config_hash,
    init_campaign,
    kept_covariance,
    load_checkpoint,
    resolve_oracle,
    run,
    select_next,
)
from .generation import load_pool
from .pareto import front_rows, hypervolume


def _setup_logging() -> None:
    level_name = os.environ.get("POOLBO_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_run(args) -> int:
    payload = _load_json(args.config)
    if not isinstance(payload, dict):
        raise ValueError("run config must be a JSON object")
    output_dir = payload.pop("output_dir", None)
    if not output_dir:
        raise ValueError("run config needs an output_dir")
    true_ids = payload.pop("true_front_ids", None)
    cfg = CampaignConfig.from_dict(payload)
    os.makedirs(output_dir, exist_ok=True)
    metrics_path = os.path.join(output_dir, "metrics.csv")
    checkpoint_path = os.path.join(output_dir, "checkpoint.json")
    front_path = os.path.join(output_dir, "front.json")

    oracle = resolve_oracle(cfg)
    if args.resume:
        if not os.path.exists(checkpoint_path):
            raise ValueError(f"nothing to resume: {checkpoint_path} does not exist")
        state, stored_cfg = load_checkpoint(checkpoint_path)
        if config_hash(stored_cfg) != config_hash(cfg):
            raise ValueError("config does not match the checkpointed campaign")
    else:
        state = init_campaign(cfg, build_initial_data(cfg, oracle))

    state = run(
        state, cfg,
        oracle=oracle,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
        front_path=front_path,
        true_front_ids=true_ids,
    )
    hv = state.front.hypervolume()
    print(f"finished iteration {state.iteration}: hv={hv!r} "
          f"labeled={state.dataset.n} front={state.front.size}")
    print(f"metrics: {metrics_path}")
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_hv(args) -> int:
    try:
        ref = tuple(float(v) for v in args.ref.split(","))
    except ValueError:
        raise ValueError(f"--ref must be comma-separated numbers, got {args.ref!r}") from None
    points = front_rows(_load_json(args.front), len(ref))
    print(repr(hypervolume(points, ref)))
    return 0


def cmd_bench(args) -> int:
    payload = _load_json(args.spec)
    spec = BenchSpec.from_dict(payload)
    result = run_bench(spec, workers=args.workers)
    print(f"wrote {len(result['records'])} cells under {spec.output_dir}")
    print(f"summary: {result['summary_path']}")
    return 0


def cmd_select(args) -> int:
    if args.batch_size < 1:
        raise ValueError("-q must be at least 1")
    state, cfg = load_checkpoint(args.checkpoint)
    pool = load_pool(args.pool, cfg.pool_featurizer)
    # a static campaign's pool posterior is replayed, as a resumed run() replays it
    kept = None if cfg.pool_path is None else kept_covariance(state, cfg, pool)
    cfg = dataclasses.replace(cfg, batch_size=args.batch_size, generator=None, pool_path=args.pool)
    for i in select_next(state, cfg, pool, kept=kept):
        print(pool[i].id)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolbo",
        description="Batch multi-objective optimization over candidate pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run or resume a campaign from a JSON config")
    p_run.add_argument("config", help="campaign config JSON")
    p_run.add_argument("--resume", action="store_true",
                       help="continue from output_dir/checkpoint.json")
    p_run.set_defaults(handler=cmd_run)

    p_hv = sub.add_parser("hv", help="exact hypervolume of a saved front")
    p_hv.add_argument("front", help="JSON front: a 'points' array or a bare list of rows")
    p_hv.add_argument("--ref", required=True, help="reference point, e.g. 0.0,0.0")
    p_hv.set_defaults(handler=cmd_hv)

    p_bench = sub.add_parser("bench", help="acquisition comparison over one pool")
    p_bench.add_argument("spec", help="bench spec JSON")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.set_defaults(handler=cmd_bench)

    p_select = sub.add_parser("select", help="score a pool against a checkpoint")
    p_select.add_argument("pool", help="candidate pool CSV")
    p_select.add_argument("checkpoint", help="campaign checkpoint JSON")
    p_select.add_argument("-q", dest="batch_size", type=int, required=True,
                          help="batch size to select")
    p_select.set_defaults(handler=cmd_select)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1,-1 for an option, so bind it to --ref first
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--ref":
            argv[i - 1:i + 1] = [f"--ref={argv[i]}"]
    args = _build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
