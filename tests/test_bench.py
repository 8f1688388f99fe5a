"""Benchmark harness: spec handling, truth recovery, aggregation, pool builder."""
import hashlib
import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from poolbo import bench, campaign, generation, oracles
from poolbo.bench import (
    SUMMARY_HEADER,
    BenchSpec,
    aggregate,
    make_ablation_pool,
    run_bench,
    run_cell,
    shared_ref_point,
    true_pareto_ids,
)
from poolbo.generation import PoolFormatError, load_pool, read_pool
from poolbo.oracles import OracleError
from poolbo.pareto import MetricRecord, build_front, read_metrics_csv
from refimpl import string_ablation_pool


@pytest.fixture()
def small_pool(tmp_path):
    path = tmp_path / "pool.csv"
    make_ablation_pool(path, n=40, bits=8, seed=4, front_range=(3, 30))
    return path


def small_spec(pool, out, **over):
    base = dict(
        pool_path=str(pool),
        output_dir=str(out),
        batch_size=3,
        init_size=4,
        acquisitions=("qpmhi", "random"),
        seeds=(0, 1),
        iterations=2,
        mc_samples=16,
    )
    base.update(over)
    return BenchSpec(**base)


class TestBenchSpec:
    def test_round_trips_through_json(self, small_pool, tmp_path):
        spec = small_spec(small_pool, tmp_path / "out", true_front_ids=("p1", "p2"))
        rebuilt = BenchSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_unknown_field_is_named(self, small_pool, tmp_path):
        payload = small_spec(small_pool, tmp_path / "out").to_dict()
        payload["sedes"] = [1]
        with pytest.raises(ValueError, match="sedes"):
            BenchSpec.from_dict(payload)

    @pytest.mark.parametrize("over,msg", [
        (dict(acquisitions=()), "at least one"),
        (dict(acquisitions=("qpmhi", "ei")), "unknown acquisition"),
        (dict(seeds=(1, 1)), "distinct"),
        (dict(iterations=0), "iterations"),
        (dict(batch_size=0), "batch_size"),
        (dict(init_size=1), "init_size"),
        (dict(ref_rule="explicit"), "ref_rule"),
        (dict(featurizer="onehot"), "featurizer"),
        (dict(seeds=(0, -3)), "non-negative"),
    ])
    def test_bad_values_rejected(self, small_pool, tmp_path, over, msg):
        with pytest.raises(ValueError, match=msg):
            small_spec(small_pool, tmp_path / "out", **over)


class TestSharedRefPoint:
    def test_resolves_nadir_rules_over_all_labels(self, small_pool, tmp_path):
        labels = read_pool(small_pool).labels
        lo = labels.min(axis=0)
        span = labels.max(axis=0) - lo
        spec = small_spec(small_pool, tmp_path / "out")
        assert shared_ref_point(spec) == pytest.approx(lo - 1e-6 * span)
        exact = small_spec(small_pool, tmp_path / "out", ref_rule="nadir_of_initial")
        assert shared_ref_point(exact) == tuple(lo)

    def test_every_cell_measures_against_one_ref(self, small_pool, tmp_path):
        # seeds draw different initial samples; a per-cell nadir would move
        # the ref and make the hv columns incomparable, so force full pool
        # coverage and require both seeds to land on the same exact number
        spec = small_spec(small_pool, tmp_path / "out", acquisitions=("random",),
                          batch_size=40, iterations=1, seeds=(0, 1))
        result = run_bench(spec)
        ref = shared_ref_point(spec)
        assert result["ref_point"] == ref
        pool = read_pool(small_pool)
        labels = dict(zip(pool.ids, pool.labels))
        truth = result["true_front_ids"]
        hv_true = build_front([labels[i] for i in truth], list(truth), ref).hypervolume()
        finals = [records[-1] for records in result["records"].values()]
        assert all(rec.fraction_recovered == 1.0 for rec in finals)
        assert all(rec.hv == pytest.approx(hv_true, rel=1e-12) for rec in finals)


class TestTruth:
    def test_matches_pairwise_domination_scan(self, small_pool):
        pool = read_pool(small_pool)
        labels = dict(zip(pool.ids, pool.labels))
        ids = list(labels)
        pts = np.stack([labels[i] for i in ids])
        expected = set()
        for i in range(len(ids)):
            dominated = any(
                np.all(pts[j] >= pts[i]) and np.any(pts[j] > pts[i])
                for j in range(len(ids)) if j != i
            )
            if not dominated:
                expected.add(ids[i])
        assert set(true_pareto_ids(small_pool)) == expected

    def test_token_genome_pool(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,genome,obj_1,obj_2\na,ABCD,1.0,2.0\nb,ABAB,2.0,1.0\n"
                        "c,BBBB,0.5,0.5\nd,ABAB,9.0,9.0\n")
        assert true_pareto_ids(path) == ("a", "b")

    def test_unlabeled_or_empty_pool_rejected(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("id,genome\na,0101\nb,1111\n")
        with pytest.raises(OracleError, match="pool row 'a' has no objective labels"):
            true_pareto_ids(path)
        path.write_text("id,genome,obj_1\n")
        with pytest.raises(OracleError, match="labeled pool is empty"):
            true_pareto_ids(path)

    def test_reads_the_pool_once(self, small_pool, monkeypatch):
        calls = []

        def counted(path):
            calls.append(path)
            return read_pool(path)

        monkeypatch.setattr(bench, "read_pool", counted)
        monkeypatch.setattr(oracles, "read_pool", counted)
        true_pareto_ids(small_pool)
        assert calls == [small_pool]

    def test_spec_truth_is_verified_against_labels(self, small_pool, tmp_path):
        good = true_pareto_ids(small_pool)
        spec = small_spec(small_pool, tmp_path / "out", true_front_ids=good)
        assert set(run_bench(spec)["true_front_ids"]) == set(good)

    def test_wrong_spec_truth_rejected(self, small_pool, tmp_path):
        spec = small_spec(small_pool, tmp_path / "out", true_front_ids=("p0",))
        with pytest.raises(ValueError, match="disagree"):
            run_bench(spec)


class TestRunCell:
    def test_writes_baseline_plus_one_row_per_iteration(self, small_pool, tmp_path):
        spec = small_spec(small_pool, tmp_path / "out", iterations=3)
        records = run_cell(spec, "qpmhi", 0)
        assert [r.iteration for r in records] == [0, 1, 2, 3]
        assert records[0].batch_ids == ()
        assert all(len(r.batch_ids) == 3 for r in records[1:])
        path = tmp_path / "out" / "cells" / "qpmhi_seed0.csv"
        assert read_metrics_csv(path) == records

    def test_recovery_is_monotone_from_baseline(self, small_pool, tmp_path):
        spec = small_spec(small_pool, tmp_path / "out", iterations=4)
        records = run_cell(spec, "random", 1)
        fracs = [r.fraction_recovered for r in records]
        assert all(f is not None for f in fracs)
        assert fracs == sorted(fracs)
        hvs = [r.hv for r in records]
        assert hvs == sorted(hvs)


def rec(t, hv, frac):
    return MetricRecord(iteration=t, hv=hv, relative_hvi=None,
                        fraction_recovered=frac, batch_ids=())


class TestAggregate:
    def test_means_and_intervals(self):
        cells = {
            ("qpmhi", 0): [rec(0, 1.0, 0.2), rec(1, 3.0, 0.4)],
            ("qpmhi", 1): [rec(0, 2.0, 0.4), rec(1, 5.0, 0.8)],
        }
        rows = aggregate(cells)
        assert len(rows) == 2
        t1 = rows[1]
        assert t1["iteration"] == 1
        assert t1["mean_hv"] == 4.0
        # two samples: sd = |a-b|/sqrt(2), ci = 1.96*sd/sqrt(2) = 1.96*|a-b|/2
        assert t1["ci95_hv"] == pytest.approx(1.96)
        assert t1["mean_fraction"] == pytest.approx(0.6)
        assert t1["n_seeds"] == 2

    def test_single_seed_has_zero_interval(self):
        rows = aggregate({("random", 7): [rec(0, 1.5, 0.0)]})
        assert rows[0]["ci95_hv"] == 0.0

    def test_missing_fractions_leave_blanks(self):
        rows = aggregate({("random", 0): [rec(0, 1.0, None)]})
        assert rows[0]["mean_fraction"] == ""

    def test_unequal_cell_lengths_rejected(self):
        cells = {
            ("qpmhi", 0): [rec(0, 1.0, 0.1)],
            ("qpmhi", 1): [rec(0, 1.0, 0.1), rec(1, 2.0, 0.2)],
        }
        with pytest.raises(ValueError, match="unequal"):
            aggregate(cells)


class TestTokenGenomePool:
    def test_runs_with_the_spec_featurizer(self, tmp_path):
        rng = np.random.default_rng(3)
        words = ["".join(w) for w in product("ABCD", repeat=4)]
        genomes = ["ABCD", "ABAB"] + [w for w in rng.permutation(words)
                                      if w not in ("ABCD", "ABAB")][:22]
        labels = rng.uniform(size=(len(genomes), 2))
        path = tmp_path / "tokens.csv"
        path.write_text("id,genome,obj_1,obj_2\n" + "".join(
            f"t{i},{g},{a},{b}\n" for i, (g, (a, b)) in enumerate(zip(genomes, labels.tolist()))))
        spec = small_spec(path, tmp_path / "identity", acquisitions=("qpmhi",), seeds=(0,))
        with pytest.raises(PoolFormatError, match="identity featurizer"):
            run_bench(spec)
        result = run_bench(replace(spec, output_dir=str(tmp_path / "kgram"),
                                   featurizer="kgram:2"))
        records = result["records"][("qpmhi", 0)]
        assert [r.iteration for r in records] == [0, 1, 2]
        assert all(len(r.batch_ids) == 3 for r in records[1:])


class TestRunBench:
    def test_full_grid_and_summary(self, small_pool, tmp_path):
        spec = small_spec(small_pool, tmp_path / "out")
        result = run_bench(spec)
        assert len(result["records"]) == 4  # 2 acquisitions x 2 seeds
        rows = result["summary"]
        assert len(rows) == 2 * 3  # both acquisitions, iterations 0..2
        assert all(r["n_seeds"] == 2 for r in rows)
        text = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert tuple(text[0].split(",")) == SUMMARY_HEADER
        assert len(text) == 1 + len(rows)

    def test_acquisitions_share_the_seed_baseline(self, small_pool, tmp_path):
        result = run_bench(small_spec(small_pool, tmp_path / "out"))
        recs = result["records"]
        for seed in (0, 1):
            assert recs[("qpmhi", seed)][0] == recs[("random", seed)][0]

    def test_rerun_is_idempotent(self, small_pool, tmp_path):
        spec = small_spec(small_pool, tmp_path / "out")
        run_bench(spec)
        first = (tmp_path / "out" / "summary.csv").read_bytes()
        cell = (tmp_path / "out" / "cells" / "qpmhi_seed0.csv").read_bytes()
        run_bench(spec)
        assert (tmp_path / "out" / "summary.csv").read_bytes() == first
        assert (tmp_path / "out" / "cells" / "qpmhi_seed0.csv").read_bytes() == cell

    def test_failed_summary_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        rows = [dict(zip(SUMMARY_HEADER, ("qpmhi", 0, 1.0, 0.0, 0.5, 0.0, 2)))]
        bench.write_summary_csv(path, rows)
        before = path.read_bytes()
        with pytest.raises(ValueError):  # DictWriter rejects the unknown field mid-file
            bench.write_summary_csv(path, [dict(rows[0], n_seeds=3), {"unknown": 1}])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_reads_once_plus_twice_per_cell_and_featurizes_once_per_cell(
            self, small_pool, tmp_path, monkeypatch):
        # one table for the bench; each cell reads the pool for its initial
        # sample and loads it once in run(), featurizing the init rows besides
        reads, loads, featurized = [], [], []
        read, load = generation.read_pool, generation.load_pool
        identity = generation._identity_features
        for module in (bench, campaign, generation, oracles):
            monkeypatch.setattr(module, "read_pool", lambda p: reads.append(p) or read(p))
        monkeypatch.setattr(campaign, "load_pool", lambda *a: loads.append(a) or load(*a))
        monkeypatch.setattr(generation, "_identity_features",
                            lambda gs: featurized.append(list(gs)) or identity(gs))
        spec = small_spec(small_pool, tmp_path / "out")
        cells = len(spec.acquisitions) * len(spec.seeds)
        run_bench(spec)
        assert len(reads) == 1 + 2 * cells
        assert len(loads) == cells
        # one batch for the initial designs and one for the pool, per cell
        assert len(featurized) == 2 * cells
        assert sum(map(len, featurized)) == cells * (len(read(small_pool).ids) + spec.init_size)

    def test_starts_at_most_one_worker_per_cell(self, small_pool, tmp_path, monkeypatch):
        # a recording stand-in runs the cells in this process, so no worker
        # process is started whatever count is asked for
        started = []

        class Serial:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", Serial)
        spec = small_spec(small_pool, tmp_path / "out", seeds=(0,))
        seq = run_bench(replace(spec, output_dir=str(tmp_path / "seq")))
        assert run_bench(spec, workers=5000)["records"] == seq["records"]
        assert run_bench(spec, workers=2)["records"] == seq["records"]
        assert started == [2, 2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, small_pool, tmp_path, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_bench(small_spec(small_pool, tmp_path / "out"), workers=workers)
        assert not (tmp_path / "out").exists()

    def test_worker_pool_matches_sequential(self, small_pool, tmp_path):
        seq = run_bench(small_spec(small_pool, tmp_path / "seq", seeds=(0,)))
        par = run_bench(small_spec(small_pool, tmp_path / "par", seeds=(0,)), workers=2)
        assert par["records"] == seq["records"]
        assert par["summary"] == seq["summary"]


class TestMakeAblationPool:
    def test_front_size_lands_in_range(self, tmp_path):
        meta = make_ablation_pool(tmp_path / "p.csv", n=120, bits=12, seed=9,
                                  front_range=(5, 40))
        assert 5 <= meta["front_size"] <= 40
        assert len(true_pareto_ids(tmp_path / "p.csv")) == meta["front_size"]

    def test_default_pool_bytes_are_pinned(self, tmp_path):
        # the headline pool every static benchmark and ablation reads
        make_ablation_pool(tmp_path / "p.csv")
        digest = hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest()
        assert digest == "5bbb09f23ebef4d058090b2c6bc2b720c1f4249a17afb2fbf1704e5b938bf0f9"

    @pytest.mark.parametrize("n,bits,seed,front_range", [
        (120, 12, 9, (5, 40)), (64, 6, 5, (2, 60)), (50, 9, 2, (2, 50)), (300, 10, 1, (3, 200)),
    ])
    def test_block_writer_gives_the_string_writers_bytes(self, tmp_path, n, bits, seed,
                                                          front_range):
        # (64, 6) draws 64 of 64 genomes, so later blocks fill the duplicates
        make_ablation_pool(tmp_path / "a.csv", n=n, bits=bits, seed=seed, front_range=front_range)
        string_ablation_pool(tmp_path / "b.csv", n=n, bits=bits, seed=seed,
                             front_range=front_range)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pool_is_deterministic(self, tmp_path):
        make_ablation_pool(tmp_path / "a.csv", n=50, bits=9, seed=2, front_range=(2, 50))
        make_ablation_pool(tmp_path / "b.csv", n=50, bits=9, seed=2, front_range=(2, 50))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_genomes_unique_and_loadable(self, tmp_path):
        make_ablation_pool(tmp_path / "p.csv", n=64, bits=10, seed=5, front_range=(2, 60))
        pool = load_pool(tmp_path / "p.csv")
        assert len(pool) == 64
        assert len({c.genome for c in pool}) == 64
        assert all(len(c.genome) == 10 for c in pool)

    def test_impossible_range_raises(self, tmp_path):
        with pytest.raises(ValueError, match="front"):
            make_ablation_pool(tmp_path / "p.csv", n=30, bits=8, seed=1,
                               front_range=(5000, 6000))
