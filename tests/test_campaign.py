"""Campaign loop behavior: config handling, init, the iteration cycle,
metrics, and checkpoint/resume."""
import dataclasses
import json
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poolbo.campaign as campaign_mod
import poolbo.gp as gp_mod
import poolbo.generation as generation_mod
import poolbo.pareto as pareto_mod
from poolbo.campaign import (
    ACQUISITIONS,
    CampaignConfig,
    CampaignError,
    DegenerateDataError,
    build_initial_data,
    config_hash,
    init_campaign,
    load_checkpoint,
    resolve_ref_point,
    run,
    save_checkpoint,
    select_next,
)
from poolbo.acquisition import estimate_qpmhi, estimate_qpo, select_batch
from poolbo.generation import GeneratorConfig, Pool, load_pool, make_featurizer
from poolbo.gp import Dataset, GpConfig, KeptCovariance, Posterior
from poolbo.bench import make_ablation_pool
from poolbo.oracles import BuiltinOracle, LookupOracle, OracleError
from poolbo.files import atomic_write
from poolbo.pareto import (METRICS_HEADER, build_front, hvi_many, read_metrics_csv, save_front,
                           update_front, write_metrics_csv)
from refimpl import sequential_init_genomes

FEAT = make_featurizer("identity")


def write_labeled_pool(path, n=24, bits=8, n_obj=2, seed=3):
    """Deterministic labeled pool with distinct genomes and varied labels."""
    rng = np.random.default_rng(seed)
    rows = ["id,genome" + "".join(f",obj_{j + 1}" for j in range(n_obj))]
    seen = set()
    i = 0
    while len(seen) < n:
        g = "".join(rng.choice(["0", "1"], size=bits))
        if g in seen:
            continue
        seen.add(g)
        ones = g.count("1")
        objs = [ones / bits + 0.001 * i, (bits - ones) / bits + 0.002 * ((i * 7) % 11)]
        rows.append(f"p{i},{g}," + ",".join(repr(v) for v in objs[:n_obj]))
        i += 1
    path.write_text("\n".join(rows) + "\n")
    return path


def static_cfg(pool_path, **over):
    base = dict(
        iterations=3,
        batch_size=3,
        mc_samples=32,
        pool_path=str(pool_path),
        oracle=f"lookup:{pool_path}",
        init={"pool_sample": 4},
        seed=5,
    )
    base.update(over)
    return CampaignConfig(**base)


def gen_cfg(**over):
    base = dict(
        iterations=2,
        batch_size=2,
        mc_samples=16,
        generator=GeneratorConfig(pool_size=10, mutation_rate=0.05),
        oracle="sphere_pair",
        init={"random": {"count": 4, "length": 10}},
        seed=9,
    )
    base.update(over)
    return CampaignConfig(**base)


class CountingOracle:
    """Delegating oracle that records every genome it is asked to label."""

    def __init__(self, inner):
        self.inner = inner
        self.m = inner.m
        self.genomes = []

    def evaluate(self, candidates):
        self.genomes.extend(c.genome for c in candidates)
        return self.inner.evaluate(candidates)


class Crash(RuntimeError):
    """Stands in for a process killed mid-iteration."""


class TornFile:
    """File proxy whose first write stores half its text and then crashes."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise Crash("crashed mid-write")


@contextmanager
def torn_atomic_write(path, newline=None):
    with atomic_write(path, newline=newline) as fh:
        yield TornFile(fh)


class CrashingOracle:
    """Delegating oracle that crashes while `state` runs iteration `t`."""

    def __init__(self, inner, state, t):
        self.inner, self.m, self.state, self.t = inner, inner.m, state, t

    def evaluate(self, candidates):
        if self.state.iteration == self.t - 1:
            raise Crash("oracle crashed")
        return self.inner.evaluate(candidates)


class TokenOracle:
    """Counts of the symbols "A" and "B" in token genomes."""

    m = 2

    def evaluate(self, candidates):
        return np.array([[c.genome.count("A"), c.genome.count("B")] for c in candidates], float)


class FailingOracle:
    m = 2

    def __init__(self, inner, fail_on_call: int):
        self.inner = inner
        self.fail_on_call = fail_on_call
        self.calls = 0

    def evaluate(self, candidates):
        self.calls += 1
        if self.calls >= self.fail_on_call:
            raise OracleError("hardware fault")
        return self.inner.evaluate(candidates)


class TestConfig:
    def test_round_trips_through_dict_and_json(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, acquisition="qehvi_mc")
        rebuilt = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt == cfg
        assert config_hash(rebuilt) == config_hash(cfg)

    def test_generator_config_round_trips(self):
        cfg = gen_cfg(generator=GeneratorConfig(
            pool_size=8, constraints=("bit_equals:0:1",), parent_selection="surrogate_weighted",
        ))
        rebuilt = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt.generator == cfg.generator
        assert config_hash(rebuilt) == config_hash(cfg)

    def test_unknown_field_is_named(self):
        payload = gen_cfg().to_dict()
        payload["iteratons"] = 5
        with pytest.raises(ValueError, match="iteratons"):
            CampaignConfig.from_dict(payload)

    def test_missing_required_field(self):
        payload = gen_cfg().to_dict()
        del payload["iterations"]
        with pytest.raises(ValueError, match="iterations"):
            CampaignConfig.from_dict(payload)

    @pytest.mark.parametrize("section", ["gp", "generator"])
    def test_unknown_nested_field_is_a_value_error(self, section):
        payload = gen_cfg().to_dict()
        payload[section]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            CampaignConfig.from_dict(payload)

    @pytest.mark.parametrize("over,msg", [
        (dict(iterations=0), "iterations"),
        (dict(batch_size=0), "batch_size"),
        (dict(mc_samples=0), "mc_samples"),
        (dict(n_objectives=7), "n_objectives"),
        (dict(acquisition="ucb"), "unknown acquisition"),
        (dict(acquisition="qpo"), "single-objective"),
        (dict(ref_rule="median"), "unknown ref_rule"),
        (dict(ref_rule="explicit"), "needs a ref_point"),
        (dict(ref_rule="explicit", ref_point=(0.0,)), "length"),
        (dict(ref_point=(0.0, 0.0)), "only used with"),
        (dict(ref_epsilon=0.0), "positive"),
        (dict(batch_size=11), "exceed"),
        (dict(init="four"), "mapping"),
        (dict(oracle=7), "string or dict"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
    ])
    def test_bad_values_rejected(self, over, msg):
        with pytest.raises(ValueError, match=msg):
            gen_cfg(**over)

    def test_pool_and_generator_are_exclusive(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        with pytest.raises(ValueError, match="exactly one"):
            gen_cfg(pool_path=str(pool))
        with pytest.raises(ValueError, match="exactly one"):
            CampaignConfig(iterations=1, batch_size=1, oracle="sphere_pair")

    @pytest.mark.parametrize("over,msg", [
        (dict(gp={"kernel": "rbf"}), "gp must be a GpConfig, got dict"),
        (dict(gp=None), "gp must be a GpConfig, got NoneType"),
        (dict(generator={"pool_size": 8}), "generator must be a GeneratorConfig, got dict"),
    ])
    def test_plain_mapping_in_place_of_a_section_config_rejected(self, over, msg):
        with pytest.raises(ValueError, match=msg):
            gen_cfg(**over)
        payload = gen_cfg().to_dict()
        payload.update(over)
        built = CampaignConfig.from_dict(payload)  # the JSON route builds the section configs
        assert isinstance(built.gp, GpConfig) and isinstance(built.generator, GeneratorConfig)

    def test_featurizer_beside_a_generator_rejected(self):
        # a generator names its own featurizer; the pool_path one would be ignored
        with pytest.raises(ValueError, match="generator.featurizer"):
            gen_cfg(featurizer="kgram:2")
        cfg = gen_cfg(generator=GeneratorConfig(pool_size=10, featurizer="kgram:2"))
        assert cfg.pool_featurizer == "kgram:2"


def toy_dataset(objectives, bits=4):
    objectives = np.asarray(objectives, dtype=float)
    genomes = [format(i, f"0{bits}b") for i in range(len(objectives))]
    return Dataset(
        ids=tuple(f"d{i}" for i in range(len(objectives))),
        features=FEAT(genomes),
        objectives=objectives,
        genomes=tuple(genomes),
    )


class TestInit:
    def test_builds_state_at_iteration_zero(self):
        cfg = gen_cfg()
        state = init_campaign(cfg, toy_dataset([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]]))
        assert state.iteration == 0
        assert state.history == []
        assert state.front.size == 2
        assert state.hv_initial > 0

    def test_needs_two_designs(self):
        with pytest.raises(DegenerateDataError, match="two"):
            init_campaign(gen_cfg(), toy_dataset([[1.0, 2.0]]))

    def test_identical_objectives_rejected(self):
        with pytest.raises(DegenerateDataError, match="one objective vector"):
            init_campaign(gen_cfg(), toy_dataset([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))

    def test_objective_count_must_match(self):
        with pytest.raises(ValueError, match="objectives"):
            init_campaign(gen_cfg(n_objectives=3), toy_dataset([[1.0, 2.0], [2.0, 1.0]]))

    def test_genomes_required(self):
        data = Dataset(
            ids=("a", "b"),
            features=np.eye(2),
            objectives=np.array([[1.0, 2.0], [2.0, 1.0]]),
        )
        with pytest.raises(ValueError, match="genomes"):
            init_campaign(gen_cfg(), data)

    def test_nadir_rule_excludes_boundary_point_with_warning(self, caplog):
        # (1,1) sits at the nadir, so it cannot strictly dominate the ref
        data = toy_dataset([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]])
        with caplog.at_level("WARNING", logger="poolbo.campaign"):
            state = init_campaign(gen_cfg(ref_rule="nadir_of_initial"), data)
        assert state.front.size == 2
        assert "1 initial design(s)" in caplog.text

    def test_epsilon_rule_keeps_every_nondominated_point(self):
        data = toy_dataset([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]])
        state = init_campaign(gen_cfg(), data)
        assert state.front.size == 2  # (1,1) is dominated, not excluded by ref

    def test_epsilon_rule_handles_flat_objective(self):
        obj = np.array([[1.0, 5.0], [2.0, 5.0]])
        ref = resolve_ref_point(obj, gen_cfg())
        assert ref[1] < 5.0

    def test_explicit_ref_point(self):
        cfg = gen_cfg(ref_rule="explicit", ref_point=(0.0, 0.0))
        assert resolve_ref_point(np.array([[9.0, 9.0]]), cfg).tolist() == [0.0, 0.0]


class TestBuildInitialData:
    def test_from_genomes(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)
        genomes = list(oracle.row)[:3]
        cfg = static_cfg(pool, init={"genomes": genomes})
        data = build_initial_data(cfg, oracle)
        assert data.ids == ("init-0", "init-1", "init-2")
        assert data.genomes == tuple(genomes)
        assert np.array_equal(data.objectives[0], oracle.labels[oracle.row[genomes[0]]])

    def test_duplicate_genomes_rejected(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, init={"genomes": ["0011", "0011"]})
        with pytest.raises(ValueError, match="distinct"):
            build_initial_data(cfg, LookupOracle.from_pool_csv(pool))

    def test_random_init_is_deterministic_and_distinct(self):
        from poolbo.oracles import BuiltinOracle

        cfg = gen_cfg(init={"random": {"count": 6, "length": 12}})
        oracle = BuiltinOracle("sphere_pair")
        a = build_initial_data(cfg, oracle)
        b = build_initial_data(cfg, oracle)
        assert a.genomes == b.genomes
        assert len(set(a.genomes)) == 6
        assert all(len(g) == 12 for g in a.genomes)

    @pytest.mark.parametrize("count,length", [(32, 48), (4, 2), (5, 3), (9, 7), (1, 1), (0, 4)])
    def test_random_init_draws_are_the_one_by_one_draws(self, count, length):
        # (4, 2) draws 4 of the only 4 genomes, so duplicates are redrawn
        oracle = BuiltinOracle("linear_tradeoff")
        for seed in range(12):
            cfg = gen_cfg(seed=seed, init={"random": {"count": count, "length": length}})
            want = sequential_init_genomes(seed, count, length)
            if not count:
                with pytest.raises(ValueError, match="non-empty"):
                    build_initial_data(cfg, oracle)
                continue
            data = build_initial_data(cfg, oracle)
            assert list(data.genomes) == want
            assert np.array_equal(data.features, FEAT(want))

    def test_random_init_attempt_cap_is_the_one_by_one_cap(self):
        cfg = gen_cfg(init={"random": {"count": 3, "length": 1}})
        with pytest.raises(ValueError) as want:
            sequential_init_genomes(0, 3, 1)
        with pytest.raises(ValueError) as got:
            build_initial_data(cfg, BuiltinOracle("linear_tradeoff"))
        assert str(got.value) == str(want.value) == "could not draw enough distinct init genomes"

    def test_pool_sample_bounds(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv", n=5)
        cfg = static_cfg(pool, init={"pool_sample": 9})
        with pytest.raises(ValueError, match="exceeds pool size"):
            build_initial_data(cfg, LookupOracle.from_pool_csv(pool))

    def test_missing_init_section(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, init=None)
        with pytest.raises(ValueError, match="init"):
            build_initial_data(cfg, LookupOracle.from_pool_csv(pool))

    def test_unknown_init_form(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, init={"latin_hypercube": 4})
        with pytest.raises(ValueError, match="one of"):
            build_initial_data(cfg, LookupOracle.from_pool_csv(pool))

    def test_token_genomes_breed_with_kgram_features(self):
        # init designs, bred pools and the surrogate share one alphabet, so
        # every labeled row is featurized as make_featurizer would over "ABC"
        cfg = gen_cfg(
            generator=GeneratorConfig(pool_size=10, mutation_rate=0.2, featurizer="kgram:2"),
            init={"genomes": ["ABCA", "BCAB", "CABC", "AACB", "CBBA"]},
        )
        oracle = TokenOracle()
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        assert state.iteration == 2
        assert state.dataset.n > 5
        feat = make_featurizer("kgram:2", alphabet="ABC")
        assert np.array_equal(state.dataset.features, feat(state.dataset.genomes))

    @pytest.mark.parametrize("form", ["pool_sample", "genomes"])
    def test_static_pool_is_read_once_and_only_init_rows_featurized(self, tmp_path,
                                                                   monkeypatch, form):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)
        init = {"pool_sample": 4} if form == "pool_sample" else {"genomes": list(oracle.row)[:2]}
        reads, featurized = [], []
        read, identity = campaign_mod.read_pool, generation_mod._identity_features
        monkeypatch.setattr(campaign_mod, "read_pool", lambda p: reads.append(p) or read(p))
        monkeypatch.setattr(campaign_mod, "load_pool", None)
        monkeypatch.setattr(generation_mod, "_identity_features",
                            lambda gs: featurized.append(list(gs)) or identity(gs))
        data = build_initial_data(static_cfg(pool, init=init), oracle)
        assert reads == [str(pool)]
        assert featurized == [list(data.genomes)]
        assert np.array_equal(data.features, identity(data.genomes))

    def test_static_token_pool_fixes_the_init_alphabet(self, tmp_path):
        # the init designs use two of the pool's four symbols; they must be
        # featurized exactly as the pool's own rows are
        path = tmp_path / "pool.csv"
        path.write_text("id,genome\na,ABCD\nb,ABAB\nc,BABA\n")
        cfg = static_cfg(path, featurizer="kgram:1", init={"genomes": ["ABAB", "BABA"]})
        data = build_initial_data(cfg, TokenOracle())
        rows = {c.genome: c.features for c in load_pool(path, "kgram:1")}
        assert np.array_equal(data.features, np.stack([rows[g] for g in data.genomes]))


def start(cfg, oracle):
    return init_campaign(cfg, build_initial_data(cfg, oracle))


class TestRunLoop:
    def test_never_requeries_and_respects_budget(self, tmp_path, caplog):
        # pool of 8, batches of 4 over 4 iterations: selection must start
        # hitting already-labeled designs, which consume slots silently
        pool = write_labeled_pool(tmp_path / "pool.csv", n=8)
        cfg = static_cfg(pool, iterations=4, batch_size=4, init={"pool_sample": 2})
        oracle = CountingOracle(LookupOracle.from_pool_csv(pool))
        with caplog.at_level("INFO", logger="poolbo.campaign"):
            state = run(start(cfg, oracle), cfg, oracle=oracle)
        assert len(oracle.genomes) == len(set(oracle.genomes))
        assert len(oracle.genomes) <= 2 + cfg.iterations * cfg.batch_size
        assert state.dataset.n <= 8
        assert "already labeled" in caplog.text

    def test_hypervolume_never_decreases(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=5)
        oracle = LookupOracle.from_pool_csv(pool)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        hvs = [state.hv_initial] + [rec.hv for rec in state.history]
        assert all(b >= a for a, b in zip(hvs, hvs[1:]))

    def test_metrics_file_has_one_row_per_iteration(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool)
        oracle = LookupOracle.from_pool_csv(pool)
        mpath = tmp_path / "metrics.csv"
        run(start(cfg, oracle), cfg, oracle=oracle, metrics_path=mpath)
        records = read_metrics_csv(mpath)
        assert [r.iteration for r in records] == [1, 2, 3]
        assert all(len(r.batch_ids) == cfg.batch_size for r in records)
        assert all(r.relative_hvi is None or r.relative_hvi >= 0 for r in records)

    def test_rerun_is_byte_identical(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool)
        oracle = LookupOracle.from_pool_csv(pool)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(start(cfg, oracle), cfg, oracle=oracle, metrics_path=p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_generated_pool_campaign_runs(self):
        cfg = gen_cfg(iterations=3)
        from poolbo.oracles import BuiltinOracle

        oracle = CountingOracle(BuiltinOracle("sphere_pair"))
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        assert state.iteration == 3
        assert state.dataset.n > 4
        assert len(oracle.genomes) == len(set(oracle.genomes))

    def test_bred_pool_posterior_is_over_the_pool_matrix(self, monkeypatch):
        # each bred Pool reaches pool_posterior as its own feature matrix,
        # the object itself rather than a stack of its rows
        cfg = gen_cfg(iterations=2)
        oracle = BuiltinOracle("sphere_pair")
        pools, matrices = [], []
        propose, build = campaign_mod.propose_pool, campaign_mod.pool_posterior

        def bred(*args):
            pools.append(propose(*args))
            return pools[-1]

        def spy(model, features, *rest):
            matrices.append(features)
            return build(model, features, *rest)

        monkeypatch.setattr(campaign_mod, "propose_pool", bred)
        monkeypatch.setattr(campaign_mod, "pool_posterior", spy)
        run(start(cfg, oracle), cfg, oracle=oracle)
        assert len(pools) == len(matrices) == 2
        assert all(features is pool.features for features, pool in zip(matrices, pools))

    def test_true_front_ids_populate_fraction(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv", n=10)
        cfg = static_cfg(pool, iterations=4, init={"pool_sample": 2})
        oracle = LookupOracle.from_pool_csv(pool)
        true_ids = {"p0", "p3", "p7"}
        state = run(start(cfg, oracle), cfg, oracle=oracle, true_front_ids=true_ids)
        fracs = [rec.fraction_recovered for rec in state.history]
        assert all(f is not None and 0 <= f <= 1 for f in fracs)
        assert fracs == sorted(fracs)
        expected = len(true_ids & set(state.dataset.ids)) / len(true_ids)
        assert fracs[-1] == expected

    @pytest.mark.parametrize("acq", [a for a in ACQUISITIONS if a != "qpo"])
    def test_acquisitions_share_log_schema(self, tmp_path, acq):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=2, batch_size=2, acquisition=acq)
        oracle = LookupOracle.from_pool_csv(pool)
        mpath = tmp_path / f"{acq}.csv"
        run(start(cfg, oracle), cfg, oracle=oracle, metrics_path=mpath)
        header = mpath.read_text().splitlines()[0]
        assert tuple(header.split(",")) == METRICS_HEADER
        assert len(read_metrics_csv(mpath)) == 2

    def test_qpo_campaign_on_scalar_objective(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv", n_obj=1)
        cfg = static_cfg(pool, acquisition="qpo", n_objectives=1,
                         iterations=2, batch_size=2)
        oracle = LookupOracle.from_pool_csv(pool)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        best = state.dataset.objectives[:, 0].max()
        assert state.front.points[0, 0] == best

    def test_random_acquisition_skips_the_surrogate(self, tmp_path, monkeypatch):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, acquisition="random")
        monkeypatch.setattr(campaign_mod, "fit", lambda *a, **k: pytest.fail("fit called"))
        oracle = LookupOracle.from_pool_csv(pool)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        assert state.iteration == cfg.iterations

    def test_random_with_surrogate_weighted_breeding_still_fits(self, monkeypatch):
        calls = []
        real_fit = campaign_mod.fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "fit", counting_fit)
        cfg = gen_cfg(
            acquisition="random",
            generator=GeneratorConfig(pool_size=8, parent_selection="surrogate_weighted"),
        )
        from poolbo.oracles import BuiltinOracle

        run(start(cfg, BuiltinOracle("sphere_pair")), cfg, oracle=BuiltinOracle("sphere_pair"))
        assert len(calls) == cfg.iterations

    def test_already_finished_state_is_untouched(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool)
        oracle = LookupOracle.from_pool_csv(pool)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        n_before = state.dataset.n
        state = run(state, cfg, oracle=oracle)
        assert state.dataset.n == n_before
        assert len(state.history) == cfg.iterations

    def test_missing_oracle_everywhere_is_an_error(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, oracle=None)
        oracle = LookupOracle.from_pool_csv(pool)
        state = start(cfg, oracle)
        with pytest.raises(ValueError, match="no oracle"):
            run(state, cfg)

    def test_batch_larger_than_static_pool_rejected(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv", n=4)
        cfg = static_cfg(pool, batch_size=5, init={"pool_sample": 2})
        oracle = LookupOracle.from_pool_csv(pool)
        with pytest.raises(ValueError, match="exceeds pool size"):
            run(start(cfg, oracle), cfg, oracle=oracle)


class TestZeroVariancePosterior:
    """With a deterministic surrogate the batch must be exactly the top-q
    candidates by posterior-mean hypervolume improvement, when exactly q of
    them improve at all."""

    def test_batch_is_the_top_q_improvement_set(self, tmp_path, monkeypatch):
        table = {
            "0001": [4.0, 1.0],   # labeled, on the front
            "0010": [1.0, 4.0],   # labeled, on the front
            "0100": [5.0, 5.0],   # p0: biggest improvement
            "1000": [4.5, 2.0],   # p1: smaller improvement
            "0011": [3.0, 0.5],   # dominated
            "0101": [0.5, 3.9],   # dominated
            "0110": [2.0, 0.2],   # dominated
        }
        pool_path = tmp_path / "pool.csv"
        unlabeled = ["0100", "1000", "0011", "0101", "0110"]
        rows = ["id,genome"] + [f"p{i},{g}" for i, g in enumerate(unlabeled)]
        pool_path.write_text("\n".join(rows) + "\n")

        oracle = LookupOracle(list(table), list(table.values()))
        cfg = CampaignConfig(
            iterations=1, batch_size=2, mc_samples=8,
            ref_rule="explicit", ref_point=(0.0, 0.0),
            pool_path=str(pool_path), seed=1,
        )
        initial = Dataset(
            ids=("a", "b"),
            features=FEAT(["0001", "0010"]),
            objectives=np.array([[4.0, 1.0], [1.0, 4.0]]),
            genomes=("0001", "0010"),
        )
        state = init_campaign(cfg, initial)

        pool = load_pool(str(pool_path), "identity")

        def exact_pool_posterior(model, features, known_idx, known_values, kept=None):
            mean = np.array([table[c.genome] for c in pool], dtype=float)
            open_idx = np.setdiff1d(np.arange(len(pool)), known_idx)
            return Posterior(mean=mean, cov=np.zeros((2, open_idx.size, open_idx.size)),
                             stochastic_idx=open_idx)

        monkeypatch.setattr(campaign_mod, "pool_posterior", exact_pool_posterior)
        state = run(state, cfg, oracle=oracle)
        batch = state.history[0].batch_ids
        mean = np.array([table[g] for g in unlabeled])
        gains = hvi_many(mean, state.front)  # front only grew, gains ranking unchanged
        top_q = {f"p{i}" for i in np.argsort(-gains)[:2]}
        assert set(batch) == top_q == {"p0", "p1"}
        assert batch[0] == "p0"  # the certain argmax fills the first slot


# labeled designs of the open-row campaigns, with the role each plays at m = 2
OPEN_ROW_LABELS = {
    "000011": [4.0, 1.0],  # on the front
    "001100": [1.0, 4.0],  # on the front
    "000111": [4.0, 0.5],  # dominated by a front point whose first objective it shares
    "111000": [1.0, 4.0],  # a copy of a front point: weakly dominated only
    "110000": [0.0, 5.0],  # on the reference in its first objective
}
# labeled and open genomes interleaved; "000011" and "101010" appear twice
OPEN_ROW_POOL = ["101010", "000011", "010101", "110000", "101010", "000111", "011011",
                 "001100", "111000", "000011", "100110"]


def open_row_campaign(acq):
    m = 2 if acq == "qpmhi" else 1
    genomes = list(OPEN_ROW_LABELS)
    initial = Dataset(
        ids=tuple(f"l{i}" for i in range(len(genomes))),
        features=FEAT(genomes),
        objectives=np.array([OPEN_ROW_LABELS[g][:m] for g in genomes]),
        genomes=tuple(genomes),
    )
    cfg = CampaignConfig(iterations=1, batch_size=3, mc_samples=64, n_objectives=m,
                         acquisition=acq, ref_rule="explicit", ref_point=(0.0,) * m,
                         pool_path="unread.csv", seed=7)
    pool = Pool([f"p{i}" for i in range(len(OPEN_ROW_POOL))], OPEN_ROW_POOL, FEAT(OPEN_ROW_POOL))
    return init_campaign(cfg, initial), cfg, pool


def spy_on_scoring(monkeypatch, make_posterior=None):
    """Record select_next's pool posterior (built by make_posterior when
    given), each estimator call's posterior and the result it ranks."""
    seen = {"estimated": []}
    build = make_posterior or campaign_mod.pool_posterior

    def pool_posterior(*args):
        seen["args"] = args
        seen["post"] = build(*args)
        return seen["post"]

    for name in ("estimate_qpmhi", "estimate_qpo"):
        def estimate(post, *args, _real=getattr(campaign_mod, name)):
            seen["estimated"].append(post)
            return _real(post, *args)
        monkeypatch.setattr(campaign_mod, name, estimate)

    def ranked(result, q):
        seen["result"] = result
        return select_batch(result, q)

    monkeypatch.setattr(campaign_mod, "pool_posterior", pool_posterior)
    monkeypatch.setattr(campaign_mod, "select_batch", ranked)
    return seen


def whole_pool_estimate(post, state, cfg, seed):
    if cfg.acquisition == "qpmhi":
        return estimate_qpmhi(post, state.front, cfg.mc_samples, seed)
    return estimate_qpo(post, float(state.dataset.objectives[:, 0].max()), cfg.mc_samples, seed)


def assert_bitwise_equal(result, expected):
    for name in ("probs", "pareto_membership", "mean_hvi"):
        assert np.array_equal(getattr(result, name), getattr(expected, name)), name
    assert result.improving_fraction == expected.improving_fraction
    assert (result.n_samples, result.seed) == (expected.n_samples, expected.seed)


class TestOpenRowScoring:
    """qpmhi and qpo estimate only the open pool rows and fill the labeled
    rows from their observations: the result select_batch ranks is bitwise
    the estimate over the whole pool posterior."""

    @pytest.mark.parametrize("acq", ["qpmhi", "qpo"])
    def test_scores_are_bitwise_the_whole_pool_estimate(self, monkeypatch, acq):
        state, cfg, pool = open_row_campaign(acq)
        seen = spy_on_scoring(monkeypatch)
        batch = select_next(state, cfg, pool)
        post, result = seen["post"], seen["result"]
        open_idx = post.stochastic_idx
        assert [p.n for p in seen["estimated"]] == [open_idx.size]
        assert 0 < open_idx.size < len(pool)
        expected = whole_pool_estimate(post, state, cfg, result.seed)
        assert_bitwise_equal(result, expected)
        assert batch == select_batch(expected, cfg.batch_size)
        assert result.improving_fraction > 0
        known = np.setdiff1d(np.arange(len(pool)), open_idx)
        # the labeled rows reach both membership values
        assert set(result.pareto_membership[known]) == {0.0, 1.0}

    @pytest.mark.parametrize("acq", ["qpmhi", "qpo"])
    def test_exact_ties_go_to_the_lowest_pool_row(self, monkeypatch, acq):
        # with zero variance every draw is the mean, so the two copies of
        # the open genome "101010" tie in every draw
        state, cfg, pool = open_row_campaign(acq)
        m = cfg.n_objectives
        values = dict(OPEN_ROW_LABELS, **{"101010": [5.0, 5.0], "010101": [4.5, 2.0],
                                          "011011": [0.5, 0.5], "100110": [2.0, 4.5]})

        def exact_pool_posterior(model, features, known_idx, known_values, kept=None):
            mean = np.array([values[c.genome][:m] for c in pool])
            open_idx = np.setdiff1d(np.arange(len(pool)), known_idx)
            return Posterior(mean=mean, cov=np.zeros((m, open_idx.size, open_idx.size)),
                             stochastic_idx=open_idx)

        seen = spy_on_scoring(monkeypatch, exact_pool_posterior)
        batch = select_next(state, cfg, pool)
        result = seen["result"]
        expected = whole_pool_estimate(exact_pool_posterior(*seen["args"]), state, cfg,
                                       result.seed)
        assert_bitwise_equal(result, expected)
        assert result.probs[0] == 1.0 and result.probs[4] == 0.0
        assert batch[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
    def test_labeled_rows_gain_exactly_zero(self, m, n, seed):
        # _pool_scores fills the labeled rows' mean improvement with 0.0
        # instead of scoring them: each observation is on the front, weakly
        # dominated by it, or not strictly above ref. Small integer labels
        # give ties, repeated rows, rows at ref and empty fronts.
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=(n, m)).astype(float)
        y = np.concatenate([y, y[: n // 3]])  # repeated observations
        ref = rng.integers(-1, 3, size=m).astype(float)
        front = build_front(y, [f"d{i}" for i in range(len(y))], ref)
        for row in y[rng.permutation(len(y))[:5]]:
            front = update_front(front, row, "again")
        gains = hvi_many(y, front)
        assert gains.shape == (len(y),)
        assert np.all(gains == 0.0) and not np.signbit(gains).any()

    def test_estimates_once_per_iteration_down_to_no_open_row(self, tmp_path, monkeypatch):
        pool = write_labeled_pool(tmp_path / "pool.csv", n=8)
        cfg = static_cfg(pool, iterations=4, batch_size=4, init={"pool_sample": 2})
        oracle = LookupOracle.from_pool_csv(pool)
        seen = spy_on_scoring(monkeypatch)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        assert state.dataset.n == 8
        sizes = [p.n for p in seen["estimated"]]
        assert len(sizes) == cfg.iterations and sizes[-1] == 0
        assert seen["result"].n == 8 and seen["result"].improving_fraction == 0.0


class TestCheckpoints:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)

        full_cfg = static_cfg(pool, iterations=6)
        full_metrics = tmp_path / "full.csv"
        full_front = tmp_path / "full_front.json"
        run(start(full_cfg, oracle), full_cfg, oracle=oracle,
            metrics_path=full_metrics, front_path=full_front)

        half_cfg = static_cfg(pool, iterations=3)
        ckpt = tmp_path / "ckpt.json"
        run(start(half_cfg, oracle), half_cfg, oracle=oracle, checkpoint_path=ckpt)

        state, stored_cfg = load_checkpoint(ckpt)
        assert stored_cfg == half_cfg
        resumed_metrics = tmp_path / "resumed.csv"
        resumed_front = tmp_path / "resumed_front.json"
        run(state, full_cfg, oracle=oracle,
            metrics_path=resumed_metrics, front_path=resumed_front)
        assert resumed_metrics.read_bytes() == full_metrics.read_bytes()
        assert resumed_front.read_bytes() == full_front.read_bytes()

    # (module the writer writes through, name run() calls it by)
    WRITERS = {
        "metrics": (pareto_mod, "write_metrics_csv"),
        "front": (pareto_mod, "save_front"),
        "checkpoint": (campaign_mod, "save_checkpoint"),
    }

    @pytest.mark.parametrize("point", ["metrics", "front", "checkpoint", "oracle"])
    def test_crash_anywhere_resumes_byte_identical(self, tmp_path, monkeypatch, point):
        # a crash inside any artifact write or the oracle at iteration t
        # leaves the iteration t - 1 checkpoint; resuming from it rewrites
        # all three artifacts exactly as an uninterrupted run wrote them
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)
        cfg, t = static_cfg(pool, iterations=4), 2
        names = ("metrics.csv", "front.json", "checkpoint.json")

        def run_into(directory, state, run_oracle):
            directory.mkdir(exist_ok=True)
            paths = [directory / name for name in names]
            return run(state, cfg, oracle=run_oracle, metrics_path=paths[0],
                       front_path=paths[1], checkpoint_path=paths[2])

        run_into(tmp_path / "full", start(cfg, oracle), oracle)
        state = start(cfg, oracle)
        crashed_oracle = oracle
        if point == "oracle":
            crashed_oracle = CrashingOracle(oracle, state, t)
        else:
            home, name = self.WRITERS[point]
            write = getattr(campaign_mod, name)

            def crashing(*args):
                if state.iteration == t:
                    monkeypatch.setattr(home, "atomic_write", torn_atomic_write)
                write(*args)

            monkeypatch.setattr(campaign_mod, name, crashing)
        with pytest.raises(CampaignError if point == "oracle" else Crash):
            run_into(tmp_path / "crashed", state, crashed_oracle)
        monkeypatch.undo()

        resumed, stored_cfg = load_checkpoint(tmp_path / "crashed" / "checkpoint.json")
        assert resumed.iteration == t - 1 and stored_cfg == cfg
        run_into(tmp_path / "crashed", resumed, oracle)
        assert sorted(os.listdir(tmp_path / "crashed")) == sorted(names)
        for name in names:
            assert (tmp_path / "crashed" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes(), name

    def test_checkpoint_round_trip_preserves_state(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool)
        oracle = LookupOracle.from_pool_csv(pool)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, state, cfg)
        loaded, loaded_cfg = load_checkpoint(ckpt)
        assert loaded_cfg == cfg
        assert loaded.iteration == state.iteration
        assert loaded.hv_initial == state.hv_initial
        assert loaded.dataset.ids == state.dataset.ids
        assert np.array_equal(loaded.dataset.objectives, state.dataset.objectives)
        assert loaded.dataset.genomes == state.dataset.genomes
        assert loaded.front.ids == state.front.ids
        assert loaded.history == state.history

    def test_tampered_checkpoint_rejected(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=1)
        oracle = LookupOracle.from_pool_csv(pool)
        ckpt = tmp_path / "ckpt.json"
        run(start(cfg, oracle), cfg, oracle=oracle, checkpoint_path=ckpt)
        payload = json.loads(ckpt.read_text())
        payload["config"]["seed"] = 999
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash mismatch"):
            load_checkpoint(ckpt)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a campaign checkpoint"):
            load_checkpoint(path)

    def test_oracle_failure_names_iteration_and_keeps_checkpoint(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=5)
        inner = LookupOracle.from_pool_csv(pool)
        # first call labels the init sample, then one call per iteration
        oracle = FailingOracle(inner, fail_on_call=4)
        ckpt = tmp_path / "ckpt.json"
        mpath = tmp_path / "metrics.csv"
        state = start(cfg, oracle)
        with pytest.raises(CampaignError, match="iteration 3"):
            run(state, cfg, oracle=oracle, checkpoint_path=ckpt, metrics_path=mpath)
        saved, _ = load_checkpoint(ckpt)
        assert saved.iteration == 2
        assert [r.iteration for r in read_metrics_csv(mpath)] == [1, 2]

    def test_bad_oracle_shape_is_a_campaign_error(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=1)

        class WrongShape:
            m = 2

            def evaluate(self, candidates):
                return np.zeros((len(candidates), 3))

        oracle = LookupOracle.from_pool_csv(pool)
        state = start(cfg, oracle)
        with pytest.raises(CampaignError, match="shape"):
            run(state, cfg, oracle=WrongShape())

    def test_non_finite_oracle_output_is_a_campaign_error(self, tmp_path):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=1)

        class NanOracle:
            m = 2

            def evaluate(self, candidates):
                return np.full((len(candidates), 2), np.nan)

        oracle = LookupOracle.from_pool_csv(pool)
        state = start(cfg, oracle)
        with pytest.raises(CampaignError, match="non-finite"):
            run(state, cfg, oracle=NanOracle())


def record_posteriors(monkeypatch):
    """Spy on run()'s pool posteriors: per call, whether a kept array was
    conditioned and copies of the covariance and factor blocks."""
    calls = []
    build = campaign_mod.pool_posterior

    def pool_posterior(model, features, known_idx, known_values, kept=None):
        conditioned = bool(kept and kept.arrays)
        post = build(model, features, known_idx, known_values, kept)
        calls.append((conditioned, [np.array(post.cov[j]) for j in range(post.m)],
                      [np.array(post.chol[j]) for j in range(post.m)]))
        return post

    monkeypatch.setattr(campaign_mod, "pool_posterior", pool_posterior)
    return calls


def assert_same_posteriors(calls, expected):
    assert len(calls) == len(expected)
    for (conditioned, covs, chols), (want, want_covs, want_chols) in zip(calls, expected):
        assert conditioned == want
        for a, b in zip(covs + chols, want_covs + want_chols):
            np.testing.assert_array_equal(a, b)


def kept_state(kept):
    """(per group key: the array's strict upper triangle and the kept
    diagonal, open_idx, n_train): what the next conditioning reads."""
    return ({key: (np.triu(a, 1), diag.copy()) for key, (a, diag) in kept.arrays.items()},
            kept.open_idx.copy(), kept.n_train)


def record_kept(monkeypatch):
    """Spy on run()'s pool posteriors: kept_state after each call."""
    states = []
    build = campaign_mod.pool_posterior

    def pool_posterior(model, features, known_idx, known_values, kept=None):
        post = build(model, features, known_idx, known_values, kept)
        states.append(kept_state(kept))
        return post

    monkeypatch.setattr(campaign_mod, "pool_posterior", pool_posterior)
    return states


class TestKeptCovarianceReplay:
    """A static campaign keeps its pool posterior's array and conditions it
    on each batch's labels; a resume replays that recurrence from the
    checkpoint, so every posterior and artifact is the uninterrupted run's."""

    NAMES = ("metrics.csv", "front.json", "checkpoint.json")

    def run_into(self, directory, state, cfg, oracle):
        directory.mkdir(exist_ok=True)
        paths = [directory / name for name in self.NAMES]
        return run(state, cfg, oracle=oracle, metrics_path=paths[0], front_path=paths[1],
                   checkpoint_path=paths[2])

    @pytest.mark.parametrize("acq", ["qpmhi", "qehvi_mc", "thompson"])
    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_resume_replays_the_conditioned_posteriors(self, tmp_path, monkeypatch, acq, t):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)
        cfg = static_cfg(pool, iterations=6, acquisition=acq)
        full = record_posteriors(monkeypatch)
        self.run_into(tmp_path / "full", start(cfg, oracle), cfg, oracle)
        monkeypatch.undo()
        # the first posterior is built fresh, every later one conditioned
        assert [c[0] for c in full] == [False] + [True] * 5

        self.run_into(tmp_path / "part", start(cfg, oracle),
                      dataclasses.replace(cfg, iterations=t), oracle)
        state, _ = load_checkpoint(tmp_path / "part" / "checkpoint.json")
        resumed = record_posteriors(monkeypatch)
        self.run_into(tmp_path / "part", state, cfg, oracle)
        # the replay builds covariances only: pool_posterior sees just the
        # 6 - t posteriors the resumed iterations build
        assert_same_posteriors(resumed, full[t:])
        for name in self.NAMES:
            assert (tmp_path / "part" / name).read_bytes() == \
                (tmp_path / "full" / name).read_bytes(), name

    def live_run(self, tmp_path, monkeypatch, t):
        """(state after t iterations, cfg, kept_state after each iteration)."""
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)
        cfg = static_cfg(pool, iterations=t)
        live = record_kept(monkeypatch)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        monkeypatch.undo()
        return state, cfg, live

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_replay_keeps_the_live_state(self, tmp_path, monkeypatch, t):
        # the replay makes no mean or factor, but every array's covariance
        # and diagonal is bitwise the one the live run kept after iteration t
        state, cfg, live = self.live_run(tmp_path, monkeypatch, t)
        kept = campaign_mod.kept_covariance(state, cfg, load_pool(cfg.pool_path))
        (arrays, open_idx, n_train), (want, want_open, want_n) = kept_state(kept), live[t - 1]
        assert arrays.keys() == want.keys() and n_train == want_n
        np.testing.assert_array_equal(open_idx, want_open)
        for key, pair in arrays.items():
            for got, expected in zip(pair, want[key]):
                np.testing.assert_array_equal(got, expected)

    def test_replay_factors_only_the_fits(self, tmp_path, monkeypatch):
        # no u x u array is factored: the only factorizations are the
        # replayed fits' n x n kernels
        state, cfg, live = self.live_run(tmp_path, monkeypatch, 5)
        shapes, factor = [], gp_mod._jittered_cholesky

        def recording(a, *args):
            shapes.append(a.shape)
            return factor(a, *args)

        monkeypatch.setattr(gp_mod, "_jittered_cholesky", recording)
        campaign_mod.kept_covariance(state, cfg, load_pool(cfg.pool_path))
        assert set(shapes) == {(n, n) for _, _, n in live}

    def test_config_without_init_replays_nothing(self, tmp_path, monkeypatch):
        # a campaign whose config has no init form cannot name its initial
        # designs, so a resume builds its next posterior fresh
        pool = write_labeled_pool(tmp_path / "pool.csv")
        oracle = LookupOracle.from_pool_csv(pool)
        cfg = static_cfg(pool, iterations=3)
        state = run(start(cfg, oracle), dataclasses.replace(cfg, iterations=2), oracle=oracle)
        bare = dataclasses.replace(cfg, init=None)
        calls = record_posteriors(monkeypatch)
        run(state, bare, oracle=oracle)
        assert [c[0] for c in calls] == [False]

    def test_conditioning_peaks_below_the_fresh_build(self, tmp_path):
        # the conditioning reuses the kept u x u array in place and shrinks
        # it, so it peaks below a fresh build of the same posterior by about
        # that array: any second u x u array, such as a copy of the kept
        # block, closes the gap. The kept array is made under tracing, so
        # that its shrink is traced as one.
        path = tmp_path / "pool.csv"
        make_ablation_pool(path, n=900, bits=24, seed=2)
        oracle = LookupOracle.from_pool_csv(path)
        cfg = static_cfg(path, iterations=1, batch_size=40, init={"pool_sample": 60},
                         mc_samples=64)
        state = run(start(cfg, oracle), cfg, oracle=oracle)
        pool = load_pool(path)
        u = len(pool) - state.dataset.n
        peaks = []
        tracemalloc.start()
        try:
            kept = campaign_mod.kept_covariance(state, cfg, pool)
            for use in (kept, None):
                tracemalloc.reset_peak()
                start_mem = tracemalloc.get_traced_memory()[0]
                assert len(select_next(state, cfg, pool, kept=use)) == 40
                peaks.append(tracemalloc.get_traced_memory()[1] - start_mem)
        finally:
            tracemalloc.stop()
        assert next(iter(kept.arrays.values()))[0].shape == (u, u)
        assert peaks[0] <= peaks[1] - 0.8 * u * u * 8, peaks


class TestAtomicArtifacts:
    def test_replaces_file_with_the_bytes_of_a_plain_write(self, tmp_path):
        path, plain = tmp_path / "a.txt", tmp_path / "plain.txt"
        path.write_text("old")
        with atomic_write(path, newline="") as fh:
            fh.write("new\r\nrow\n")
        with open(plain, "w", encoding="utf-8", newline="") as fh:
            fh.write("new\r\nrow\n")
        assert path.read_bytes() == plain.read_bytes()
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "plain.txt"]

    def test_exception_mid_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_failed_artifact_writes_keep_previous_files(self, tmp_path, monkeypatch):
        pool = write_labeled_pool(tmp_path / "pool.csv")
        cfg = static_cfg(pool, iterations=2)
        oracle = LookupOracle.from_pool_csv(pool)
        out = tmp_path / "out"
        out.mkdir()
        metrics, front, ckpt = out / "metrics.csv", out / "front.json", out / "checkpoint.json"
        state = run(start(cfg, oracle), dataclasses.replace(cfg, iterations=1), oracle=oracle,
                    metrics_path=metrics, front_path=front, checkpoint_path=ckpt)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        state = run(state, cfg, oracle=oracle)

        def disk_full(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", disk_full)
        for write in (lambda: write_metrics_csv(metrics, state.history),
                      lambda: save_front(state.front, front),
                      lambda: save_checkpoint(ckpt, state, cfg)):
            with pytest.raises(OSError, match="disk full"):
                write()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
