"""Command line behavior and exit codes."""
import dataclasses
import json
import shlex
import subprocess
import sys

import numpy as np
import pytest

import poolbo.campaign as campaign_mod
from poolbo.bench import make_ablation_pool
from poolbo.campaign import (
    CampaignConfig,
    build_initial_data,
    init_campaign,
    load_checkpoint,
    run as run_campaign,
    save_checkpoint,
    select_next,
)
from poolbo.cli import main
from poolbo.generation import GeneratorConfig, load_pool
from poolbo.oracles import LookupOracle, make_oracle
from poolbo.pareto import read_metrics_csv


@pytest.fixture()
def pool_csv(tmp_path):
    path = tmp_path / "pool.csv"
    make_ablation_pool(path, n=30, bits=8, seed=6, front_range=(2, 25))
    return path


def run_config(pool, out_dir, **over):
    payload = {
        "iterations": 3,
        "batch_size": 3,
        "mc_samples": 16,
        "pool_path": str(pool),
        "oracle": f"lookup:{pool}",
        "init": {"pool_sample": 4},
        "seed": 13,
        "output_dir": str(out_dir),
    }
    payload.update(over)
    return payload


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def counted_bred_config(tmp_path, out_dir, **over):
    """A one-iteration bred run config whose external oracle command appends
    one line to the returned file per call."""
    calls = tmp_path / "calls.txt"
    script = tmp_path / "oracle.py"
    script.write_text(
        "import json, sys\n"
        f"open({str(calls)!r}, 'a').write('call\\n')\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    ones = req['genome'].count('1') / len(req['genome'])\n"
        "    print(json.dumps({'id': req['id'], 'objectives': [ones, 1 - ones]}))\n"
    )
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    payload = run_config(
        None, out_dir, iterations=1, pool_path=None,
        oracle={"kind": "external", "command": command, "m": 2},
        generator={"pool_size": 10, "constraints": ["min_ones:1"]},
        init={"genomes": ["00000011", "11000000", "00111100", "10101010", "01010101"]},
    )
    payload.update(over)
    return payload, calls


def spy_on_posteriors(monkeypatch):
    """Record, per pool posterior the campaign builds, whether it conditioned
    a kept array and a copy of its factor blocks."""
    calls = []
    build = campaign_mod.pool_posterior

    def pool_posterior(model, features, known_idx, known_values, kept=None):
        conditioned = bool(kept and kept.arrays)
        post = build(model, features, known_idx, known_values, kept)
        calls.append((conditioned, np.array(post.chol)))
        return post

    monkeypatch.setattr(campaign_mod, "pool_posterior", pool_posterior)
    return calls


class TestHv:
    def cases(self):
        return [
            ([[1.0, 1.0]], "0,0", "1.0"),
            ([], "0,0", "0.0"),
            ([[1.0, 2.0], [2.0, 1.0]], "0,0", "3.0"),
        ]

    def test_known_fronts(self, tmp_path, capsys):
        for i, (points, ref, expected) in enumerate(self.cases()):
            path = write_json(tmp_path / f"f{i}.json", {"points": points})
            assert main(["hv", path, "--ref", ref]) == 0
            assert capsys.readouterr().out.strip() == expected

    def test_bare_list_accepted(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", [[2.0, 2.0]])
        assert main(["hv", path, "--ref", "1,1"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_dominated_points_do_not_add_volume(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", {"points": [[2.0, 2.0], [1.0, 1.0]]})
        assert main(["hv", path, "--ref", "0,0"]) == 0
        assert capsys.readouterr().out.strip() == "4.0"

    def test_saved_front_file_works(self, tmp_path, pool_csv, capsys):
        out = tmp_path / "camp"
        assert main(["run", write_json(tmp_path / "c.json", run_config(pool_csv, out))]) == 0
        capsys.readouterr()
        assert main(["hv", str(out / "front.json"), "--ref", "0,0"]) == 0
        assert float(capsys.readouterr().out.strip()) > 0

    def test_too_many_objectives_is_a_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", {"points": [[1.0] * 7]})
        assert main(["hv", path, "--ref", ",".join(["0"] * 7)]) == 2
        assert "at most 6" in capsys.readouterr().err

    def test_negative_ref_as_separate_value(self, tmp_path, capsys):
        # a value led by "-" must not be read as an option
        path = write_json(tmp_path / "f.json", {"points": [[0.0, 0.5, -0.5], [1.0, -0.5, 0.0]]})
        printed = []
        for args in (["--ref", "-1.0,-1.0,-1.0"], ["--ref=-1.0,-1.0,-1.0"]):
            assert main(["hv", path, *args]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and float(printed[0]) > 0

    def test_bad_ref_string(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", {"points": [[1.0, 1.0]]})
        assert main(["hv", path, "--ref", "0,north"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_point_width_mismatch(self, tmp_path):
        path = write_json(tmp_path / "f.json", {"points": [[1.0, 1.0, 1.0]]})
        assert main(["hv", path, "--ref", "0,0"]) == 2

    def test_missing_points_key(self, tmp_path):
        path = write_json(tmp_path / "f.json", {"front": []})
        assert main(["hv", path, "--ref", "0,0"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["hv", str(tmp_path / "nope.json"), "--ref", "0,0"]) == 2

    @pytest.mark.parametrize("payload", [
        {"points": [{"values": [1.0, 2.0]}, [2.0, 1.0]]},
        {"points": [{"id": "a"}]},
        {"points": 5},
        5,
    ], ids=["mixed-entries", "no-values", "points-not-a-list", "scalar"])
    def test_malformed_front_is_a_usage_error(self, tmp_path, capsys, payload):
        path = write_json(tmp_path / "f.json", payload)
        assert main(["hv", path, "--ref", "0,0"]) == 2
        assert "malformed front payload" in capsys.readouterr().err


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, pool_csv, capsys):
        out = tmp_path / "camp"
        cfg_path = write_json(tmp_path / "c.json", run_config(pool_csv, out))
        assert main(["run", cfg_path]) == 0
        stdout = capsys.readouterr().out
        assert "finished iteration 3" in stdout
        assert len(read_metrics_csv(out / "metrics.csv")) == 3
        assert (out / "checkpoint.json").exists()
        assert (out / "front.json").exists()

    def test_lookup_config_builds_one_oracle(self, tmp_path, pool_csv, monkeypatch):
        built = []
        from_rows = LookupOracle.from_rows
        monkeypatch.setattr(LookupOracle, "from_rows",
                            lambda rows: built.append(rows) or from_rows(rows))
        cfg_path = write_json(tmp_path / "c.json", run_config(pool_csv, tmp_path / "camp"))
        assert main(["run", cfg_path]) == 0
        assert len(built) == 1

    def test_true_front_ids_flow_into_metrics(self, tmp_path, pool_csv):
        from poolbo.bench import true_pareto_ids

        out = tmp_path / "camp"
        payload = run_config(pool_csv, out,
                             true_front_ids=list(true_pareto_ids(pool_csv)))
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 0
        records = read_metrics_csv(out / "metrics.csv")
        assert all(r.fraction_recovered is not None for r in records)

    def test_resume_completes_an_interrupted_run(self, tmp_path, pool_csv, capsys):
        # uninterrupted reference run
        ref_out = tmp_path / "ref"
        ref_cfg = write_json(tmp_path / "ref.json", run_config(pool_csv, ref_out))
        assert main(["run", ref_cfg]) == 0

        # same campaign stopped after one iteration, checkpointed by hand
        out = tmp_path / "camp"
        out.mkdir()
        payload = run_config(pool_csv, out)
        cfg_path = write_json(tmp_path / "c.json", payload)
        cfg = CampaignConfig.from_dict(
            {k: v for k, v in payload.items() if k != "output_dir"}
        )
        oracle = LookupOracle.from_pool_csv(pool_csv)
        state = init_campaign(cfg, build_initial_data(cfg, oracle))
        run_campaign(state, dataclasses.replace(cfg, iterations=1), oracle=oracle)
        save_checkpoint(out / "checkpoint.json", state, cfg)

        assert main(["run", cfg_path, "--resume"]) == 0
        assert "finished iteration 3" in capsys.readouterr().out
        assert (out / "metrics.csv").read_bytes() == (ref_out / "metrics.csv").read_bytes()

    def test_finished_run_resumes_as_noop(self, tmp_path, pool_csv):
        out = tmp_path / "camp"
        cfg_path = write_json(tmp_path / "c.json", run_config(pool_csv, out))
        assert main(["run", cfg_path]) == 0
        before = (out / "checkpoint.json").read_bytes()
        assert main(["run", cfg_path, "--resume"]) == 0
        assert (out / "checkpoint.json").read_bytes() == before

    def test_resume_without_checkpoint(self, tmp_path, pool_csv, capsys):
        cfg_path = write_json(
            tmp_path / "c.json", run_config(pool_csv, tmp_path / "camp")
        )
        assert main(["run", cfg_path, "--resume"]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_resume_rejects_a_different_config(self, tmp_path, pool_csv, capsys):
        out = tmp_path / "camp"
        payload = run_config(pool_csv, out)
        assert main(["run", write_json(tmp_path / "a.json", payload)]) == 0
        payload["seed"] = 14
        assert main(["run", write_json(tmp_path / "b.json", payload), "--resume"]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_pool_id_with_the_batch_separator_exits_2(self, tmp_path, pool_csv, capsys):
        lines = pool_csv.read_text().splitlines()
        lines[1] = "a;b," + lines[1].split(",", 1)[1]
        pool_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "camp"
        assert main(["run", write_json(tmp_path / "c.json", run_config(pool_csv, out))]) == 2
        assert "row 2: id 'a;b'" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_non_finite_pool_label_exits_2(self, tmp_path, pool_csv, capsys):
        lines = pool_csv.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
        pool_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "camp"
        assert main(["run", write_json(tmp_path / "c.json", run_config(pool_csv, out))]) == 2
        assert "row 6: objective values must be finite" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("name", ["kgram:0", "kgram:x", "bogus"])
    @pytest.mark.parametrize("owner", ["campaign", "generator"])
    def test_bad_featurizer_exits_2_before_any_evaluation(self, tmp_path, pool_csv, capsys,
                                                         monkeypatch, owner, name):
        calls = []

        class CountingOracle:
            m = 2

            def evaluate(self, candidates):
                calls.append(len(candidates))
                raise AssertionError("a bad featurizer name reached the oracle")

        monkeypatch.setattr(campaign_mod, "make_oracle", lambda spec: CountingOracle())
        out = tmp_path / "camp"
        if owner == "campaign":
            payload = run_config(pool_csv, out, featurizer=name)
        else:
            payload = run_config(pool_csv, out, pool_path=None, oracle="sphere_pair",
                                 generator={"pool_size": 10, "featurizer": name},
                                 init={"random": {"count": 6, "length": 8}})
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 2
        assert f"unknown featurizer: {name}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()  # rejected with the config, before the run sets up

    def test_counted_bred_run_calls_its_oracle_per_batch(self, tmp_path, capsys):
        out = tmp_path / "camp"
        payload, calls = counted_bred_config(tmp_path, out)
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 0
        assert calls.read_text() == "call\n" * 2  # the initial designs, then one batch
        assert (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("over,named", [
        (dict(constraints=["nope:1"]), "'nope:1'"),
        (dict(constraints=["bit_equals:3"]), "'bit_equals:3'"),
        (dict(constraints=["min_ones:x"]), "'min_ones:x'"),
        (dict(constraints=[5]), "got 5"),
        (dict(constraints="min_ones:2"), "'min_ones:2'"),
        (dict(seed=-1), "got -1"),
    ])
    def test_malformed_config_exits_2_before_any_evaluation(self, tmp_path, capsys, over,
                                                            named):
        out = tmp_path / "camp"
        payload, calls = counted_bred_config(tmp_path, out)
        if "seed" in over:
            payload.update(over)
        else:
            payload["generator"].update(over)
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 2
        assert named in capsys.readouterr().err
        assert not calls.exists()
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("id,genome,obj_1,obj_2\n", "labeled pool is empty"),
        ("id,genome\na,01010101\nb,11110000\n", "pool row 'a' has no objective labels"),
    ])
    def test_lookup_pool_without_labels_exits_2(self, tmp_path, pool_csv, capsys, text,
                                                message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "camp"
        payload = run_config(pool_csv, out, oracle=f"lookup:{bad}")
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        spec = {"pool_path": str(bad), "output_dir": str(tmp_path / "bench"),
                "batch_size": 3, "init_size": 4, "seeds": [0], "iterations": 1}
        assert main(["bench", write_json(tmp_path / "spec.json", spec)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_missing_output_dir(self, tmp_path, pool_csv, capsys):
        payload = run_config(pool_csv, tmp_path / "camp")
        del payload["output_dir"]
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 2
        assert "output_dir" in capsys.readouterr().err

    def test_unknown_config_field_is_named(self, tmp_path, pool_csv, capsys):
        payload = run_config(pool_csv, tmp_path / "camp", batchsize=3)
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 2
        assert "batchsize" in capsys.readouterr().err

    def test_missing_oracle(self, tmp_path, pool_csv, capsys):
        payload = run_config(pool_csv, tmp_path / "camp")
        del payload["oracle"]
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 2
        assert "oracle" in capsys.readouterr().err

    def test_oracle_failure_is_a_runtime_error(self, tmp_path, pool_csv, capsys):
        payload = run_config(
            pool_csv, tmp_path / "camp",
            oracle={
                "kind": "external",
                "command": f"{sys.executable} -c 'import sys; sys.exit(4)'",
                "m": 2,
            },
            init={"genomes": ["00000000", "11110000", "00001111"]},
        )
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 1
        assert "status 4" in capsys.readouterr().err


class TestBench:
    def test_runs_and_reports(self, tmp_path, pool_csv, capsys):
        spec = {
            "pool_path": str(pool_csv),
            "output_dir": str(tmp_path / "bench"),
            "batch_size": 3,
            "init_size": 4,
            "acquisitions": ["qpmhi", "random"],
            "seeds": [0],
            "iterations": 2,
            "mc_samples": 16,
        }
        assert main(["bench", write_json(tmp_path / "spec.json", spec)]) == 0
        stdout = capsys.readouterr().out
        assert "4 cells" not in stdout  # 2 acquisitions x 1 seed
        assert "2 cells" in stdout
        assert (tmp_path / "bench" / "summary.csv").exists()

    def test_zero_workers_exits_2(self, tmp_path, pool_csv, capsys):
        spec = {"pool_path": str(pool_csv), "output_dir": str(tmp_path / "b"),
                "batch_size": 3, "init_size": 4, "seeds": [0], "iterations": 1}
        assert main(["bench", write_json(tmp_path / "spec.json", spec), "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, pool_csv, capsys):
        spec = {"pool_path": str(pool_csv), "output_dir": str(tmp_path / "b"),
                "batch_size": 3, "init_size": 4, "seeds": [0, -1], "iterations": 1}
        assert main(["bench", write_json(tmp_path / "spec.json", spec)]) == 2
        assert "seeds must be non-negative, got [0, -1]" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bad_spec_field(self, tmp_path, pool_csv, capsys):
        spec = {"pool_path": str(pool_csv), "output_dir": str(tmp_path / "b"),
                "batch_size": 3, "init_size": 4, "sedes": [0]}
        assert main(["bench", write_json(tmp_path / "spec.json", spec)]) == 2
        assert "sedes" in capsys.readouterr().err


class TestSelect:
    def make_checkpoint(self, tmp_path, pool_csv, **over):
        out = tmp_path / "camp"
        payload = run_config(pool_csv, out, **over)
        assert main(["run", write_json(tmp_path / "c.json", payload)]) == 0
        return out / "checkpoint.json"

    def test_prints_requested_batch(self, tmp_path, pool_csv, capsys):
        ckpt = self.make_checkpoint(tmp_path, pool_csv)
        capsys.readouterr()
        assert main(["select", str(pool_csv), str(ckpt), "-q", "4"]) == 0
        ids = capsys.readouterr().out.split()
        assert len(ids) == 4
        pool_ids = {line.split(",")[0] for line in pool_csv.read_text().splitlines()[1:]}
        assert set(ids) <= pool_ids

    def test_selection_is_reproducible(self, tmp_path, pool_csv, capsys):
        ckpt = self.make_checkpoint(tmp_path, pool_csv)
        capsys.readouterr()
        assert main(["select", str(pool_csv), str(ckpt), "-q", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["select", str(pool_csv), str(ckpt), "-q", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_prints_the_batch_the_next_iteration_records(self, tmp_path, pool_csv, capsys,
                                                         monkeypatch):
        # select replays the run's kept pool posterior from the checkpoint and
        # conditions it on the last batch, as iteration t + 1 of run() does
        ref_out = tmp_path / "ref"
        payload = run_config(pool_csv, ref_out, iterations=4)
        posteriors = spy_on_posteriors(monkeypatch)
        assert main(["run", write_json(tmp_path / "ref.json", payload)]) == 0
        run_posteriors = list(posteriors)
        recorded = read_metrics_csv(ref_out / "metrics.csv")
        cfg = CampaignConfig.from_dict({k: v for k, v in payload.items() if k != "output_dir"})
        oracle = LookupOracle.from_pool_csv(pool_csv)
        for t in (1, 2, 3):
            state = init_campaign(cfg, build_initial_data(cfg, oracle))
            run_campaign(state, dataclasses.replace(cfg, iterations=t), oracle=oracle)
            ckpt = tmp_path / f"after{t}.json"
            save_checkpoint(ckpt, state, cfg)
            capsys.readouterr()
            posteriors.clear()
            assert main(["select", str(pool_csv), str(ckpt), "-q", str(cfg.batch_size)]) == 0
            assert tuple(capsys.readouterr().out.split()) == recorded[t].batch_ids
            # the replay builds covariances only, so the one pool posterior
            # is the conditioned one iteration t + 1 scored
            assert len(posteriors) == 1 and posteriors[0][0]
            np.testing.assert_array_equal(posteriors[0][1], run_posteriors[t][1])

    def test_another_pool_file_selects_from_a_fresh_posterior(self, tmp_path, pool_csv, capsys,
                                                              monkeypatch):
        # the recorded batches are not this pool's rows, so nothing is
        # replayed and the posterior is built fresh from the checkpoint
        ckpt = self.make_checkpoint(tmp_path, pool_csv)
        other = tmp_path / "other.csv"
        make_ablation_pool(other, n=30, bits=8, seed=7, front_range=(2, 25))
        state, cfg = load_checkpoint(ckpt)
        cfg = dataclasses.replace(cfg, batch_size=3, pool_path=str(other))
        pool = load_pool(other)
        fresh = [pool[i].id for i in select_next(state, cfg, pool)]
        posteriors = spy_on_posteriors(monkeypatch)
        capsys.readouterr()
        assert main(["select", str(other), str(ckpt), "-q", "3"]) == 0
        assert capsys.readouterr().out.split() == fresh
        assert [conditioned for conditioned, _ in posteriors] == [False]

    def test_prints_the_batch_a_bred_iteration_records(self, tmp_path, capsys, monkeypatch):
        # surrogate-weighted breeding fits the model before the pool exists
        # and run() hands that fit to the decision step; select refits it
        # from the checkpoint and must reach the same batch
        cfg = CampaignConfig(
            iterations=3, batch_size=4, mc_samples=16, oracle="sphere_pair", seed=21,
            generator=GeneratorConfig(pool_size=12, parent_selection="surrogate_weighted",
                                      featurizer="kgram:3"),
            init={"random": {"count": 6, "length": 12}},
        )
        oracle = make_oracle(cfg.oracle)
        pools = []
        breed = campaign_mod.propose_pool
        monkeypatch.setattr(campaign_mod, "propose_pool",
                            lambda *args: pools.append(breed(*args)) or pools[-1])
        recorded = run_campaign(init_campaign(cfg, build_initial_data(cfg, oracle)), cfg,
                                oracle=oracle).history
        monkeypatch.undo()
        for t in (1, 2):
            state = init_campaign(cfg, build_initial_data(cfg, oracle))
            run_campaign(state, dataclasses.replace(cfg, iterations=t), oracle=oracle)
            ckpt = tmp_path / f"after{t}.json"
            save_checkpoint(ckpt, state, cfg)
            pool = pools[t]  # the pool iteration t + 1 breeds
            path = tmp_path / f"pool{t + 1}.csv"
            path.write_text("id,genome\n" + "".join(f"{c.id},{c.genome}\n" for c in pool))
            capsys.readouterr()
            assert main(["select", str(path), str(ckpt), "-q", str(cfg.batch_size)]) == 0
            assert tuple(capsys.readouterr().out.split()) == recorded[t].batch_ids
            # -q above the generator's pool size ranks the whole pool
            assert main(["select", str(path), str(ckpt), "-q", "20"]) == 0
            ranked = capsys.readouterr().out.split()
            assert sorted(ranked) == sorted(c.id for c in pool)
            assert tuple(ranked[:cfg.batch_size]) == recorded[t].batch_ids

    def test_random_checkpoint_selects_without_surrogate(self, tmp_path, pool_csv, capsys):
        ckpt = self.make_checkpoint(tmp_path, pool_csv, acquisition="random")
        capsys.readouterr()
        assert main(["select", str(pool_csv), str(ckpt), "-q", "2"]) == 0
        assert len(capsys.readouterr().out.split()) == 2

    def test_zero_batch_rejected(self, tmp_path, pool_csv, capsys):
        ckpt = self.make_checkpoint(tmp_path, pool_csv)
        capsys.readouterr()
        assert main(["select", str(pool_csv), str(ckpt), "-q", "0"]) == 2

    def test_missing_checkpoint(self, tmp_path, pool_csv):
        assert main(["select", str(pool_csv), str(tmp_path / "no.json"), "-q", "2"]) == 2


# edits that leave a checkpoint's JSON valid and its records malformed, with
# text each error message must hold
MALFORMED_CHECKPOINTS = {
    "null iteration": (lambda p: p.update(iteration=None), "malformed checkpoint"),
    "null record iteration": (lambda p: p["history"][0].update(iteration=None), "MetricRecord"),
    "dataset without genomes": (lambda p: p["dataset"].pop("genomes"), "Dataset"),
    "unknown history field": (lambda p: p["history"][0].update(note=""), "MetricRecord"),
    "dataset as a list": (lambda p: p.update(dataset=[]), "Dataset"),
    "history entry as a list": (lambda p: p["history"].__setitem__(0, []), "MetricRecord"),
    # each scalar is named with its file; run() writes one history record per iteration
    "string iteration": (lambda p: p.update(iteration="3"), "checkpoint.json: 'iteration'"),
    "fractional iteration": (lambda p: p.update(iteration=2.7), "checkpoint.json: 'iteration'"),
    "boolean iteration": (lambda p: p.update(iteration=True), "checkpoint.json: 'iteration'"),
    "iteration past the history": (lambda p: p.update(iteration=5), "checkpoint.json: 'iteration'"),
    "string hv_initial": (lambda p: p.update(hv_initial="x"), "checkpoint.json: 'hv_initial'"),
    "null hv_initial": (lambda p: p.update(hv_initial=None), "checkpoint.json: 'hv_initial'"),
    "negative hv_initial": (lambda p: p.update(hv_initial=-1.0), "checkpoint.json: 'hv_initial'"),
    "infinite hv_initial": (lambda p: p.update(hv_initial=float("inf")), "checkpoint.json: 'hv_initial'"),
}


class TestMalformedCheckpoint:
    """A malformed checkpoint is a bad input: `select` and `run --resume`
    exit 2 with a message naming the record, not 1 with a traceback."""

    @pytest.mark.parametrize("command", ["select", "resume"])
    @pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
    def test_exits_2(self, tmp_path, pool_csv, capsys, command, case):
        out = tmp_path / "camp"
        cfg_path = write_json(tmp_path / "c.json", run_config(pool_csv, out, iterations=1))
        assert main(["run", cfg_path]) == 0
        ckpt = out / "checkpoint.json"
        payload = json.loads(ckpt.read_text())
        edit, named = MALFORMED_CHECKPOINTS[case]
        edit(payload)
        write_json(ckpt, payload)
        capsys.readouterr()
        argv = (["select", str(pool_csv), str(ckpt), "-q", "1"] if command == "select"
                else ["run", cfg_path, "--resume"])
        assert main(argv) == 2
        assert named in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_json(tmp_path / "f.json", {"points": [[1.0, 2.0], [2.0, 1.0]]})
        proc = subprocess.run(
            [sys.executable, "-m", "poolbo.cli", "hv", path, "--ref", "0,0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3.0"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poolbo.cli", "orbit"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
