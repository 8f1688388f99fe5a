import csv
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poolbo.campaign import CampaignConfig
from poolbo.generation import (
    GenerationStarvedError,
    GeneratorConfig,
    GenomeError,
    PoolFormatError,
    _validate_genome,
    genome_alphabet,
    load_pool,
    make_featurizer,
    parse_predicate,
    propose_pool,
    random_genome,
    read_pool,
)
from poolbo.gp import Dataset, GpConfig, fit
from poolbo.seeds import child_rng
from refimpl import dict_kgram_featurizer, per_genome_featurizer, row_read_pool, string_propose_pool

BAD_FEATURIZERS = ("kgram:0", "kgram:x", "kgram:-1", "kgram", "bogus")


def write_csv(path, text):
    path.write_text(text)
    return path


def bit_dataset(genomes, objectives):
    feat = make_featurizer("identity")
    return Dataset(
        ids=tuple(f"d{i}" for i in range(len(genomes))),
        features=feat(genomes),
        objectives=np.asarray(objectives, dtype=float),
        genomes=tuple(genomes),
    )


class TestFeaturizers:
    def test_identity_maps_bits(self):
        feat = make_featurizer("identity")
        assert np.array_equal(feat(["0110", "1000"]), [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])

    def test_identity_rejects_other_symbols(self):
        with pytest.raises(ValueError):
            make_featurizer("identity")(["0110", "01x0"])

    def test_kgram_counts_windows(self):
        feat = make_featurizer("kgram:2", alphabet="01")
        # vocab order 00, 01, 10, 11; "0110" has windows 01, 11, 10
        got = feat(["0110", "0000"])
        assert np.array_equal(got[0], [0.0, 1.0, 1.0, 1.0])
        assert got[1, 0] == 3.0

    def test_kgram_dimension_is_alphabet_power(self):
        feat = make_featurizer("kgram:2", alphabet="abc")
        assert feat(["abc"]).shape == (1, 9)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_featurizer("morgan")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("alphabet", ["01", "ACGT", "bca", "\u00e9\u4e2d\U0001f600z"])
    def test_kgram_counts_match_the_dict_featurizer(self, k, alphabet):
        # window codes plus one bincount give the dict-counted vector bit
        # for bit, for genomes shorter than k too, and for any alphabet
        feat, ref = make_featurizer(f"kgram:{k}", alphabet), dict_kgram_featurizer(f"kgram:{k}", alphabet)
        rng = np.random.default_rng(k)
        symbols = sorted(alphabet)
        genomes = ["".join(rng.choice(symbols, size=length)) if length else ""
                   for length in list(range(0, k + 2)) + [9, 48] for _ in range(20)]
        got, want = feat(genomes), np.stack([ref(g) for g in genomes])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for genome in genomes:  # alone, each genome is its own batch of one
            assert feat([genome]).tobytes() == ref(genome).tobytes(), genome

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("genome", ["01x1", "x0101", "0101x", "0xx1", "01\U0001f600", "0y"])
    def test_out_of_alphabet_message_names_the_first_bad_gram(self, k, genome):
        try:
            dict_kgram_featurizer(f"kgram:{k}", "01")(genome)
        except ValueError as exc:
            with pytest.raises(GenomeError) as got:
                make_featurizer(f"kgram:{k}", "01")(["0", "0110", genome, "x1x1"])
            assert str(got.value) == str(exc)
            assert got.value.index == 2
        else:  # shorter than k: no window, no error
            assert len(genome) < k
            assert not make_featurizer(f"kgram:{k}", "01")([genome]).any()

    @pytest.mark.parametrize("name", BAD_FEATURIZERS)
    def test_bad_name_rejected(self, name):
        with pytest.raises(ValueError):
            make_featurizer(name)

    @pytest.mark.parametrize("name,alphabet,genomes", [
        ("identity", "01", ["0110", "1111", "0000", "1010"]),
        ("identity", "01", ["", ""]),
        ("identity", "01", []),
        ("kgram:3", "01", ["01", "0110101", "", "1", "111", "0000000000"]),
        ("kgram:2", "ABC", ["A", "ABCA", "CC", "BACAB", "", "B"]),
        ("kgram:4", "ACGT", ["AC", "ACG", "T"]),
        ("kgram:1", "\u00e9\U0001f600z", ["z\U0001f600", "\u00e9", "zz\u00e9\U0001f600"]),
    ])
    def test_batch_rows_are_the_per_genome_vectors(self, name, alphabet, genomes):
        # bitstrings, tokens, ragged lengths and genomes shorter than k
        got = make_featurizer(name, alphabet)(genomes)
        ref = per_genome_featurizer(name, alphabet)
        assert got.dtype == np.float64 and got.shape[0] == len(genomes)
        for row, genome in zip(got, genomes):
            assert row.tobytes() == ref(genome).tobytes(), genome

    @pytest.mark.parametrize("genomes,index,message", [
        (["0110", "011", "0x"], 1, "genomes of one length, got 3 symbols after 4"),
        (["0110", "01x0", "011"], 1, "needs a 0/1 genome, found ['x']"),
        (["0110", "0110", "\u00e90"], 2, "needs a 0/1 genome, found ['\u00e9']"),
        (["", "1"], 1, "got 1 symbols after 0"),
    ])
    def test_identity_names_the_first_bad_genome(self, genomes, index, message):
        with pytest.raises(GenomeError) as got:
            make_featurizer("identity")(genomes)
        assert got.value.index == index
        assert message in str(got.value)


def rows_of(pool) -> list:
    """read_pool's columns as (row, id, genome, objectives) tuples."""
    return list(zip(pool.rows, pool.ids, pool.genomes, pool.labels.tolist()))


class TestLoadPool:
    def test_duplicate_key_dropped(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,0101\nb,0101\nc,1111\n")
        pool = load_pool(path)
        assert [c.id for c in pool] == ["a", "c"]
        assert [c.genome for c in pool] == ["0101", "1111"]

    def test_read_pool_keeps_token_rows_unfeaturized(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "id,genome,obj_1\na,0101,1.5\nb,ABAB,2.0\nc,0101,3.0\n")
        assert rows_of(read_pool(path)) == [(2, "a", "0101", [1.5]), (3, "b", "ABAB", [2.0])]
        with pytest.raises(PoolFormatError, match="row 3: identity featurizer"):
            load_pool(path)
        dup = write_csv(tmp_path / "d.csv", "id,genome\na,ABCD\na,ABAB\n")
        with pytest.raises(PoolFormatError, match="row 3: duplicate id"):
            read_pool(dup)

    def test_empty_pool(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\n")
        assert load_pool(path) == []

    def test_non_binary_genome_names_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,0101\nb,01x1\n")
        with pytest.raises(PoolFormatError, match="row 3"):
            load_pool(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,0101\na,1111\n")
        with pytest.raises(PoolFormatError, match="duplicate id"):
            load_pool(path)

    @pytest.mark.parametrize("cid", ["a;b", ";", ""])
    def test_id_that_metrics_csv_cannot_round_trip_names_row(self, tmp_path, cid):
        path = write_csv(tmp_path / "p.csv", f"id,genome\nc,0101\n{cid},1111\n")
        with pytest.raises(PoolFormatError, match="row 3: id .* non-empty and free of ';'"):
            read_pool(path)

    def test_wrong_field_count_names_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,0101,9.0\n")
        with pytest.raises(PoolFormatError, match="row 2"):
            load_pool(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "genome,id\n0101,a\n")
        with pytest.raises(PoolFormatError, match="header"):
            load_pool(path)

    def test_objective_columns(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            "id,genome,obj_1,obj_2\na,01,1.5,2.0\nb,10,0.25,-1.0\n",
        )
        assert len(load_pool(path)) == 2
        assert rows_of(read_pool(path)) == [(2, "a", "01", [1.5, 2.0]), (3, "b", "10", [0.25, -1.0])]

    def test_bad_objective_value_names_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome,obj_1\na,01,oops\n")
        with pytest.raises(PoolFormatError, match="row 2"):
            load_pool(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_objective_value_names_row(self, tmp_path, value):
        path = write_csv(tmp_path / "p.csv", f"id,genome,obj_1,obj_2\na,01,1.0,2.0\nb,10,0.5,{value}\n")
        with pytest.raises(PoolFormatError, match="row 3: objective values must be finite"):
            read_pool(path)

    def test_unlabeled_pool_has_no_objectives(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,01\n")
        assert rows_of(read_pool(path)) == [(2, "a", "01", [])]
        assert read_pool(path).labels.shape == (1, 0)

    @pytest.mark.parametrize("space", [" ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
    def test_whitespace_in_genome_names_row(self, tmp_path, space):
        path = tmp_path / "p.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("id", "genome"), ("a", "AB"), ("b", f"A{space}B")])
        with pytest.raises(PoolFormatError, match="row 3: genome contains whitespace"):
            read_pool(path)

    def test_whitespace_rule_is_str_isspace_on_every_code_point(self):
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            try:
                _validate_genome(f"A{ch}B", 2)
            except PoolFormatError:
                assert ch.isspace(), hex(code)
            else:
                assert not ch.isspace(), hex(code)

    def test_token_genomes_with_kgram_features(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,abba\nb,baab\n")
        pool = load_pool(path, featurizer="kgram:1")
        assert np.array_equal(pool[0].features, [2.0, 2.0])

    def test_ragged_bitstring_pool_names_its_first_off_length_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome\na,0101\nb,0101\nc,1111\nd,011\ne,01\n")
        with pytest.raises(PoolFormatError, match="row 5: identity featurizer needs genomes of one length"):
            load_pool(path)
        assert len(load_pool(path, featurizer="kgram:2")) == 4

    def test_candidates_hold_read_only_rows_of_one_matrix(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "id,genome,obj_1\na,0101,1.0\nb,1100,2.0\n")
        pool = load_pool(path)
        assert all(not c.features.flags.writeable for c in pool)
        assert pool[0].features.base is pool[1].features.base
        assert not read_pool(path).labels.flags.writeable
        with pytest.raises(ValueError):
            pool[0].features[0] = 5.0


POOL_TEXTS = {
    "valid": "id,genome,obj_1,obj_2\na,01,1.5,2\nb,10,-0.25,1e-3\nc,01,3,4\nd,11, 7 ,1_0\n",
    "unlabeled": "id,genome\na,01\nb,01\nc,AB\n",
    "empty": "id,genome,obj_1\n",
    "no header": "",
    "bad header": "genome,id\n0101,a\n",
    "bad objective header": "id,genome,obj_2\na,01,1\n",
    "blank line": "id,genome\na,01\n\nb,10\n",
    "short row": "id,genome,obj_1\na,01,1\nb,10\nc,11,x\n",
    "long row before bad id": "id,genome\na,01,9\n;b,10\n",
    "bad id before long row": "id,genome\n;b,10\na,01,9\n",
    "empty genome": "id,genome,obj_1\na,,x\n",
    "whitespace genome": "id,genome,obj_1\na,0 1,x\n",
    "trailing whitespace genome": "id,genome\na,01\nb,01\u3000\n",
    "bad value before bad id": "id,genome,obj_1,obj_2\n,01,1,x\n",
    "bad id after bad value": "id,genome,obj_1\na,01,oops\n;,10,1\n",
    "semicolon id": "id,genome\na,01\nb;c,10\n",
    "empty id": "id,genome\na,01\n,10\n",
    "duplicate id": "id,genome\na,01\nb,10\na,11\n",
    "duplicate id and genome": "id,genome\na,01\na,01\n",
    "non-finite": "id,genome,obj_1,obj_2\na,01,1,2\nb,10,inf,nan\nc,11,nan,1\n",
    "non-finite in a dropped copy": "id,genome,obj_1\na,01,1\nb,01,-inf\n",
    "non-finite before a bad row": "id,genome,obj_1\na,01,nan\nb,10,1\nb,11,2\n",
    "quoted fields": 'id,genome,obj_1\n"a,1",01,"2.5"\n"b",10,3\n',
}


class TestColumnarRead:
    """read_pool against refimpl.row_read_pool, which checks one row at a
    time: the same kept rows, or the same error."""

    @staticmethod
    def outcome(reader, path):
        try:
            return reader(path)
        except Exception as exc:  # the type and message are compared
            return type(exc), str(exc)

    @pytest.mark.parametrize("name", sorted(POOL_TEXTS))
    def test_matches_the_row_loop(self, tmp_path, name):
        path = tmp_path / "p.csv"
        path.write_text(POOL_TEXTS[name], encoding="utf-8")
        got, want = self.outcome(read_pool, path), self.outcome(row_read_pool, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert rows_of(got) == want
            assert got.labels.dtype == np.float64 and got.labels.flags.c_contiguous

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "", "d;", "e"]),
                              st.sampled_from(["01", "10", "", "0 1", "11"]),
                              st.sampled_from(["1", "-2.5", "nan", "inf", "x", "1e308"]),
                              st.integers(0, 9)), max_size=8))
    def test_random_files_match_the_row_loop(self, rows):
        import tempfile

        # a row drawn with width digit 0 loses its label, 1 gains a field
        lines = ["id,genome,obj_1"] + [
            ",".join([cid, genome] + {0: [], 1: [value, value]}.get(width, [value]))
            for cid, genome, value, width in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/p.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
            got, want = self.outcome(read_pool, path), self.outcome(row_read_pool, path)
        assert (got == want) if isinstance(want, tuple) else rows_of(got) == want

    def test_a_reader_error_comes_after_the_rows_before_it(self, tmp_path):
        # csv stops at an oversized field; a bad row before it is named first
        huge = "0" * (csv.field_size_limit() + 1)
        for head, expect in (("a,01\n", csv.Error), (";,01\n", PoolFormatError)):
            path = write_csv(tmp_path / "p.csv", f"id,genome\n{head}b,{huge}\n")
            with pytest.raises(expect) as got:
                read_pool(path)
            with pytest.raises(expect) as want:
                row_read_pool(path)
            assert str(got.value) == str(want.value)


class TestPredicates:
    def test_parse_and_apply(self):
        pred = parse_predicate("bit_equals:0:1")
        assert pred("10") and not pred("01")
        assert parse_predicate("min_ones:2")("011")
        assert not parse_predicate("max_ones:1")("011")
        assert parse_predicate("starts_with:01")("0110")

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            parse_predicate("divisible_by:3")

    def test_filter_empty_list_is_identity(self):
        data = bit_dataset(["110000", "000011", "111100"], [[3.0, 1.0], [1.0, 3.0], [2.0, 2.5]])
        free = GeneratorConfig(pool_size=12, mutation_rate=0.2, random_fraction=0.5)
        vacuous = GeneratorConfig(pool_size=12, mutation_rate=0.2, random_fraction=0.5,
                                  constraints=("min_ones:0",))
        a, b = propose_pool(data, None, free, seed=4), propose_pool(data, None, vacuous, seed=4)
        assert [(c.id, c.genome) for c in a] == [(c.id, c.genome) for c in b]

    def test_contradictory_predicates_empty_pool(self):
        preds = [parse_predicate("min_ones:1"), parse_predicate("max_ones:0")]
        genomes = ["".join(bits) for bits in product("01", repeat=6)]
        assert [g for g in genomes if all(p(g) for p in preds)] == []

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        genomes = ["".join(map(str, rng.integers(0, 2, 6))) for _ in range(40)]
        pred = parse_predicate("min_ones:3")
        assert [g for g in genomes if pred(g)] == [g for g in genomes if g.count("1") >= 3]


class TestProposePool:
    def base_data(self):
        return bit_dataset(
            ["110000", "000011", "111100", "000000"],
            [[3.0, 1.0], [1.0, 3.0], [2.0, 2.5], [0.5, 0.5]],
        )

    def test_elite_identity_pipeline(self):
        """All-elite config reproduces exactly the non-dominated genomes."""
        data = self.base_data()
        cfg = GeneratorConfig(pool_size=3, mutation_rate=0.0, crossover="uniform",
                              elite_fraction=1.0, random_fraction=0.0)
        pool = propose_pool(data, None, cfg, seed=1)
        assert [c.genome for c in pool] == ["110000", "000011", "111100"]
        assert [c.id for c in pool] == ["d0", "d1", "d2"]

    def test_full_mutation_complements_single_parent(self):
        data = bit_dataset(["110010"], [[1.0, 1.0]])
        cfg = GeneratorConfig(pool_size=1, mutation_rate=1.0, crossover="one_point",
                              elite_fraction=0.0, random_fraction=0.0)
        pool = propose_pool(data, None, cfg, seed=3)
        assert pool[0].genome == "001101"

    def test_constraints_hold_on_every_candidate(self):
        data = bit_dataset(
            ["110000110010", "000011001101", "111100101001"],
            [[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]],
        )
        cfg = GeneratorConfig(pool_size=40, mutation_rate=0.2, elite_fraction=0.1,
                              random_fraction=0.5, constraints=("bit_equals:0:1",))
        pool = propose_pool(data, None, cfg, seed=7)
        assert len(pool) == 40
        assert all(c.genome[0] == "1" for c in pool)
        # re-checking with the parsed predicate passes every candidate
        assert all(parse_predicate("bit_equals:0:1")(c.genome) for c in pool)

    def test_uniform_random_acceptance_rate_near_half(self):
        """A first-bit constraint accepts uniform bitstrings about half the time."""
        pred = parse_predicate("bit_equals:0:1")
        draws = 10_000
        hits = sum(
            pred(random_genome(np.random.default_rng(k), "01", 8)) for k in range(draws)
        )
        rate = hits / draws
        assert abs(rate - 0.5) < 4 * np.sqrt(0.25 / draws)

    def test_starves_on_contradictory_constraints(self):
        data = self.base_data()
        cfg = GeneratorConfig(pool_size=4, elite_fraction=0.0, random_fraction=1.0,
                              constraints=("min_ones:2", "max_ones:1"))
        with pytest.raises(GenerationStarvedError) as err:
            propose_pool(data, None, cfg, seed=5)
        assert err.value.acceptance_rate == 0.0

    def test_starves_when_genome_space_is_exhausted(self):
        # 2-bit space only holds 4 unique genomes
        data = bit_dataset(["11"], [[1.0, 1.0]])
        cfg = GeneratorConfig(pool_size=5, elite_fraction=0.0, random_fraction=1.0)
        with pytest.raises(GenerationStarvedError):
            propose_pool(data, None, cfg, seed=2)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
    def test_exact_size_and_distinct_keys(self, seed, pool_size):
        data = bit_dataset(
            ["11000011", "00111100", "10101010"],
            [[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]],
        )
        cfg = GeneratorConfig(pool_size=pool_size, mutation_rate=0.05,
                              elite_fraction=0.2, random_fraction=0.3)
        pool = propose_pool(data, None, cfg, seed=seed)
        assert len(pool) == pool_size
        assert len({c.genome for c in pool}) == pool_size

    def test_deterministic_given_seed(self):
        data = self.base_data()
        cfg = GeneratorConfig(pool_size=25, mutation_rate=0.1, random_fraction=0.4)
        a = propose_pool(data, None, cfg, seed=11)
        b = propose_pool(data, None, cfg, seed=11)
        c = propose_pool(data, None, cfg, seed=12)
        assert [x.genome for x in a] == [x.genome for x in b]
        assert [x.id for x in a] == [x.id for x in b]
        assert [x.genome for x in a] != [x.genome for x in c]

    def test_uniform_selection_ignores_model(self):
        data = self.base_data()
        model = fit(data, GpConfig())
        cfg = GeneratorConfig(pool_size=30, mutation_rate=0.1, random_fraction=0.2,
                              parent_selection="uniform")
        with_model = propose_pool(data, model, cfg, seed=9)
        without = propose_pool(data, None, cfg, seed=9)
        assert [c.genome for c in with_model] == [c.genome for c in without]

    def test_surrogate_weighted_runs_and_stays_deterministic(self):
        data = self.base_data()
        model = fit(data, GpConfig())
        cfg = GeneratorConfig(pool_size=30, mutation_rate=0.1, random_fraction=0.2,
                              parent_selection="surrogate_weighted")
        a = propose_pool(data, model, cfg, seed=9)
        b = propose_pool(data, model, cfg, seed=9)
        assert [c.genome for c in a] == [c.genome for c in b]
        assert len(a) == 30

    def test_token_genomes_supported(self):
        feat = make_featurizer("kgram:1", alphabet="abc")
        data = Dataset(
            ids=("t0", "t1"),
            features=feat(["abca", "bcab"]),
            objectives=np.array([[1.0, 2.0], [2.0, 1.0]]),
            genomes=("abca", "bcab"),
        )
        cfg = GeneratorConfig(pool_size=10, mutation_rate=0.3, random_fraction=0.3,
                              featurizer="kgram:1")
        pool = propose_pool(data, None, cfg, seed=4)
        assert len(pool) == 10
        assert all(set(c.genome) <= set("abc") for c in pool)

    def test_requires_genomes_and_data(self):
        plain = Dataset(ids=("a",), features=np.array([[0.0, 1.0]]),
                        objectives=np.array([[1.0, 1.0]]))
        cfg = GeneratorConfig(pool_size=2)
        with pytest.raises(ValueError, match="genomes"):
            propose_pool(plain, None, cfg, seed=0)

    @pytest.mark.parametrize("name", BAD_FEATURIZERS)
    def test_bad_featurizer_rejected_by_both_configs(self, name):
        with pytest.raises(ValueError):
            GeneratorConfig(pool_size=5, featurizer=name)
        with pytest.raises(ValueError):
            CampaignConfig(iterations=1, batch_size=1, pool_path="pool.csv", featurizer=name)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(pool_size=0)
        with pytest.raises(ValueError):
            GeneratorConfig(pool_size=5, mutation_rate=1.2)
        with pytest.raises(ValueError):
            GeneratorConfig(pool_size=5, crossover="two_point")
        with pytest.raises(ValueError):
            GeneratorConfig(pool_size=5, elite_fraction=0.8, random_fraction=0.8)


def featurized(genomes, objectives, featurizer):
    feat = make_featurizer(featurizer, genome_alphabet(genomes))
    return Dataset(
        ids=tuple(f"d{i}" for i in range(len(genomes))),
        features=feat(genomes),
        objectives=np.asarray(objectives, dtype=float),
        genomes=tuple(genomes),
    )


def assert_same_pool(got, want):
    assert [c.id for c in got] == [c.id for c in want]
    assert [c.genome for c in got] == [c.genome for c in want]
    assert [c.features.tobytes() for c in got] == [c.features.tobytes() for c in want]


class TestArrayBreeding:
    """propose_pool breeds integer code arrays and draws its parents from a
    cumulative sum; refimpl.string_propose_pool breeds strings with
    Generator.choice and dict-counted k-grams. Every id, genome and feature
    byte must agree."""

    @staticmethod
    def bit_data(featurizer="kgram:3"):
        rng = np.random.default_rng(5)
        genomes = sorted({"".join(rng.choice(list("01"), size=16)) for _ in range(12)})
        objectives = rng.normal(size=(len(genomes), 2))
        return featurized(genomes, objectives, featurizer)

    @pytest.mark.parametrize("selection", ["uniform", "surrogate_weighted"])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("crossover", ["uniform", "one_point"])
    def test_bitstrings_match_the_string_breeder(self, crossover, rate, selection):
        data = self.bit_data()
        model = fit(data)
        cfg = GeneratorConfig(pool_size=24, mutation_rate=rate, crossover=crossover,
                              parent_selection=selection, featurizer="kgram:3")
        for seed in range(10):
            assert_same_pool(propose_pool(data, model, cfg, seed),
                             string_propose_pool(data, model, cfg, seed))

    @pytest.mark.parametrize("crossover", ["uniform", "one_point"])
    def test_identity_features_and_rejections_match(self, crossover):
        # the constraint rejects about half of every stage's candidates
        data = self.bit_data("identity")
        cfg = GeneratorConfig(pool_size=30, mutation_rate=0.1, crossover=crossover,
                              random_fraction=0.3, constraints=("bit_equals:3:1",),
                              parent_selection="surrogate_weighted")
        model = fit(data)
        for seed in range(10):
            got = propose_pool(data, model, cfg, seed)
            assert_same_pool(got, string_propose_pool(data, model, cfg, seed))
            assert max(int(c.id.rsplit("-", 1)[1]) for c in got if c.id.startswith("gen-")) > 40

    @pytest.mark.parametrize("alphabet", ["ABCD", "\u00e9\u00df\u4e2d\U0001f600"])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("crossover", ["uniform", "one_point"])
    def test_variable_length_tokens_match(self, alphabet, rate, crossover):
        rng = np.random.default_rng(len(alphabet))
        genomes = sorted({"".join(rng.choice(list(alphabet), size=int(rng.integers(1, 10))))
                          for _ in range(14)})
        data = featurized(genomes, rng.normal(size=(len(genomes), 2)), "kgram:2")
        model = fit(data)
        for selection in ("uniform", "surrogate_weighted"):
            cfg = GeneratorConfig(pool_size=20, mutation_rate=rate, crossover=crossover,
                                  random_fraction=0.2, parent_selection=selection,
                                  featurizer="kgram:2")
            for seed in range(10):
                assert_same_pool(propose_pool(data, model, cfg, seed),
                                 string_propose_pool(data, model, cfg, seed))

    def test_starvation_matches(self):
        data = bit_dataset(["11"], [[1.0, 1.0]])
        cfg = GeneratorConfig(pool_size=5, elite_fraction=0.0, random_fraction=0.4)
        with pytest.raises(GenerationStarvedError) as want:
            string_propose_pool(data, None, cfg, seed=2)
        with pytest.raises(GenerationStarvedError) as got:
            propose_pool(data, None, cfg, seed=2)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind", ["zeros", "ties", "both", "one_nonzero"])
    def test_cdf_draw_is_generator_choice(self, kind):
        # propose_pool's parent pair: the normalized cumulative sum searched
        # at two uniforms, which is what Generator.choice(p=...) computes
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            w = rng.random(n)
            if kind in ("zeros", "both"):
                w[rng.random(n) < 0.4] = 0.0
            if kind in ("ties", "both"):
                w[rng.random(n) < 0.5] = w.max()
            if kind == "one_nonzero":
                w[:] = 0.0
                w[int(rng.integers(0, n))] = 1.0
            if not w.any():
                w[-1] = 1.0
            w /= w.sum()
            cdf = w.cumsum()
            cdf /= cdf[-1]
            want = child_rng(seed, 1).choice(n, size=2, p=w)
            got = cdf.searchsorted(child_rng(seed, 1).random(2), side="right")
            assert got.tolist() == want.tolist(), (seed, w)
