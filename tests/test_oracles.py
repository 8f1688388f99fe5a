"""Oracle behavior: builtin test functions, pool lookups, external processes."""
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from poolbo.generation import Candidate, make_featurizer
from poolbo.oracles import (
    BuiltinOracle,
    ExternalOracle,
    LookupOracle,
    OracleError,
    make_oracle,
)

from refimpl import zdt1_reference

FEAT = make_featurizer("identity")


def cand(genome: str, i: int = 0) -> Candidate:
    return Candidate(id=f"c{i}", genome=genome, features=FEAT([genome])[0])


def batch(*genomes):
    return [cand(g, i) for i, g in enumerate(genomes)]


class TestBuiltins:
    def test_linear_tradeoff_two_ones_of_eight(self):
        out = BuiltinOracle("linear_tradeoff").evaluate(batch("01000100"))
        assert out.shape == (1, 2)
        assert out[0].tolist() == [0.25, 0.75]

    def test_linear_tradeoff_objectives_sum_to_one(self):
        genomes = ["1", "0", "101", "0011010", "111111111"]
        out = BuiltinOracle("linear_tradeoff").evaluate(batch(*genomes))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert out[0].tolist() == [1.0, 0.0]
        assert out[1].tolist() == [0.0, 1.0]

    def test_zdt1_all_zeros_has_zero_first_objective(self):
        out = BuiltinOracle("zdt1_discrete").evaluate(batch("00000"))
        assert out[0, 0] == 0.0
        assert out[0, 1] == -1.0

    def test_zdt1_leading_one_rest_zero(self):
        # f1 = 1, g = 1, so f2 = 1 - sqrt(1) = 0; negation gives (-1, 0)
        out = BuiltinOracle("zdt1_discrete").evaluate(batch("10000"))
        assert out[0].tolist() == [-1.0, 0.0]

    def test_zdt1_matches_reference_formula(self):
        rng = np.random.default_rng(7)
        genomes = [
            "".join(rng.choice(["0", "1"], size=rng.integers(1, 13)))
            for _ in range(50)
        ]
        out = BuiltinOracle("zdt1_discrete").evaluate(batch(*genomes))
        expected = np.array([zdt1_reference([int(c) for c in g]) for g in genomes])
        assert np.allclose(out, expected, atol=1e-12)

    def test_sphere_pair_all_zeros(self):
        # both halves decode to 0.0, so squared distances are 2 and 0
        out = BuiltinOracle("sphere_pair").evaluate(batch("0000"))
        assert out[0].tolist() == [-2.0, 0.0]

    def test_sphere_pair_all_ones_eight_bits(self):
        # each half is 0.1111 binary = 0.9375
        out = BuiltinOracle("sphere_pair").evaluate(batch("11111111"))
        assert out[0].tolist() == [-0.0078125, -1.7578125]

    def test_sphere_pair_two_bits(self):
        out = BuiltinOracle("sphere_pair").evaluate(batch("10"))
        assert out[0].tolist() == [-1.25, -0.25]

    def test_sphere_pair_odd_length_splits_first_half_longer(self):
        # "101" -> halves "10" and "1", both decoding to 0.5
        out = BuiltinOracle("sphere_pair").evaluate(batch("101"))
        assert out[0].tolist() == [-0.5, -0.5]

    def test_batch_rows_follow_request_order(self):
        oracle = BuiltinOracle("linear_tradeoff")
        genomes = ["0011", "1111", "0000", "0111"]
        together = oracle.evaluate(batch(*genomes))
        for i, g in enumerate(genomes):
            assert np.array_equal(together[i], oracle.evaluate(batch(g))[0])

    def test_repeat_evaluation_is_identical(self):
        oracle = BuiltinOracle("sphere_pair")
        b = batch("1010", "0110")
        assert np.array_equal(oracle.evaluate(b), oracle.evaluate(b))

    def test_non_binary_genome_rejected(self):
        tokens = Candidate(id="t0", genome="012", features=np.zeros(3))
        with pytest.raises(OracleError, match="0/1 genomes"):
            BuiltinOracle("zdt1_discrete").evaluate([tokens])

    def test_empty_genome_rejected(self):
        with pytest.raises(OracleError, match="non-empty"):
            BuiltinOracle("linear_tradeoff").evaluate(batch(""))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            BuiltinOracle("branin")

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            BuiltinOracle("linear_tradeoff").evaluate([])


def write_pool(path, rows, n_obj=2):
    header = "id,genome" + "".join(f",obj_{j + 1}" for j in range(n_obj))
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestLookupOracle:
    def test_returns_labels_keyed_by_genome(self, tmp_path):
        pool = tmp_path / "pool.csv"
        write_pool(pool, ["a,00,1.0,4.0", "b,01,2.0,3.0", "c,11,0.5,0.5"])
        oracle = LookupOracle.from_pool_csv(pool)
        assert oracle.m == 2
        # ids on the candidates do not matter, only genomes do
        out = oracle.evaluate([cand("11", 9), cand("00", 5)])
        assert out.tolist() == [[0.5, 0.5], [1.0, 4.0]]
        # one read-only label array; each evaluation returns its own rows
        assert oracle.labels.shape == (3, 2) and not oracle.labels.flags.writeable
        assert out.flags.writeable and not np.shares_memory(out, oracle.labels)

    def test_missing_genome_is_an_error(self, tmp_path):
        pool = tmp_path / "pool.csv"
        write_pool(pool, ["a,00,1.0,4.0"])
        oracle = LookupOracle.from_pool_csv(pool)
        with pytest.raises(OracleError, match="outside the labeled pool"):
            oracle.evaluate([cand("10")])

    def test_unlabeled_pool_rejected(self, tmp_path):
        pool = tmp_path / "pool.csv"
        pool.write_text("id,genome\na,00\nb,01\n")
        with pytest.raises(OracleError, match="no objective labels"):
            LookupOracle.from_pool_csv(pool)

    def test_token_genome_pool(self, tmp_path):
        """Reading a labeled pool never featurizes its genomes."""
        pool = tmp_path / "pool.csv"
        write_pool(pool, ["a,ABCD,1.0,2.0", "b,ABAB,2.0,1.0", "c,ABCD,9.0,9.0"])
        oracle = LookupOracle.from_pool_csv(pool)
        assert oracle.m == 2
        assert list(oracle.row) == ["ABCD", "ABAB"]
        out = oracle.evaluate([Candidate(id="x", genome="ABAB", features=[0.0])])
        assert out.tolist() == [[2.0, 1.0]]
        with pytest.raises(OracleError, match="no objective labels"):
            LookupOracle.from_pool_csv(write_pool(tmp_path / "u.csv", ["a,ABCD"], n_obj=0))

    def test_three_objective_pool(self, tmp_path):
        pool = tmp_path / "pool.csv"
        write_pool(pool, ["a,0,1.0,2.0,3.0"], n_obj=3)
        oracle = LookupOracle.from_pool_csv(pool)
        assert oracle.m == 3
        assert oracle.evaluate([cand("0")]).shape == (1, 3)


def write_script(tmp_path, body: str):
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, str(script)]


ECHO_COUNTS = """\
    import json, sys
    lines = [json.loads(l) for l in sys.stdin if l.strip()]
    for req in reversed(lines):
        ones = req["genome"].count("1")
        n = len(req["genome"])
        obj = [ones / n, (n - ones) / n]
        print(json.dumps({"id": req["id"], "objectives": obj}))
"""


class TestExternalOracle:
    def test_matches_builtin_even_with_reversed_replies(self, tmp_path):
        command = write_script(tmp_path, ECHO_COUNTS)
        oracle = ExternalOracle(command, m=2, timeout=30)
        b = batch("0100", "1110", "0000")
        out = oracle.evaluate(b)
        assert np.array_equal(out, BuiltinOracle("linear_tradeoff").evaluate(b))

    def test_request_lines_carry_id_genome_features(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                assert set(req) == {"id", "genome", "features"}
                assert isinstance(req["features"], list)
                print(json.dumps({"id": req["id"], "objectives": [sum(req["features"]), 0.0]}))
            """,
        )
        out = ExternalOracle(command, m=2, timeout=30).evaluate(batch("1011"))
        assert out[0].tolist() == [3.0, 0.0]

    def test_nonzero_exit_raises_with_output(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import sys
            print("partial line")
            sys.exit(3)
            """,
        )
        with pytest.raises(OracleError, match="status 3") as exc_info:
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01"))
        assert "partial line" in exc_info.value.raw_output

    def test_malformed_json_line_raises(self, tmp_path):
        command = write_script(tmp_path, "print('this is not json')")
        with pytest.raises(OracleError, match="malformed"):
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01"))

    def test_missing_id_raises(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import json, sys
            lines = [json.loads(l) for l in sys.stdin if l.strip()]
            for req in lines[:-1]:
                print(json.dumps({"id": req["id"], "objectives": [0.0, 0.0]}))
            """,
        )
        with pytest.raises(OracleError, match="no result for 'c1'"):
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01", "10"))

    def test_wrong_objective_count_raises(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"], "objectives": [1.0, 2.0, 3.0]}))
            """,
        )
        with pytest.raises(OracleError, match="expected 2"):
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01"))

    def test_duplicate_id_raises(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                for value in (0.0, 1.0):
                    print(json.dumps({"id": req["id"], "objectives": [value, value]}))
            """,
        )
        with pytest.raises(OracleError, match="duplicate id 'c0'"):
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01"))

    def test_unrequested_id_raises(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"], "objectives": [0.0, 0.0]}))
            print(json.dumps({"id": "stranger", "objectives": [0.0, 0.0]}))
            """,
        )
        with pytest.raises(OracleError, match="unrequested id 'stranger'"):
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01"))

    def test_non_finite_objective_raises(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"], "objectives": [float("nan"), 1.0]}))
            """,
        )
        with pytest.raises(OracleError, match="non-finite"):
            ExternalOracle(command, m=2, timeout=30).evaluate(batch("01"))

    def test_timeout_raises(self, tmp_path):
        command = write_script(
            tmp_path,
            """\
            import sys, time
            sys.stdin.read()
            time.sleep(30)
            """,
        )
        with pytest.raises(OracleError, match="timed out"):
            ExternalOracle(command, m=2, timeout=0.5).evaluate(batch("01"))

    def test_unlaunchable_command_raises(self):
        oracle = ExternalOracle(["/no/such/binary-для-оракула"], m=2)
        with pytest.raises(OracleError, match="failed to launch"):
            oracle.evaluate(batch("01"))

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="command is empty"):
            ExternalOracle([], m=2)


class TestMakeOracle:
    def test_builtin_by_name(self):
        oracle = make_oracle("sphere_pair")
        assert isinstance(oracle, BuiltinOracle)
        assert oracle.name == "sphere_pair"

    def test_lookup_prefix(self, tmp_path):
        pool = tmp_path / "pool.csv"
        write_pool(pool, ["a,00,1.0,4.0"])
        oracle = make_oracle(f"lookup:{pool}")
        assert isinstance(oracle, LookupOracle)

    def test_dict_specs(self, tmp_path):
        assert isinstance(make_oracle({"kind": "builtin", "name": "zdt1_discrete"}), BuiltinOracle)
        ext = make_oracle({"kind": "external", "command": "cat -", "m": 2, "timeout": 4})
        assert isinstance(ext, ExternalOracle)
        assert ext.command == ["cat", "-"]
        assert ext.timeout == 4.0

    def test_unknown_string_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            make_oracle("not_a_function")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            make_oracle({"kind": "grpc"})

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError, match="string or dict"):
            make_oracle(42)
