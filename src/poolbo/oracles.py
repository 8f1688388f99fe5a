"""Objective oracles: deterministic synthetic functions on bitstring genomes,
table lookups for pre-labeled pools, and an external subprocess protocol.

All oracles share one contract: evaluate a batch of candidates and return one
objective vector per candidate, in request order, noise-free. Every objective
is maximized.
"""
from __future__ import annotations

import json
import math
import shlex
import subprocess

import numpy as np

# load_pool is looked up here by the benchmark tracer (perfbench/spans.py)
from .generation import load_pool, read_pool  # noqa: F401

DEFAULT_TIMEOUT = 300.0


class OracleError(RuntimeError):
    """Evaluation failure; carries raw process output when one exists."""

    def __init__(self, message: str, raw_output: str = ""):
        self.raw_output = raw_output
        super().__init__(message)


def _bits(genome: str, oracle_name: str) -> list:
    if not genome:
        raise OracleError(f"{oracle_name} oracle needs a non-empty genome")
    if set(genome) - {"0", "1"}:
        raise OracleError(f"{oracle_name} oracle needs 0/1 genomes, got {genome!r}")
    return [int(c) for c in genome]


def _binary_fraction(bits) -> float:
    return sum(b * 2.0 ** -(i + 1) for i, b in enumerate(bits))


def _linear_tradeoff(genome: str):
    """Fraction of ones versus fraction of zeros."""
    bits = _bits(genome, "linear_tradeoff")
    ones = sum(bits)
    return (ones / len(bits), (len(bits) - ones) / len(bits))


def _zdt1_discrete(genome: str):
    """Negated ZDT1 with each bit read as one decision variable in {0, 1}."""
    bits = _bits(genome, "zdt1_discrete")
    f1 = float(bits[0])
    rest = bits[1:]
    g = 1.0 + 9.0 * sum(rest) / max(len(rest), 1)
    f2 = g * (1.0 - math.sqrt(f1 / g))
    return (-f1, -f2)


def _sphere_pair(genome: str):
    """Negative squared distances to the corners (1,1) and (0,0).

    The two genome halves decode as binary fractions, giving a point in the
    unit square pulled toward opposite corners by the two objectives.
    """
    bits = _bits(genome, "sphere_pair")
    half = (len(bits) + 1) // 2
    y1 = _binary_fraction(bits[:half])
    y2 = _binary_fraction(bits[half:])
    to_ones = (y1 - 1.0) ** 2 + (y2 - 1.0) ** 2
    to_zeros = y1 ** 2 + y2 ** 2
    return (-to_ones, -to_zeros)


BUILTIN_ORACLES = {
    "linear_tradeoff": _linear_tradeoff,
    "zdt1_discrete": _zdt1_discrete,
    "sphere_pair": _sphere_pair,
}


class BuiltinOracle:
    m = 2

    def __init__(self, name: str):
        if name not in BUILTIN_ORACLES:
            raise ValueError(f"unknown builtin oracle: {name}")
        self.name = name
        self._fn = BUILTIN_ORACLES[name]

    def evaluate(self, candidates) -> np.ndarray:
        if not candidates:
            raise ValueError("oracle batch must be non-empty")
        return np.array([self._fn(c.genome) for c in candidates], dtype=float)


class LookupOracle:
    """Table oracle over a fully labeled pool: one read-only (N, m) label
    array and the row of each genome."""

    def __init__(self, genomes, labels):
        self.labels = np.asarray(labels, dtype=float).view()
        self.labels.flags.writeable = False
        self.row = dict(zip(genomes, range(len(self.labels))))
        self.m = self.labels.shape[1]

    @classmethod
    def from_pool_csv(cls, path) -> "LookupOracle":
        return cls.from_rows(read_pool(path))

    @classmethod
    def from_rows(cls, pool) -> "LookupOracle":
        """Table of read_pool's columns; every row must carry labels."""
        if not pool.ids:
            raise OracleError("labeled pool is empty")
        if not pool.labels.shape[1]:  # the header fixes one objective count for every row
            raise OracleError(f"pool row {pool.ids[0]!r} has no objective labels")
        return cls(pool.genomes, pool.labels)

    def evaluate(self, candidates) -> np.ndarray:
        if not candidates:
            raise ValueError("oracle batch must be non-empty")
        rows = [self.row.get(cand.genome, -1) for cand in candidates]
        if -1 in rows:
            cand = candidates[rows.index(-1)]
            raise OracleError(f"candidate {cand.id!r} is outside the labeled pool")
        return self.labels[rows]


class ExternalOracle:
    """Subprocess oracle speaking newline-delimited JSON.

    One process per batch: requests {"id", "genome", "features"} go to stdin,
    responses {"id", "objectives"} come back on stdout in any order, and the
    process must exit 0. Every requested id must come back exactly once with
    finite objectives; any other id is an error.
    """

    def __init__(self, command, m: int, timeout: float = DEFAULT_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError("external oracle command is empty")
        self.m = int(m)
        self.timeout = float(timeout)

    def evaluate(self, candidates) -> np.ndarray:
        if not candidates:
            raise ValueError("oracle batch must be non-empty")
        payload = "".join(
            json.dumps({
                "id": c.id,
                "genome": c.genome,
                "features": [float(v) for v in c.features],
            }) + "\n"
            for c in candidates
        )
        try:
            proc = subprocess.run(
                self.command, input=payload, capture_output=True,
                text=True, timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise OracleError(
                f"external oracle timed out after {self.timeout:g} s",
                raw_output=str(exc.stdout or ""),
            ) from None
        except OSError as exc:
            raise OracleError(f"failed to launch external oracle: {exc}") from None
        if proc.returncode != 0:
            raise OracleError(
                f"external oracle exited with status {proc.returncode}",
                raw_output=proc.stdout + proc.stderr,
            )
        requested = {c.id for c in candidates}
        responses = {}
        for line in proc.stdout.splitlines():
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                cid = obj["id"]
                values = np.asarray(obj["objectives"], dtype=float)
                known = cid in requested
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise OracleError(
                    f"malformed oracle response line: {line!r}", raw_output=proc.stdout
                ) from None
            if not known:
                raise OracleError(
                    f"external oracle returned unrequested id {cid!r}", raw_output=proc.stdout
                )
            if cid in responses:
                raise OracleError(
                    f"external oracle returned duplicate id {cid!r}", raw_output=proc.stdout
                )
            if not np.all(np.isfinite(values)):
                raise OracleError(
                    f"oracle returned non-finite objectives for {cid!r}", raw_output=proc.stdout
                )
            responses[cid] = values
        out = np.empty((len(candidates), self.m))
        for i, cand in enumerate(candidates):
            if cand.id not in responses:
                raise OracleError(
                    f"external oracle returned no result for {cand.id!r}",
                    raw_output=proc.stdout,
                )
            values = responses[cand.id]
            if values.shape != (self.m,):
                raise OracleError(
                    f"oracle returned {values.size} objectives for {cand.id!r}, expected {self.m}",
                    raw_output=proc.stdout,
                )
            out[i] = values
        return out


def make_oracle(spec):
    """Build an oracle from a config value.

    Strings name builtins or use "lookup:<pool.csv>"; dicts give
    {"kind": "builtin"|"lookup"|"external", ...}.
    """
    if isinstance(spec, str):
        if spec in BUILTIN_ORACLES:
            return BuiltinOracle(spec)
        if spec.startswith("lookup:"):
            return LookupOracle.from_pool_csv(spec.split(":", 1)[1])
        raise ValueError(f"unknown oracle: {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "builtin":
            return BuiltinOracle(spec["name"])
        if kind == "lookup":
            return LookupOracle.from_pool_csv(spec["path"])
        if kind == "external":
            return ExternalOracle(
                spec["command"], spec["m"], spec.get("timeout", DEFAULT_TIMEOUT)
            )
        raise ValueError(f"unknown oracle kind: {kind!r}")
    raise ValueError(f"oracle spec must be a string or dict, got {type(spec).__name__}")
