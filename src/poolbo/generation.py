"""Candidate pool construction: static pool loading, a genetic proposer seeded
from the labeled dataset, and known-constraint filtering.

Genomes are strings: fixed-length bitstrings or whitespace-free token
sequences (one character per token). The genetic proposer breeds them as
integer arrays of their symbols' ranks in the sorted alphabet. Feature vectors
come from a registered featurizer, so the rest of the pipeline never inspects
genomes directly.
"""
from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gp import Dataset, GpModel, posterior_mean
from .pareto import build_front, hvi_many, non_dominated_mask
from .seeds import child_rng

ATTEMPT_CAP_FACTOR = 50


class PoolFormatError(ValueError):
    """Raised when a pool CSV cannot be parsed."""


class GenerationStarvedError(RuntimeError):
    """Raised when constraint rejection keeps a pool from reaching its size."""

    def __init__(self, needed: int, produced: int, acceptance_rate: float):
        self.acceptance_rate = acceptance_rate
        super().__init__(
            f"generated {produced} of {needed} candidates before hitting the "
            f"attempt cap (acceptance rate {acceptance_rate:.4f})"
        )


@dataclass(frozen=True)
class Candidate:
    id: str
    genome: str
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))


@dataclass(frozen=True)
class GeneratorConfig:
    pool_size: int
    mutation_rate: float = 0.01
    crossover: str = "uniform"
    elite_fraction: float = 0.1
    parent_selection: str = "uniform"
    random_fraction: float = 0.1
    constraints: tuple = ()
    featurizer: str = "identity"

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        # the type annotation in the design notes says (0,1) but the contract
        # examples exercise both endpoints, so the closed interval is accepted
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.crossover not in ("one_point", "uniform"):
            raise ValueError(f"unknown crossover: {self.crossover}")
        if self.parent_selection not in ("uniform", "surrogate_weighted"):
            raise ValueError(f"unknown parent_selection: {self.parent_selection}")
        if not 0.0 <= self.elite_fraction <= 1.0:
            raise ValueError("elite_fraction must lie in [0, 1]")
        if not 0.0 <= self.random_fraction <= 1.0:
            raise ValueError("random_fraction must lie in [0, 1]")
        if self.elite_fraction + self.random_fraction > 1.0 + 1e-12:
            raise ValueError("elite_fraction + random_fraction must not exceed 1")
        if isinstance(self.constraints, str):
            raise ValueError(f"constraints must be a list of 'name:args' strings, "
                             f"got the string {self.constraints!r}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for text in self.constraints:  # fails here, not at the first pool; kept unparsed to pickle
            parse_predicate(text)
        make_featurizer(self.featurizer)  # a bad name fails here, not at the first pool


# ---------------------------------------------------------------------------
# featurizers

class GenomeError(ValueError):
    """A genome a featurizer cannot encode; `index` is its place in the batch."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _identity_features(genomes) -> np.ndarray:
    length = len(genomes[0]) if len(genomes) else 0
    bits = _code_points("".join(genomes)) - ord("0")
    if set(map(len, genomes)) <= {length} and (bits <= 1).all():
        return bits.reshape(len(genomes), length).astype(float)
    for i, genome in enumerate(genomes):  # the first genome that breaks a rule
        bad = set(genome) - {"0", "1"}
        if bad:
            raise GenomeError(f"identity featurizer needs a 0/1 genome, found {sorted(bad)!r}", i)
        if len(genome) != length:
            raise GenomeError("identity featurizer needs genomes of one length, "
                              f"got {len(genome)} symbols after {length}", i)


def genome_alphabet(genomes) -> str:
    """The symbols k-gram features count over: "01" for bitstrings, else the
    sorted symbols the genomes use."""
    symbols = set("".join(genomes))
    return "01" if symbols <= {"0", "1"} else "".join(sorted(symbols))


def _code_points(text: str) -> np.ndarray:
    """The code point of each symbol of text, whatever its plane."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _decode(symbols: np.ndarray, codes: np.ndarray) -> str:
    """The genome whose i-th symbol is symbols[codes[i]]."""
    return symbols[codes].tobytes().decode("utf-32-le", "surrogatepass")


def bit_strings(block: np.ndarray) -> list:
    """The 0/1 string of each row of an (n, length) 0/1 integer block."""
    n, length = block.shape
    text = _decode(_code_points("01"), block)
    return [text[i * length:(i + 1) * length] for i in range(n)]


def make_featurizer(name: str, alphabet: str = "01"):
    """Resolve "identity" or "kgram:<k>" to a function from a sequence of
    genomes to an (n, d) float matrix; a genome it cannot encode raises
    GenomeError with its index.

    Identity reads the joined genomes' bits at once, so they must share one
    length. kgram:k counts overlapping windows against the alphabet^k
    vocabulary in the lexicographic order of the sorted alphabet, so its
    dimension is fixed for a campaign. Each window of the joined genomes is
    a base-|alphabet| number whose digits are its symbols' ranks; windows
    that cross into the next genome are dropped, and one bincount, offset
    by row, counts the rest."""
    if name == "identity":
        return _identity_features
    if not name.startswith("kgram:"):
        raise ValueError(f"unknown featurizer: {name}")
    try:
        k = int(name.split(":", 1)[1])
    except ValueError:
        k = 0
    if k < 1:
        raise ValueError(f"unknown featurizer: {name} (k must be an integer of at least 1)")
    symbols = np.unique(_code_points(alphabet))
    digits = len(symbols) ** np.arange(k)  # convolve flips them: the first symbol leads
    size = len(symbols) ** k

    def kgram_features(genomes) -> np.ndarray:
        lengths = np.fromiter(map(len, genomes), dtype=np.intp, count=len(genomes))
        starts, owner = np.cumsum(lengths) - lengths, np.repeat(np.arange(len(genomes)), lengths)
        points = _code_points("".join(genomes))
        codes = np.searchsorted(symbols, points)
        # a symbol outside the alphabet counts only in a genome with a window
        outside = (symbols[np.minimum(codes, len(symbols) - 1)] != points) & (lengths >= k)[owner]
        if outside.any():
            at = int(outside.argmax())
            i = int(owner[at])
            start = max(0, at - int(starts[i]) - k + 1)
            raise GenomeError(f"genome symbol outside alphabet {alphabet!r}: "
                              f"{genomes[i][start:start + k]!r}", i)
        windows = np.convolve(codes, digits, "valid") if len(codes) >= k else codes[:0]
        owner = owner[:len(windows)]
        inside = np.arange(len(windows)) + k <= (starts + lengths)[owner]
        counts = np.bincount(owner[inside] * size + windows[inside], minlength=len(genomes) * size)
        return counts.reshape(len(genomes), size).astype(float)

    return kgram_features


# ---------------------------------------------------------------------------
# constraint predicates

PREDICATES = {  # name: (argument types, test of the converted arguments and a genome)
    "bit_equals": ((int, str), lambda pos, symbol, genome: pos < len(genome) and genome[pos] == symbol),
    "min_ones": ((int,), lambda k, genome: genome.count("1") >= k),
    "max_ones": ((int,), lambda k, genome: genome.count("1") <= k),
    "starts_with": ((str,), lambda prefix, genome: genome.startswith(prefix)),
}


def parse_predicate(text: str):
    """Turn "name:arg1:arg2" into a genome predicate from PREDICATES; a
    non-string, an unknown name, a wrong argument count or an argument that
    does not convert raises ValueError naming the constraint."""
    if not isinstance(text, str):
        raise ValueError(f"constraint must be a 'name:args' string, got {text!r}")
    name, *args = text.split(":")
    if name not in PREDICATES:
        raise ValueError(f"unknown constraint predicate {name!r} in {text!r}")
    types, test = PREDICATES[name]
    if len(args) != len(types):
        raise ValueError(f"constraint {text!r} needs {len(types)} argument(s), got {len(args)}")
    try:
        values = [convert(arg) for convert, arg in zip(types, args)]
    except ValueError as exc:
        raise ValueError(f"constraint {text!r}: {exc}") from None
    return partial(test, *values)


# ---------------------------------------------------------------------------
# static pools

def _validate_genome(genome: str, row: int) -> str:
    if not genome:
        raise PoolFormatError(f"row {row}: empty genome")
    if genome.split() != [genome]:
        raise PoolFormatError(f"row {row}: genome contains whitespace")
    return genome


def _check_row(row_num: int, row: list, width: int, seen_ids: set) -> None:
    """Raise PoolFormatError for the first rule a pool row breaks."""
    if len(row) != width:
        raise PoolFormatError(f"row {row_num}: expected {width} fields, got {len(row)}")
    cid = row[0]
    _validate_genome(row[1], row_num)
    try:
        [float(v) for v in row[2:]]
    except ValueError as exc:
        raise PoolFormatError(f"row {row_num}: bad objective value ({exc})") from None
    if not cid or ";" in cid:
        raise PoolFormatError(f"row {row_num}: id {cid!r} must be non-empty and free of ';'")
    if cid in seen_ids:
        raise PoolFormatError(f"row {row_num}: duplicate id {cid!r}")
    seen_ids.add(cid)


PoolColumns = namedtuple("PoolColumns", "rows ids genomes labels")


def read_pool(path) -> PoolColumns:
    """Parse a pool CSV into columns, without featurizing: each kept row's
    number as errors name it, id and genome, and one read-only (n, m) label
    array, (n, 0) for an unlabeled pool.

    Rows with a previously seen genome are dropped (first occurrence wins);
    duplicate ids, ids empty or holding metrics.csv's batch separator ';',
    non-finite objective values and malformed rows are errors naming the
    offending row. Every rule is checked column by column; only a file that
    breaks one is walked row by row, to name its first bad row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PoolFormatError("pool file has no header") from None
        if header[:2] != ["id", "genome"]:
            raise PoolFormatError(f"pool header must start with id,genome, got {header[:2]}")
        n_obj = len(header) - 2
        if any(h != f"obj_{j + 1}" for j, h in enumerate(header[2:])):
            raise PoolFormatError(f"objective columns must be obj_1..obj_{n_obj}, got {header[2:]}")
        records, stopped = [], None
        try:
            records.extend(reader)
        except (csv.Error, ValueError) as exc:  # a bad row before this point is named first
            stopped = exc
    n = len(records)
    ids, genomes, *values = list(zip(*records)) or [()] * len(header)
    text = "".join(genomes)
    labels = None
    if not (stopped or set(map(len, records)) - {len(header)} or not all(genomes) or not all(ids)
            or text.split() != [text][:n] or ";" in "".join(ids) or len(set(ids)) < n):
        try:
            labels = np.array([list(map(float, v)) for v in values]).reshape(n_obj, n).T.copy()
        except ValueError:
            pass
    if labels is None:
        seen_ids: set = set()
        for row_num, row in enumerate(records, start=2):
            _check_row(row_num, row, len(header), seen_ids)
        raise stopped
    finite = np.isfinite(labels).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise PoolFormatError(f"row {k + 2}: objective values must be finite, "
                              f"got {labels[k].tolist()}")
    keep = sorted(dict(zip(reversed(genomes), range(n - 1, -1, -1))).values())  # first rows
    if len(keep) < n:
        ids, genomes = tuple(ids[i] for i in keep), tuple(genomes[i] for i in keep)
        labels = labels[keep]
    labels.flags.writeable = False
    return PoolColumns(tuple(i + 2 for i in keep), ids, genomes, labels)


class Pool(list):
    """Candidates holding read-only row views of one feature matrix, `features`."""

    def __init__(self, ids, genomes, features: np.ndarray):
        features.flags.writeable = False
        super().__init__(Candidate(cid, genome, x) for cid, genome, x in zip(ids, genomes, features))
        self.features = features


def load_pool(path, featurizer: str = "identity") -> Pool:
    """read_pool's rows as featurized candidates."""
    pool = read_pool(path)
    return featurize_rows(pool, featurizer, genome_alphabet(pool.genomes), range(len(pool.ids)))


def featurize_rows(pool: PoolColumns, featurizer: str, alphabet: str, idx) -> Pool:
    """Candidates of read_pool's rows at positions idx, from one featurizer
    call; a genome the featurizer rejects raises PoolFormatError naming its
    row."""
    genomes = [pool.genomes[i] for i in idx]
    try:
        features = make_featurizer(featurizer, alphabet)(genomes)
    except GenomeError as exc:
        raise PoolFormatError(f"row {pool.rows[idx[exc.index]]}: {exc}") from None
    return Pool([pool.ids[i] for i in idx], genomes, features)


# ---------------------------------------------------------------------------
# genetic proposer

def random_genome(rng: np.random.Generator, alphabet: str, length: int) -> str:
    return _decode(_code_points(alphabet), rng.integers(0, len(alphabet), size=length))


def _breed(rng: np.random.Generator, a: np.ndarray, b: np.ndarray, cfg: GeneratorConfig,
           n_symbols: int) -> np.ndarray:
    """A child of the code arrays a and b: crossover, then mutation.

    With both parents at least two symbols long the child is b with some of
    a's codes copied in: one-point crossover copies those before a random
    cut, uniform crossover each one over the common length on a coin flip.
    Otherwise it is a copy of a, drawing nothing. Mutation then moves each
    symbol, with probability mutation_rate, to one of the other n_symbols - 1,
    drawn in turn.
    """
    if len(a) < 2 or len(b) < 2:
        child = a.copy()
    elif cfg.crossover == "one_point":
        child = b.copy()
        point = int(rng.integers(1, min(len(a), len(b))))
        child[:point] = a[:point]
    else:
        child = b.copy()
        cut = min(len(a), len(b))
        np.copyto(child[:cut], a[:cut], where=rng.integers(0, 2, size=cut) == 0)
    if cfg.mutation_rate > 0.0 and n_symbols > 1:
        for i in (rng.random(len(child)) < cfg.mutation_rate).nonzero()[0]:
            other = rng.integers(0, n_symbols - 1)
            child[i] = other + (other >= child[i])
    return child


def _parent_weights(data: Dataset, model: GpModel | None, cfg: GeneratorConfig) -> np.ndarray:
    n = data.n
    if cfg.parent_selection == "uniform" or model is None:
        return np.full(n, 1.0 / n)
    # softmax over standardized posterior-mean improvement; the internal
    # reference sits just under the labeled nadir so every point scores
    post_mean = posterior_mean(model, data.features)
    lo = data.objectives.min(axis=0)
    spread = data.objectives.max(axis=0) - lo
    ref = lo - np.where(spread > 0, 1e-9 * spread, 1.0)
    gains = hvi_many(post_mean, build_front(data.objectives, data.ids, ref))
    std = gains.std()
    z = (gains - gains.mean()) / std if std > 1e-12 else np.zeros(n)
    w = np.exp(z)
    return w / w.sum()


def propose_pool(data: Dataset, model: GpModel | None, cfg: GeneratorConfig, seed: int) -> Pool:
    """Breed a pool of exactly pool_size unique candidates.

    Slots fill in three stages: copies of the dataset's non-dominated
    genomes (elite_fraction), uniform draws from genome space
    (random_fraction), then crossover-and-mutation offspring. Constraint
    predicates apply to all stages with rejection resampling; the attempt
    budget is 50x the pool size.
    """
    if data.n == 0:
        raise ValueError("pool generation needs at least one labeled design")
    if data.genomes is None:
        raise ValueError("dataset must carry genomes to breed from")
    predicates = [parse_predicate(c) for c in cfg.constraints]
    genomes = list(data.genomes)
    alphabet = genome_alphabet(genomes)
    bitstring = alphabet == "01"
    lengths = {len(g) for g in genomes}
    if bitstring and len(lengths) != 1:
        raise ValueError("bitstring genomes must share one length")
    feat = make_featurizer(cfg.featurizer, alphabet)

    n_total = cfg.pool_size
    n_elite = int(cfg.elite_fraction * n_total + 1e-9)
    n_random = int(cfg.random_fraction * n_total + 1e-9)
    cap = ATTEMPT_CAP_FACTOR * n_total
    # genomes breed as arrays of their symbols' ranks in the sorted alphabet
    symbols = _code_points(alphabet)
    parents = [np.searchsorted(symbols, _code_points(g)) for g in genomes]

    pool: list = []  # (id, genome) of each admitted candidate, featurized at the end
    keys: set = set()

    def admit(cid, genome) -> bool:
        if genome in keys or not all(p(genome) for p in predicates):
            return False
        keys.add(genome)
        pool.append((cid, genome))
        return True

    nd = non_dominated_mask(data.objectives)
    for i in np.flatnonzero(nd):
        if len(pool) >= n_elite:
            break
        admit(data.ids[i], genomes[i])
    n_copied = len(pool)

    cdf = None
    attempts = 0
    random_quota = min(n_random, n_total - len(pool))
    random_done = 0
    while len(pool) < n_total and attempts < cap:
        rng = child_rng(seed, attempts)
        attempts += 1
        if random_done < random_quota:
            length = len(genomes[0]) if bitstring else len(genomes[int(rng.integers(0, len(genomes)))])
            if admit(f"gen-{seed:x}-{attempts - 1}", random_genome(rng, alphabet, length)):
                random_done += 1
            continue
        if cdf is None:
            # Generator.choice(n, size=2, p=weights) draws its pair as this
            # normalized cumulative sum searched at two uniforms
            cdf = _parent_weights(data, model, cfg).cumsum()
            cdf /= cdf[-1]
        pa, pb = cdf.searchsorted(rng.random(2), side="right")
        child = _breed(rng, parents[pa], parents[pb], cfg, len(symbols))
        admit(f"gen-{seed:x}-{attempts - 1}", _decode(symbols, child))

    ids, kept = zip(*pool) if pool else ((), ())
    features = feat(kept)  # a genome the featurizer rejects fails before a short pool
    if len(pool) < n_total:
        accepted = len(pool) - n_copied
        raise GenerationStarvedError(n_total, len(pool), accepted / max(attempts, 1))
    return Pool(ids, kept, features)
