"""Batch optimization loop: fit the surrogate, build a candidate pool, pick a
batch, query the oracle, update the front, and log progress.

The loop is deterministic given its config: every random draw uses a seed
derived from (config seed, iteration, stage), so a run can be replayed or
resumed from a checkpoint byte-for-byte.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .acquisition import (
    AcquisitionResult,
    estimate_qpmhi,
    estimate_qpo,
    qehvi_mc,
    random_select,
    select_batch,
    thompson_hvi,
)
from .files import atomic_write
from .generation import (
    GeneratorConfig,
    Pool,
    bit_strings,
    featurize_rows,
    genome_alphabet,
    load_pool,
    make_featurizer,
    propose_pool,
    read_pool,
)
from .gp import Dataset, GpConfig, KeptCovariance, fit, pool_posterior
from .oracles import make_oracle
from .pareto import (
    MAX_HV_DIM,
    MetricRecord,
    ParetoFront,
    build_front,
    fraction_recovered,
    front_from_dict,
    front_to_dict,
    relative_hvi,
    save_front,
    strictly_dominated_mask,
    update_front,
    write_metrics_csv,
)
from .seeds import child_rng, derive_seed

logger = logging.getLogger("poolbo.campaign")

ACQUISITIONS = ("qpmhi", "qehvi_mc", "thompson", "random", "qpo")
REF_RULES = ("nadir_of_initial", "explicit", "nadir_minus_epsilon")
CHECKPOINT_FORMAT = "poolbo-checkpoint-v1"

# seed-tree stage tags: iteration seed -> (generation, acquisition); stage 0
# is reserved for initial-data sampling
_STAGE_GENERATION = 1
_STAGE_ACQUISITION = 2


class DegenerateDataError(ValueError):
    """Initial data cannot support a surrogate or a front."""


class CampaignError(RuntimeError):
    """A campaign iteration failed; earlier checkpoints stay on disk."""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a run needs except the initial labeled data.

    Exactly one of `generator` (breed fresh pools each iteration) and
    `pool_path` (one fixed candidate file) must be set; `featurizer` applies
    to the fixed file, a generator names its own. `oracle` follows
    make_oracle's spec format and may be omitted when an oracle object is
    passed to run() directly.
    """

    iterations: int
    batch_size: int
    mc_samples: int = 256
    n_objectives: int = 2
    acquisition: str = "qpmhi"
    ref_rule: str = "nadir_minus_epsilon"
    ref_point: tuple | None = None
    ref_epsilon: float = 1e-6
    generator: GeneratorConfig | None = None
    pool_path: str | None = None
    featurizer: str = "identity"
    oracle: str | dict | None = None
    init: dict | None = None
    seed: int = 0
    gp: GpConfig = field(default_factory=GpConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")
        if not 1 <= self.n_objectives <= MAX_HV_DIM:
            raise ValueError(f"n_objectives must lie in 1..{MAX_HV_DIM} for exact hypervolume")
        if self.acquisition not in ACQUISITIONS:
            raise ValueError(f"unknown acquisition: {self.acquisition!r}")
        if self.acquisition == "qpo" and self.n_objectives != 1:
            raise ValueError("qpo is single-objective; set n_objectives=1")
        if self.ref_rule not in REF_RULES:
            raise ValueError(f"unknown ref_rule: {self.ref_rule!r}")
        if self.ref_rule == "explicit":
            if self.ref_point is None:
                raise ValueError("ref_rule 'explicit' needs a ref_point")
            if len(self.ref_point) != self.n_objectives:
                raise ValueError("ref_point length must match n_objectives")
            object.__setattr__(self, "ref_point", tuple(float(v) for v in self.ref_point))
        elif self.ref_point is not None:
            raise ValueError("ref_point is only used with ref_rule 'explicit'")
        if self.ref_epsilon <= 0:
            raise ValueError("ref_epsilon must be positive")
        if not isinstance(self.gp, GpConfig):
            raise ValueError(f"gp must be a GpConfig, got {type(self.gp).__name__}")
        if not isinstance(self.generator, (GeneratorConfig, type(None))):
            raise ValueError("generator must be a GeneratorConfig, "
                             f"got {type(self.generator).__name__}")
        if (self.generator is None) == (self.pool_path is None):
            raise ValueError("set exactly one of generator and pool_path")
        make_featurizer(self.featurizer)  # a bad name fails here, not at the first design
        if self.generator is not None and self.featurizer != "identity":
            raise ValueError("featurizer is for pool_path campaigns; set generator.featurizer")
        if self.generator is not None and self.batch_size > self.generator.pool_size:
            raise ValueError("batch_size cannot exceed the generated pool size")
        if self.init is not None and not isinstance(self.init, dict):
            raise ValueError("init must be a mapping")
        if self.oracle is not None and not isinstance(self.oracle, (str, dict)):
            raise ValueError("oracle spec must be a string or dict")
        if self.seed < 0:  # derive_seed's rule, checked before any design is labeled
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def pool_featurizer(self) -> str:
        """The featurizer name of every pool and labeled design in the campaign."""
        return self.featurizer if self.generator is None else self.generator.featurizer

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignConfig":
        return config_from_mapping(cls, payload, "campaign config", "config")


def config_from_mapping(cls, payload, noun: str, label: str):
    """cls built from a JSON mapping, with its `gp` and `generator` mappings
    built into their configs and a null `gp` read as the default. A
    non-mapping, an unknown field or a bad argument raises ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"{noun} must be a mapping")
    unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {label} field(s): {sorted(unknown)}")
    work = dict(payload)
    if work.get("gp") is None:
        work["gp"] = GpConfig()
    try:
        for name, build in (("gp", GpConfig), ("generator", GeneratorConfig)):
            if work.get(name) is not None and not isinstance(work[name], build):
                work[name] = build(**work[name])
        return cls(**work)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def config_hash(cfg: CampaignConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class CampaignState:
    dataset: Dataset
    front: ParetoFront
    iteration: int
    hv_initial: float
    history: list


def resolve_ref_point(objectives: np.ndarray, cfg: CampaignConfig) -> np.ndarray:
    if cfg.ref_rule == "explicit":
        return np.asarray(cfg.ref_point, dtype=float)
    return nadir_ref_point(objectives, cfg.ref_rule, cfg.ref_epsilon)


def nadir_ref_point(objectives: np.ndarray, rule: str, epsilon: float) -> np.ndarray:
    """The objectives' column minima under 'nadir_of_initial'; under
    'nadir_minus_epsilon', those minima pushed out by epsilon times each span."""
    lo = objectives.min(axis=0)
    if rule == "nadir_of_initial":
        return lo
    span = objectives.max(axis=0) - lo
    # a flat objective still needs ref strictly below it, so fall back to an
    # absolute offset when the span is zero
    return lo - np.where(span > 0, epsilon * span, epsilon)


def init_campaign(cfg: CampaignConfig, initial: Dataset) -> CampaignState:
    """Validate the starting data and build iteration-zero state."""
    if initial.n < 2:
        raise DegenerateDataError("need at least two labeled designs to start")
    if initial.m != cfg.n_objectives:
        raise ValueError(
            f"initial data has {initial.m} objectives, config says {cfg.n_objectives}"
        )
    if initial.genomes is None:
        raise ValueError("initial dataset must carry genomes for duplicate tracking")
    if bool(np.all(initial.objectives == initial.objectives[0])):
        raise DegenerateDataError("all initial designs share one objective vector")
    ref = resolve_ref_point(initial.objectives, cfg)
    excluded = int(np.sum(np.any(initial.objectives <= ref, axis=1)))
    if excluded:
        logger.warning(
            "%d initial design(s) do not strictly dominate the reference point "
            "and are left off the front", excluded,
        )
    front = build_front(initial.objectives, initial.ids, ref)
    return CampaignState(
        dataset=initial,
        front=front,
        iteration=0,
        hv_initial=front.hypervolume(),
        history=[],
    )


def resolve_oracle(cfg: CampaignConfig, oracle=None):
    """`oracle` when given, else the one cfg.oracle names."""
    if oracle is not None:
        return oracle
    if cfg.oracle is None:
        raise ValueError("no oracle: config.oracle is empty and none was passed")
    return make_oracle(cfg.oracle)


def build_initial_data(cfg: CampaignConfig, oracle=None) -> Dataset:
    """Assemble the starting dataset described by cfg.init and label it.

    Three forms: {"genomes": [...]} uses the given designs, {"random":
    {"count": k, "length": B}} draws distinct random bitstrings, and
    {"pool_sample": k} samples rows of the static pool. Only the initial
    designs are featurized; a static pool is read once.
    """
    if not cfg.init:
        raise ValueError("config has no init section and no dataset was supplied")
    oracle = resolve_oracle(cfg, oracle)
    spec = cfg.init
    genomes = None
    if "genomes" in spec:
        genomes = [str(g) for g in spec["genomes"]]
        if len(set(genomes)) != len(genomes):
            raise ValueError("init genomes must be distinct")
    elif "random" in spec:
        count = int(spec["random"]["count"])
        length = int(spec["random"]["length"])
        # distinct genomes in draw order, drawn a block of the shortfall at a
        # time: the stream of one draw per attempt, within 1000 attempts each
        rng, drawn, budget = child_rng(cfg.seed, 0), {}, 1000 * count
        while len(drawn) < count <= len(drawn) + budget:
            block = count - len(drawn)
            budget -= block
            drawn.update(dict.fromkeys(bit_strings(rng.integers(0, 2, size=(block, length)))))
        if len(drawn) < count:
            raise ValueError("could not draw enough distinct init genomes")
        genomes = list(drawn)
    elif "pool_sample" not in spec:
        raise ValueError("init must contain one of: genomes, random, pool_sample")
    elif cfg.pool_path is None:
        raise ValueError("init pool_sample needs a pool_path")
    pool = None if cfg.pool_path is None else read_pool(cfg.pool_path)
    # a static pool's own symbols fix the alphabet, as in load_pool
    alphabet = genome_alphabet(genomes if pool is None else pool.genomes)
    if genomes is None:
        count = int(spec["pool_sample"])
        if count > len(pool.ids):
            raise ValueError(f"init pool_sample {count} exceeds pool size {len(pool.ids)}")
        rng = child_rng(cfg.seed, 0)
        idx = sorted(rng.choice(len(pool.ids), size=count, replace=False).tolist())
        cands = featurize_rows(pool, cfg.pool_featurizer, alphabet, idx)
    else:
        features = make_featurizer(cfg.pool_featurizer, alphabet)(genomes)
        cands = Pool([f"init-{i}" for i in range(len(genomes))], genomes, features)
    values = np.asarray(oracle.evaluate(cands), dtype=float)
    return Dataset(
        ids=tuple(c.id for c in cands),
        features=np.stack([c.features for c in cands]),
        objectives=values,
        genomes=tuple(c.genome for c in cands),
    )


def _pool_scores(state: CampaignState, cfg: CampaignConfig, post,
                 seed: int) -> AcquisitionResult:
    """qpmhi or qpo scores of every pool row, estimated over the open rows
    (post.stochastic_idx) alone.

    Every other row is labeled and sits at its observation, which the front
    (for qpo, the best observation) already covers, so its improvement is
    exactly 0 in every draw: it never wins, and its membership and mean
    improvement are those of L identical draws. The open rows' draws do not
    depend on the other rows, and stochastic_idx is ascending, so every
    score is bitwise the whole pool's.
    """
    open_idx = post.stochastic_idx
    view = dataclasses.replace(post, mean=post.mean[open_idx], stochastic_idx=None)
    known = np.ones(post.n, dtype=bool)
    known[open_idx] = False
    y = post.mean[known]
    if cfg.acquisition == "qpmhi":
        scored = estimate_qpmhi(view, state.front, cfg.mc_samples, seed)
        filled = (1.0 - strictly_dominated_mask(y, state.front), 0.0)
    else:
        best = float(state.dataset.objectives[:, 0].max())
        scored = estimate_qpo(view, best, cfg.mc_samples, seed)
        filled = (y[:, 0] >= best, np.maximum(0.0, y[:, 0] - best))
    scores = []
    for open_values, known_values in zip(
            (scored.probs, scored.pareto_membership, scored.mean_hvi), (0.0,) + filled):
        full = np.empty(post.n)
        full[open_idx], full[known] = open_values, known_values
        scores.append(full)
    return AcquisitionResult(*scores, scored.improving_fraction, scored.n_samples, scored.seed)


def _labeled(data: Dataset, pool: list) -> tuple:
    """(indices into `pool` of the rows whose genome `data` labels, their objectives)."""
    labeled_row = {g: i for i, g in enumerate(data.genomes)}
    known_idx = [i for i, c in enumerate(pool) if c.genome in labeled_row]
    return known_idx, data.objectives[[labeled_row[pool[i].genome] for i in known_idx]]


def select_next(state: CampaignState, cfg: CampaignConfig, pool: Pool, model=None,
                kept: KeptCovariance | None = None) -> list:
    """Indices into `pool` of the batch that iteration state.iteration + 1 queries.

    Pool rows whose genome is already labeled are pinned at their observed
    objectives, and qpmhi and qpo estimate only the other rows (see
    _pool_scores). The surrogate is fitted on state.dataset unless `model`,
    a fit of that same dataset, is given. The posterior is over the pool's
    one feature matrix, `pool.features`; `kept`, a static pool's
    KeptCovariance (see kept_covariance), supplies the arrays it conditions,
    and without it the posterior is built fresh.
    """
    acq_seed = derive_seed(derive_seed(cfg.seed, state.iteration + 1), _STAGE_ACQUISITION)
    q = cfg.batch_size
    if cfg.acquisition == "random":
        return random_select(len(pool), q, acq_seed)
    if model is None:
        model = fit(state.dataset, cfg.gp)
    post = pool_posterior(model, pool.features, *_labeled(state.dataset, pool), kept)
    if cfg.acquisition in ("qpmhi", "qpo"):
        return select_batch(_pool_scores(state, cfg, post, acq_seed), q)
    if cfg.acquisition == "qehvi_mc":
        return qehvi_mc(post, state.front, q, cfg.mc_samples, acq_seed)
    if cfg.acquisition == "thompson":
        return thompson_hvi(post, state.front, q, acq_seed)
    raise ValueError(f"unknown acquisition: {cfg.acquisition!r}")


def kept_covariance(state: CampaignState, cfg: CampaignConfig, pool) -> KeptCovariance:
    """The KeptCovariance that run() holds for the static `pool` (a Pool)
    after state.iteration iterations, replayed from state: cfg.init's count
    of initial designs, then per recorded iteration a refit of the designs
    labeled before it and its covariance step (KeptCovariance.condition),
    conditioned or rebuilt as run() did, with no mean or factor. A dataset
    that is not those designs plus the recorded batches' new rows of `pool`
    (one built otherwise, another pool file) replays nothing, and the next
    posterior is built fresh."""
    kept, data, init = KeptCovariance(pool.features), state.dataset, cfg.init or {}
    n = (len(init["genomes"]) if "genomes" in init else int(init["random"]["count"])
         if "random" in init else int(init.get("pool_sample", -1)))
    genome_of, labeled, counts = {c.id: c.genome for c in pool}, set(data.genomes[:n]), []
    for record in state.history:
        new = [g for g in map(genome_of.get, record.batch_ids) if g not in labeled]
        if n < 0 or None in new or list(data.genomes[n:n + len(new)]) != new:
            return kept
        counts.append(n)
        labeled.update(new)
        n += len(new)
    if n != data.n or cfg.acquisition == "random":
        return kept
    for n in counts:
        prefix = Dataset(data.ids[:n], data.features[:n], data.objectives[:n],
                         data.feature_kind, data.genomes[:n])
        kept.condition(fit(prefix, cfg.gp), _labeled(prefix, pool)[0])
    return kept


def run(state: CampaignState, cfg: CampaignConfig, *, oracle=None, metrics_path=None,
        front_path=None, checkpoint_path=None, true_front_ids=None) -> CampaignState:
    """Advance the campaign from state.iteration to cfg.iterations.

    Artifacts, when paths are given, are rewritten after every iteration so
    an interrupted run resumes from the last completed iteration. Candidates
    whose genome is already labeled consume their batch slot but are never
    re-queried.
    """
    oracle = resolve_oracle(cfg, oracle)
    static_pool = kept = None
    if cfg.pool_path is not None:
        static_pool = load_pool(cfg.pool_path, cfg.featurizer)
        if cfg.batch_size > len(static_pool):
            raise ValueError(
                f"batch_size {cfg.batch_size} exceeds pool size {len(static_pool)}"
            )
        kept = kept_covariance(state, cfg, static_pool)
    true_ids = None if true_front_ids is None else set(true_front_ids)
    labeled = set(state.dataset.genomes)
    breeds_on_surrogate = (
        cfg.generator is not None and cfg.generator.parent_selection == "surrogate_weighted"
    )
    for t in range(state.iteration + 1, cfg.iterations + 1):
        it_seed = derive_seed(cfg.seed, t)
        model = fit(state.dataset, cfg.gp) if breeds_on_surrogate else None
        if static_pool is not None:
            pool = static_pool
        else:
            pool = propose_pool(
                state.dataset, model, cfg.generator, derive_seed(it_seed, _STAGE_GENERATION)
            )
        batch = [pool[i] for i in select_next(state, cfg, pool, model, kept)]
        new = [c for c in batch if c.genome not in labeled]
        if len(new) < len(batch):
            logger.info(
                "iteration %d: %d of %d selected designs already labeled, skipping re-query",
                t, len(batch) - len(new), len(batch),
            )
        if new:
            try:
                values = np.asarray(oracle.evaluate(new), dtype=float)
            except Exception as exc:
                raise CampaignError(f"iteration {t}: oracle evaluation failed: {exc}") from exc
            if values.shape != (len(new), cfg.n_objectives):
                raise CampaignError(
                    f"iteration {t}: oracle returned shape {values.shape}, "
                    f"expected {(len(new), cfg.n_objectives)}"
                )
            if not np.all(np.isfinite(values)):
                raise CampaignError(f"iteration {t}: oracle returned non-finite objectives")
            state.dataset = state.dataset.append(
                ids=[c.id for c in new],
                features=np.stack([c.features for c in new]),
                objectives=values,
                genomes=[c.genome for c in new],
            )
            for cand, y in zip(new, values):
                state.front = update_front(state.front, y, cand.id)
            labeled.update(c.genome for c in new)
        hv = state.front.hypervolume()
        record = MetricRecord(
            iteration=t,
            hv=hv,
            relative_hvi=relative_hvi(hv, state.hv_initial) if state.hv_initial > 0 else None,
            fraction_recovered=(
                fraction_recovered(state.dataset.ids, true_ids) if true_ids else None
            ),
            batch_ids=tuple(c.id for c in batch),
        )
        state.history.append(record)
        state.iteration = t
        if metrics_path is not None:
            write_metrics_csv(metrics_path, state.history)
        if front_path is not None:
            save_front(state.front, front_path)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state, cfg)
    return state


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, state: CampaignState, cfg: CampaignConfig) -> None:
    """Write the full campaign state, atomically replacing any earlier file."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "iteration": state.iteration,
        "hv_initial": state.hv_initial,
        "dataset": {
            "ids": list(state.dataset.ids),
            "genomes": None if state.dataset.genomes is None else list(state.dataset.genomes),
            "feature_kind": state.dataset.feature_kind,
            "features": state.dataset.features.tolist(),
            "objectives": state.dataset.objectives.tolist(),
        },
        "front": front_to_dict(state.front),
        "history": [dataclasses.asdict(rec) for rec in state.history],
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload))  # one-shot: the C encoder, same bytes as json.dump


def _record(cls, mapping):
    """cls(**mapping), for a checkpoint mapping that holds exactly cls's
    fields; any other mapping, or a field value of the wrong type, raises
    ValueError naming cls."""
    names = sorted(f.name for f in dataclasses.fields(cls))
    if not isinstance(mapping, dict) or sorted(mapping) != names:
        raise ValueError(f"checkpoint {cls.__name__} record must hold exactly {names}")
    try:
        return cls(**mapping)
    except TypeError as exc:
        raise ValueError(f"checkpoint {cls.__name__} record: {exc}") from None


def load_checkpoint(path) -> tuple:
    """Rebuild (state, config) from a checkpoint file; a malformed one raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a campaign checkpoint: {path}")
    try:
        cfg = CampaignConfig.from_dict(payload["config"])
        if config_hash(cfg) != payload["config_hash"]:
            raise ValueError("checkpoint config hash mismatch; file may be corrupted")
        history = [_record(MetricRecord, rec) for rec in payload["history"]]
        iteration, hv_initial = payload["iteration"], payload["hv_initial"]
        if type(iteration) is not int or iteration != len(history):  # run() writes one per iteration
            raise ValueError(f"malformed checkpoint {path}: 'iteration' must be the integer "
                             f"{len(history)}, one per history record, got {iteration!r}")
        if type(hv_initial) not in (int, float) or not 0 <= hv_initial < np.inf:
            raise ValueError(f"malformed checkpoint {path}: 'hv_initial' must be a finite, "
                             f"non-negative number, got {hv_initial!r}")
        state = CampaignState(
            dataset=_record(Dataset, payload["dataset"]),
            front=front_from_dict(payload["front"]),
            iteration=iteration,
            hv_initial=float(hv_initial),
            history=history,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc!r}") from None
    return state, cfg
