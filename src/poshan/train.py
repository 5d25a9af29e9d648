"""Training loop, optimizer, configuration, and checkpointing.

Everything here is deterministic: given the same config, data, and seed,
two runs produce bit-identical parameter values, log lines, and
checkpoint bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .attention import PaddedRecord, pad_record
from .baselines import LstmConcatModel, PosAtModel
from .embeddings import (
    PATTERN_DIM,
    UNK_PATTERN,
    WORD_MODES,
    PatternEmbeddingTable,
    WordEmbeddingTable,
    build_vocab,
    pattern_label_counts,
)
from .encoder import CELL_LSTM_BI, CELLS
from .grad import (
    NonFiniteError,
    Parameter,
    backward,
    no_grad,
    softmax_cross_entropy_with_logits,
    softmax_probs,
    zero_gradients,
)
from .metrics import EvalReport, build_report, evaluate_model
from .model import PoshanModel
from .text import (
    RESERVED_TOKENS,
    DataError,
    DatasetRecord,
    check_kept,
    label_index,
    replicate_for_training,
)

MODEL_POSHAN = "poshan"
MODEL_LSTM = "lstm"
MODEL_POSAT = "posat"
# each model kind's class; every class is built as (config, word_table, pattern_table, seed)
MODELS = {MODEL_POSHAN: PoshanModel, MODEL_LSTM: LstmConcatModel, MODEL_POSAT: PosAtModel}
MODEL_KINDS = tuple(MODELS)

# Minimum drop in validation loss that counts as progress for early stopping.
IMPROVEMENT_THRESHOLD = 1e-4

CHECKPOINT_MAGIC = b"POSHAN-CKPT-1\n"

SPLIT_FRACTIONS = (0.7, 0.1, 0.2)

# Largest layer size a config may set.  With it every parameter array's
# byte count fits numpy's index type, so building a model can fail only
# with MemoryError.
MAX_SIZE = 2**20
_SIZES = frozenset({"word_dim", "hidden_size", "pattern_dim", "attention_size"})


@dataclass
class TrainConfig:
    """Hyperparameters and architecture switches for one training run.

    Field names map one-to-one onto kebab-case keys in config files,
    e.g. ``learning_rate`` is written as ``learning-rate``.
    """

    learning_rate: float = 0.003
    batch_size: int = 128
    grad_clip: float = 6.0
    max_epochs: int = 50
    early_stop_patience: int = 5
    max_words_per_sentence: int = 45
    max_sentences: int = 35
    word_dim: int = 64
    hidden_size: int = 16
    attention_size: Optional[int] = None
    pattern_dim: int = PATTERN_DIM
    min_count: int = 1
    seed: int = 0
    cell: str = CELL_LSTM_BI
    disable_pattern_att: bool = False
    disable_phrase_att: bool = False
    replace_headline_att: bool = False

    def validate(self) -> None:
        """Raise ValueError naming the first field, in declaration order,
        whose value is out of range, then a bad cell or flag set."""
        for name, kind in _KINDS.items():
            value, key = getattr(self, name), _kebab(name)
            if kind is float and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be positive and finite, got {value}")
            if kind not in (int, Optional[int]) or value is None:  # None: the encoder's width
                continue
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
            if name in _SIZES and value > MAX_SIZE:
                raise ValueError(f"{key} must be at most {MAX_SIZE}, got {value}")
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}; expected one of {CELLS}")
        if self.disable_pattern_att and self.disable_phrase_att and self.replace_headline_att:
            raise ValueError("the three attention flags leave no attention query type")


# each field's annotation, resolved once
_KINDS = get_type_hints(TrainConfig)


def _kebab(name: str) -> str:
    """A field name as a config or checkpoint header key."""
    return name.replace("_", "-")


def _parse_value(name: str, raw: str, where: str):
    """Convert one config-file value string to the field's annotated type;
    ``where`` is ``path:line`` for the error message."""
    kind = _KINDS[name]
    text = raw.strip()
    try:
        if kind is float:
            return float(text)
        if kind is str:
            return text
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise ValueError(text)
        if kind == Optional[int] and text.lower() == "none":
            return None
        return int(text)
    except ValueError:
        raise DataError(f"{where}: bad value {text!r} for key {_kebab(name)!r}") from None


def parse_config(path: str | Path) -> TrainConfig:
    """Read a flat ``key=value`` config file into a TrainConfig.

    Keys are kebab-case field names; blank lines and ``#`` comments are
    ignored.  Unknown keys and unparsable values raise DataError naming
    ``path:line``, values ``TrainConfig.validate`` rejects naming the path.
    """
    names = {_kebab(name): name for name in _KINDS}
    overrides: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        where = f"{path}:{line_no}"
        if "=" not in text:
            raise DataError(f"{where}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in names:
            raise DataError(f"{where}: unknown key {key!r}")
        overrides[names[key]] = _parse_value(names[key], raw, where)
    config = TrainConfig(**overrides)
    try:
        config.validate()
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# Model construction


def build_tables(
    records: Sequence[DatasetRecord], config: TrainConfig
) -> tuple[WordEmbeddingTable, PatternEmbeddingTable]:
    """Build word and pattern tables from the training split only."""
    word_table = build_vocab(records, config.min_count, config.word_dim, config.seed)
    return word_table, PatternEmbeddingTable.build(records, config.pattern_dim, config.seed)


def build_model(
    kind: str,
    config: TrainConfig,
    word_table: WordEmbeddingTable,
    pattern_table: Optional[PatternEmbeddingTable],
    draw: bool = True,
):
    """The ``kind`` model, ``MODELS[kind]``, which reads its sizes, cell,
    flags and seed from ``config``; the baselines take no pattern table,
    so theirs may be None.  With ``draw`` false no initial value is drawn:
    each parameter other than the tables holds a placeholder until its
    data is set (``grad.ParameterList``)."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return MODELS[kind](config, word_table, pattern_table, config.seed if draw else None)


# ---------------------------------------------------------------------------
# Batching


def make_batches(
    units: Sequence[PaddedRecord],
    batch_size: int,
    seed: int,
) -> list[list[PaddedRecord]]:
    """Shuffle padded units by a seeded permutation, then group them into
    batches.  The final batch may be short: 300 units at batch size 128
    yield batches of 128, 128, and 44.
    """
    units = [units[int(i)] for i in np.random.default_rng(seed).permutation(len(units))]
    return [units[i : i + batch_size] for i in range(0, len(units), batch_size)]


# ---------------------------------------------------------------------------
# Optimization


def _sum_of_squares(params: Sequence[Parameter], rows: Sequence) -> float:
    """The sum of each parameter's squared gradient over its ``rows``,
    added up in parameter order."""
    total = 0.0
    for p, r in zip(params, rows):
        total += float(np.sum(p.grad[r] ** 2))
    return total


# A computed sum of n non-negative terms lies within n * 2**-53 of the
# exact sum, relative, in any order: under 1.2e-7 below 2**30 terms.  A
# sum over the rows that can have a gradient and a sum over every entry
# add the same nonzero terms, so they lie within 2.4e-7 of each other, and
# a norm below threshold * (1 - 1e-6) over those rows leaves the norm over
# every entry below threshold.
_CLIP_MARGIN = 1.0 - 1e-6


def clip_global_norm(params: Sequence[Parameter], threshold: float) -> float:
    """Scale the parameters' gradients in place so their joint L2 norm is
    at most threshold, and return the norm before clipping.

    The norm is taken over every entry of every gradient together, in
    parameter order; when it exceeds the threshold each gradient is
    multiplied by threshold / norm, e.g. gradients (8, 6) with threshold 6
    become (4.8, 3.6).  A NaN or infinite norm raises NonFiniteError
    naming the parameters with non-finite gradients.

    The norm is first summed over the rows that can have a gradient
    (``grad.Parameter.rows``), so a step costs the rows a batch touched,
    not the vocabulary size.  Below ``threshold * _CLIP_MARGIN`` the clip
    cannot fire and that norm is returned; it may differ from a sum over
    every entry in the last place.  Otherwise the norm is summed again over
    every entry, so a clipped step scales by exactly the dense norm.
    """
    rows = [p.rows() for p in params]
    norm = math.sqrt(_sum_of_squares(params, rows))
    if norm < threshold * _CLIP_MARGIN:  # a NaN norm goes on to the check below
        return norm
    norm = math.sqrt(_sum_of_squares(params, [...] * len(params)))
    if not math.isfinite(norm):
        bad = [p.name for p in params if not np.all(np.isfinite(p.grad))]
        raise NonFiniteError(f"non-finite gradient norm {norm}; non-finite gradients: {bad}")
    if norm > threshold:
        scale = threshold / norm
        for p, r in zip(params, rows):
            p.grad[r] *= scale
    return norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Adam with bias correction over the parameters it is given, in place,
    with the decay rates ``ADAM_BETA1``, ``ADAM_BETA2`` and the guard
    ``ADAM_EPSILON``.

    Each parameter is updated in the rows that can have a gradient
    (``grad.Parameter.rows``): every row of a dense parameter, through
    views, and an embedding table's active rows, the rows that have had a
    gradient.  That is exact: a row that never had a gradient has
    m = v = 0, so its update is exactly 0 and ``p - 0.0 == p``.
    """

    def __init__(self, params: Sequence[Parameter], learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.t = 0
        # np.zeros, unlike zeros_like, leaves pages unwritten until a row is
        # first updated, so a table's never-active rows cost no memory
        self._m = [np.zeros(p.shape) for p in self.params]
        self._v = [np.zeros(p.shape) for p in self.params]

    def step(self) -> None:
        self.t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            rows = p.rows()
            data, g, m_rows, v_rows = p.data[rows], p.grad[rows], m[rows], v[rows]
            self._update(data, g, m_rows, v_rows)
            # for rows ``...`` the slices are views, and numpy skips
            # assigning a view to the array it views
            p.data[rows], m[rows], v[rows] = data, m_rows, v_rows

    def _update(self, data, g, m, v) -> None:
        """One step on arrays, in place, in the operation order of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``data - lr*m_hat / (sqrt(v_hat) + eps)``."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        s, r = np.empty_like(g), np.empty_like(g)
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1.0 - b2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        np.divide(m, 1.0 - b1**self.t, out=s)
        np.multiply(s, self.learning_rate, out=s)
        np.divide(v, 1.0 - b2**self.t, out=r)
        np.sqrt(r, out=r)
        np.add(r, ADAM_EPSILON, out=r)
        np.divide(s, r, out=s)
        np.subtract(data, s, out=data)


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    """Everything needed to rebuild a trained model exactly.

    ``patterns`` and ``pattern_label_counts`` are None for the baseline
    models, which have no pattern table.
    """

    model_kind: str
    config: TrainConfig
    vocab: dict[str, int]
    word_mode: str
    patterns: Optional[dict[str, int]]
    pattern_label_counts: Optional[dict[str, list[int]]]
    params: dict[str, np.ndarray]
    best_epoch: int
    val_losses: list[float] = field(default_factory=list)


def _param_list(params: dict) -> list[dict]:
    """The header's parameter list: each array's name and shape, in name
    order, the order of the parameter data."""
    return [{"name": name, "shape": list(params[name].shape)} for name in sorted(params)]


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint in a deterministic binary format.

    Layout: magic line, a little-endian uint32 header length, a JSON
    header with sorted keys, then each parameter's float64 bytes in
    header order.  Identical checkpoints produce identical files.
    """
    header = {_kebab(f.name): getattr(checkpoint, f.name) for f in dataclasses.fields(Checkpoint)}
    header.update({
        "config": dataclasses.asdict(checkpoint.config),
        "val-losses": [repr(v) for v in checkpoint.val_losses],
        "params": _param_list(checkpoint.params),
    })
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name in sorted(checkpoint.params):
            # the array's own buffer, unless it is not little-endian float64 in C order
            fh.write(np.ascontiguousarray(checkpoint.params[name], dtype="<f8"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _has_type(value, kind) -> bool:
    """Whether a JSON value fits a TrainConfig field annotation."""
    if kind is bool:
        return isinstance(value, bool)
    if kind is float:
        return _is_int(value) or isinstance(value, float)
    if kind is str:
        return isinstance(value, str)
    if kind == Optional[int]:
        return value is None or _is_int(value)
    return _is_int(value)


def _config_from_header(raw, where: str) -> TrainConfig:
    """The header's config: every field present, of its annotated type,
    and passing ``TrainConfig.validate``."""
    if not isinstance(raw, dict):
        raise DataError(f"{where}: config is not an object")
    unknown, missing = sorted(set(raw) - set(_KINDS)), sorted(set(_KINDS) - set(raw))
    if unknown or missing:
        raise DataError(f"{where}: config has unknown keys {unknown} and missing keys {missing}")
    for name, kind in _KINDS.items():
        if not _has_type(raw[name], kind):
            raise DataError(f"{where}: config value {name}={raw[name]!r} has the wrong type")
    config = TrainConfig(**raw)
    try:
        config.validate()
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None
    return config


def _check_header(header, where: str) -> TrainConfig:
    """Reject a header whose keys are not the ``Checkpoint`` fields, or
    whose values other than ``params`` no checkpoint writer could have
    written; return the config."""
    if not isinstance(header, dict):
        raise DataError(f"{where}: header is not an object")
    keys = {_kebab(f.name) for f in dataclasses.fields(Checkpoint)}
    if set(header) != keys:
        raise DataError(f"{where}: header has unknown keys {sorted(set(header) - keys)} "
                        f"and missing keys {sorted(keys - set(header))}")
    if header["model-kind"] not in MODEL_KINDS:
        raise DataError(f"{where}: unknown model kind {header['model-kind']!r}")
    if header["word-mode"] not in WORD_MODES:
        raise DataError(f"{where}: unknown word mode {header['word-mode']!r}")
    if not isinstance(header["vocab"], dict):
        raise DataError(f"{where}: vocab is not an object")
    poshan = header["model-kind"] == MODEL_POSHAN
    for key in ("patterns", "pattern-label-counts"):
        if poshan and not isinstance(header[key], dict):
            raise DataError(f"{where}: {key} is not an object")
        if not poshan and header[key] is not None:
            raise DataError(f"{where}: {key} is not null, as a baseline's must be")
    for key, counts in (header["pattern-label-counts"] or {}).items():
        if not (isinstance(counts, list) and len(counts) == 2
                and all(_is_int(c) and c >= 0 for c in counts)):
            raise DataError(f"{where}: pattern-label-counts for {key!r} is {counts!r}, "
                            "not [congruent, incongruent] counts")
    # both come from the same training records; the unknown row has its own name
    patterns = header["patterns"] or {}
    if set(patterns) != set(header["pattern-label-counts"] or {}):
        raise DataError(f"{where}: pattern-label-counts keys are not the patterns keys")
    if UNK_PATTERN in patterns:
        raise DataError(f"{where}: patterns holds {UNK_PATTERN!r}, the unknown-pattern row's name")
    if not _is_int(header["best-epoch"]) or not isinstance(header["val-losses"], list):
        raise DataError(f"{where}: bad best-epoch or val-losses")
    if not isinstance(header["params"], list):
        raise DataError(f"{where}: params is not a list")
    reserved = sorted(RESERVED_TOKENS.intersection(header["vocab"]))
    if reserved:
        raise DataError(f"{where}: vocab holds the reserved tokens {reserved}")
    # a table's keyed rows follow its reserved ones
    for key, table in (("vocab", WordEmbeddingTable), ("patterns", PatternEmbeddingTable)):
        first, indices = table.FIRST_KEY_ROW, list((header[key] or {}).values())
        # JSON decodes integers to exactly int, true and false to bool
        if not (set(map(type, indices)) <= {int}
                and sorted(indices) == list(range(first, first + len(indices)))):
            raise DataError(f"{where}: {key} index values are not the rows "
                            f"{first}..{first + len(indices) - 1}, one per key")
    return _config_from_header(header["config"], where)


def _described_model(checkpoint: Checkpoint):
    """The model a checkpoint describes, with no value drawn or allocated:
    every parameter holds a ``grad.placeholder`` of its shape, each table
    its reserved rows and one row per key, as wide as the config says."""
    config = checkpoint.config
    word_table = WordEmbeddingTable.create(dict(checkpoint.vocab), config.word_dim, None)
    pattern_table = None
    if checkpoint.patterns is not None:
        pattern_table = PatternEmbeddingTable.create(dict(checkpoint.patterns),
                                                     config.pattern_dim, None)
    return build_model(checkpoint.model_kind, config, word_table, pattern_table, draw=False)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; a malformed header, a parameter list other than
    the one ``save_checkpoint`` writes for the model the header describes,
    truncated data, a NaN or infinite parameter value or bytes past the
    last parameter raise DataError.

    The header is checked before any parameter array exists, and each
    array is allocated once and read straight from the file; it is the
    array that ``model_from_checkpoint`` gives its parameter."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file (bad magic)")
        length = fh.read(4)
        if len(length) < 4:
            raise DataError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<I", length)
        try:
            # read(n) sets aside n bytes first, so ask for no more than the file holds
            header = json.loads(fh.read(min(header_len, size)).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
        where = f"{path}: checkpoint"
        config = _check_header(header, where)
        try:
            val_losses = [float(v) for v in header["val-losses"]]
        except (TypeError, ValueError):
            raise DataError(f"{where}: val-losses are not numbers") from None
        if not all(map(math.isfinite, val_losses)):
            raise DataError(f"{where}: val-losses are not all finite")
        values = {**header, "config": config, "params": {}, "val-losses": val_losses}
        checkpoint = Checkpoint(**{f.name: values[_kebab(f.name)]
                                   for f in dataclasses.fields(Checkpoint)})
        model = {p.name: p.data for p in _described_model(checkpoint).parameters()}
        # compared as JSON text, so that 2.0 or true does not pass for a size
        stored = list(map(json.dumps, header["params"]))
        described = list(map(json.dumps, _param_list(model)))
        if stored != described:
            extra, missing = (sorted((Counter(a) - Counter(b)).elements())
                              for a, b in ((stored, described), (described, stored)))
            raise DataError(f"{where}: params is not the {checkpoint.model_kind!r} model's list "
                            f"in name order: stored, not the model's: [{', '.join(extra)}]; "
                            f"the model's, not stored: [{', '.join(missing)}]")
        offset = len(CHECKPOINT_MAGIC) + 4 + header_len
        for name in sorted(model):
            count = model[name].size
            offset += count * 8
            # no array is allocated for data the file does not hold
            if (offset > size
                    or fh.readinto(array := np.empty(model[name].shape, "<f8")) < count * 8):
                raise DataError(f"{path}: truncated parameter data for {name!r}")
            # min and max carry a NaN or an infinity without an array-sized temporary
            if count and not (math.isfinite(array.min()) and math.isfinite(array.max())):
                raise DataError(f"{where}: parameter {name!r} holds NaN or infinite values")
            checkpoint.params[name] = array
    if offset != size:
        raise DataError(f"{path}: {size - offset} trailing bytes after the parameter data")
    return checkpoint


def model_from_checkpoint(checkpoint: Checkpoint):
    """The model a checkpoint describes, whose parameters hold the
    checkpoint's own arrays, not copies: no value is drawn, copied or
    allocated twice.  The checkpoint is one that ``load_checkpoint``
    checked or that ``train`` built."""
    model = _described_model(checkpoint)
    for p in model.parameters():
        p.data = checkpoint.params[p.name]
    return model


def predict(checkpoint: Checkpoint, records: Sequence[DatasetRecord]) -> EvalReport:
    """Evaluate a stored model on records, using its training-time limits."""
    model = model_from_checkpoint(checkpoint)
    config = checkpoint.config
    return evaluate_model(
        model,
        records,
        max_words=config.max_words_per_sentence,
        max_sentences=config.max_sentences,
    )


# ---------------------------------------------------------------------------
# Splitting


def _split_key(record_id: str, seed: int) -> str:
    return hashlib.sha256(f"{seed}:{record_id}".encode("utf-8")).hexdigest()


def stratified_split(
    records: Sequence[DatasetRecord], seed: int
) -> tuple[list[DatasetRecord], list[DatasetRecord], list[DatasetRecord]]:
    """Split records into train/val/test by ``SPLIT_FRACTIONS``,
    stratified by label.

    Within each label the order is fixed by a seeded hash of the record
    id, so membership depends only on (ids, labels, seed) and not on the
    input order.  Each label's train and val shares are rounded down;
    test takes the rest.
    """
    train: list[DatasetRecord] = []
    val: list[DatasetRecord] = []
    test: list[DatasetRecord] = []
    by_label: dict[str, list[DatasetRecord]] = {}
    for record in records:
        by_label.setdefault(record.label, []).append(record)
    for label in sorted(by_label):
        bucket = sorted(by_label[label], key=lambda r: _split_key(r.id, seed))
        n = len(bucket)
        n_train = int(n * SPLIT_FRACTIONS[0])
        n_val = int(n * SPLIT_FRACTIONS[1])
        train.extend(bucket[:n_train])
        val.extend(bucket[n_train : n_train + n_val])
        test.extend(bucket[n_train + n_val :])
    return train, val, test


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    """A training run: the checkpoint, whose ``val_losses`` hold one loss
    per epoch run and whose ``best_epoch`` is the last epoch that improved
    (-1 if none did), and the TSV log.  How the run ended follows from
    those two."""

    checkpoint: Checkpoint
    log_lines: list[str]

    @property
    def epochs_run(self) -> int:
        return len(self.checkpoint.val_losses)

    @property
    def stopped_early(self) -> bool:
        """Whether the stop rule of ``train`` fired: the last epoch is
        at least ``early_stop_patience`` epochs past the best one."""
        checkpoint = self.checkpoint
        return self.epochs_run - 1 - checkpoint.best_epoch >= checkpoint.config.early_stop_patience


LOG_HEADER = "epoch\ttrain-loss\tval-loss\tval-macro-f1"


def _mean_val_loss(model, val_padded: Sequence[PaddedRecord]) -> tuple[float, EvalReport]:
    """Mean validation loss and the validation report, from one forward
    per record.

    The report's own RuntimeWarnings (single-class AUC, absent-class F1)
    are silenced.
    """
    total = 0.0
    probs = []
    for padded in val_padded:
        with no_grad():
            logits = model.forward(padded)
            loss = softmax_cross_entropy_with_logits(logits, label_index(padded.record.label))
        total += float(loss.data)
        probs.append(softmax_probs(logits))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = build_report([p.record for p in val_padded], probs)
    return total / len(val_padded), report


def prior_loss(records: Sequence[DatasetRecord]) -> float:
    """The mean cross-entropy of predicting every record's label with the
    records' label frequencies: the loss of a model that learned only the
    prior, e.g. 0.693... for balanced labels and 0.0 for a single label."""
    n = len(records)
    return sum(c / n * math.log(n / c) for c in Counter(r.label for r in records).values())


@contextmanager
def _divergence_as_error():
    """Raise NonFiniteError at the first numpy overflow, invalid operation
    or division by zero, instead of a warning: a diverging run meets one of
    them before its parameters turn non-finite."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        if isinstance(exc, NonFiniteError):
            raise
        raise NonFiniteError(f"training diverged: {exc}") from None


def train(
    config: TrainConfig,
    train_records: Sequence[DatasetRecord],
    val_records: Sequence[DatasetRecord],
    model_kind: str = MODEL_POSHAN,
) -> TrainResult:
    """Train a model with Adam, clipping, and early stopping.

    Training loss is the mean over units, one per headline cardinal for
    ``poshan`` and one per record for the baselines; gradients are
    accumulated per unit in a fixed order into the parameters' own
    buffers, then averaged over the batch, clipped by global norm and
    applied, all in place.  A record ``text.drop_reason`` rejects raises
    DataError naming it and why.

    An epoch improves when ``best - val_loss > IMPROVEMENT_THRESHOLD``,
    where ``best`` is ``val_losses[best_epoch]``, or infinity while
    ``best_epoch`` is -1; a NaN loss never improves.  The run stops after
    the epoch with ``epoch - best_epoch >= early_stop_patience``, and the
    returned checkpoint holds the parameters of ``best_epoch``.
    """
    config.validate()
    if not train_records:
        raise DataError("training split is empty")
    if not val_records:
        raise DataError("validation split is empty")
    check_kept(train_records, "training")
    check_kept(val_records, "validation")

    word_table, pattern_table = build_tables(train_records, config)
    model = build_model(model_kind, config, word_table, pattern_table)
    params = model.parameters()
    optimizer = Adam(params, learning_rate=config.learning_rate)

    if model_kind == MODEL_POSHAN:
        train_units: list[DatasetRecord] = []
        for record in train_records:
            train_units.extend(replicate_for_training(record))
    else:
        train_units = list(train_records)

    limits = dict(max_words=config.max_words_per_sentence, max_sentences=config.max_sentences)
    val_padded = [pad_record(r, **limits) for r in val_records]
    train_padded = [pad_record(u, **limits) for u in train_units]

    log_lines = [LOG_HEADER]
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    val_losses: list[float] = []

    with _divergence_as_error():
        for epoch in range(config.max_epochs):
            batches = make_batches(train_padded, config.batch_size, seed=config.seed + epoch)
            epoch_total = 0.0
            for batch_index, batch in enumerate(batches):
                zero_gradients(params)
                batch_total = 0.0
                for padded in batch:
                    loss = model.loss(padded)
                    value = float(loss.data)
                    if not math.isfinite(value):
                        raise NonFiniteError(
                            f"non-finite loss at epoch {epoch} batch {batch_index}; aborting"
                        )
                    backward(loss)
                    batch_total += value
                inv = 1.0 / len(batch)
                for p in params:
                    p.grad[p.rows()] *= inv
                clip_global_norm(params, config.grad_clip)
                optimizer.step()
                epoch_total += batch_total
            train_loss = epoch_total / len(train_padded)

            val_loss, report = _mean_val_loss(model, val_padded)
            val_losses.append(val_loss)
            log_lines.append(f"{epoch}\t{train_loss!r}\t{val_loss!r}\t{report.macro_f1!r}")

            best = val_losses[best_epoch] if best_epoch >= 0 else math.inf
            if best - val_loss > IMPROVEMENT_THRESHOLD:
                best_epoch = epoch
                best_params = {p.name: p.data.copy() for p in params}
            if epoch - best_epoch >= config.early_stop_patience:
                break

    checkpoint = Checkpoint(
        model_kind=model_kind,
        config=config,
        vocab=dict(word_table.vocab),
        word_mode=word_table.mode,
        patterns=dict(pattern_table.patterns) if model_kind == MODEL_POSHAN else None,
        pattern_label_counts=(
            {k: list(v) for k, v in pattern_label_counts(train_records).items()}
            if model_kind == MODEL_POSHAN
            else None
        ),
        params=best_params,
        best_epoch=best_epoch,
        val_losses=val_losses,
    )
    return TrainResult(checkpoint=checkpoint, log_lines=log_lines)
