"""Training loop, optimizer, configuration, and checkpointing.

Everything here is deterministic: given the same config, data, and seed,
two runs produce bit-identical parameter values, log lines, and
checkpoint bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .attention import PaddedRecord, pad_record
from .baselines import LstmConcatModel, PosAtModel
from .embeddings import (
    MODE_PRELOADED_FROZEN,
    MODE_PRELOADED_TRAINABLE,
    MODE_RANDOM_TRAINABLE,
    PATTERN_DIM,
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
from .text import DataError, DatasetRecord, label_index, replicate_for_training

MODEL_POSHAN = "poshan"
MODEL_LSTM = "lstm"
MODEL_POSAT = "posat"
MODEL_KINDS = (MODEL_POSHAN, MODEL_LSTM, MODEL_POSAT)

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
        for name in ("learning_rate", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                key = name.replace("_", "-")
                raise ValueError(f"{key} must be positive and finite, got {value}")
        for name in (
            "batch_size",
            "max_epochs",
            "early_stop_patience",
            "max_words_per_sentence",
            "max_sentences",
            "word_dim",
            "hidden_size",
            "pattern_dim",
            "min_count",
            "attention_size",
        ):
            value = getattr(self, name)
            if value is None:  # attention_size: the word encoder's width
                continue
            key = name.replace("_", "-")
            if value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
            if name in _SIZES and value > MAX_SIZE:
                raise ValueError(f"{key} must be at most {MAX_SIZE}, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}; expected one of {CELLS}")
        if self.disable_pattern_att and self.disable_phrase_att and self.replace_headline_att:
            raise ValueError("the three attention flags leave no attention query type")


def _parse_value(key: str, raw: str, where: str):
    """Convert one config-file value string to the field's annotated type;
    ``where`` is ``path:line`` for the error message."""
    kind = get_type_hints(TrainConfig)[key.replace("-", "_")]
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
        raise DataError(f"{where}: bad value {text!r} for key {key!r}") from None


def parse_config(path: str | Path) -> TrainConfig:
    """Read a flat ``key=value`` config file into a TrainConfig.

    Keys are kebab-case field names; blank lines and ``#`` comments are
    ignored.  Unknown keys and unparsable values raise DataError naming
    ``path:line``, values ``TrainConfig.validate`` rejects naming the path.
    """
    known = {f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)}
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
        if key not in known:
            raise DataError(f"{where}: unknown key {key!r}")
        overrides[key.replace("-", "_")] = _parse_value(key, raw, where)
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
    word_table = build_vocab(
        records,
        min_count=config.min_count,
        dim=config.word_dim,
        seed=config.seed,
    )
    pattern_table = PatternEmbeddingTable.build(records, dim=config.pattern_dim, seed=config.seed)
    return word_table, pattern_table


def build_model(
    kind: str,
    config: TrainConfig,
    word_table: WordEmbeddingTable,
    pattern_table: Optional[PatternEmbeddingTable],
):
    """Construct one of the three trainable models from a config; the
    baselines take no pattern table, so theirs may be None."""
    if kind == MODEL_POSHAN:
        if pattern_table is None:
            raise ValueError("the hierarchical model requires a pattern table")
        return PoshanModel(
            word_table,
            pattern_table,
            hidden_size=config.hidden_size,
            attention_size=config.attention_size,
            cell=config.cell,
            disable_pattern_att=config.disable_pattern_att,
            disable_phrase_att=config.disable_phrase_att,
            replace_headline_att=config.replace_headline_att,
            seed=config.seed,
        )
    if kind == MODEL_LSTM:
        return LstmConcatModel(word_table, hidden_size=config.hidden_size, cell=config.cell, seed=config.seed)
    if kind == MODEL_POSAT:
        return PosAtModel(word_table, hidden_size=config.hidden_size, cell=config.cell, seed=config.seed)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


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


def clip_global_norm(params: Sequence[Parameter], threshold: float) -> float:
    """Scale the parameters' gradients in place so their joint L2 norm is
    at most threshold, and return the norm before clipping.

    The norm is taken over every entry of every gradient together, in
    parameter order; when it exceeds the threshold each gradient is
    multiplied by threshold / norm, e.g. gradients (8, 6) with threshold 6
    become (4.8, 3.6).  A NaN or infinite norm raises NonFiniteError
    naming the parameters with non-finite gradients.
    """
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad ** 2))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        bad = [p.name for p in params if not np.all(np.isfinite(p.grad))]
        raise NonFiniteError(f"non-finite gradient norm {norm}; non-finite gradients: {bad}")
    if norm > threshold:
        scale = threshold / norm
        for p in params:
            p.grad[p.rows()] *= scale
    return norm


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Adam with bias correction over the trainable parameters, in place,
    with the decay rates ``ADAM_BETA1``, ``ADAM_BETA2`` and the guard
    ``ADAM_EPSILON``.

    An embedding table is updated only in its active rows, the rows that
    have had a gradient (``grad.Parameter.active``).  That is exact: a row
    that never had a gradient has m = v = 0, so its update is exactly 0
    and ``p - 0.0 == p``.  Every other parameter is updated whole, through
    two scratch buffers kept between steps.
    """

    def __init__(self, params: Sequence[Parameter], learning_rate: float):
        self.params = [p for p in params if p.requires_grad]
        self.learning_rate = learning_rate
        self.t = 0
        # np.zeros, unlike zeros_like, leaves pages unwritten until a row is
        # first updated, so a table's never-active rows cost no memory
        self._m = [np.zeros(p.shape) for p in self.params]
        self._v = [np.zeros(p.shape) for p in self.params]
        self._scratch = [None if p.active is not None else (np.empty(p.shape), np.empty(p.shape))
                         for p in self.params]

    def step(self) -> None:
        self.t += 1
        for p, m, v, scratch in zip(self.params, self._m, self._v, self._scratch):
            if scratch is not None:
                self._update(p.data, p.grad, m, v, *scratch)
                continue
            rows = p.rows()
            data, g, m_rows, v_rows = p.data[rows], p.grad[rows], m[rows], v[rows]
            self._update(data, g, m_rows, v_rows, np.empty_like(g), np.empty_like(g))
            p.data[rows], m[rows], v[rows] = data, m_rows, v_rows

    def _update(self, data, g, m, v, s, r) -> None:
        """One step on arrays, in place, in the operation order of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``data - lr*m_hat / (sqrt(v_hat) + eps)``; ``s`` and ``r`` are
        scratch of ``g``'s shape."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
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


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint in a deterministic binary format.

    Layout: magic line, a little-endian uint32 header length, a JSON
    header with sorted keys, then each parameter's float64 bytes in
    header order.  Identical checkpoints produce identical files.
    """
    names = sorted(checkpoint.params)
    header = {
        "model-kind": checkpoint.model_kind,
        "config": dataclasses.asdict(checkpoint.config),
        "vocab": checkpoint.vocab,
        "word-mode": checkpoint.word_mode,
        "patterns": checkpoint.patterns,
        "pattern-label-counts": checkpoint.pattern_label_counts,
        "best-epoch": checkpoint.best_epoch,
        "val-losses": [repr(v) for v in checkpoint.val_losses],
        "params": [
            {"name": name, "shape": list(checkpoint.params[name].shape)} for name in names
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buffer = io.BytesIO()
    buffer.write(CHECKPOINT_MAGIC)
    buffer.write(struct.pack("<I", len(header_bytes)))
    buffer.write(header_bytes)
    for name in names:
        array = np.ascontiguousarray(checkpoint.params[name], dtype="<f8")
        buffer.write(array.tobytes())
    Path(path).write_bytes(buffer.getvalue())


_HEADER_KEYS = ("best-epoch", "config", "model-kind", "params", "pattern-label-counts",
                "patterns", "val-losses", "vocab", "word-mode")
_WORD_MODES = (MODE_PRELOADED_FROZEN, MODE_PRELOADED_TRAINABLE, MODE_RANDOM_TRAINABLE)


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
    hints = get_type_hints(TrainConfig)
    unknown, missing = sorted(set(raw) - set(hints)), sorted(set(hints) - set(raw))
    if unknown or missing:
        raise DataError(f"{where}: config has unknown keys {unknown} and missing keys {missing}")
    for name, kind in hints.items():
        if not _has_type(raw[name], kind):
            raise DataError(f"{where}: config value {name}={raw[name]!r} has the wrong type")
    config = TrainConfig(**raw)
    try:
        config.validate()
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None
    return config


def _check_header(header, where: str) -> TrainConfig:
    """Reject a header a checkpoint writer could not have produced, or
    whose tables lack their reserved rows or are not as wide as its config
    says; return the config."""
    if not isinstance(header, dict):
        raise DataError(f"{where}: header is not an object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"{where}: header is missing keys {missing}")
    if header["model-kind"] not in MODEL_KINDS:
        raise DataError(f"{where}: unknown model kind {header['model-kind']!r}")
    if header["word-mode"] not in _WORD_MODES:
        raise DataError(f"{where}: unknown word mode {header['word-mode']!r}")
    if not isinstance(header["vocab"], dict):
        raise DataError(f"{where}: vocab is not an object")
    for key in ("patterns", "pattern-label-counts"):
        if not (isinstance(header[key], dict)
                or header[key] is None and header["model-kind"] != MODEL_POSHAN):
            raise DataError(f"{where}: {key} is not an object (null only for a baseline)")
    for key, counts in (header["pattern-label-counts"] or {}).items():
        if not (isinstance(counts, list) and len(counts) == 2
                and all(_is_int(c) and c >= 0 for c in counts)):
            raise DataError(f"{where}: pattern-label-counts for {key!r} is {counts!r}, "
                            "not [congruent, incongruent] counts")
    if not _is_int(header["best-epoch"]) or not isinstance(header["val-losses"], list):
        raise DataError(f"{where}: bad best-epoch or val-losses")
    entries = header["params"]
    if not isinstance(entries, list):
        raise DataError(f"{where}: params is not a list")
    names = set()
    for entry in entries:
        if (not isinstance(entry, dict) or not isinstance(entry.get("name"), str)
                or not isinstance(entry.get("shape"), list)
                or not all(_is_int(n) and n >= 0 for n in entry["shape"])):
            raise DataError(f"{where}: bad parameter entry {entry!r}")
        if entry["name"] in names:
            raise DataError(f"{where}: duplicate parameter {entry['name']!r}")
        names.add(entry["name"])
    shapes = {entry["name"]: entry["shape"] for entry in entries}
    config = _config_from_header(header["config"], where)
    # vocabulary rows start after the pad and unknown rows, pattern rows
    # after the unknown-pattern row
    for key, table, first, dim, width in (
            ("vocab", "word_embeddings", 2, "word-dim", config.word_dim),
            ("patterns", "pattern_embeddings", 1, "pattern-dim", config.pattern_dim)):
        if header[key] is None:
            continue
        if len(shapes.get(table, ())) != 2:
            raise DataError(f"{where}: no {table} matrix among the parameters")
        rows, columns = shapes[table]
        if rows < first:
            raise DataError(f"{where}: {table} has only {rows} of its {first} reserved rows")
        if columns != width:
            raise DataError(f"{where}: {table} is {columns} wide, but {dim} is {width}")
        if not all(_is_int(i) and first <= i < rows for i in header[key].values()):
            raise DataError(f"{where}: a {key} index lies outside rows {first}..{rows - 1}")
    return config


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; a malformed header, a table whose width is not
    the config's, truncated data or bytes past the last parameter raise
    DataError.

    The parameter arrays are read-only views of the file's bytes, not
    copies; ``model_from_checkpoint`` copies each one once, into its
    parameter."""
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    if len(raw) < offset + 4:
        raise DataError(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
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
    offset += header_len
    params: dict[str, np.ndarray] = {}
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        end = offset + count * 8
        if end > len(raw):
            raise DataError(f"{path}: truncated parameter data for {entry['name']!r}")
        array = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        params[entry["name"]] = array.reshape(shape)
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after the parameter data")
    return Checkpoint(
        model_kind=header["model-kind"],
        config=config,
        vocab=header["vocab"],
        word_mode=header["word-mode"],
        patterns=header["patterns"],
        pattern_label_counts=header["pattern-label-counts"],
        params=params,
        best_epoch=header["best-epoch"],
        val_losses=val_losses,
    )


def model_from_checkpoint(checkpoint: Checkpoint):
    """Rebuild the trained model with its stored parameter values, copying
    each stored array once, into its parameter.  The stored names and
    shapes must be exactly the rebuilt model's, or DataError names what
    differs."""
    config = checkpoint.config
    stored = checkpoint.params
    word_param = Parameter("word_embeddings", np.empty(stored["word_embeddings"].shape),
                           requires_grad=checkpoint.word_mode != MODE_PRELOADED_FROZEN)
    word_table = WordEmbeddingTable(dict(checkpoint.vocab), word_param, mode=checkpoint.word_mode)
    pattern_table = None
    if checkpoint.patterns is not None:
        pattern_param = Parameter("pattern_embeddings", np.empty(stored["pattern_embeddings"].shape))
        pattern_table = PatternEmbeddingTable(dict(checkpoint.patterns), pattern_param)
    model = build_model(checkpoint.model_kind, config, word_table, pattern_table)
    expected = {p.name: p.shape for p in model.parameters()}
    found = {name: value.shape for name, value in stored.items()}
    if found != expected:
        raise DataError(f"checkpoint parameters (name, shape) differ from the "
                        f"{checkpoint.model_kind!r} model's: stored "
                        f"{sorted(found.items() - expected.items())}, expected "
                        f"{sorted(expected.items() - found.items())}")
    for p in model.parameters():
        p.data[...] = stored[p.name]
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
    checkpoint: Checkpoint
    log_lines: list[str]
    epochs_run: int
    stopped_early: bool


LOG_HEADER = "epoch\ttrain-loss\tval-loss\tval-macro-f1"


def _mean_val_loss(model, val_padded: Sequence[PaddedRecord]) -> tuple[float, EvalReport]:
    """Mean validation loss and the validation report, from one forward
    per record.

    Warnings raised by a record's forward surface; the report's own
    RuntimeWarnings (single-class AUC, absent-class F1) are silenced.
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
    log_path: Optional[str | Path] = None,
) -> TrainResult:
    """Train a model with Adam, clipping, and early stopping.

    Training loss is the mean over records; gradients are accumulated
    per record in a fixed order into the parameters' own buffers, then
    averaged over the batch, clipped by global norm and applied, all in
    place.  The run stops once validation loss has not improved by more
    than 1e-4 for ``early_stop_patience`` epochs, and the returned
    checkpoint holds the best-validation parameters.
    """
    config.validate()
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}; expected one of {MODEL_KINDS}")
    if not train_records:
        raise DataError("training split is empty")
    if not val_records:
        raise DataError("validation split is empty")

    word_table, pattern_table = build_tables(train_records, config)
    model = build_model(model_kind, config, word_table, pattern_table)
    params = model.parameters()
    optimizer = Adam(params, learning_rate=config.learning_rate)
    trainable = optimizer.params

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
    best_val = math.inf
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    val_losses: list[float] = []
    epochs_without_improvement = 0
    stopped_early = False
    epochs_run = 0

    with _divergence_as_error():
        for epoch in range(config.max_epochs):
            batches = make_batches(train_padded, config.batch_size, seed=config.seed + epoch)
            epoch_total = 0.0
            for batch_index, batch in enumerate(batches):
                zero_gradients(trainable)
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
                for p in trainable:
                    p.grad[p.rows()] *= inv
                clip_global_norm(trainable, config.grad_clip)
                optimizer.step()
                epoch_total += batch_total
            train_loss = epoch_total / len(train_padded)

            val_loss, report = _mean_val_loss(model, val_padded)
            val_losses.append(val_loss)
            log_lines.append(f"{epoch}\t{train_loss!r}\t{val_loss!r}\t{report.macro_f1!r}")
            epochs_run = epoch + 1

            if best_val - val_loss > IMPROVEMENT_THRESHOLD:
                best_val = val_loss
                best_epoch = epoch
                best_params = {p.name: p.data.copy() for p in params}
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= config.early_stop_patience:
                    stopped_early = True
                    break

    if best_epoch < 0:
        best_epoch = epochs_run - 1
        best_params = {p.name: p.data.copy() for p in params}

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
    if log_path is not None:
        Path(log_path).write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return TrainResult(
        checkpoint=checkpoint,
        log_lines=log_lines,
        epochs_run=epochs_run,
        stopped_early=stopped_early,
    )
