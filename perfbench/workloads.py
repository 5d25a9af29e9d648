"""The benchmark's workloads: their inputs, their set-up, and one repeat.

Every workload runs the same pipeline through the package's public API,
so every run reports every end-to-end metric:

1. derive: ``derive_dataset`` with the rule tagger on the raw records;
2. train: ``train`` on the first ``n_train`` derived records, validating
   on the next ``n_val``, for a fixed number of epochs with no early stop;
3. checkpoint: save the trained checkpoint, load it, rebuild the model,
   save it again;
4. load: load the ``poshan``, ``lstm`` and ``posat`` checkpoints built
   during set-up and rebuild their models;
5. predict: ``evaluate_model`` with each of the three, timing each
   ``predict_probs`` call.

The workloads differ in their inputs and in how much work each stage
gets; README.md says why each exists.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from poshan import metrics, text
from poshan import train as ptrain
from poshan.embeddings import pattern_label_counts

from perfbench import checks, corpus, report

KINDS = ("poshan", "lstm", "posat")
EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    spec: corpus.CorpusSpec
    n_train: int
    n_val: int
    n_predict: int
    derive_passes: int
    batch_size: int

    def config(self) -> ptrain.TrainConfig:
        """Default hyperparameters with a fixed seed: initialization and
        batch order, and with them the garbage collector's timing, are the
        same on every workload seed; only the inputs change."""
        return ptrain.TrainConfig(batch_size=self.batch_size, max_epochs=EPOCHS,
                                  early_stop_patience=EPOCHS)


# Sentence shape for train-ragged: news articles in CNN, DailyMail and
# XSum average about 22 words per sentence (Narayan et al. 2018, "Don't
# Give Me the Details, Just the Summary!", Table 1).  A lognormal with a
# median of 20 words and this spread has a mean of about 22.  Those
# articles also average 20-34 sentences; a record of that length takes so
# long to train that a run would fit one repeat, so bodies here have a
# median of 7 sentences.
NEWS_WORDS, NEWS_WORD_SIGMA = 20, 0.45
SENTENCES, SENTENCE_SIGMA = 7, 0.6


def _workloads() -> dict:
    return {w.name: w for w in (
        Workload(
            name="train-caps",
            spec=corpus.caps_spec(1, short_records=4),
            n_train=1, n_val=4, n_predict=1, derive_passes=20, batch_size=1),
        # 7 records train and 1 validates; all 24 are predicted, so that
        # latency percentiles rest on many records.  The first carries the
        # whole 30 000-type vocabulary past the word cap, so Adam and
        # clipping run over a full-size table.
        Workload(
            name="train-ragged",
            spec=corpus.ragged_spec(24, sentence_median=SENTENCES, word_median=NEWS_WORDS,
                                    vocabulary=30000, tail=True, past_sentence_cap=False,
                                    sentence_sigma=SENTENCE_SIGMA, word_sigma=NEWS_WORD_SIGMA),
            n_train=7, n_val=1, n_predict=24, derive_passes=4, batch_size=2),
        # Bodies of a median 3 sentences of 5 words: far shorter than news,
        # so that 110 records predicted by three models fit one repeat.
        Workload(
            name="ingest-eval",
            spec=corpus.ragged_spec(1500, sentence_median=3, word_median=5, vocabulary=30000,
                                    no_cardinal_every=20),
            n_train=7, n_val=4, n_predict=110, derive_passes=2, batch_size=4),
    )}


WORKLOADS = _workloads()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up: corpus, featurization, tables, checkpoints


def setup(workload: Workload, seed: int, out: Path) -> dict:
    """Write the run's inputs to ``out``; return the sha256 of each file."""
    out.mkdir(parents=True, exist_ok=True)
    generated = corpus.generate(workload.spec, seed, prefix=f"{workload.name}-{seed}-")
    corpus.write_raw_jsonl(generated, out / "raw.jsonl")
    expected = [{"id": g.id, "headline_tokens": g.headline_tokens,
                 "sentence_tokens": g.sentence_tokens, "cardinals": g.cardinals}
                for g in generated]
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")

    raws = [text.RawRecord(**g.raw_json()) for g in generated]
    derived, _ = text.derive_dataset(raws, text.RuleTagger())
    mismatched = derive_mismatches(derived, expected)
    if mismatched:
        raise RuntimeError(f"set-up derived records differ from the generator's plan: {mismatched[:5]}")

    config = workload.config()
    word_table, pattern_table = ptrain.build_tables(derived, config)
    for kind in KINDS:
        model = ptrain.build_model(kind, config, word_table, pattern_table)
        poshan = kind == "poshan"
        ptrain.save_checkpoint(ptrain.Checkpoint(
            model_kind=kind, config=config, vocab=dict(word_table.vocab),
            word_mode=word_table.mode,
            patterns=dict(pattern_table.patterns) if poshan else None,
            pattern_label_counts=pattern_label_counts(derived) if poshan else None,
            params={p.name: p.data.copy() for p in model.parameters()},
            best_epoch=0, val_losses=[]), out / f"{kind}.ckpt")
    return {p.name: sha256_file(p) for p in sorted(out.iterdir())}


def derive_mismatches(derived, expected) -> list:
    """Ids of records whose derivation differs from the generator's plan:
    records without a headline number are dropped, the rest keep their
    token counts and one pattern per headline number."""
    by_id = {d.id: d for d in derived}
    planned = {e["id"] for e in expected}
    bad = [d.id for d in derived if d.id not in planned]
    for e in expected:
        d = by_id.get(e["id"])
        if e["cardinals"] == 0:
            if d is not None:
                bad.append(e["id"])
            continue
        if (d is None or len(d.headline) != e["headline_tokens"]
                or [len(s) for s in d.sentences] != e["sentence_tokens"]
                or len(d.patterns) != e["cardinals"]):
            bad.append(e["id"])
    return bad


# ---------------------------------------------------------------------------
# One repeat


class Stages:
    """Wall-clock interval of each pipeline stage; a span per stage when traced.

    A full collection runs before each stage, untimed, so every stage starts
    from the same collector state and the collections inside it fall at the
    same points on every seed.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.intervals: dict = {}

    @contextmanager
    def stage(self, name: str):
        gc.collect()
        index = self.recorder.open(f"stage.{name}") if self.recorder else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals[name] = (start, time.perf_counter())
            if index is not None:
                self.recorder.close(index)


def run_repeat(workload: Workload, seed: int, inputs: Path, work: Path, recorder=None) -> dict:
    """One repeat of the pipeline; returns its measurements and checks.

    Package functions are looked up on their modules at call time, so the
    wrappers ``spans.instrument`` installs are the ones called.
    """
    work.mkdir(parents=True, exist_ok=True)
    stages = Stages(recorder)
    sampler = report.SpeedSampler()
    problems: list = []
    attempted = {"derive": 0, "train": 0, "predict": 0}
    failed = dict(attempted)
    out: dict = {"env": report.environment(), "problems": problems}
    config = workload.config()

    raws = text.read_corpus(inputs / "raw.jsonl")
    expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))

    sampler.start()

    # 1. derive
    derived = []
    attempted["derive"] = len(raws) * workload.derive_passes
    passes = []
    try:
        with stages.stage("derive"):
            for _ in range(workload.derive_passes):
                start = time.perf_counter()
                derived, _ = text.derive_dataset(raws, text.RuleTagger())
                passes.append((start, time.perf_counter()))
    except Exception as exc:  # an operation that raises is a failed operation
        failed["derive"] = attempted["derive"]
        problems.append(f"derive raised {exc!r}")
    else:
        bad = derive_mismatches(derived, expected)
        failed["derive"] = len(bad) * workload.derive_passes
        if bad:
            problems.append(f"{len(bad)} derived records differ from the plan, e.g. {bad[:3]}")
    out["raw_records"] = len(raws)

    # 2. train
    train_records = derived[:workload.n_train]
    val_records = derived[workload.n_train:workload.n_train + workload.n_val]
    units = sum(len(r.patterns) for r in train_records)
    attempted["train"] = units * EPOCHS
    result = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with stages.stage("train"):
                result = ptrain.train(config, train_records, val_records, model_kind="poshan")
    except Exception as exc:
        failed["train"] = attempted["train"]
        problems.append(f"train raised {exc!r}")
    if result is not None:
        losses = checks.log_losses(result.log_lines)
        bad_epochs = [i for i, (tl, vl) in enumerate(losses) if not (math.isfinite(tl) and math.isfinite(vl))]
        failed["train"] = units * len(bad_epochs)
        if bad_epochs or result.epochs_run != EPOCHS or result.stopped_early:
            problems.append(f"training ran {result.epochs_run} epochs, non-finite losses in {bad_epochs}")
        out["val_loss_final"] = losses[-1][1]
        out["train_log"] = result.log_lines

    # 3. checkpoint round trip
    if result is not None:
        with stages.stage("checkpoint"):
            first, second = work / "trained.ckpt", work / "trained-reloaded.ckpt"
            ptrain.save_checkpoint(result.checkpoint, first)
            loaded = ptrain.load_checkpoint(first)
            ptrain.model_from_checkpoint(loaded)
            ptrain.save_checkpoint(loaded, second)
        out["trained_sha256"] = sha256_file(first)
        if sha256_file(second) != out["trained_sha256"]:
            problems.append("a reloaded checkpoint saves to different bytes")

    # 4. predict, after loading the set-up checkpoints in a stage of its own
    records = derived[:workload.n_predict]
    out["report_sha256"] = {}
    poshan_latencies = []
    with stages.stage("load"):
        models = {kind: ptrain.model_from_checkpoint(ptrain.load_checkpoint(inputs / f"{kind}.ckpt"))
                  for kind in KINDS}
    for kind, model in models.items():
        latencies = []
        predict_probs = model.predict_probs

        def timed(padded, predict_probs=predict_probs, latencies=latencies):
            start = time.perf_counter()
            probs = predict_probs(padded)
            latencies.append((start, time.perf_counter()))
            return probs

        model.predict_probs = timed
        attempted["predict"] += len(records)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with stages.stage(f"predict.{kind}"):
                    ev = metrics.evaluate_model(model, records, max_words=config.max_words_per_sentence,
                                                max_sentences=config.max_sentences)
        except Exception as exc:
            failed["predict"] += len(records)
            problems.append(f"{kind} evaluation raised {exc!r}")
            continue
        report_json = ev.to_json()
        errors = checks.schema_errors(report_json, metrics.EVAL_REPORT_SCHEMA)
        if errors:
            problems.append(f"{kind} eval report breaks the schema: {errors[:3]}")
        off = [p["id"] for p in report_json["predictions"]
               if checks.off_simplex((p["p_congruent"], p["p_incongruent"]))]
        failed["predict"] += len(off) + abs(len(records) - len(report_json["predictions"]))
        if off:
            problems.append(f"{kind} probabilities off the simplex for {off[:3]}")
        out["report_sha256"][kind] = hashlib.sha256(
            json.dumps(report_json, sort_keys=True).encode("utf-8")).hexdigest()
        if kind == "poshan":
            poshan_latencies = latencies
    out["predict_records"] = len(records)
    sampler.stop()

    # Every interval in raw wall seconds and in nominal (speed-scaled) seconds.
    def both(key, intervals):
        out[key] = [e - s for s, e in intervals]
        out[key.replace("_s", "_scaled_s", 1)] = [sampler.scaled(s, e) for s, e in intervals]

    both("derive_pass_s", passes)
    both("predict_latency_s", poshan_latencies)
    names = list(stages.intervals)
    both("stage_s", [stages.intervals[n] for n in names])
    out["stage_s"] = dict(zip(names, out["stage_s"]))
    out["stage_scaled_s"] = dict(zip(names, out["stage_scaled_s"]))

    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = attempted
    out["failed"] = failed
    return out


def layer_metrics(recorder, repeat: dict) -> dict:
    """The per-layer table from a traced repeat's spans and counters.

    Every span and GC pause counted lies inside a timed stage.  Times are
    scaled by the repeat's speed factor, as end-to-end times are.
    """
    table = recorder.summary()
    counters = recorder.counters
    raw_s = sum(repeat["stage_s"].values())
    speed = sum(repeat["stage_scaled_s"].values()) / raw_s

    def total(name):
        return speed * table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return speed * table.get(name, {}).get("self_s", 0.0)

    ops = repeat["attempted"]["train"] + repeat["attempted"]["predict"]
    featurize_s = total("text.featurize")
    slots = counters.get("attention.padded_slots", 0.0)
    return {
        "encoder.word_s": own("encoder.word"),
        "encoder.sentence_s": own("encoder.sentence"),
        "encoder.word_steps": counters.get("encoder.word_steps", 0.0),
        "grad.backward_s": total("grad.backward"),
        "grad.tensors_per_unit": counters.get("grad.tensors", 0.0) / max(ops, 1),
        "gc.pause_s": speed * recorder.gc_pause_s,
        "gc.pause_share": recorder.gc_pause_s / raw_s,
        "gc.full_collections": recorder.gc_full_collections,
        "attention.attend_s": total("attention.attend"),
        "attention.fuse_s": total("attention.fuse"),
        "attention.document_self_s": own("attention.document"),
        "attention.pad_s": total("attention.pad"),
        "attention.pad_efficiency": counters.get("attention.real_tokens", 0.0) / slots if slots else 1.0,
        "embeddings.query_s": total("embeddings.query"),
        "model.head_loss_s": own("model.forward") + own("model.loss"),
        "train.adam_s": total("train.adam"),
        "train.clip_s": total("train.clip"),
        "train.make_batches_s": total("train.make_batches"),
        "train.validation_s": total("train.validation"),
        "train.checkpoint_io_s": total("train.checkpoint_io"),
        "metrics.evaluate_self_s": own("metrics.evaluate"),
        "baselines.forward_s": total("baselines.forward"),
        "text.featurize_s": featurize_s,
        "text.tokens_per_s": counters.get("text.tokens", 0.0) / featurize_s if featurize_s else 0.0,
    }
