"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the package's public functions by
wrapping them from outside (``instrument``); nothing inside ``poshan`` is
changed.  Each span keeps its name, start, end and parent; a span's self
time is its duration minus the durations of its direct children.  Garbage
collector pauses (via ``gc.callbacks``) are charged to the innermost open
span; ``gc_pause_s`` and ``gc_full_collections`` count only those inside
spans.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.gc_s: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._gc_start = None
        self.gc_outside_s = 0.0
        self.gc_pause_s = 0.0
        self.gc_full_collections = 0

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.gc_s.append(0.0)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- garbage collector --------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
            return
        if self._gc_start is None:
            return
        pause = self.clock() - self._gc_start
        self._gc_start = None
        if not self._stack:
            self.gc_outside_s += pause
            return
        self.gc_s[self._stack[-1]] += pause
        self.gc_pause_s += pause
        if info.get("generation") == 2:
            self.gc_full_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ------------------------------------------------------------

    def durations(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, GC seconds.

        Inclusive time of a name counts only its outermost spans, so a
        recursive or re-entrant name is not counted twice.
        """
        dur = self.durations()
        own = self.self_times()
        table: dict = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "gc_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[i]
            row["gc_s"] += self.gc_s[i]
            if not self._has_ancestor_named(i, name):
                row["total_s"] += dur[i]
        return table

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        p = self.parents[index]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def dump(self, path: str | Path) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "gc_s": g}
            for n, s, e, p, g in zip(self.names, self.starts, self.ends, self.parents, self.gc_s)
        ]
        Path(path).write_text(json.dumps({
            "spans": spans,
            "summary": self.summary(),
            "counters": dict(self.counters),
            "gc": {"pause_s": self.gc_pause_s, "outside_spans_s": self.gc_outside_s,
                   "full_collections": self.gc_full_collections},
        }), encoding="utf-8")


# ---------------------------------------------------------------------------
# Wrapping the package's public functions


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def spanned(recorder: SpanRecorder, fn, name, after=None):
    """Wrap fn in a span; ``name`` may be a function of the call's arguments.
    ``after(result, args)`` sees each result, for counting work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name(*args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(result, args)
        return result

    return wrapper


ENCODER_SPANS = {"word_enc": "encoder.word", "sent_enc": "encoder.sentence"}


def instrument(recorder: SpanRecorder) -> Patches:
    """Wrap the package's layer boundaries with spans and counters."""
    from poshan import attention, baselines, encoder, grad, metrics, model, text, train

    patches = Patches()

    def wrap(owner, attr, name, after=None):
        patches.replace(owner, attr, spanned(recorder, owner.__dict__[attr], name, after))

    def count_tensor(init):
        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            recorder.counters["grad.tensors"] += 1
            init(self, *args, **kwargs)
        return counted

    patches.replace(grad.Tensor, "__init__", count_tensor(grad.Tensor.__init__))

    def count_steps(states, args):
        if args[0].name == "word_enc":
            recorder.count("encoder.word_steps", sum(1 for m in args[2] if m))

    wrap(encoder.SequenceEncoder, "encode",
         lambda enc, *a: ENCODER_SPANS.get(enc.name, f"encoder.{enc.name}"), count_steps)

    def count_padding(padded, args):
        for sent in padded.sentences:
            recorder.count("attention.real_tokens", sum(1 for m in sent.mask if m))
            recorder.count("attention.padded_slots", len(sent.mask))

    for owner in (attention, train, metrics):
        wrap(owner, "pad_record", "attention.pad", count_padding)
    wrap(attention, "attend", "attention.attend")
    wrap(attention, "fuse_weights", "attention.fuse")
    wrap(attention, "build_queries", "embeddings.query")
    wrap(model, "document_forward", "attention.document")
    wrap(model.PoshanModel, "forward", "model.forward")
    wrap(model.PoshanModel, "loss", "model.loss")
    wrap(baselines.LstmConcatModel, "forward", "baselines.forward")
    wrap(baselines.PosAtModel, "forward", "baselines.forward")

    # evaluate_model is reached directly and from train(); both count as
    # metrics.evaluate, and the train() call is also validation.
    wrap(metrics, "evaluate_model", "metrics.evaluate")
    patches.replace(train, "evaluate_model",
                    spanned(recorder, metrics.evaluate_model, "train.validation"))
    wrap(train, "_mean_val_loss", "train.validation")
    wrap(train, "backward", "grad.backward")
    wrap(train, "clip_global_norm", "train.clip")
    wrap(train.Adam, "step", "train.adam")
    wrap(train, "make_batches", "train.make_batches")
    for attr in ("save_checkpoint", "load_checkpoint", "model_from_checkpoint"):
        wrap(train, attr, "train.checkpoint_io")

    def count_featurized(rec, args):
        recorder.count("text.tokens", len(rec.headline) + sum(len(s) for s in rec.sentences))

    wrap(text, "featurize", "text.featurize", count_featurized)
    return patches
