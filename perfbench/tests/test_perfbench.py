"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, corpus, report, spans, workloads  # noqa: E402
from poshan import metrics, text  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def derive(generated):
    raws = [text.RawRecord(**g.raw_json()) for g in generated]
    derived, _ = text.derive_dataset(raws, text.RuleTagger())
    return derived


# ---------------------------------------------------------------------------
# Corpus generator


@pytest.mark.parametrize("spec", [
    corpus.caps_spec(2, short_records=2),
    corpus.ragged_spec(12, sentence_median=6, word_median=10, vocabulary=5000, no_cardinal_every=5),
])
def test_generator_is_deterministic_per_seed(spec):
    a = corpus.generate(spec, seed=7, prefix="r")
    b = corpus.generate(spec, seed=7, prefix="r")
    c = corpus.generate(spec, seed=8, prefix="r")
    assert [g.raw_json() for g in a] == [g.raw_json() for g in b]
    assert [g.raw_json() for g in a] != [g.raw_json() for g in c]
    # the seed never changes the shapes, so the work per run is fixed
    assert [sorted(g.sentence_tokens) for g in a] == [sorted(g.sentence_tokens) for g in c]
    assert [g.cardinals for g in a] == [g.cardinals for g in c]


def test_caps_records_fill_every_block_after_truncation():
    generated = corpus.generate(corpus.caps_spec(2, short_records=1), seed=3, prefix="c")
    derived = derive(generated)
    assert len(derived) == 3 and len(derived[2].sentences) == 3
    for d in derived[:2]:
        assert len(d.sentences) > corpus.CAPS_SENTENCES
        assert all(len(s) > corpus.CAPS_WORDS for s in d.sentences)
        assert len(d.patterns) == 1


def test_ragged_shape_is_long_tailed_with_one_to_three_cardinals():
    spec = corpus.ragged_spec(40, sentence_median=8, word_median=12, vocabulary=30000)
    counts = [len(s.sentence_words) for s in spec.shapes]
    lengths = [w for s in spec.shapes for w in s.sentence_words]
    assert max(counts) > corpus.CAPS_SENTENCES and max(lengths) > corpus.CAPS_WORDS
    assert report.median(counts) < 12 and report.median(lengths) < 16
    assert {s.cardinals for s in spec.shapes} == {1, 2, 3}


def test_tail_fills_the_table_but_not_the_padded_record():
    from poshan.attention import pad_record
    from poshan.embeddings import build_vocab

    spec = corpus.ragged_spec(4, sentence_median=6, word_median=8, vocabulary=3000, tail=True,
                              past_sentence_cap=False)
    assert [s.tail_words for s in spec.shapes] == [3000, 0, 0, 0]
    derived = derive(corpus.generate(spec, seed=4, prefix="t"))
    assert len(derived) == 4
    assert len(build_vocab(derived[:1]).vocab) > 3000
    padded = pad_record(derived[0], corpus.CAPS_WORDS, corpus.CAPS_SENTENCES)
    kept = {t for s in padded.sentences for t in s.tokens}
    assert len(kept) < 300
    assert max(len(s) for s in derived[0].sentences) > 3000


def test_vocabulary_is_zipfian():
    spec = corpus.ragged_spec(60, sentence_median=8, word_median=12, vocabulary=30000)
    generated = corpus.generate(spec, seed=1, prefix="z")
    counts = {}
    for g in generated:
        for word in g.body.replace(".", " ").split():
            if word.isalpha() and word not in corpus.FUNCTION_WORDS:
                counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    assert len(ranked) > 1000
    assert ranked[0] > 20 * ranked[len(ranked) // 2]


def test_label_is_congruent_exactly_when_headline_numbers_are_in_body():
    spec = corpus.ragged_spec(30, sentence_median=5, word_median=9, vocabulary=3000)
    for d in derive(corpus.generate(spec, seed=5, prefix="l")):
        body = {t.text for s in d.sentences[:corpus.CAPS_SENTENCES] for t in s[:corpus.CAPS_WORDS]}
        numbers = [p.num for p in d.phrases]
        if d.label == text.CONGRUENT:
            assert all(n in body for n in numbers)
        else:
            assert not any(n in body for n in numbers)


def test_generator_plan_matches_derivation_and_catches_drift():
    spec = corpus.ragged_spec(20, sentence_median=4, word_median=8, vocabulary=2000, no_cardinal_every=4)
    generated = corpus.generate(spec, seed=2, prefix="p")
    expected = [{"id": g.id, "headline_tokens": g.headline_tokens,
                 "sentence_tokens": g.sentence_tokens, "cardinals": g.cardinals} for g in generated]
    derived = derive(generated)
    assert len(derived) == 15
    assert workloads.derive_mismatches(derived, expected) == []
    derived[0].sentences.pop()
    assert workloads.derive_mismatches(derived, expected) == [derived[0].id]


def test_pseudo_words_are_plain_words_to_the_tagger():
    tagger = text.RuleTagger()
    words = corpus.word_list(3000)
    assert len(set(words)) == 3000
    assert not any(tagger.tag_token(w) == text.CD_TAG for w in words)


# ---------------------------------------------------------------------------
# Span recorder


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)
    outer = rec.open("outer")            # 0 .. 10
    clock.now = 1.0
    child = rec.open("child")            # 1 .. 4
    clock.now = 2.0
    grandchild = rec.open("grandchild")  # 2 .. 3
    clock.now = 3.0
    rec.close(grandchild)
    clock.now = 4.0
    rec.close(child)
    clock.now = 6.0
    with rec.span("child"):              # 6 .. 8
        clock.now = 8.0
    clock.now = 10.0
    rec.close(outer)

    assert rec.self_times() == [5.0, 2.0, 1.0, 2.0]
    assert rec.parents == [-1, 0, 1, 0]
    summary = rec.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0, "gc_s": 0.0}
    assert summary["child"]["calls"] == 2 and summary["child"]["total_s"] == 5.0
    assert summary["child"]["self_s"] == 4.0


def test_reentrant_name_counts_inclusive_time_once():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)
    a = rec.open("x")
    clock.now = 1.0
    b = rec.open("x")
    clock.now = 3.0
    rec.close(b)
    clock.now = 4.0
    rec.close(a)
    assert rec.summary()["x"]["total_s"] == 4.0
    assert rec.summary()["x"]["self_s"] == 4.0


def test_spans_must_close_in_order():
    rec = spans.SpanRecorder()
    a = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_gc_pauses_go_to_the_innermost_open_span():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)
    rec._on_gc("start", {"generation": 0})
    clock.now = 0.5
    rec._on_gc("stop", {"generation": 0})
    outer = rec.open("outer")
    inner = rec.open("inner")
    clock.now = 1.0
    rec._on_gc("start", {"generation": 2})
    clock.now = 1.25
    rec._on_gc("stop", {"generation": 2})
    rec.close(inner)
    rec.close(outer)
    assert rec.gc_s == [0.0, 0.25]
    assert rec.gc_outside_s == 0.5 and rec.gc_pause_s == 0.25
    assert rec.gc_full_collections == 1


def test_dump_writes_spans_and_summary(tmp_path):
    rec = spans.SpanRecorder()
    with rec.span("a"):
        rec.count("things", 3)
    rec.dump(tmp_path / "spans.json")
    data = json.loads((tmp_path / "spans.json").read_text())
    assert [s["name"] for s in data["spans"]] == ["a"]
    assert data["counters"] == {"things": 3}
    assert data["summary"]["a"]["calls"] == 1


def test_instrument_wraps_and_undo_restores():
    from poshan import attention, encoder, grad, train

    originals = (train.backward, attention.attend, encoder.SequenceEncoder.encode, grad.Tensor.__init__)
    rec = spans.SpanRecorder()
    patches = spans.instrument(rec)
    try:
        assert train.backward is not originals[0]
        grad.constant(1.0)
        assert rec.counters["grad.tensors"] == 1
    finally:
        patches.undo()
    assert (train.backward, attention.attend, encoder.SequenceEncoder.encode,
            grad.Tensor.__init__) == originals


# ---------------------------------------------------------------------------
# Reporting


def test_percentile_report_states_sample_count_and_support():
    summary = report.latency_summary([float(i) for i in range(100)])
    assert summary["count"] == 100
    assert summary["p50"] == pytest.approx(49.5)
    assert summary["p90"] == pytest.approx(89.1)
    assert summary["beyond_p90"] == 10
    assert summary["highest_supported"] == 90

    small = report.latency_summary([5.0, 1.0, 3.0])
    assert small["count"] == 3 and small["p50"] == 3.0
    assert small["highest_supported"] is None


def test_speed_sampler_scales_by_probe_speed_and_drops_probe_time():
    sampler = report.SpeedSampler()
    nominal = report.NOMINAL_PROBE_S
    # probes at twice the nominal time: the machine runs at half speed
    for start in (0.0, 0.1, 0.2, 0.3):
        sampler.starts.append(start)
        sampler.ends.append(start + 2 * nominal)
    wall = 0.35 - 0.05
    busy = 3 * 2 * nominal  # the probes at 0.1, 0.2 and 0.3 fall inside
    expected = (wall - busy) * 0.5 ** report.SPEED_EXPONENT
    assert sampler.scaled(0.05, 0.35) == pytest.approx(expected)
    # an interval with no probe nearby takes the nearest one
    assert sampler.scaled(1.0, 1.01) == pytest.approx(0.01 * 0.5 ** report.SPEED_EXPONENT)


def test_speed_sampler_runs_in_process():
    sampler = report.SpeedSampler()
    sampler.start()
    deadline = report.time.perf_counter() + 0.35
    while report.time.perf_counter() < deadline:
        pass
    sampler.stop()
    assert len(sampler.starts) >= 4
    assert sampler.scaled(sampler.starts[0], sampler.ends[-1]) > 0


def test_percentile_matches_numpy():
    import numpy as np

    data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for q in (0, 10, 50, 90, 100):
        assert report.percentile(data, q) == pytest.approx(float(np.percentile(data, q)))


# ---------------------------------------------------------------------------
# Correctness checks


def _report():
    return metrics.EvalReport(
        macro_f1=0.5, auc=None, tp=1, fp=0, tn=0, fn=1,
        predictions=[metrics.RecordPrediction("a", "congruent", "incongruent", 0.25, 0.75)]).to_json()


def test_schema_check_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = metrics.EVAL_REPORT_SCHEMA
    good = _report()
    variants = [good]
    for mutate in (
        lambda r: r.pop("auc"),
        lambda r: r.update(extra=1),
        lambda r: r.update(macro_f1=1.5),
        lambda r: r.update(positive_class="congruent"),
        lambda r: r["confusion"].update(tp=-1),
        lambda r: r["confusion"].update(tp=1.5),
        lambda r: r["predictions"][0].update(label="maybe"),
        lambda r: r["predictions"][0].pop("id"),
        lambda r: r.update(predictions={}),
    ):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        variants.append(bad)
    for value in variants:
        valid = jsonschema.Draft202012Validator(schema).is_valid(value)
        assert (checks.schema_errors(value, schema) == []) == valid, value


def test_off_simplex():
    assert not checks.off_simplex((0.25, 0.75))
    assert checks.off_simplex((0.5, 0.6))
    assert checks.off_simplex((float("nan"), 1.0))
    assert checks.off_simplex((-0.5, 1.5))
    assert checks.off_simplex((1.0,))


def test_log_losses():
    lines = ["epoch\ttrain-loss\tval-loss\tval-macro-f1", "0\t0.7\t0.69\t0.5", "1\tnan\t0.6\t0.5"]
    rows = checks.log_losses(lines)
    assert rows[0] == (0.7, 0.69) and rows[1][1] == 0.6
