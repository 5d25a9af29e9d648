"""Release gates for the package, checked end to end.

Covers: gradient correctness for all three models, attention simplex and
fusion invariants under randomized inputs, equivalence against
straight-line and brute-force oracles, feature-pipeline equivalence,
learning sanity on a synthetic number-matching task, bit-level training
determinism, the published default hyperparameters, and (when the
external corpora are available) the documented derivation counts.
"""

import json
import math
import os
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    QUERY_ORDER,
    oracle_macro_f1,
    oracle_probs_and_loss,
    oracle_roc_auc,
    straight_line_poshan_forward,
    straight_line_poshan_logits,
)
from synthetic import make_matching_task
from poshan.attention import document_forward, pad_record
from poshan.cli import main, run_gradcheck
from poshan.grad import no_grad
from poshan.metrics import build_report, roc_auc
from poshan.text import (
    LABELS,
    CardinalPattern,
    CardinalPhrase,
    RawRecord,
    RuleTagger,
    SidecarTags,
    TaggedToken,
    derive_dataset,
    extract_cardinal_features,
    read_corpus,
    replicate_for_training,
    tokenize,
    write_derived,
)
from poshan.train import (
    MODEL_KINDS,
    TrainConfig,
    build_model,
    build_tables,
    predict,
    train,
)

_TAGGER = RuleTagger()


def featurized(ident, label, headline, body):
    from poshan.text import featurize

    return featurize(RawRecord(id=ident, headline=headline, body=body, label=label), _TAGGER)


# ---------------------------------------------------------------------------
# 1. Gradient suite


def test_gradients_match_finite_differences_for_all_models():
    start = time.monotonic()
    for kind in MODEL_KINDS:
        report = run_gradcheck(kind, seed=7)
        assert report.passed, f"{kind}: gradient check failed"
        worst = max(entry.max_rel_error for entry in report.entries)
        assert worst <= 1e-4, f"{kind}: worst relative error {worst}"
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Attention invariants under randomized forwards


_POOL = ["loan", "rate", "team", "city", "votes", "deal", "big", "small", "rose", "fell"]


def _random_record(rng, i):
    n_head = int(rng.integers(2, 5))
    toks = [_POOL[rng.integers(len(_POOL))] for _ in range(n_head)]
    toks.insert(int(rng.integers(0, n_head + 1)), str(int(rng.integers(1, 99))))
    sentences = []
    for _ in range(int(rng.integers(1, 4))):
        m = int(rng.integers(1, 6))
        words = [_POOL[rng.integers(len(_POOL))] for _ in range(m)]
        if rng.integers(2):
            words.append(str(int(rng.integers(1, 99))))
        sentences.append(" ".join(words) + ".")
    label = "congruent" if rng.integers(2) else "incongruent"
    return featurized(f"x{i}", label, " ".join(toks), " ".join(sentences))


def _left_fold_mean(arrays):
    total = arrays[0].copy()
    for a in arrays[1:]:
        total = total + a
    return total / float(len(arrays))


def _assert_simplex(weights, mask):
    w = np.asarray(weights)
    assert np.all(w >= 0.0)
    if mask is not None:
        assert np.all(w[~np.asarray(mask)] == 0.0)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-6


def test_attention_invariants_over_1000_randomized_forwards():
    rng = np.random.default_rng(20250825)
    records = [_random_record(rng, i) for i in range(250)]
    checked = 0
    for seed in range(4):
        config = TrainConfig(word_dim=4 + seed, hidden_size=2 + seed % 2,
                             attention_size=3, pattern_dim=3 + seed, seed=seed)
        word_table, pattern_table = build_tables(records, config)
        model = build_model("poshan", config, word_table, pattern_table)
        for record in records:
            padded = pad_record(record, max_words=6, max_sentences=3)
            with no_grad():
                _, weights = document_forward(model, padded)
            types = list(weights["alpha"])
            assert len(types) == 3
            for n, sent in enumerate(padded.sentences):
                mask = np.asarray(sent.mask)
                per_type = [weights["alpha"][t].data[n] for t in types]
                for alpha in per_type:
                    _assert_simplex(alpha, mask)
                _assert_simplex(weights["alpha_fused"].data[n], mask)
                np.testing.assert_array_equal(weights["alpha_fused"].data[n],
                                              _left_fold_mean(per_type))
            per_type = [weights["beta"][t].data for t in types]
            for beta in per_type:
                _assert_simplex(beta, None)
            _assert_simplex(weights["beta_fused"].data, None)
            np.testing.assert_array_equal(weights["beta_fused"].data, _left_fold_mean(per_type))
            checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# 3. Oracle equivalence


def test_document_forward_matches_straight_line_oracle():
    record = featurized("o0", "incongruent", "Loan hits 1 million", "He won 2 big. No more.")
    config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4, seed=5)
    word_table, pattern_table = build_tables([record], config)
    model = build_model("poshan", config, word_table, pattern_table)

    units = replicate_for_training(record)
    assert len(units) == 2
    for rec in [record, *units]:
        padded = pad_record(rec, max_words=5, max_sentences=2)
        d, _ = document_forward(model, padded)
        reference = straight_line_poshan_forward(model, padded)
        assert np.max(np.abs(d.data - reference)) <= 1e-10


@pytest.mark.parametrize("cell", ["gru-bi", "lstm-uni"])
def test_document_forward_matches_straight_line_oracle_for_other_cells(cell):
    record = featurized("o1", "congruent", "5 ways to save 100 now",
                        "Save money fast today. Spend 100 less. Done.")
    config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4,
                         seed=6, cell=cell)
    word_table, pattern_table = build_tables([record], config)
    model = build_model("poshan", config, word_table, pattern_table)

    units = replicate_for_training(record)
    assert len(units) == 2
    for rec in [record, *units]:
        padded = pad_record(rec, max_words=5, max_sentences=3)
        assert len({sum(s.mask) for s in padded.sentences}) > 1
        d, _ = document_forward(model, padded)
        reference = straight_line_poshan_forward(model, padded)
        assert np.max(np.abs(d.data - reference)) <= 1e-10


# each ablation flag and the query type it removes
_ABLATED_TYPE = {"disable_pattern_att": "pattern", "disable_phrase_att": "phrase",
                 "replace_headline_att": "headline"}


@pytest.mark.parametrize("cell", ["lstm-bi", "gru-bi", "lstm-uni"])
@pytest.mark.parametrize("flag", [None, *_ABLATED_TYPE])
def test_logits_loss_and_probs_match_straight_line_oracle(flag, cell):
    records = [
        featurized("o2", "incongruent", "3 firms cut 40 jobs",
                   "The 3 firms said on Monday that 40 jobs would go. Cuts came. "
                   "Staff at 2 plants were told late in the day. None left. More news."),
        featurized("o3", "congruent", "Rates rise 2 points in 1 day",
                   "Rates rose 2 points. In 1 day the bank moved rates up by a lot again. "
                   "Markets fell. Traders sold 9 stocks before noon on the day."),
    ]
    config = TrainConfig(word_dim=3, hidden_size=2, pattern_dim=4, seed=7, cell=cell,
                         **({flag: True} if flag else {}))
    word_table, pattern_table = build_tables(records, config)
    model = build_model("poshan", config, word_table, pattern_table)
    # move every value off its initial one, so that a zero-initialized bias counts too
    rng = np.random.default_rng(8)
    for p in model.parameters():
        p.data += rng.uniform(-0.5, 0.5, p.shape)
    types = tuple(q for q in QUERY_ORDER if q != _ABLATED_TYPE.get(flag))

    units = [unit for record in records for unit in replicate_for_training(record)]
    assert len(units) == 4
    for rec in [*records, *units]:
        padded = pad_record(rec, max_words=5, max_sentences=3)
        assert len(rec.sentences) > 3 and max(len(s) for s in rec.sentences[:3]) > 5
        assert len({sum(s.mask) for s in padded.sentences}) > 1
        logits = straight_line_poshan_logits(model, padded, types)
        probs, loss = oracle_probs_and_loss(logits, rec.label)
        assert np.max(np.abs(model.forward(padded).data - logits)) <= 1e-10
        assert abs(float(model.loss(padded).data) - loss) <= 1e-10
        assert np.max(np.abs(model.predict_probs(padded) - probs)) <= 1e-10


def test_macro_f1_matches_brute_force_on_1000_cases():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        labels = ["congruent" if rng.integers(2) else "incongruent" for _ in range(n)]
        preds = ["congruent" if rng.integers(2) else "incongruent" for _ in range(n)]
        records = [SimpleNamespace(id=f"r{i}", label=y) for i, y in enumerate(labels)]
        one_hot = [np.eye(2)[LABELS.index(p)] for p in preds]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert build_report(records, one_hot).macro_f1 == oracle_macro_f1(preds, labels)


def test_roc_auc_matches_brute_force_on_1000_cases():
    rng = np.random.default_rng(42)
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 12))
        labels = ["congruent" if rng.integers(2) else "incongruent" for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        # A coarse grid forces plenty of ties.
        scores = [float(rng.integers(0, 5)) / 4.0 for _ in range(n)]
        assert roc_auc(scores, labels) == oracle_roc_auc(scores, labels)
        done += 1


# ---------------------------------------------------------------------------
# 4. Feature-pipeline equivalence


def test_derive_matches_hand_filter_on_ten_records():
    rows = [
        ("f0", "Loan hits 3 million", True),
        ("f1", "No numbers here", False),
        ("f2", "5 ways to save", True),
        ("f3", "Rain expected tomorrow", False),
        ("f4", "Budget cut by 12", True),
        ("f5", "All quiet downtown", False),
        ("f6", "2 teams tied again", True),
        ("f7", "Storm moving east", False),
        ("f8", "Taxes rise 1.5 percent", True),
        ("f9", "Nothing to report", False),
    ]
    records = [RawRecord(id=i, headline=h, body="Something happened today.",
                         label="congruent") for i, h, _ in rows]
    kept, counts = derive_dataset(records, _TAGGER)
    expected = [i for i, _, keep in rows if keep]
    assert [r.id for r in kept] == expected
    assert counts["congruent", True] + counts["incongruent", True] == len(expected)
    assert counts["congruent", True] == len(expected)
    assert counts["congruent", False] == len(rows) - len(expected)


def test_extract_features_matches_hand_oracle():
    tagged = [TaggedToken("loan", "NN"), TaggedToken("hits", "VBZ"),
              TaggedToken("1", "CD"), TaggedToken("million", "CD")]
    patterns, phrases = extract_cardinal_features(tagged)
    assert patterns == [CardinalPattern("VBZ", "CD"), CardinalPattern("CD", "EOS")]
    assert phrases == [CardinalPhrase("hits", "1", "million"),
                       CardinalPhrase("1", "million", "<eos>")]


def test_pattern_count_equals_cardinal_count_on_1000_headlines():
    rng = np.random.default_rng(43)
    for i in range(1000):
        n = int(rng.integers(1, 9))
        tokens = []
        for _ in range(n):
            if rng.integers(3) == 0:
                tokens.append(str(int(rng.integers(0, 5000))))
            else:
                tokens.append(_POOL[rng.integers(len(_POOL))])
        tags, _ = _TAGGER.tags(f"h{i}", tokens, [])
        tagged = [TaggedToken(t, g) for t, g in zip(tokens, tags)]
        patterns, phrases = extract_cardinal_features(tagged)
        cardinal_count = tags.count("CD")
        assert len(patterns) == cardinal_count
        assert len(phrases) == cardinal_count
        around = [(tags[i - 1] if i else "BOS", tags[i + 1] if i + 1 < n else "EOS")
                  for i, g in enumerate(tags) if g == "CD"]
        assert [(p.left, p.right) for p in patterns] == around
        for phrase, tok in zip(phrases, [t for t, g in zip(tokens, tags) if g == "CD"]):
            assert phrase.num == tok


# ---------------------------------------------------------------------------
# 5. Learning sanity on the synthetic matching task


def _accuracy(report, n):
    return (report.tp + report.tn) / n


def test_synthetic_task_reaches_95_percent_train_accuracy():
    records = make_matching_task(64, seed=13)
    config = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=30,
                         early_stop_patience=30, word_dim=12, hidden_size=6,
                         pattern_dim=8, seed=0)
    start = time.monotonic()
    result = train(config, records, records, model_kind="poshan")
    elapsed = time.monotonic() - start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = predict(result.checkpoint, records)
    assert result.epochs_run <= 200
    assert _accuracy(report, len(records)) >= 0.95
    assert elapsed < 300.0


def test_synthetic_task_training_is_deterministic_per_seed():
    records = make_matching_task(64, seed=13)
    config = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=3,
                         early_stop_patience=3, word_dim=12, hidden_size=6,
                         pattern_dim=8, seed=4)
    first = train(config, records, records, model_kind="poshan")
    second = train(config, records, records, model_kind="poshan")
    assert first.log_lines == second.log_lines
    for name, value in first.checkpoint.params.items():
        np.testing.assert_array_equal(value, second.checkpoint.params[name])


def test_full_model_beats_or_ties_headline_only_ablation(tmp_path):
    # Disjoint distractor numbers keep the task learnable by both model
    # variants at these tiny sizes, so the comparison measures the query
    # set rather than raw capacity.
    train_set = make_matching_task(200, seed=31, prefix="tr", disjoint_distractors=True)
    val_set = make_matching_task(50, seed=33, prefix="va", disjoint_distractors=True)
    test_set = make_matching_task(100, seed=32, prefix="te", disjoint_distractors=True)

    def run(seed, headline_only):
        config = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=8,
                             early_stop_patience=3, word_dim=6, hidden_size=3,
                             pattern_dim=4, seed=seed,
                             disable_pattern_att=headline_only,
                             disable_phrase_att=headline_only)
        result = train(config, train_set, val_set, model_kind="poshan")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return predict(result.checkpoint, test_set).macro_f1

    seeds = range(5)
    rows = []
    for seed in seeds:
        rows.append((seed, run(seed, False), run(seed, True)))

    full_mean = sum(r[1] for r in rows) / len(rows)
    ablation_mean = sum(r[2] for r in rows) / len(rows)
    lines = ["seed\tfull-macro-f1\theadline-only-macro-f1"]
    lines += [f"{s}\t{f!r}\t{a!r}" for s, f, a in rows]
    lines.append(f"mean\t{full_mean!r}\t{ablation_mean!r}")
    report_text = "\n".join(lines) + "\n"
    # The comparison report is written (and echoed) before the assertion
    # so it survives a failing run.
    (tmp_path / "ablation_comparison.tsv").write_text(report_text)
    print(report_text)
    assert full_mean >= ablation_mean


# ---------------------------------------------------------------------------
# 6. Bit-level determinism of the training command


def test_two_train_commands_produce_identical_artifacts(tmp_path):
    records = make_matching_task(40, seed=77, prefix="d")
    write_derived(records[:32], tmp_path / "train.jsonl")
    write_derived(records[32:], tmp_path / "val.jsonl")
    (tmp_path / "run.cfg").write_text(
        "learning-rate=0.05\nbatch-size=8\nmax-epochs=3\nword-dim=6\n"
        "hidden-size=3\npattern-dim=4\nseed=2\n")
    outputs = []
    for name in ("a", "b"):
        rc = main(["train", "--config", str(tmp_path / "run.cfg"), "--model", "poshan",
                   "--train", str(tmp_path / "train.jsonl"),
                   "--val", str(tmp_path / "val.jsonl"),
                   "--out", str(tmp_path / f"{name}.ckpt")])
        assert rc == 0
        outputs.append((
            (tmp_path / f"{name}.ckpt").read_bytes(),
            (tmp_path / f"{name}.ckpt.log.tsv").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


# ---------------------------------------------------------------------------
# 7. Default hyperparameters


def test_default_hyperparameters_are_the_published_ones():
    config = TrainConfig()
    assert config.learning_rate == 0.003
    assert config.batch_size == 128
    assert config.grad_clip == 6.0
    assert config.max_epochs == 50
    assert config.early_stop_patience == 5
    assert config.max_words_per_sentence == 45
    assert config.max_sentences == 35
    assert config.pattern_dim == 100


# ---------------------------------------------------------------------------
# 8. External corpora (documented: run only when the data is provided)


EXTERNAL_CORPORA = [
    pytest.param("POSHAN_NELA17_CORPUS", "POSHAN_NELA17_TAGS",
                 14000, 7766, 6234, id="nela17"),
    pytest.param("POSHAN_CLICKBAIT_CORPUS", "POSHAN_CLICKBAIT_TAGS",
                 3435, 2681, 754, id="clickbait"),
]


@pytest.mark.parametrize("corpus_env,tags_env,total,congruent,incongruent",
                         EXTERNAL_CORPORA)
def test_external_corpus_derivation_counts(corpus_env, tags_env, total,
                                           congruent, incongruent):
    corpus_path = os.environ.get(corpus_env)
    tags_path = os.environ.get(tags_env)
    if not corpus_path or not tags_path:
        pytest.skip(f"set {corpus_env} and {tags_env} to run this check")
    records = read_corpus(corpus_path)
    provider = SidecarTags.from_jsonl(tags_path)
    _, counts = derive_dataset(records, provider)
    assert counts["congruent", True] + counts["incongruent", True] == total
    assert counts["congruent", True] == congruent
    assert counts["incongruent", True] == incongruent
