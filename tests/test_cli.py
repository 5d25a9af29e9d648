"""End-to-end tests for the command-line interface and its exit codes."""

import contextlib
import dataclasses
import functools
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import poshan
import poshan.cli
from poshan.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main, run_gradcheck
from poshan.encoder import CELLS
from poshan.grad import backward
from poshan.metrics import EVAL_REPORT_SCHEMA
from poshan.text import DataError, read_derived, tokenize
from poshan.train import (
    CHECKPOINT_MAGIC,
    MAX_SIZE,
    MODEL_KINDS,
    TrainConfig,
    load_checkpoint,
    parse_config,
    prior_loss,
    save_checkpoint,
    train,
)


def write_corpus(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


# a UTF-16 file with its byte-order mark, which no UTF-8 decoder accepts
NOT_UTF8 = b"\xff\xfe" + '{"id": "a"}\n'.encode("utf-16-le")
NOT_UTF8_ERROR = "not UTF-8 text (invalid start byte)"


def write_rows(path, rows):
    """Rows as JSON Lines, or bytes as they are."""
    if isinstance(rows, bytes):
        path.write_bytes(rows)
    else:
        write_corpus(path, rows)


def toy_rows(n=24):
    rows = []
    for i in range(n):
        value = (i * 5) % 8 + 1
        if i % 2 == 0:
            rows.append(dict(id=f"r{i}", headline=f"Team wins {value} games",
                             body=f"The team won {value} games. Fans cheered loudly.",
                             label="congruent"))
        else:
            rows.append(dict(id=f"r{i}", headline=f"Team wins {value} games",
                             body=f"The team won {value + 10} games. Critics were angry.",
                             label="incongruent"))
    return rows


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus -> derive -> split -> train, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    rows = toy_rows()
    rows.append(dict(id="nocard", headline="Nothing numeric here",
                     body="Still nothing numeric.", label="congruent"))
    write_corpus(root / "corpus.jsonl", rows)

    assert main(["derive", "--input", str(root / "corpus.jsonl"), "--fallback-tagger",
                 "--output", str(root / "derived.jsonl")]) == EXIT_OK
    assert main(["split", "--input", str(root / "derived.jsonl"), "--seed", "3",
                 "--out-dir", str(root / "splits")]) == EXIT_OK

    (root / "run.cfg").write_text(
        "learning-rate=0.05\nbatch-size=8\nmax-epochs=4\nword-dim=6\n"
        "hidden-size=3\npattern-dim=4\nseed=1\n")
    assert main(["train", "--config", str(root / "run.cfg"), "--model", "poshan",
                 "--train", str(root / "splits" / "train.jsonl"),
                 "--val", str(root / "splits" / "val.jsonl"),
                 "--out", str(root / "model.ckpt")]) == EXIT_OK
    return root


# ---------------------------------------------------------------------------
# derive


def test_derive_summary_matches_hand_filter(tmp_path, capsys):
    # 10 records; exactly the ones whose headline carries a number survive.
    rows = [
        dict(id="a0", headline="Loan hits 3 million", body="It did.", label="congruent"),
        dict(id="a1", headline="No numbers here", body="None at all.", label="congruent"),
        dict(id="a2", headline="5 ways to save", body="Try one.", label="incongruent"),
        dict(id="a3", headline="Rain tomorrow", body="Maybe.", label="incongruent"),
        dict(id="a4", headline="Budget cut by 12", body="By 12.", label="congruent"),
        dict(id="a5", headline="All quiet", body="Indeed.", label="congruent"),
        dict(id="a6", headline="2 teams tied", body="Again.", label="incongruent"),
        dict(id="a7", headline="Storm coming", body="Soon.", label="congruent"),
        dict(id="a8", headline="Taxes rise 1.5 percent", body="Ouch.", label="incongruent"),
        dict(id="a9", headline="Nothing to see", body="Move along.", label="incongruent"),
    ]
    write_corpus(tmp_path / "corpus.jsonl", rows)
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"), "--fallback-tagger",
               "--output", str(tmp_path / "derived.jsonl")])
    assert rc == EXIT_OK
    kept = read_derived(tmp_path / "derived.jsonl")
    assert [r.id for r in kept] == ["a0", "a2", "a4", "a6", "a8"]
    out = capsys.readouterr().out
    assert "congruent\t2\t3" in out
    assert "incongruent\t3\t2" in out
    assert "total\t5\t5" in out


def test_derive_drops_records_with_an_empty_body_and_the_rest_train(tmp_path, capsys):
    rows = toy_rows()
    for row, body in zip(rows, ["", " ", "\n\t ", "\u3000"]):
        row["body"] = body
    write_corpus(tmp_path / "corpus.jsonl", rows)
    assert main(["derive", "--input", str(tmp_path / "corpus.jsonl"), "--fallback-tagger",
                 "--output", str(tmp_path / "derived.jsonl")]) == EXIT_OK
    assert capsys.readouterr().out == ("label\tkept\tdropped\ncongruent\t10\t2\n"
                                       "incongruent\t10\t2\ntotal\t20\t4\n")
    kept = read_derived(tmp_path / "derived.jsonl")
    assert [r.id for r in kept] == [row["id"] for row in rows[4:]]
    assert main(["split", "--input", str(tmp_path / "derived.jsonl"), "--seed", "3",
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_OK
    (tmp_path / "run.cfg").write_text("batch-size=8\nmax-epochs=1\nword-dim=4\n"
                                      "hidden-size=2\npattern-dim=3\n")
    rc = main(["train", "--config", str(tmp_path / "run.cfg"), "--model", "poshan",
               "--train", str(tmp_path / "splits" / "train.jsonl"),
               "--val", str(tmp_path / "splits" / "val.jsonl"),
               "--out", str(tmp_path / "model.ckpt")])
    assert rc == EXIT_OK, capsys.readouterr().err


def test_derive_with_sidecar_tags(tmp_path):
    rows = [dict(id="s0", headline="Loan hits 3 million", body="He won 2 games.",
                 label="congruent"),
            dict(id="s1", headline="Top 5 -- ways", body="He won 2 games.",
                 label="congruent")]
    write_corpus(tmp_path / "corpus.jsonl", rows)
    body_toks = tokenize("He won 2 games.")
    body_tags = [["PRP", "VBD", "CD", "NNS", "."]]
    # Penn tags a dash as ":", the separator of pattern keys
    sidecars = [dict(id="s0", headline_tags=["NN", "VBZ", "CD", "CD"], body_tags=body_tags),
                dict(id="s1", headline_tags=["JJ", "CD", ":", ":", "NNS"], body_tags=body_tags)]
    for row, sidecar in zip(rows, sidecars):
        assert len(sidecar["headline_tags"]) == len(tokenize(row["headline"]))
    assert len(body_tags[0]) == len(body_toks)
    (tmp_path / "tags.jsonl").write_text("".join(json.dumps(s) + "\n" for s in sidecars))
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"),
               "--tags", str(tmp_path / "tags.jsonl"),
               "--output", str(tmp_path / "derived.jsonl")])
    assert rc == EXIT_OK
    first, second = read_derived(tmp_path / "derived.jsonl")
    assert len(first.patterns) == 2
    assert second.patterns == ["JJ:CD::"]


def test_derive_sidecar_mismatch_is_data_error(tmp_path, capsys):
    rows = [dict(id="s0", headline="Loan hits 3 million", body="Short.", label="congruent")]
    write_corpus(tmp_path / "corpus.jsonl", rows)
    sidecar = dict(id="s0", headline_tags=["NN"], body_tags=[["NN", "."]])
    (tmp_path / "tags.jsonl").write_text(json.dumps(sidecar) + "\n")
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"),
               "--tags", str(tmp_path / "tags.jsonl"),
               "--output", str(tmp_path / "derived.jsonl")])
    assert rc == EXIT_DATA
    assert "s0" in capsys.readouterr().err


def test_derive_needs_a_tag_source(tmp_path, capsys):
    write_corpus(tmp_path / "corpus.jsonl", toy_rows(2))
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"),
               "--output", str(tmp_path / "derived.jsonl")])
    assert rc == EXIT_USAGE
    assert "--tags or --fallback-tagger" in capsys.readouterr().err


def test_derive_rejects_both_tag_sources(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl", toy_rows(2))
    (tmp_path / "tags.jsonl").write_text("")
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"),
               "--tags", str(tmp_path / "tags.jsonl"), "--fallback-tagger",
               "--output", str(tmp_path / "derived.jsonl")])
    assert rc == EXIT_USAGE


def test_derive_malformed_corpus_names_line(tmp_path, capsys):
    good = json.dumps(dict(id="x", headline="A 1 b", body="C.", label="congruent"))
    (tmp_path / "corpus.jsonl").write_text(good + "\n{broken\n")
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"), "--fallback-tagger",
               "--output", str(tmp_path / "derived.jsonl")])
    assert rc == EXIT_DATA
    assert "2" in capsys.readouterr().err


_ROW = dict(id="a", headline="Loan hits 3 million", body="He won 2 games.", label="congruent")
_TAGS = dict(id="a", headline_tags=["NN", "VBZ", "CD", "CD"],
             body_tags=[["PRP", "VBD", "CD", "NNS", "."]])


@pytest.mark.parametrize("rows,tags,message", [
    ([dict(_ROW, headline=5)], None, "corpus.jsonl:1: headline 5 is not a string"),
    ([dict(_ROW, headline=None)], None, "corpus.jsonl:1: headline None is not a string"),
    ([dict(_ROW, body=["x"])], None, "corpus.jsonl:1: body ['x'] is not a string"),
    ([_ROW, _ROW], None, "corpus.jsonl:1: id 'a' appears again on line 2"),
    ([_ROW], [_TAGS, _TAGS], "tags.jsonl:1: id 'a' appears again on line 2"),
    ([_ROW], [dict(_TAGS, headline_tags=5)], "tags.jsonl:1: headline_tags must be"),
    ([_ROW], [dict(_TAGS, id=["a"])], "tags.jsonl:1: sidecar id ['a'] is not a string"),
    ([dict(_ROW, headline="Loan 3")], [dict(_TAGS, headline_tags="CD")],
     "tags.jsonl:1: headline_tags must be"),
    ([_ROW], [dict(_TAGS, body_tags=[["PRP", "VBD", "CD", 7, "."]])],
     "tags.jsonl:1: body_tags must be"),
    ([dict(_ROW, id=None)], None, "corpus.jsonl:1: id None is not a string"),
    ([dict(_ROW, id=1), dict(_ROW, id="1")], None, "corpus.jsonl:1: id 1 is not a string"),
    ([_ROW], [dict(_TAGS, body_tags=_TAGS["body_tags"] + [["NN"], ["NN"]])],
     "record 'a': sidecar has 3 sentence tag lists for 1 sentences"),
    ([_ROW], [dict(_TAGS, body_tags=[["PRP", "VBD", "CD"]])],
     "record 'a': sidecar sentence 0 has 3 tags for 5 tokens"),
    ([_ROW, ["a", "b"]], None, "corpus.jsonl:2: expected a JSON object"),
    (NOT_UTF8, None, f"corpus.jsonl: {NOT_UTF8_ERROR}"),
    ([_ROW], NOT_UTF8, f"tags.jsonl: {NOT_UTF8_ERROR}"),
], ids=["headline-number", "headline-null", "body-list", "raw-id-twice", "sidecar-id-twice",
        "headline-tags-number", "sidecar-id-list", "headline-tags-string", "body-tag-number",
        "raw-id-null", "raw-id-number", "sidecar-extra-sentence-tags",
        "sidecar-sentence-tag-count", "raw-line-not-an-object", "raw-not-utf8",
        "sidecar-not-utf8"])
def test_derive_malformed_input_is_one_line_data_error(tmp_path, capsys, rows, tags, message):
    write_rows(tmp_path / "corpus.jsonl", rows)
    source = ["--fallback-tagger"]
    if tags is not None:
        write_rows(tmp_path / "tags.jsonl", tags)
        source = ["--tags", str(tmp_path / "tags.jsonl")]
    rc = main(["derive", "--input", str(tmp_path / "corpus.jsonl"), *source,
               "--output", str(tmp_path / "derived.jsonl")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert len(err.splitlines()) == 1 and err.startswith("poshan: "), err
    assert message in err and "Traceback" not in err, err


# ---------------------------------------------------------------------------
# split


def test_split_writes_three_stratified_files(workspace):
    splits = {name: read_derived(workspace / "splits" / f"{name}.jsonl")
              for name in ("train", "val", "test")}
    total = sum(len(v) for v in splits.values())
    derived = read_derived(workspace / "derived.jsonl")
    assert total == len(derived)
    assert len(splits["train"]) > len(splits["test"]) > len(splits["val"])
    all_ids = sorted(r.id for v in splits.values() for r in v)
    assert all_ids == sorted(r.id for r in derived)


def test_split_missing_input(tmp_path, capsys):
    rc = main(["split", "--input", str(tmp_path / "ghost.jsonl"), "--seed", "1",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_DATA
    assert "no such file" in capsys.readouterr().err


def test_split_non_utf8_input_is_one_line_data_error(tmp_path, capsys):
    (tmp_path / "derived.jsonl").write_bytes(NOT_UTF8)
    rc = main(["split", "--input", str(tmp_path / "derived.jsonl"), "--seed", "1",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        f"poshan: {tmp_path / 'derived.jsonl'}: {NOT_UTF8_ERROR}\n")


# ---------------------------------------------------------------------------
# train / eval


def test_train_writes_checkpoint_and_log(workspace):
    assert (workspace / "model.ckpt").exists()
    log = (workspace / "model.ckpt.log.tsv").read_text().splitlines()
    assert log[0] == "epoch\ttrain-loss\tval-loss\tval-macro-f1"
    assert len(log) == 5


def _without_cardinal(row):
    """A derived record whose headline has no cardinal token."""
    return dict(row, id="nocard", headline=[["Nothing", "NN"], ["here", "RB"]],
                patterns=[], phrases=[])


_BASE_CONFIG = "batch-size=8\nmax-epochs=1\nword-dim=4\nhidden-size=2\npattern-dim=3\n"


@pytest.mark.parametrize("config,add_record,message", [
    ("learning-rate=0\n", False, "learning-rate must be positive"),
    ("learning-rate=nan\n", False, "learning-rate must be positive and finite, got nan"),
    ("learning-rate=inf\n", False, "learning-rate must be positive and finite, got inf"),
    ("grad-clip=nan\n", False, "grad-clip must be positive and finite, got nan"),
    ("grad-clip=inf\n", False, "grad-clip must be positive and finite, got inf"),
    ("seed=-1\n", False, "seed must be at least 0, got -1"),
    ("disable-pattern-att=true\ndisable-phrase-att=true\nreplace-headline-att=true\n",
     False, "no attention query type"),
    ("", True, "has no cardinal pattern"),
    (f"word-dim={10**20}\n", False, f"word-dim must be at most 1048576, got {10**20}"),
    (f"hidden-size={10**20}\n", False, f"hidden-size must be at most 1048576, got {10**20}"),
    (f"pattern-dim={10**20}\n", False, f"pattern-dim must be at most 1048576, got {10**20}"),
    (f"attention-size={10**20}\n", False,
     f"attention-size must be at most 1048576, got {10**20}"),
    (NOT_UTF8, False, f"run.cfg: {NOT_UTF8_ERROR}"),
], ids=["zero-learning-rate", "nan-learning-rate", "inf-learning-rate", "nan-grad-clip",
        "inf-grad-clip", "negative-seed", "no-query-type", "record-without-cardinal",
        "huge-word-dim", "huge-hidden-size", "huge-pattern-dim", "huge-attention-size",
        "config-not-utf8"])
def test_train_malformed_input_is_data_error(workspace, tmp_path, capsys, config, add_record,
                                             message):
    cfg = tmp_path / "run.cfg"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    else:
        cfg.write_text(_BASE_CONFIG + config)
    train_path = workspace / "splits" / "train.jsonl"
    if add_record:
        rows = [json.loads(line) for line in train_path.read_text().splitlines()]
        train_path = tmp_path / "train.jsonl"
        write_corpus(train_path, rows + [_without_cardinal(rows[0])])
    rc = main(["train", "--config", str(cfg), "--train", str(train_path),
               "--val", str(workspace / "splits" / "val.jsonl"),
               "--out", str(tmp_path / "model.ckpt")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert message in err and len(err.splitlines()) == 1, err
    if not add_record:
        assert str(cfg) in err


@pytest.mark.parametrize("line,message", [
    ("bogus=1", "unknown key 'bogus'"),
    ("hidden-size=abc", "bad value 'abc' for key 'hidden-size'"),
    ("hidden-size", "expected key=value, got 'hidden-size'"),
], ids=["unknown-key", "bad-value", "no-equals-sign"])
def test_bad_config_line_names_file_and_line(workspace, tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BASE_CONFIG + "# a comment\n\n" + line + "\n")
    splits = workspace / "splits"
    rc = main(["train", "--config", str(cfg), "--train", str(splits / "train.jsonl"),
               "--val", str(splits / "val.jsonl"), "--out", str(tmp_path / "model.ckpt")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"poshan: {cfg}:8: {message}\n"
    assert not (tmp_path / "model.ckpt").exists()


def test_diverging_training_run_is_one_line_data_error(workspace, tmp_path, capsys):
    """A learning rate near the largest double drives the parameters past
    it: the run stops at the first overflow, before fusion sees NaN."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BASE_CONFIG + "learning-rate=1e308\n")
    splits = workspace / "splits"
    rc = main(["train", "--config", str(cfg), "--train", str(splits / "train.jsonl"),
               "--val", str(splits / "val.jsonl"), "--out", str(tmp_path / "model.ckpt")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err.startswith("poshan: training diverged: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("config,warns", [
    (_BASE_CONFIG + "learning-rate=1e30\n", True),
    (None, False),
], ids=["learning-rate-1e30", "workspace-config"])
def test_training_no_better_than_the_label_prior_warns(workspace, tmp_path, capsys, config,
                                                       warns):
    """A learning rate of 1e30 keeps the parameters finite but leaves a
    best validation loss near 1e30: the run still exits 0 and writes the
    checkpoint and log that ``train`` gives, and says in one stderr line
    that the model is no better than predicting the label prior."""
    cfg = workspace / "run.cfg"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
    splits = workspace / "splits"
    out = tmp_path / "model.ckpt"
    rc = main(["train", "--config", str(cfg), "--train", str(splits / "train.jsonl"),
               "--val", str(splits / "val.jsonl"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_OK, err
    val_set = read_derived(splits / "val.jsonl")
    result = train(parse_config(cfg), read_derived(splits / "train.jsonl"), val_set)
    best_loss = result.checkpoint.val_losses[result.checkpoint.best_epoch]
    if warns:
        assert err == (f"poshan: warning: best validation loss {best_loss!r} is no better "
                       f"than {prior_loss(val_set)!r}, the loss of predicting the "
                       "validation label prior\n")
    else:
        assert err == ""
    save_checkpoint(result.checkpoint, tmp_path / "direct.ckpt")
    assert out.read_bytes() == (tmp_path / "direct.ckpt").read_bytes()
    assert (tmp_path / "model.ckpt.log.tsv").read_text() == "\n".join(result.log_lines) + "\n"


def test_eval_record_without_cardinal_needs_a_query_type(workspace, tmp_path, capsys):
    """Without headline attention, a record with no cardinal has no query
    left: a data error, where the other models fall back to the headline."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BASE_CONFIG + "replace-headline-att=true\n")
    ckpt = tmp_path / "model.ckpt"
    splits = workspace / "splits"
    assert main(["train", "--config", str(cfg), "--train", str(splits / "train.jsonl"),
                 "--val", str(splits / "val.jsonl"), "--out", str(ckpt)]) == EXIT_OK
    rows = [json.loads(line) for line in (splits / "test.jsonl").read_text().splitlines()]
    test_path = tmp_path / "test.jsonl"
    write_corpus(test_path, rows + [_without_cardinal(rows[0])])
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(ckpt), "--test", str(test_path),
               "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert "'nocard'" in err and len(err.splitlines()) == 1, err


def test_eval_warning_is_one_line(workspace, tmp_path, capsys):
    """The headline-only fallback for a record with no cardinal reaches
    stderr as one ``poshan: warning:`` line with no source location, and
    ``main`` restores the warning printer it replaced."""
    import warnings

    rows = [json.loads(line)
            for line in (workspace / "splits" / "test.jsonl").read_text().splitlines()]
    test_path = tmp_path / "test.jsonl"
    write_corpus(test_path, rows + [_without_cardinal(rows[0])])
    capsys.readouterr()
    saved = warnings.showwarning
    rc = main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--test", str(test_path),
               "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_OK, err
    assert "poshan: warning: record 'nocard' has no cardinal feature" in err, err
    assert all(line.startswith("poshan: ") for line in err.splitlines()), err
    assert ".py:" not in err
    assert warnings.showwarning is saved


def test_eval_report_validates_against_schema(workspace, capsys):
    rc = main(["eval", "--ckpt", str(workspace / "model.ckpt"),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(workspace / "report.json")])
    assert rc == EXIT_OK
    report = json.loads((workspace / "report.json").read_text())
    jsonschema.validate(report, EVAL_REPORT_SCHEMA)
    out = capsys.readouterr().out
    assert out.startswith("macro-f1\t")
    test_size = len(read_derived(workspace / "splits" / "test.jsonl"))
    assert len(report["predictions"]) == test_size


def test_eval_missing_checkpoint(tmp_path, capsys):
    rc = main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
               "--test", str(tmp_path / "none.jsonl"),
               "--report", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA


def test_eval_directory_as_checkpoint(workspace, tmp_path, capsys):
    rc = main(["eval", "--ckpt", str(tmp_path),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "Is a directory" in err
    assert str(tmp_path) in err


def test_eval_corrupt_checkpoint(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"these are not the bytes you are looking for")
    rc = main(["eval", "--ckpt", str(bad),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    assert "magic" in capsys.readouterr().err


def test_eval_checkpoint_with_trailing_bytes(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((workspace / "model.ckpt").read_bytes() + b"\0\0\0\0")
    rc = main(["eval", "--ckpt", str(bad),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "4 trailing bytes" in err
    assert len(err.splitlines()) == 1


def _resaved(edit):
    """Mark ``edit`` as a change to the loaded checkpoint, which
    ``rewrite_header`` writes whole with ``save_checkpoint``, so that its
    data fits its header."""
    edit.resaved = True
    return edit


def rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header passed through ``edit``; bytes
    that ``edit`` returns are appended after the parameter data.  An edit
    marked ``_resaved`` changes the loaded checkpoint instead."""
    if getattr(edit, "resaved", False):
        save_checkpoint(edit(load_checkpoint(src)), dst)
        return
    raw = src.read_bytes()
    magic = raw.index(b"\n") + 1
    (length,) = struct.unpack_from("<I", raw, magic)
    header = json.loads(raw[magic + 4:magic + 4 + length])
    tail = edit(header) or b""
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(raw[:magic] + struct.pack("<I", len(body)) + body
                    + raw[magic + 4 + length:] + tail)


def _drop_config(header):
    del header["config"]


def _extra_config_key(header):
    header["config"]["dropout"] = 0.5


def _negative_hidden_size(header):
    header["config"]["hidden_size"] = -3


def _vocab_index_past_table(header):
    header["vocab"][sorted(header["vocab"])[0]] = 10 ** 6


def _null_patterns(header):
    header["patterns"] = None


def _nan_learning_rate(header):
    header["config"]["learning_rate"] = float("nan")


def _infinite_grad_clip(header):
    header["config"]["grad_clip"] = float("inf")


def _nan_val_loss(header):
    header["val-losses"][0] = float("nan")


def _negative_seed(header):
    header["config"]["seed"] = -1


def _shape_product_past_int64(header):
    header["params"][0]["shape"] = [2 ** 32, 2 ** 32]


def _huge_word_dim(header):
    header["config"]["word_dim"] = 10 ** 20


def _huge_hidden_size(header):
    header["config"]["hidden_size"] = 10 ** 20


def _huge_pattern_dim(header):
    header["config"]["pattern_dim"] = 10 ** 20


def _huge_attention_size(header):
    header["config"]["attention_size"] = 10 ** 20


def _word_dim_past_table(header):
    header["config"]["word_dim"] = 7


def _pattern_dim_past_table(header):
    header["config"]["pattern_dim"] = 99


def _extra_parameter(header):
    header["params"].append({"name": "classifier.extra", "shape": [2]})
    return np.zeros(2).tobytes()


def _table_rows(checkpoint, table, rows, key):
    """``checkpoint`` with ``rows`` rows of ``table`` and an empty ``key``
    index, so no keyed row lies outside the table."""
    width = checkpoint.params[table].shape[1]
    params = {**checkpoint.params, table: np.zeros((rows, width))}
    return dataclasses.replace(checkpoint, params=params, **{key: {}})


@_resaved
def _word_table_without_rows(checkpoint):
    return _table_rows(checkpoint, "word_embeddings", 0, "vocab")


@_resaved
def _word_table_without_unknown_row(checkpoint):
    return _table_rows(checkpoint, "word_embeddings", 1, "vocab")


@_resaved
def _pattern_table_without_rows(checkpoint):
    return dataclasses.replace(_table_rows(checkpoint, "pattern_embeddings", 0, "patterns"),
                               pattern_label_counts={})


def _unknown_model_kind(header):
    header["model-kind"] = "cnn"


def _unknown_word_mode(header):
    header["word-mode"] = "frozen"


def _vocab_not_an_object(header):
    header["vocab"] = sorted(header["vocab"])


def _params_not_a_list(header):
    header["params"] = {}


def _config_not_an_object(header):
    header["config"] = []


def _bad_parameter_entry(header):
    header["params"][0]["shape"] = [-1]


def _duplicate_parameter(header):
    header["params"].append(dict(header["params"][0]))


def _no_word_table(header):
    header["params"] = [e for e in header["params"] if e["name"] != "word_embeddings"]


def _config_value_of_wrong_type(header):
    header["config"]["batch_size"] = "8"


def _non_numeric_val_loss(header):
    header["val-losses"][0] = "abc"


def _fractional_best_epoch(header):
    header["best-epoch"] = 1.5


def _extra_header_key(header):
    header["bogus"] = [1, 2]


def _two_words_share_a_row(header):
    first, second = sorted(header["vocab"])[:2]
    header["vocab"][second] = header["vocab"][first]


def _reserved_vocab_key(header):
    header["vocab"]["<pad>"] = header["vocab"].pop(sorted(header["vocab"])[0])


# the parameter-list entries that a checkpoint which does not fit its
# model has and lacks
WORD_DIM_PAST_TABLE = ('the model\'s, not stored: '
                       '[{"name": "att.sentence.headline.w_q", "shape": [6, 7]}')
PATTERN_DIM_PAST_TABLE = '{"name": "att.word.pattern.w_q", "shape": [6, 99]}'
EXTRA_PARAMETER = ('stored, not the model\'s: [{"name": "classifier.extra", "shape": [2]}]; '
                   'the model\'s, not stored: []')
WORD_TABLE_WITHOUT_ROWS = (
    'stored, not the model\'s: [{"name": "word_embeddings", "shape": [0, 6]}]; '
    'the model\'s, not stored: [{"name": "word_embeddings", "shape": [2, 6]}]')
WORD_TABLE_WITHOUT_UNKNOWN_ROW = (
    'stored, not the model\'s: [{"name": "word_embeddings", "shape": [1, 6]}]')
PATTERN_TABLE_WITHOUT_ROWS = (
    'stored, not the model\'s: [{"name": "pattern_embeddings", "shape": [0, 4]}]; '
    'the model\'s, not stored: [{"name": "pattern_embeddings", "shape": [1, 4]}]')


@pytest.mark.parametrize("edit,message", [
    (_drop_config, "missing keys"),
    (_extra_config_key, "unknown keys"),
    (_negative_hidden_size, "hidden-size"),
    (_vocab_index_past_table, "vocab index"),
    (_null_patterns, "patterns is not an object"),
    (_nan_learning_rate, "learning-rate must be positive and finite, got nan"),
    (_infinite_grad_clip, "grad-clip must be positive and finite, got inf"),
    (_nan_val_loss, "val-losses are not all finite"),
    (_negative_seed, "seed must be at least 0, got -1"),
    (_shape_product_past_int64, '"shape": [4294967296, 4294967296]}'),
    (_huge_word_dim, f"word-dim must be at most 1048576, got {10 ** 20}"),
    (_huge_hidden_size, f"hidden-size must be at most 1048576, got {10 ** 20}"),
    (_huge_pattern_dim, f"pattern-dim must be at most 1048576, got {10 ** 20}"),
    (_huge_attention_size, f"attention-size must be at most 1048576, got {10 ** 20}"),
    (_word_dim_past_table, WORD_DIM_PAST_TABLE),
    (_pattern_dim_past_table, PATTERN_DIM_PAST_TABLE),
    (_extra_parameter, EXTRA_PARAMETER),
    (_word_table_without_rows, WORD_TABLE_WITHOUT_ROWS),
    (_word_table_without_unknown_row, WORD_TABLE_WITHOUT_UNKNOWN_ROW),
    (_pattern_table_without_rows, PATTERN_TABLE_WITHOUT_ROWS),
    (_unknown_model_kind, "unknown model kind 'cnn'"),
    (_unknown_word_mode, "unknown word mode 'frozen'"),
    (_vocab_not_an_object, "vocab is not an object"),
    (_params_not_a_list, "params is not a list"),
    (_config_not_an_object, "config is not an object"),
    (_bad_parameter_entry, '"shape": [-1]}'),
    (_duplicate_parameter, 'stored, not the model\'s: [{"name": "att.sentence.headline.b", '
                           '"shape": [6]}]; the model\'s, not stored: []'),
    (_no_word_table, 'the model\'s, not stored: [{"name": "word_embeddings", "shape": ['),
    (_config_value_of_wrong_type, "config value batch_size='8' has the wrong type"),
    (_non_numeric_val_loss, "val-losses are not numbers"),
    (_fractional_best_epoch, "bad best-epoch or val-losses"),
    (_extra_header_key, "header has unknown keys ['bogus'] and missing keys []"),
    (_two_words_share_a_row, "vocab index values are not the rows 2.."),
    (_reserved_vocab_key, "vocab holds the reserved tokens ['<pad>']"),
])
def test_eval_malformed_checkpoint_header_is_data_error(workspace, tmp_path, capsys,
                                                         edit, message):
    bad = tmp_path / "bad.ckpt"
    rewrite_header(workspace / "model.ckpt", bad, edit)
    rc = main(["eval", "--ckpt", str(bad),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert message in err and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("header_bytes,message", [
    (b"\x05\x00", "truncated checkpoint header"),
    (struct.pack("<I", 5) + b"{nope", "corrupt checkpoint header"),
    (struct.pack("<I", 3) + b"[1]", "header is not an object"),
], ids=["truncated-length", "not-json", "not-an-object"])
def test_eval_checkpoint_header_bytes_are_checked(workspace, tmp_path, capsys, header_bytes,
                                                  message):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CHECKPOINT_MAGIC + header_bytes)
    rc = main(["eval", "--ckpt", str(bad),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert message in err and len(err.splitlines()) == 1, err


def _reader_args(command, ckpt, workspace, tmp_path):
    test = workspace / "splits" / "test.jsonl"
    rest = {"eval": ["--test", str(test), "--report", str(tmp_path / "report.json")],
            "dump-attention": ["--input", str(test), "--record-id", read_derived(test)[0].id,
                               "--out", str(tmp_path / "trace.json")],
            "dump-patterns": ["--out", str(tmp_path / "patterns.tsv")]}[command]
    return [command, "--ckpt", str(ckpt), *rest]


@pytest.mark.parametrize("command", ["dump-attention", "dump-patterns"])
@pytest.mark.parametrize("edit,message", [
    (_word_dim_past_table, WORD_DIM_PAST_TABLE),
    (_pattern_dim_past_table, PATTERN_DIM_PAST_TABLE),
    (_extra_parameter, EXTRA_PARAMETER),
    (_word_table_without_rows, WORD_TABLE_WITHOUT_ROWS),
    (_word_table_without_unknown_row, WORD_TABLE_WITHOUT_UNKNOWN_ROW),
    (_pattern_table_without_rows, PATTERN_TABLE_WITHOUT_ROWS),
], ids=["word-dim", "pattern-dim", "extra-parameter", "word-rows", "word-unknown-row",
        "pattern-rows"])
def test_dump_commands_reject_a_checkpoint_that_does_not_fit_its_model(
        workspace, tmp_path, capsys, command, edit, message):
    bad = tmp_path / "bad.ckpt"
    rewrite_header(workspace / "model.ckpt", bad, edit)
    rc = main(_reader_args(command, bad, workspace, tmp_path))
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err.startswith("poshan: ") and message in err and len(err.splitlines()) == 1, err


def _large_word_dim(header):
    header["config"]["word_dim"] = 2 ** 18


def _hidden_size_500(header):
    header["config"]["hidden_size"] = 500


@pytest.mark.parametrize("edit", [_large_word_dim, _hidden_size_500],
                         ids=["word-dim-2**18", "hidden-size-500"])
def test_a_header_describing_a_large_model_is_rejected_before_any_value_is_drawn(
        workspace, tmp_path, capsys, edit):
    """A header whose sizes describe a model hundreds of MiB large, but
    whose parameter list and data are the toy model's, is rejected before
    the described model's values are drawn or allocated."""
    bad = tmp_path / "bad.ckpt"
    rewrite_header(workspace / "model.ckpt", bad, edit)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="params is not the 'poshan' model's list"):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    rc = main(_reader_args("eval", bad, workspace, tmp_path))
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err.startswith("poshan: ") and len(err.splitlines()) == 1, err


def _with_value(checkpoint, name, index, value):
    """``checkpoint`` with ``value`` at ``index`` of parameter ``name``."""
    array = checkpoint.params[name].copy()
    array[index] = value
    return dataclasses.replace(checkpoint, params={**checkpoint.params, name: array})


def _nan_in_bias_then_inf(checkpoint, test_records):
    """NaN in ``classifier.b`` and +inf in the parameter that sorts last."""
    last = max(checkpoint.params)
    assert last > "classifier.b"
    checkpoint = _with_value(checkpoint, "classifier.b", 0, np.nan)
    return _with_value(checkpoint, last, (-1, -1), np.inf)


def _inf_in_last_parameter(checkpoint, test_records):
    return _with_value(checkpoint, max(checkpoint.params), (-1, -1), np.inf)


def _negative_inf_in_unused_word_row(checkpoint, test_records):
    """-inf in the first word row that no test token looks up."""
    used = {token.text for r in test_records for token in chain(r.headline, *r.sentences)}
    row = min(i for word, i in checkpoint.vocab.items() if word not in used)
    return _with_value(checkpoint, "word_embeddings", row, -np.inf)


@pytest.mark.parametrize("command", ["eval", "dump-attention", "dump-patterns"])
@pytest.mark.parametrize("source,edit,name", [
    ("lstm.ckpt", _nan_in_bias_then_inf, "classifier.b"),
    ("lstm.ckpt", _inf_in_last_parameter, "word_embeddings"),
    ("model.ckpt", _negative_inf_in_unused_word_row, "word_embeddings"),
], ids=["lstm-nan-then-inf", "lstm-inf", "poshan-unused-word-row"])
def test_checkpoint_with_non_finite_parameters_is_one_line_data_error(
        workspace, baseline_ckpt, tmp_path, capsys, command, source, edit, name):
    bad = tmp_path / "bad.ckpt"
    test_records = read_derived(workspace / "splits" / "test.jsonl")
    save_checkpoint(edit(load_checkpoint(workspace / source), test_records), bad)
    rc = main(_reader_args(command, bad, workspace, tmp_path))
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err == f"poshan: {bad}: checkpoint: parameter {name!r} holds NaN or infinite values\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 64.0 GiB for an array with shape (4194304, 2097152) "
     "and data type float64", None),
    ("", "an allocation failed"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_line_data_error(workspace, tmp_path, capsys, monkeypatch,
                                              command, message, shown):
    import poshan.cli

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(poshan.cli, "train" if command == "train" else "predict", exhausted)
    splits = workspace / "splits"
    args = (["train", "--config", str(workspace / "run.cfg"),
             "--train", str(splits / "train.jsonl"), "--val", str(splits / "val.jsonl"),
             "--out", str(tmp_path / "model.ckpt")] if command == "train"
            else _reader_args("eval", workspace / "model.ckpt", workspace, tmp_path))
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err == f"poshan: out of memory: {shown or message}\n"


def _sentences_not_a_list(rows):
    rows[0]["sentences"] = 5


def _extra_pattern(rows):
    rows[0]["patterns"].append(rows[0]["patterns"][0])


def _no_phrases(rows):
    rows[0]["phrases"] = []


def _empty_sentence(rows):
    rows[0]["sentences"].append([])


def _unknown_label(rows):
    rows[0]["label"] = "maybe"


def _numeric_id(rows):
    rows[0]["id"] = 5


def _empty_headline_keeps_pattern(rows):
    rows[0]["headline"] = []


def _empty_headline_and_cardinals(rows):
    rows[0].update(headline=[], patterns=[], phrases=[])


def _duplicated_id(rows):
    rows[1]["id"] = rows[0]["id"]


def _no_sentences(rows):
    rows[0]["sentences"] = []


def _sentinel_headline(rows):
    rows[0].update(headline=[["<bos>", "CD"]], patterns=["BOS:CD:EOS"],
                   phrases=[["<bos>", "<bos>", "<eos>"]])


def _pad_body_token(rows):
    rows[0]["sentences"][0][0][0] = "<pad>"


def test_eval_derived_record_with_bad_field_types_is_data_error(workspace, tmp_path, capsys):
    lines = (workspace / "splits" / "test.jsonl").read_text().splitlines()
    for edit in (_sentences_not_a_list, _extra_pattern, _no_phrases, _empty_sentence,
                 _unknown_label, _numeric_id, _empty_headline_keeps_pattern,
                 _empty_headline_and_cardinals, _duplicated_id, _no_sentences,
                 _sentinel_headline, _pad_body_token):
        rows = [json.loads(line) for line in lines]
        edit(rows)
        bad = tmp_path / "bad.jsonl"
        write_corpus(bad, rows)
        rc = main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--test", str(bad),
                   "--report", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, (edit.__name__, err)
        assert ":1:" in err and len(err.splitlines()) == 1, (edit.__name__, err)
    bad.write_bytes(NOT_UTF8)
    rc = main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--test", str(bad),
               "--report", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"poshan: {bad}: {NOT_UTF8_ERROR}\n"


# ---------------------------------------------------------------------------
# dump commands


def test_dump_attention_trace_satisfies_simplex(workspace, tmp_path):
    test_records = read_derived(workspace / "splits" / "test.jsonl")
    out = tmp_path / "trace.json"
    rc = main(["dump-attention", "--ckpt", str(workspace / "model.ckpt"),
               "--input", str(workspace / "splits" / "test.jsonl"),
               "--record-id", test_records[0].id, "--out", str(out)])
    assert rc == EXIT_OK
    trace = json.loads(out.read_text())
    assert trace["record_id"] == test_records[0].id
    assert sum(b["beta_fused"] for b in trace["betas"]) == pytest.approx(1.0, abs=1e-6)
    for sentence in trace["sentences"]:
        fused = [tok["alpha_fused"] for tok in sentence]
        assert sum(fused) == pytest.approx(1.0, abs=1e-6)
        assert all(w >= 0.0 for w in fused)


def test_dump_attention_unknown_record(workspace, tmp_path, capsys):
    rc = main(["dump-attention", "--ckpt", str(workspace / "model.ckpt"),
               "--input", str(workspace / "splits" / "test.jsonl"),
               "--record-id", "ghost", "--out", str(tmp_path / "trace.json")])
    assert rc == EXIT_DATA
    assert "ghost" in capsys.readouterr().err


def _trained_ckpt(workspace, kind):
    ckpt = workspace / f"{kind}.ckpt"
    assert main(["train", "--config", str(workspace / "run.cfg"), "--model", kind,
                 "--train", str(workspace / "splits" / "train.jsonl"),
                 "--val", str(workspace / "splits" / "val.jsonl"),
                 "--out", str(ckpt)]) == EXIT_OK
    return ckpt


@pytest.fixture(scope="module")
def baseline_ckpt(workspace):
    return _trained_ckpt(workspace, "lstm")


def test_dump_attention_rejects_baseline_checkpoint(workspace, baseline_ckpt, tmp_path, capsys):
    capsys.readouterr()
    rc = main(["dump-attention", "--ckpt", str(baseline_ckpt),
               "--input", str(workspace / "splits" / "test.jsonl"),
               "--record-id", "r0", "--out", str(tmp_path / "trace.json")])
    assert rc == EXIT_DATA
    assert "hierarchical" in capsys.readouterr().err


def test_dump_patterns_rejects_baseline_checkpoint(baseline_ckpt, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "patterns.tsv"
    rc = main(["dump-patterns", "--ckpt", str(baseline_ckpt), "--out", str(out)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == "poshan: checkpoint for 'lstm' has no pattern table\n"
    assert not out.exists()


@pytest.mark.parametrize("counts", [5, [1, 2, 3], "ab", [1, -1], [1, 2.0], [True, 0]],
                         ids=["number", "three-counts", "string", "negative", "float", "bool"])
def test_dump_patterns_malformed_label_counts_is_data_error(workspace, tmp_path, capsys,
                                                            counts):
    def edit(header):
        first = sorted(header["pattern-label-counts"])[0]
        header["pattern-label-counts"][first] = counts

    bad = tmp_path / "bad.ckpt"
    rewrite_header(workspace / "model.ckpt", bad, edit)
    majority = tmp_path / "majority.tsv"
    rc = main(["dump-patterns", "--ckpt", str(bad), "--out", str(tmp_path / "patterns.tsv"),
               "--majority-out", str(majority)])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA, err
    assert err.startswith("poshan: ") and "pattern-label-counts" in err, err
    assert len(err.splitlines()) == 1, err
    assert not majority.exists()


def test_dump_patterns_writes_tables(workspace, tmp_path):
    out = tmp_path / "patterns.tsv"
    majority = tmp_path / "majority.tsv"
    rc = main(["dump-patterns", "--ckpt", str(workspace / "model.ckpt"),
               "--out", str(out), "--majority-out", str(majority)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    # Row 1 is the unseen-pattern entry, then one row per training pattern.
    assert lines[0].startswith("<unk>\t")
    assert len(lines) >= 2
    assert majority.read_text().splitlines()[0] == \
        "pattern\tmajority_label\tcongruent\tincongruent"


@pytest.fixture(scope="module")
def posat_ckpt(workspace):
    return _trained_ckpt(workspace, "posat")


# Any JSON value.  Integers run up to every layer size a config allows,
# and past it: the reader rejects a header before it allocates anything
# for the model the header describes.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers(-100, 100) | st.integers(101, MAX_SIZE)
    | st.sampled_from([2 ** 31, 2 ** 63, -2 ** 63, 10 ** 20]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8)
_DELETE = "<delete>"


def _edit_header(header, path, value):
    """Replace the value at ``path`` in ``header`` by ``value``, or delete
    it if ``value`` is ``_DELETE``.  A step of ``path`` is a key, or an
    int taken modulo the container's size; the path stops early at a
    value that is not a non-empty container."""
    node = header
    for depth, step in enumerate(path):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = step if isinstance(step, str) else keys[step % len(keys)]
        if depth == len(path) - 1 or not (isinstance(node[key], (dict, list)) and node[key]):
            break
        node = node[key]
    if value == _DELETE:
        del node[key]
    else:
        node[key] = value


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(MODEL_KINDS), edit=st.one_of(
    st.tuples(st.just("header"), st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3),
              st.just(_DELETE) | _JSON_VALUES),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 32)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16))))
# a baseline's header with an empty pattern table: its model has no
# pattern_embeddings parameter, so only the rule that a baseline's
# patterns are null stops dump-patterns from looking one up
@example(kind="lstm", edit=("header", ["patterns"], {}))
def test_edited_checkpoint_exits_0_or_with_one_data_error_line(
        workspace, baseline_ckpt, posat_ckpt, tmp_path, kind, edit):
    """One edit of a trained checkpoint: a header value replaced or
    deleted, the file truncated, or bytes appended.  Every command that
    reads it exits 0, or 2 with one ``poshan: `` line."""
    source = {"poshan": workspace / "model.ckpt", "lstm": baseline_ckpt, "posat": posat_ckpt}[kind]
    bad = tmp_path / "edited.ckpt"
    raw = source.read_bytes()
    if edit[0] == "header":
        rewrite_header(source, bad, lambda header: _edit_header(header, *edit[1:]))
    elif edit[0] == "truncate":
        bad.write_bytes(raw[:edit[1] % len(raw)])
    else:
        bad.write_bytes(raw + edit[1])
    for command in ("eval", "dump-attention", "dump-patterns"):
        args = _reader_args(command, bad, workspace, tmp_path)
        if command == "dump-patterns":
            args += ["--majority-out", str(tmp_path / "majority.tsv")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(args)
        err = stderr.getvalue()
        assert rc == EXIT_OK or (rc == EXIT_DATA and err.startswith("poshan: ")
                                 and len(err.splitlines()) == 1), (command, rc, err)


# ---------------------------------------------------------------------------
# determinism across processes


def test_written_files_do_not_depend_on_the_string_hash_seed(workspace, tmp_path):
    """Every command runs in a new interpreter under two PYTHONHASHSEED
    values; each file the commands write is byte-equal between them."""
    src = str(Path(poshan.__file__).resolve().parents[1])
    splits = workspace / "splits"
    test = str(splits / "test.jsonl")
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        commands = [["derive", "--input", str(workspace / "corpus.jsonl"), "--fallback-tagger",
                     "--output", str(out / "derived.jsonl")]]
        for kind in ("poshan", "posat"):
            commands += [
                ["train", "--config", str(workspace / "run.cfg"), "--model", kind,
                 "--train", str(splits / "train.jsonl"), "--val", str(splits / "val.jsonl"),
                 "--out", str(out / f"{kind}.ckpt")],
                ["eval", "--ckpt", str(out / f"{kind}.ckpt"), "--test", test,
                 "--report", str(out / f"{kind}.report.json")]]
        commands.append(["dump-attention", "--ckpt", str(out / "poshan.ckpt"), "--input", test,
                         "--record-id", read_derived(test)[0].id,
                         "--out", str(out / "trace.json")])
        for args in commands:
            run = subprocess.run([sys.executable, "-m", "poshan.cli", *args], env=env,
                                 capture_output=True, text=True)
            assert run.returncode == EXIT_OK, run.stderr
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(outputs[0]) == [
        "derived.jsonl", "posat.ckpt", "posat.ckpt.log.tsv", "posat.report.json",
        "poshan.ckpt", "poshan.ckpt.log.tsv", "poshan.report.json", "trace.json"]
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_cli_passes_for_lstm(capsys):
    rc = main(["gradcheck", "--model", "lstm", "--seed", "7"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("parameter\tmax_rel_error\tstatus")
    assert "fail" not in out


def test_gradcheck_with_a_wrong_backward_fails(monkeypatch, capsys):
    import poshan.model
    from poshan import grad

    def affine_with_wrong_bias_gradient(x, w, b):
        out = grad.affine(x, w, b)
        right = out._backward

        def back():
            right()
            grad.accumulate_grad(b, np.ones(b.shape))

        out._backward = back
        return out

    # the classifier head's affine map, shared by all three models
    monkeypatch.setattr(poshan.model, "affine", affine_with_wrong_bias_gradient)
    rc = main(["gradcheck", "--model", "lstm"])
    captured = capsys.readouterr()
    assert rc == EXIT_CHECK
    assert captured.err == "poshan: gradcheck failed for model 'lstm'\n"
    failed = [line.split("\t")[0] for line in captured.out.splitlines() if line.endswith("FAIL")]
    assert failed == ["classifier.b"]


def test_run_gradcheck_posat_seed7():
    report = run_gradcheck("posat", seed=7)
    assert report.passed
    assert all(entry.max_rel_error <= 1e-4 for entry in report.entries)


def gradcheck_loss(monkeypatch, kind, **settings):
    """The summed loss closure and the parameters that ``run_gradcheck``
    checks, for its config with ``settings`` added."""
    captured = {}
    monkeypatch.setattr(poshan.cli, "TrainConfig", functools.partial(TrainConfig, **settings))
    monkeypatch.setattr(poshan.cli, "finite_difference_check",
                        lambda forward, params: captured.update(forward=forward, params=params))
    run_gradcheck(kind, seed=0)
    return captured["forward"], captured["params"]


# each ablation flag and the parameters it takes off every path to the loss
_UNREACHED = {
    "disable_pattern_att": ["pattern_embeddings", "att.word.pattern", "att.sentence.pattern"],
    "disable_phrase_att": ["att.word.phrase", "att.sentence.phrase"],
    "replace_headline_att": ["att.word.headline", "att.sentence.headline"],
}


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("kind,flag", [(kind, None) for kind in MODEL_KINDS]
                         + [("poshan", flag) for flag in _UNREACHED])
def test_gradcheck_loss_reaches_every_parameter(monkeypatch, kind, flag, cell):
    """One backward of the gradcheck's loss leaves a nonzero gradient on
    every parameter, except on exactly those an ablation flag cuts off:
    the gradient check cannot fail a parameter that no loss reaches."""
    forward, params = gradcheck_loss(monkeypatch, kind, cell=cell,
                                     **({flag: True} if flag else {}))
    backward(forward())
    zero = [p.name for p in params if p.grad is None or not np.any(p.grad)]
    cut = _UNREACHED.get(flag, [])
    assert zero == [p.name for p in params
                    if p.name in cut or p.name.rsplit(".", 1)[0] in cut]
    # a cut query type takes its two scorers, four arrays each, off the path
    assert len(zero) == 8 * (flag is not None) + (flag == "disable_pattern_att")


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_flag_is_usage_error(capsys):
    assert main(["split", "--bogus"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_negative_gradcheck_seed_is_usage_error(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--seed must be non-negative, got -1" in err and len(err.splitlines()) == 1, err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--model", "poshan"]) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err
