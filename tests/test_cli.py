"""End-to-end tests for the command-line interface and its exit codes."""

import json

import jsonschema
import pytest

from poshan.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main, run_gradcheck
from poshan.metrics import EVAL_REPORT_SCHEMA
from poshan.text import read_derived, tokenize


def write_corpus(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


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
    assert [p.key for p in second.patterns] == ["JJ:CD::"]


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


# ---------------------------------------------------------------------------
# train / eval


def test_train_writes_checkpoint_and_log(workspace):
    assert (workspace / "model.ckpt").exists()
    log = (workspace / "model.ckpt.log.tsv").read_text().splitlines()
    assert log[0] == "epoch\ttrain-loss\tval-loss\tval-macro-f1"
    assert len(log) == 5


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


def rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header passed through ``edit``."""
    import struct

    raw = src.read_bytes()
    magic = raw.index(b"\n") + 1
    (length,) = struct.unpack_from("<I", raw, magic)
    header = json.loads(raw[magic + 4:magic + 4 + length])
    edit(header)
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(raw[:magic] + struct.pack("<I", len(body)) + body
                    + raw[magic + 4 + length:])


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


@pytest.mark.parametrize("edit,message", [
    (_drop_config, "missing keys"),
    (_extra_config_key, "unknown keys"),
    (_negative_hidden_size, "hidden-size"),
    (_vocab_index_past_table, "vocab index"),
    (_null_patterns, "patterns is not an object"),
])
def test_eval_malformed_checkpoint_header_is_data_error(workspace, tmp_path, capsys,
                                                         edit, message):
    bad = tmp_path / "bad.ckpt"
    rewrite_header(workspace / "model.ckpt", bad, edit)
    rc = main(["eval", "--ckpt", str(bad),
               "--test", str(workspace / "splits" / "test.jsonl"),
               "--report", str(tmp_path / "report.json")])
    assert rc == EXIT_DATA
    assert message in capsys.readouterr().err


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


def _duplicated_id(rows):
    rows[1]["id"] = rows[0]["id"]


def test_eval_derived_record_with_bad_field_types_is_data_error(workspace, tmp_path, capsys):
    lines = (workspace / "splits" / "test.jsonl").read_text().splitlines()
    for edit in (_sentences_not_a_list, _extra_pattern, _no_phrases, _empty_sentence,
                 _unknown_label, _numeric_id, _empty_headline_keeps_pattern, _duplicated_id):
        rows = [json.loads(line) for line in lines]
        edit(rows)
        bad = tmp_path / "bad.jsonl"
        write_corpus(bad, rows)
        rc = main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--test", str(bad),
                   "--report", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA, (edit.__name__, err)
        assert ":1:" in err and len(err.splitlines()) == 1, (edit.__name__, err)


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


def test_dump_attention_rejects_baseline_checkpoint(workspace, tmp_path, capsys):
    ckpt = tmp_path / "lstm.ckpt"
    assert main(["train", "--config", str(workspace / "run.cfg"), "--model", "lstm",
                 "--train", str(workspace / "splits" / "train.jsonl"),
                 "--val", str(workspace / "splits" / "val.jsonl"),
                 "--out", str(ckpt)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["dump-attention", "--ckpt", str(ckpt),
               "--input", str(workspace / "splits" / "test.jsonl"),
               "--record-id", "r0", "--out", str(tmp_path / "trace.json")])
    assert rc == EXIT_DATA
    assert "hierarchical" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_cli_passes_for_lstm(capsys):
    rc = main(["gradcheck", "--model", "lstm", "--seed", "7"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("parameter\tmax_rel_error\tstatus")
    assert "fail" not in out


def test_run_gradcheck_posat_seed7():
    report = run_gradcheck("posat", seed=7)
    assert report.passed
    assert all(entry.max_rel_error <= 1e-4 for entry in report.entries)


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_flag_is_usage_error(capsys):
    assert main(["split", "--bogus"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--model", "poshan"]) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err
