"""Command-line surface: derive, split, train, eval, and inspection tools.

Exit codes: 0 success, 1 usage error, 2 data error, 3 failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .attention import pad_record
from .embeddings import export_pattern_embeddings, export_pattern_majority
from .grad import GradCheckReport, NonFiniteError, add, finite_difference_check
from .text import (
    DataError,
    RawRecord,
    RuleTagger,
    SidecarTags,
    derive_dataset,
    featurize,
    read_corpus,
    read_derived,
    summary_tsv,
    write_derived,
)
from .train import (
    MODEL_KINDS,
    MODEL_POSHAN,
    TrainConfig,
    build_model,
    build_tables,
    load_checkpoint,
    model_from_checkpoint,
    parse_config,
    predict,
    prior_loss,
    save_checkpoint,
    stratified_split,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for data
    errors, so usage problems are rerouted to exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="poshan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="extract cardinal features and filter the corpus")
    derive.add_argument("--input", required=True, help="raw corpus JSONL")
    derive.add_argument("--tags", help="sidecar JSONL with headline/body POS tags")
    derive.add_argument("--fallback-tagger", action="store_true",
                        help="use the built-in rule tagger instead of a sidecar")
    derive.add_argument("--output", required=True, help="derived dataset JSONL")

    split = sub.add_parser("split", help="stratified 70/10/20 split by record id hash")
    split.add_argument("--input", required=True, help="derived dataset JSONL")
    split.add_argument("--seed", type=int, required=True)
    split.add_argument("--out-dir", required=True)

    train_cmd = sub.add_parser("train", help="train a model and save a checkpoint")
    train_cmd.add_argument("--config", required=True, help="key=value config file")
    train_cmd.add_argument("--model", choices=MODEL_KINDS, default=MODEL_POSHAN)
    train_cmd.add_argument("--train", required=True, dest="train_path", help="training JSONL")
    train_cmd.add_argument("--val", required=True, dest="val_path", help="validation JSONL")
    train_cmd.add_argument("--out", required=True, help="checkpoint path")
    train_cmd.add_argument("--log", help="per-epoch TSV log (default: <out>.log.tsv)")

    eval_cmd = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    eval_cmd.add_argument("--ckpt", required=True)
    eval_cmd.add_argument("--test", required=True, dest="test_path")
    eval_cmd.add_argument("--report", required=True, help="JSON report path")

    dump_att = sub.add_parser("dump-attention", help="export attention weights for one record")
    dump_att.add_argument("--ckpt", required=True)
    dump_att.add_argument("--input", required=True, help="derived JSONL holding the record")
    dump_att.add_argument("--record-id", required=True)
    dump_att.add_argument("--out", required=True, help="trace JSON path")

    dump_pat = sub.add_parser("dump-patterns", help="export the pattern embedding table")
    dump_pat.add_argument("--ckpt", required=True)
    dump_pat.add_argument("--out", required=True, help="embeddings TSV path")
    dump_pat.add_argument("--majority-out", help="optional per-pattern majority-label TSV")

    gradcheck = sub.add_parser("gradcheck", help="finite-difference check on a toy model")
    gradcheck.add_argument("--model", choices=MODEL_KINDS, default=MODEL_POSHAN)
    gradcheck.add_argument("--seed", type=int, default=0)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_derive(args) -> int:
    if args.tags is None and not args.fallback_tagger:
        raise _UsageError("derive: provide --tags or --fallback-tagger")
    if args.tags is not None and args.fallback_tagger:
        raise _UsageError("derive: --tags and --fallback-tagger are mutually exclusive")
    provider = SidecarTags.from_jsonl(args.tags) if args.tags else RuleTagger()
    records = read_corpus(args.input)
    kept, counts = derive_dataset(records, provider)
    write_derived(kept, args.output)
    print(summary_tsv(counts), end="")
    return EXIT_OK


def _cmd_split(args) -> int:
    records = read_derived(args.input)
    train_set, val_set, test_set = stratified_split(records, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print("split\trecords")
    for name, subset in (("train", train_set), ("val", val_set), ("test", test_set)):
        write_derived(subset, out_dir / f"{name}.jsonl")
        print(f"{name}\t{len(subset)}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = parse_config(args.config)
    train_set = read_derived(args.train_path)
    val_set = read_derived(args.val_path)
    result = train(config, train_set, val_set, model_kind=args.model)
    log_path = args.log if args.log is not None else f"{args.out}.log.tsv"
    Path(log_path).write_text("\n".join(result.log_lines) + "\n", encoding="utf-8")
    save_checkpoint(result.checkpoint, args.out)
    best = result.checkpoint.best_epoch
    best_loss = result.checkpoint.val_losses[best]
    print(f"model\t{args.model}")
    print(f"epochs\t{result.epochs_run}")
    print(f"best-epoch\t{best}")
    print(f"best-val-loss\t{best_loss!r}")
    prior = prior_loss(val_set)
    if best_loss >= prior:
        print(f"poshan: warning: best validation loss {best_loss!r} is no better than "
              f"{prior!r}, the loss of predicting the validation label prior",
              file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.ckpt)
    records = read_derived(args.test_path)
    report = predict(checkpoint, records)
    Path(args.report).write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"macro-f1\t{report.macro_f1!r}")
    print(f"auc\t{'undefined' if report.auc is None else repr(report.auc)}")
    return EXIT_OK


def _cmd_dump_attention(args) -> int:
    checkpoint = load_checkpoint(args.ckpt)
    if checkpoint.model_kind != MODEL_POSHAN:
        raise DataError(
            f"attention traces exist only for the hierarchical model, not {checkpoint.model_kind!r}")
    record = {r.id: r for r in read_derived(args.input)}.get(args.record_id)
    if record is None:
        raise DataError(f"record id {args.record_id!r} not found in {args.input}")
    model = model_from_checkpoint(checkpoint)
    config = checkpoint.config
    padded = pad_record(record, max_words=config.max_words_per_sentence,
                        max_sentences=config.max_sentences)
    trace = model.attention_trace(padded)
    Path(args.out).write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"record\t{args.record_id}")
    print(f"sentences\t{len(trace['sentences'])}")
    return EXIT_OK


def _cmd_dump_patterns(args) -> int:
    checkpoint = load_checkpoint(args.ckpt)
    if checkpoint.patterns is None:
        raise DataError(
            f"checkpoint for {checkpoint.model_kind!r} has no pattern table")
    export_pattern_embeddings(checkpoint.patterns, checkpoint.params["pattern_embeddings"],
                              args.out)
    if args.majority_out:
        export_pattern_majority(checkpoint.pattern_label_counts, args.majority_out)
    print(f"patterns\t{len(checkpoint.patterns)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Gradient check


def _gradcheck_records() -> list:
    """Two-sentence, few-word toys exercising every query type."""
    tagger = RuleTagger()
    raws = [
        RawRecord(id="g0", headline="Loan hits 3 million",
                  body="He won 2 games. No more cuts.", label="incongruent"),
        RawRecord(id="g1", headline="5 ways to save",
                  body="Save 5 coins. Start now.", label="congruent"),
    ]
    return [featurize(raw, tagger) for raw in raws]


def run_gradcheck(kind: str, seed: int) -> GradCheckReport:
    """Finite-difference check of a small model's full gradient.

    The model is built on a tiny fixed corpus; the loss closure sums the
    per-record losses so every parameter group is on the path.
    """
    records = _gradcheck_records()
    config = TrainConfig(word_dim=3, hidden_size=2, attention_size=2, pattern_dim=4,
                         seed=seed)
    word_table, pattern_table = build_tables(records, config)
    model = build_model(kind, config, word_table, pattern_table)
    padded = [pad_record(r, max_words=6, max_sentences=2) for r in records]

    def forward():
        total = model.loss(padded[0])
        for p in padded[1:]:
            total = add(total, model.loss(p))
        return total

    return finite_difference_check(forward, model.parameters())


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"gradcheck: --seed must be non-negative, got {args.seed}")
    report = run_gradcheck(args.model, seed=args.seed)
    print(report.to_tsv(), end="")
    if not report.passed:
        print(f"poshan: gradcheck failed for model {args.model!r}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


_COMMANDS = {
    "derive": _cmd_derive,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "dump-attention": _cmd_dump_attention,
    "dump-patterns": _cmd_dump_patterns,
    "gradcheck": _cmd_gradcheck,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"poshan: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command; while it runs each warning is one stderr line."""
    parser = _build_parser()
    saved = warnings.showwarning
    warnings.showwarning = _show_warning
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DataError, NonFiniteError) as exc:
        print(f"poshan: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"poshan: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DATA
    finally:
        warnings.showwarning = saved


if __name__ == "__main__":
    sys.exit(main())
