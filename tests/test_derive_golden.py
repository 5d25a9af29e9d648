"""Derivation pinned to bytes and bounded in memory.

The derived JSON Lines of each benchmark workload's seed-1 corpus must
keep the sha256 it had before the tagger cache and the shared tokens; a
derived or read-back dataset holds one token object per distinct (text,
tag) pair; and a derived token costs a few tens of bytes resident."""

import gc
import hashlib
import json
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import corpus  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from poshan.text import (  # noqa: E402
    RawRecord,
    RuleTagger,
    SidecarTags,
    TaggedToken,
    derive_dataset,
    read_derived,
    split_sentences,
    tokenize,
    write_derived,
)

SEED = 1
DERIVED_SHA256 = {
    "train-caps": "2c115fa1f8c46940ea354ba71231255294d125e3e4c4b94f101a3aee39bb69ad",
    "train-ragged": "6bc033062b6d73b872c9ac3fffc6614aacd8dfedd7ba941ae3067c50df1cb8a8",
    "ingest-eval": "1bc51af68abce863ec704696b895d38b6d0162c112b1bb19647caf6d10e32a37",
}


def _raws(name: str) -> list:
    """The workload's raw records, as its benchmark set-up builds them."""
    generated = corpus.generate(WORKLOADS[name].spec, SEED, prefix=f"{name}-{SEED}-")
    return [RawRecord(**g.raw_json()) for g in generated]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_shared(records) -> None:
    """Every token is a TaggedToken, and equal ones are one object."""
    first: dict = {}
    for rec in records:
        for token in chain(rec.headline, *rec.sentences):
            assert type(token) is TaggedToken
            assert first.setdefault(token, token) is token, token


@pytest.mark.parametrize("name", sorted(DERIVED_SHA256))
def test_derived_bytes_are_pinned(name, tmp_path):
    kept, _ = derive_dataset(_raws(name), RuleTagger())
    write_derived(kept, tmp_path / "derived.jsonl")
    assert _sha256(tmp_path / "derived.jsonl") == DERIVED_SHA256[name]
    assert_shared(kept)


def test_sidecar_derive_and_read_back_share_tokens(tmp_path):
    """Sidecar tags equal to the rule tagger's derive the same bytes, and
    reading them back gives equal records with shared tokens."""
    raws = _raws("ingest-eval")
    tagger = RuleTagger()
    sidecar = tmp_path / "tags.jsonl"
    with sidecar.open("w", encoding="utf-8") as fh:
        for raw in raws:
            head, body = tagger.tags(raw.id, tokenize(raw.headline),
                                     [tokenize(s) for s in split_sentences(raw.body)])
            fh.write(json.dumps({"id": raw.id, "headline_tags": head, "body_tags": body}) + "\n")
    kept, _ = derive_dataset(raws, SidecarTags.from_jsonl(sidecar))
    assert_shared(kept)
    derived = tmp_path / "derived.jsonl"
    write_derived(kept, derived)
    assert _sha256(derived) == DERIVED_SHA256["ingest-eval"]

    back = read_derived(derived)
    assert back == kept
    assert_shared(back)


# Measured 30.2 B per token (Python 3.11); one object per token, as before
# tokens were shared, costs about 150.
BYTES_PER_TOKEN_BOUND = 48


def test_derived_token_memory_is_bounded():
    """Resident bytes of derived news-shaped records (median 25 sentences
    of 20 words, a 30k-word vocabulary), per token."""
    spec = corpus.ragged_spec(80, sentence_median=25, word_median=20, vocabulary=30000)
    raws = [RawRecord(**g.raw_json()) for g in corpus.generate(spec, SEED, prefix="m-")]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept, _ = derive_dataset(raws, RuleTagger())
        gc.collect()
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tokens = sum(len(r.headline) + sum(map(len, r.sentences)) for r in kept)
    assert tokens > 60000
    assert resident / tokens < BYTES_PER_TOKEN_BOUND, resident / tokens
