"""Text pipeline: tokenization, sentence splitting, POS tagging, and the
cardinal-feature extraction that turns raw headline/body pairs into
model-ready records.

Tagging is pluggable.  The primary path reads precomputed tags from a
sidecar file keyed by record id; a deterministic rule tagger is bundled so
the pipeline works self-contained in tests and demos.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

CONGRUENT = "congruent"
INCONGRUENT = "incongruent"
LABELS = (CONGRUENT, INCONGRUENT)

CD_TAG = "CD"
BOS_TAG = "BOS"
EOS_TAG = "EOS"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"


class DataError(ValueError):
    """Malformed input data; messages carry file/line context."""


class TaggingError(ValueError):
    """Sidecar tags missing or inconsistent for a record."""


class NoCardinalError(ValueError):
    """A record without cardinal patterns reached a cardinal-only path."""


def label_index(label: str) -> int:
    """Class index for a label string; incongruent is the positive class 1."""
    try:
        return LABELS.index(label)
    except ValueError:
        raise DataError(f"unknown label {label!r}, expected one of {LABELS}") from None


# ---------------------------------------------------------------------------
# Domain records


@dataclass
class RawRecord:
    id: str
    headline: str
    body: str
    label: str


@dataclass(frozen=True)
class TaggedToken:
    text: str
    pos: str


@dataclass(frozen=True)
class CardinalPattern:
    """POS tags on either side of a cardinal token, rendered ``LEFT:CD:RIGHT``."""

    left: str
    right: str

    @property
    def key(self) -> str:
        return f"{self.left}:{CD_TAG}:{self.right}"


@dataclass(frozen=True)
class CardinalPhrase:
    """Word triple around a cardinal token; ``num`` is the cardinal itself."""

    prev: str
    num: str
    next: str


@dataclass
class DatasetRecord:
    id: str
    headline: list[TaggedToken]
    sentences: list[list[TaggedToken]]
    label: str
    patterns: list[CardinalPattern]
    phrases: list[CardinalPhrase]


# ---------------------------------------------------------------------------
# Tokenization and sentence splitting


_PUNCT = frozenset(string.punctuation)
# digits with optional comma grouping and optional decimal part
_NUMBER_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?")


def _is_number(s: str) -> bool:
    return bool(_NUMBER_RE.fullmatch(s))


def _split_chunk(chunk: str) -> list[str]:
    if _is_number(chunk):
        return [chunk]
    leading: list[str] = []
    while chunk and chunk[0] in _PUNCT:
        leading.append(chunk[0])
        chunk = chunk[1:]
        if _is_number(chunk):
            return leading + [chunk]
    trailing: list[str] = []
    while chunk and chunk[-1] in _PUNCT:
        trailing.append(chunk[-1])
        chunk = chunk[:-1]
        if _is_number(chunk):
            break
    parts = leading
    if chunk:
        parts.append(chunk)
    parts.extend(reversed(trailing))
    return parts


def tokenize(text: str) -> list[str]:
    """Lowercase and split text into tokens.

    Whitespace separates tokens; leading/trailing punctuation becomes its
    own token; numeric strings (digits, optional decimal point, optional
    comma grouping) stay whole.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        tokens.extend(_split_chunk(chunk))
    return tokens


_TERMINATORS = ".!?"

# words ending in '.' that do not end a sentence
ABBREVIATIONS = frozenset({
    "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "gen.", "gov.", "sen.",
    "rep.", "col.", "capt.", "lt.", "sgt.", "sr.", "jr.", "st.", "mt.",
    "u.s.", "u.k.", "u.n.", "e.g.", "i.e.", "etc.", "vs.", "v.", "inc.",
    "ltd.", "co.", "corp.", "dept.", "no.", "fig.", "est.", "approx.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
    "sept.", "oct.", "nov.", "dec.",
})


def _ends_abbreviation(text: str, i: int) -> bool:
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    return text[j:i + 1].lower() in ABBREVIATIONS


def split_sentences(body: str) -> list[str]:
    """Split body text on '.', '!', '?' followed by whitespace or end.

    A guard list of common abbreviations suppresses false splits.  Empty
    sentences are never returned.
    """
    sentences: list[str] = []
    start = 0
    n = len(body)
    for i, ch in enumerate(body):
        if ch in _TERMINATORS and (i + 1 == n or body[i + 1].isspace()):
            if ch == "." and _ends_abbreviation(body, i):
                continue
            piece = body[start:i + 1].strip()
            if piece:
                sentences.append(piece)
            start = i + 1
    tail = body[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# ---------------------------------------------------------------------------
# POS tagging


NUMBER_WORDS = frozenset("""
one two three four five six seven eight nine ten eleven twelve thirteen
fourteen fifteen sixteen seventeen eighteen nineteen twenty thirty forty
fifty sixty seventy eighty ninety hundred thousand million billion
""".split())

_WORD_TAGS: dict[str, str] = {}
for _w in ("the", "a", "an", "this", "that", "these", "those"):
    _WORD_TAGS[_w] = "DT"
for _w in ("i", "he", "she", "it", "we", "they", "you", "him", "her", "them", "us"):
    _WORD_TAGS[_w] = "PRP"
for _w in ("who", "whom", "what"):
    _WORD_TAGS[_w] = "WP"
for _w in ("when", "where", "why", "how"):
    _WORD_TAGS[_w] = "WRB"
for _w in ("of", "in", "on", "at", "by", "for", "with", "from", "about",
           "into", "over", "after", "before", "against", "between", "during",
           "under", "than", "as"):
    _WORD_TAGS[_w] = "IN"
for _w in ("and", "or", "but", "nor"):
    _WORD_TAGS[_w] = "CC"
for _w in ("will", "would", "can", "could", "shall", "should", "may",
           "might", "must"):
    _WORD_TAGS[_w] = "MD"
for _w in ("not", "n't", "very", "also", "now", "just", "here", "there"):
    _WORD_TAGS[_w] = "RB"
_WORD_TAGS.update({
    "to": "TO", "is": "VBZ", "was": "VBD", "has": "VBZ", "does": "VBZ",
    "are": "VBP", "were": "VBD", "am": "VBP", "do": "VBP", "have": "VBP",
    "had": "VBD", "did": "VBD", "be": "VB", "been": "VBN", "being": "VBG",
})

_SUFFIX_TAGS = (
    ("ing", "VBG", 5),
    ("ed", "VBD", 4),
    ("ly", "RB", 4),
    ("est", "JJS", 5),
    ("ous", "JJ", 5),
    ("ful", "JJ", 5),
    ("ive", "JJ", 5),
    ("ble", "JJ", 5),
    ("ic", "JJ", 5),
    ("tion", "NN", 6),
    ("ment", "NN", 6),
    ("ness", "NN", 6),
    ("ity", "NN", 5),
    ("ship", "NN", 6),
    ("er", "NN", 5),
    ("s", "NNS", 4),
)

_PUNCT_TAGS = {".": ".", "!": ".", "?": ".", ",": ",", "$": "$", "#": "#",
               "(": "(", ")": ")", "'": "''", '"': "''"}


class RuleTagger:
    """Deterministic fallback tagger: numbers and number words are CD,
    a small lexicon and suffix table cover the rest, default NN."""

    def tag_token(self, token: str) -> str:
        if _is_number(token) or token in NUMBER_WORDS:
            return CD_TAG
        if token in _WORD_TAGS:
            return _WORD_TAGS[token]
        if all(c in _PUNCT for c in token):
            return _PUNCT_TAGS.get(token, ":")
        for suffix, tag, min_len in _SUFFIX_TAGS:
            if len(token) >= min_len and token.endswith(suffix):
                if suffix == "s" and token.endswith("ss"):
                    continue
                return tag
        return "NN"

    def headline_tags(self, record_id: str | None, tokens: Sequence[str]) -> list[str]:
        return [self.tag_token(t) for t in tokens]

    def sentence_tags(self, record_id: str | None, sentence_index: int,
                      tokens: Sequence[str]) -> list[str]:
        return [self.tag_token(t) for t in tokens]


class SidecarTags:
    """Precomputed tags keyed by record id, one tag list per token list."""

    def __init__(self, entries: dict[str, dict]):
        self._entries = entries

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "SidecarTags":
        entries: dict[str, dict] = {}
        for lineno, obj in _read_jsonl(path):
            for key in ("id", "headline_tags", "body_tags"):
                if key not in obj:
                    raise DataError(f"{path}:{lineno}: sidecar entry missing {key!r}")
            entries[obj["id"]] = obj
        return cls(entries)

    def _entry(self, record_id: str | None) -> dict:
        if record_id is None:
            raise TaggingError("sidecar tagging requires a record id")
        if record_id not in self._entries:
            raise TaggingError(f"no sidecar tags for record {record_id!r}")
        return self._entries[record_id]

    def headline_tags(self, record_id: str | None, tokens: Sequence[str]) -> list[str]:
        tags = self._entry(record_id)["headline_tags"]
        if len(tags) != len(tokens):
            raise TaggingError(
                f"record {record_id!r}: sidecar has {len(tags)} headline tags "
                f"for {len(tokens)} tokens")
        return list(tags)

    def sentence_tags(self, record_id: str | None, sentence_index: int,
                      tokens: Sequence[str]) -> list[str]:
        body = self._entry(record_id)["body_tags"]
        if sentence_index >= len(body):
            raise TaggingError(
                f"record {record_id!r}: sidecar has {len(body)} sentences, "
                f"needed index {sentence_index}")
        tags = body[sentence_index]
        if len(tags) != len(tokens):
            raise TaggingError(
                f"record {record_id!r}: sidecar sentence {sentence_index} has "
                f"{len(tags)} tags for {len(tokens)} tokens")
        return list(tags)


def pos_tag(tokens: Sequence[str], provider, record_id: str | None = None,
            sentence_index: int | None = None) -> list[TaggedToken]:
    """Tag a token list via the given provider; one tag per token."""
    if sentence_index is None:
        tags = provider.headline_tags(record_id, tokens)
    else:
        tags = provider.sentence_tags(record_id, sentence_index, tokens)
    return [TaggedToken(text=t, pos=p) for t, p in zip(tokens, tags)]


# ---------------------------------------------------------------------------
# Cardinal features and dataset derivation


def extract_cardinal_features(
        tagged: Sequence[TaggedToken]) -> tuple[list[CardinalPattern], list[CardinalPhrase]]:
    """Patterns and phrases for every CD-tagged token, in token order.

    Boundary positions use BOS/EOS sentinels; the two lists align index by
    index to the same cardinal tokens.
    """
    patterns: list[CardinalPattern] = []
    phrases: list[CardinalPhrase] = []
    for i, tok in enumerate(tagged):
        if tok.pos != CD_TAG:
            continue
        left = tagged[i - 1].pos if i > 0 else BOS_TAG
        right = tagged[i + 1].pos if i + 1 < len(tagged) else EOS_TAG
        prev = tagged[i - 1].text if i > 0 else BOS_TOKEN
        nxt = tagged[i + 1].text if i + 1 < len(tagged) else EOS_TOKEN
        patterns.append(CardinalPattern(left=left, right=right))
        phrases.append(CardinalPhrase(prev=prev, num=tok.text, next=nxt))
    return patterns, phrases


@dataclass
class DeriveSummary:
    counts: dict[str, list[int]] = field(default_factory=dict)

    def add(self, label: str, kept: bool) -> None:
        row = self.counts.setdefault(label, [0, 0])
        row[0 if kept else 1] += 1

    def kept(self, label: str) -> int:
        return self.counts.get(label, [0, 0])[0]

    def dropped(self, label: str) -> int:
        return self.counts.get(label, [0, 0])[1]

    @property
    def total_kept(self) -> int:
        return sum(v[0] for v in self.counts.values())

    def to_tsv(self) -> str:
        lines = ["label\tkept\tdropped"]
        for label in LABELS:
            lines.append(f"{label}\t{self.kept(label)}\t{self.dropped(label)}")
        total_dropped = sum(v[1] for v in self.counts.values())
        lines.append(f"total\t{self.total_kept}\t{total_dropped}")
        return "\n".join(lines) + "\n"


def featurize(raw: RawRecord, provider) -> DatasetRecord:
    """Tokenize, tag and extract cardinal features for one record."""
    headline = pos_tag(tokenize(raw.headline), provider, record_id=raw.id)
    patterns, phrases = extract_cardinal_features(headline)
    sentences = []
    for si, sent in enumerate(split_sentences(raw.body)):
        toks = tokenize(sent)
        if toks:
            sentences.append(pos_tag(toks, provider, record_id=raw.id, sentence_index=si))
    return DatasetRecord(id=raw.id, headline=headline, sentences=sentences,
                         label=raw.label, patterns=patterns, phrases=phrases)


def derive_dataset(records: Iterable[RawRecord],
                   provider) -> tuple[list[DatasetRecord], DeriveSummary]:
    """Keep exactly the records whose tagged headline contains a CD token.

    Returns the kept records in input order plus a kept/dropped summary
    per label.
    """
    kept: list[DatasetRecord] = []
    summary = DeriveSummary()
    for raw in records:
        rec = featurize(raw, provider)
        if rec.patterns:
            kept.append(rec)
            summary.add(raw.label, kept=True)
        else:
            summary.add(raw.label, kept=False)
    return kept, summary


def replicate_for_training(record: DatasetRecord) -> list[DatasetRecord]:
    """One training unit per cardinal: a copy of the record that keeps only
    that cardinal's pattern and phrase, so its queries are that cardinal's."""
    k = len(record.patterns)
    if k == 0:
        raise NoCardinalError(
            f"record {record.id!r} has no cardinal pattern; it must not reach training")
    return [replace(record, patterns=record.patterns[i:i + 1],
                    phrases=record.phrases[i:i + 1]) for i in range(k)]


# ---------------------------------------------------------------------------
# JSON Lines I/O


def _read_jsonl(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def read_corpus(path: str | Path) -> list[RawRecord]:
    """Read raw headline/body records from JSON Lines."""
    records = []
    for lineno, obj in _read_jsonl(path):
        for key in ("id", "headline", "body", "label"):
            if key not in obj:
                raise DataError(f"{path}:{lineno}: record missing {key!r}")
        label = str(obj["label"]).lower()
        if label not in LABELS:
            raise DataError(
                f"{path}:{lineno}: label {obj['label']!r} not one of {LABELS}")
        records.append(RawRecord(id=str(obj["id"]), headline=obj["headline"],
                                 body=obj["body"], label=label))
    return records


def _tagged_to_json(tokens: Sequence[TaggedToken]) -> list[list[str]]:
    return [[t.text, t.pos] for t in tokens]


def _tagged_from_json(pairs, field: str) -> list[TaggedToken]:
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(v, str) for v in p)
            for p in pairs):
        raise DataError(f"{field} must be a list of [token, tag] pairs")
    return [TaggedToken(text=p[0], pos=p[1]) for p in pairs]


def record_to_json(rec: DatasetRecord) -> dict:
    return {
        "id": rec.id,
        "label": rec.label,
        "headline": _tagged_to_json(rec.headline),
        "sentences": [_tagged_to_json(s) for s in rec.sentences],
        "patterns": [p.key for p in rec.patterns],
        "phrases": [[p.prev, p.num, p.next] for p in rec.phrases],
        # kept so derived files stay byte-compatible; readers only range-check it
        "active_cardinal_index": None,
    }


def record_from_json(obj: dict) -> DatasetRecord:
    """A derived record from its JSON object.  Patterns and phrases are
    derived from the tagged headline; stored ones that differ raise
    DataError, as do a field of the wrong type (a non-string id included),
    a label outside LABELS, an empty sentence or an active cardinal index
    out of range."""
    if not isinstance(obj, dict):
        raise DataError("record must be a JSON object")
    if not isinstance(obj["id"], str):
        raise DataError(f"id {obj['id']!r} is not a string")
    if obj["label"] not in LABELS:
        raise DataError(f"label {obj['label']!r} not one of {LABELS}")
    if not isinstance(obj["sentences"], list):
        raise DataError("sentences must be a list of sentences")
    sentences = [_tagged_from_json(s, "sentence") for s in obj["sentences"]]
    if not all(sentences):
        raise DataError("a sentence has no tokens")
    headline = _tagged_from_json(obj["headline"], "headline")
    patterns, phrases = extract_cardinal_features(headline)
    if obj["patterns"] != [p.key for p in patterns]:
        raise DataError(f"patterns {obj['patterns']!r} are not the headline's cardinal patterns")
    if obj["phrases"] != [[p.prev, p.num, p.next] for p in phrases]:
        raise DataError(f"phrases {obj['phrases']!r} are not the headline's cardinal phrases")
    active = obj.get("active_cardinal_index")
    if active is not None and (not isinstance(active, int) or isinstance(active, bool)
                               or not 0 <= active < len(patterns)):
        raise DataError(f"active_cardinal_index {active!r} is not an index into "
                        f"{len(patterns)} patterns")
    return DatasetRecord(id=obj["id"], label=obj["label"], headline=headline,
                         sentences=sentences, patterns=patterns, phrases=phrases)


def write_derived(records: Iterable[DatasetRecord], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), ensure_ascii=False) + "\n")


def read_derived(path: str | Path) -> list[DatasetRecord]:
    """Derived records in file order; a malformed record or an id that
    appears twice raises DataError naming the line(s)."""
    records = []
    lines: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path):
        try:
            record = record_from_json(obj)
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad derived record ({exc})") from None
        first = lines.setdefault(record.id, lineno)
        if first != lineno:
            raise DataError(f"{path}:{first}: id {record.id!r} appears again on line {lineno}")
        records.append(record)
    return records
