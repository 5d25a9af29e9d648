"""Text pipeline: tokenization, sentence splitting, POS tagging, and the
cardinal-feature extraction that turns raw headline/body pairs into
model-ready records.

Tagging is pluggable.  A provider has one method, ``tags(record_id,
headline_tokens, sentence_tokens)``, that returns the headline's tags and
one tag list per sentence.  The primary path reads precomputed tags from a
sidecar file keyed by record id; a deterministic rule tagger is bundled so
the pipeline works self-contained in tests and demos.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

CONGRUENT = "congruent"
INCONGRUENT = "incongruent"
LABELS = (CONGRUENT, INCONGRUENT)

CD_TAG = "CD"
BOS_TAG = "BOS"
EOS_TAG = "EOS"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
PAD_TOKEN = "<pad>"
# tokens no headline or body holds: a cardinal phrase reads the sentinels
# past a headline's edges, a padded sentence the pad token past its end
RESERVED_TOKENS = frozenset({BOS_TOKEN, EOS_TOKEN, PAD_TOKEN})


class DataError(ValueError):
    """Malformed input data; messages carry file/line context."""


class TaggingError(DataError):
    """Sidecar tags missing or inconsistent for a record."""


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


class TaggedToken(NamedTuple):
    """A token and its POS tag.  Derivation and reading share one object
    per distinct pair (``_SharedTokens``), so treat it as a value."""

    text: str
    pos: str


class CardinalPhrase(NamedTuple):
    """Word triple around a cardinal token; ``num`` is the cardinal itself."""

    prev: str
    num: str
    next: str


@dataclass
class DatasetRecord:
    """A derived record; its fields are in the derived file's key order."""

    id: str
    label: str
    headline: list[TaggedToken]
    sentences: list[list[TaggedToken]]
    patterns: list[str]
    phrases: list[CardinalPhrase]


# ---------------------------------------------------------------------------
# Tokenization and sentence splitting


# one punctuation character, or a run of non-space characters that starts
# and ends with a non-punctuation character
_TOKEN_RE = re.compile(r"[{0}]|[^\s{0}](?:\S*[^\s{0}])?".format(re.escape(string.punctuation)))


def tokenize(text: str) -> list[str]:
    """Lowercase and split text into tokens.

    Whitespace separates tokens; leading/trailing punctuation becomes its
    own token; numeric strings (digits, optional decimal point, optional
    comma grouping) stay whole, as does every other run that starts and
    ends with a non-punctuation character.
    """
    return _TOKEN_RE.findall(text.lower())


# words ending in '.' that do not end a sentence
ABBREVIATIONS = frozenset({
    "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "gen.", "gov.", "sen.",
    "rep.", "col.", "capt.", "lt.", "sgt.", "sr.", "jr.", "st.", "mt.",
    "u.s.", "u.k.", "u.n.", "e.g.", "i.e.", "etc.", "vs.", "v.", "inc.",
    "ltd.", "co.", "corp.", "dept.", "no.", "fig.", "est.", "approx.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
    "sept.", "oct.", "nov.", "dec.",
})

# a whole word ending in '.', '!' or '?'
_END_WORD_RE = re.compile(r"(?<!\S)\S*[.!?](?!\S)")


def split_sentences(body: str) -> list[str]:
    """Split body text after each word that ends in '.', '!' or '?'.

    A guard list of common abbreviations suppresses false splits.  Empty
    sentences are never returned.
    """
    sentences: list[str] = []
    start = 0
    for match in _END_WORD_RE.finditer(body):
        if match.group().lower() in ABBREVIATIONS:
            continue
        piece = body[start:match.end()].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
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

# tokens with a fixed tag: number words, common function words, and the
# punctuation with a tag of its own
_LEXICON: dict[str, str] = dict.fromkeys(NUMBER_WORDS, CD_TAG)
for _w in ("the", "a", "an", "this", "that", "these", "those"):
    _LEXICON[_w] = "DT"
for _w in ("i", "he", "she", "it", "we", "they", "you", "him", "her", "them", "us"):
    _LEXICON[_w] = "PRP"
for _w in ("who", "whom", "what"):
    _LEXICON[_w] = "WP"
for _w in ("when", "where", "why", "how"):
    _LEXICON[_w] = "WRB"
for _w in ("of", "in", "on", "at", "by", "for", "with", "from", "about",
           "into", "over", "after", "before", "against", "between", "during",
           "under", "than", "as"):
    _LEXICON[_w] = "IN"
for _w in ("and", "or", "but", "nor"):
    _LEXICON[_w] = "CC"
for _w in ("will", "would", "can", "could", "shall", "should", "may",
           "might", "must"):
    _LEXICON[_w] = "MD"
for _w in ("not", "n't", "very", "also", "now", "just", "here", "there"):
    _LEXICON[_w] = "RB"
_LEXICON.update({
    "to": "TO", "is": "VBZ", "was": "VBD", "has": "VBZ", "does": "VBZ",
    "are": "VBP", "were": "VBD", "am": "VBP", "do": "VBP", "have": "VBP",
    "had": "VBD", "did": "VBD", "be": "VB", "been": "VBN", "being": "VBG",
    ".": ".", "!": ".", "?": ".", ",": ",", "$": "$", "#": "#",
    "(": "(", ")": ")", "'": "''", '"': "''",
})

# (suffix, tag, minimum token length), first match wins
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

# The rules below the lexicon as one alternation of whole-token patterns,
# one group each: a number (digits with optional comma grouping and
# optional decimal part), then a token of punctuation only (the empty one
# included), then each suffix at its minimum length; a plural must not end
# in "ss".  The first group that matches the whole token gives its tag.
_RULES = ((CD_TAG, r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?"),
          (":", "[{}]*".format(re.escape(string.punctuation))),
          *((tag, ".{%d,}%s%s" % (min_len - len(suffix), "(?<!s)" if suffix == "s" else "", suffix))
            for suffix, tag, min_len in _SUFFIX_TAGS))
_RULE_RE = re.compile("|".join(f"({pattern})" for _, pattern in _RULES), re.DOTALL)
_RULE_TAGS = (None, *(tag for tag, _ in _RULES))  # by group number, from 1


class RuleTagger(dict):
    """Deterministic fallback tagger: numbers and number words are CD,
    a small lexicon and suffix table cover the rest, default NN.

    A tagger is a dict from token to tag that fills itself: it tags each
    distinct token once, on its first lookup, and remembers the tag."""

    def __missing__(self, token: str) -> str:
        tag = self[token] = self.tag_token(token)
        return tag

    def tag_token(self, token: str) -> str:
        tag = _LEXICON.get(token)
        if tag is None:
            match = _RULE_RE.fullmatch(token)
            tag = _RULE_TAGS[match.lastindex] if match else "NN"
        return tag

    def tags(self, record_id: str, headline: Sequence[str],
             sentences: Sequence[Sequence[str]]) -> tuple[list[str], list[list[str]]]:
        lookup = self.__getitem__
        return list(map(lookup, headline)), [list(map(lookup, s)) for s in sentences]


class SidecarTags:
    """Precomputed tags keyed by record id, one tag list per token list."""

    def __init__(self, entries: dict[str, tuple[list[str], list[list[str]]]]):
        self._entries = entries

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "SidecarTags":
        entries = {}
        lines: dict[str, int] = {}
        for lineno, obj in _read_jsonl(path):
            for key in ("id", "headline_tags", "body_tags"):
                if key not in obj:
                    raise DataError(f"{path}:{lineno}: sidecar entry missing {key!r}")
            record_id, headline, body = obj["id"], obj["headline_tags"], obj["body_tags"]
            if not isinstance(record_id, str):
                raise DataError(f"{path}:{lineno}: sidecar id {record_id!r} is not a string")
            if not _is_tag_list(headline):
                raise DataError(f"{path}:{lineno}: headline_tags must be a list of strings")
            if not (isinstance(body, list) and all(_is_tag_list(tags) for tags in body)):
                raise DataError(f"{path}:{lineno}: body_tags must be a list of lists of strings")
            _note_id(lines, record_id, path, lineno)
            entries[record_id] = (headline, body)
        return cls(entries)

    def tags(self, record_id: str, headline: Sequence[str],
             sentences: Sequence[Sequence[str]]) -> tuple[list[str], list[list[str]]]:
        if record_id not in self._entries:
            raise TaggingError(f"no sidecar tags for record {record_id!r}")
        head, body = self._entries[record_id]
        if len(head) != len(headline):
            raise TaggingError(
                f"record {record_id!r}: sidecar has {len(head)} headline tags "
                f"for {len(headline)} tokens")
        if len(body) != len(sentences):
            raise TaggingError(
                f"record {record_id!r}: sidecar has {len(body)} sentence tag lists "
                f"for {len(sentences)} sentences")
        for i, (tags, tokens) in enumerate(zip(body, sentences)):
            if len(tags) != len(tokens):
                raise TaggingError(
                    f"record {record_id!r}: sidecar sentence {i} has "
                    f"{len(tags)} tags for {len(tokens)} tokens")
        return head, body


def _is_tag_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(tag, str) for tag in value)


# ---------------------------------------------------------------------------
# Cardinal features and dataset derivation


def extract_cardinal_features(
        tagged: Sequence[TaggedToken]) -> tuple[list[str], list[CardinalPhrase]]:
    """Pattern keys ``LEFT:CD:RIGHT`` (the POS tags on either side) and
    phrases for every CD-tagged token, in token order.

    Boundary positions use BOS/EOS sentinels; the two lists align index by
    index to the same cardinal tokens.
    """
    patterns: list[str] = []
    phrases: list[CardinalPhrase] = []
    for i, tok in enumerate(tagged):
        if tok.pos != CD_TAG:
            continue
        left = tagged[i - 1].pos if i > 0 else BOS_TAG
        right = tagged[i + 1].pos if i + 1 < len(tagged) else EOS_TAG
        prev = tagged[i - 1].text if i > 0 else BOS_TOKEN
        nxt = tagged[i + 1].text if i + 1 < len(tagged) else EOS_TOKEN
        patterns.append(f"{left}:{CD_TAG}:{right}")
        phrases.append(CardinalPhrase(prev, tok.text, nxt))
    return patterns, phrases


class _SharedTokens(dict):
    """One TaggedToken per distinct (text, tag) pair, filled on lookup.

    It maps each pair to its token, and a token equals its pair, so the
    token is its own key.  One lives for one ``derive_dataset`` or
    ``read_derived`` call, so that equal tokens of its records are one
    object."""

    def __missing__(self, pair: tuple[str, str]) -> TaggedToken:
        token = TaggedToken._make(pair)
        self[token] = token
        return token

    def tagged(self, tokens: Iterable[str], tags: Iterable[str]) -> list[TaggedToken]:
        return list(map(self.__getitem__, zip(tokens, tags)))


class _ReadTokens(_SharedTokens):
    """Shared tokens for pairs read from a file, where each distinct pair
    is checked once, when it is first seen: one that is not two strings
    raises TypeError, a reserved token DataError.  Deriving makes its
    pairs itself, from a tokenizer that splits every reserved token, and
    skips the check."""

    def __missing__(self, pair: tuple) -> TaggedToken:
        if not (len(pair) == 2 and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise TypeError(f"{pair!r} is not a [token, tag] pair")
        if pair[0] in RESERVED_TOKENS:
            raise DataError(f"{pair[0]!r} is a reserved token")
        return super().__missing__(pair)


def featurize(raw: RawRecord, provider, shared: _SharedTokens | None = None) -> DatasetRecord:
    """Tokenize, tag and extract cardinal features for one record; equal
    tokens are one object across the records featurized with one
    ``shared``."""
    shared = _SharedTokens() if shared is None else shared
    headline = tokenize(raw.headline)
    sentences = list(map(tokenize, split_sentences(raw.body)))
    head_tags, body_tags = provider.tags(raw.id, headline, sentences)
    tagged = shared.tagged(headline, head_tags)
    patterns, phrases = extract_cardinal_features(tagged)
    return DatasetRecord(id=raw.id, label=raw.label, headline=tagged,
                         sentences=list(map(shared.tagged, sentences, body_tags)),
                         patterns=patterns, phrases=phrases)


def derive_dataset(records: Iterable[RawRecord],
                   provider) -> tuple[list[DatasetRecord], Counter]:
    """Keep exactly the records whose tagged headline contains a CD token
    and whose body has a sentence.

    Returns the kept records in input order plus a count of records per
    ``(label, kept)`` pair.  Equal tokens of the kept records are one
    object.
    """
    kept: list[DatasetRecord] = []
    counts: Counter = Counter()
    shared = _SharedTokens()
    for raw in records:
        rec = featurize(raw, provider, shared)
        keep = bool(rec.patterns and rec.sentences)
        if keep:
            kept.append(rec)
        counts[raw.label, keep] += 1
    return kept, counts


def summary_tsv(counts: Counter) -> str:
    """Kept and dropped records per label and in total, as TSV."""
    rows = [(label, counts[label, True], counts[label, False]) for label in LABELS]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return "label\tkept\tdropped\n" + "".join(f"{a}\t{b}\t{c}\n" for a, b, c in rows)


def replicate_for_training(record: DatasetRecord) -> list[DatasetRecord]:
    """One training unit per cardinal: a copy of the record that keeps only
    that cardinal's pattern and phrase, so its queries are that cardinal's."""
    k = len(record.patterns)
    if k == 0:
        raise DataError(
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
        try:
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
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _note_id(lines: dict[str, int], record_id: str, path, lineno: int) -> None:
    """Remember the line of an id; an id seen before raises DataError."""
    first = lines.setdefault(record_id, lineno)
    if first != lineno:
        raise DataError(f"{path}:{first}: id {record_id!r} appears again on line {lineno}")


def read_corpus(path: str | Path) -> list[RawRecord]:
    """Read raw headline/body records from JSON Lines; a missing field, an
    id, headline or body that is not a string, an unknown label or a
    repeated id raises DataError naming the line(s)."""
    records = []
    lines: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path):
        for key in ("id", "headline", "body", "label"):
            if key not in obj:
                raise DataError(f"{path}:{lineno}: record missing {key!r}")
        for key in ("id", "headline", "body"):
            if not isinstance(obj[key], str):
                raise DataError(f"{path}:{lineno}: {key} {obj[key]!r} is not a string")
        label = str(obj["label"]).lower()
        if label not in LABELS:
            raise DataError(
                f"{path}:{lineno}: label {obj['label']!r} not one of {LABELS}")
        record_id = obj["id"]
        _note_id(lines, record_id, path, lineno)
        records.append(RawRecord(id=record_id, headline=obj["headline"],
                                 body=obj["body"], label=label))
    return records


def _tagged_from_json(pairs, field: str, shared: _ReadTokens) -> list[TaggedToken]:
    """The tokens of a list of ``[token, tag]`` lists; ``shared`` checks
    each distinct pair's length and types once."""
    try:
        if isinstance(pairs, list) and not set(map(type, pairs)) - {list}:
            return list(map(shared.__getitem__, map(tuple, pairs)))
    except TypeError:  # a pair of the wrong length, or with a non-string or unhashable value
        pass
    raise DataError(f"{field} must be a list of [token, tag] pairs")


def record_to_json(rec: DatasetRecord) -> dict:
    """A derived record's JSON object: its fields in order, sharing its
    lists (JSON writes the tuples as arrays), then a null
    ``active_cardinal_index``, kept so derived files stay byte-compatible;
    readers only range-check it."""
    obj = {f.name: getattr(rec, f.name) for f in fields(rec)}
    obj["active_cardinal_index"] = None
    return obj


def record_from_json(obj: dict, shared: _ReadTokens | None = None) -> DatasetRecord:
    """A derived record from its JSON object.  Patterns and phrases are
    derived from the tagged headline; stored ones that differ raise
    DataError, as do a field of the wrong type (a non-string id included),
    a label outside LABELS, a reserved token, an empty headline, body or
    sentence or an active cardinal index out of range.  Equal tokens are
    one object across the records read with one ``shared``."""
    shared = _ReadTokens() if shared is None else shared
    if not isinstance(obj["id"], str):
        raise DataError(f"id {obj['id']!r} is not a string")
    if obj["label"] not in LABELS:
        raise DataError(f"label {obj['label']!r} not one of {LABELS}")
    if not (isinstance(obj["sentences"], list) and obj["sentences"]):
        raise DataError("sentences must be a non-empty list of sentences")
    sentences = [_tagged_from_json(s, "sentence", shared) for s in obj["sentences"]]
    if not all(sentences):
        raise DataError("a sentence has no tokens")
    headline = _tagged_from_json(obj["headline"], "headline", shared)
    if not headline:
        raise DataError("headline has no tokens")
    patterns, phrases = extract_cardinal_features(headline)
    if obj["patterns"] != patterns:
        raise DataError(f"patterns {obj['patterns']!r} are not the headline's cardinal patterns")
    if obj["phrases"] != list(map(list, phrases)):
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
    """Derived records in file order, equal tokens one object; a malformed
    record or an id that appears twice raises DataError naming the
    line(s)."""
    records = []
    lines: dict[str, int] = {}
    shared = _ReadTokens()
    for lineno, obj in _read_jsonl(path):
        try:
            record = record_from_json(obj, shared)
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad derived record ({exc})") from None
        _note_id(lines, record.id, path, lineno)
        records.append(record)
    return records
