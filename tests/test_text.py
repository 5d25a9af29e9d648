"""Text pipeline tests: tokenizer, sentence splitter, taggers, cardinal
features, dataset derivation and the JSONL round trip."""

import json
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ORACLE_NUMBER_WORDS,
    ORACLE_PUNCT_TAGS,
    ORACLE_SUFFIX_TAGS,
    ORACLE_WORD_TAGS,
    oracle_split_sentences,
    oracle_tag_token,
    oracle_tokenize,
)
from poshan.attention import pad_record
from poshan.text import (
    ABBREVIATIONS,
    BOS_TAG,
    BOS_TOKEN,
    CD_TAG,
    CONGRUENT,
    EOS_TAG,
    EOS_TOKEN,
    INCONGRUENT,
    CardinalPhrase,
    DataError,
    DatasetRecord,
    RawRecord,
    RuleTagger,
    SidecarTags,
    TaggedToken,
    TaggingError,
    derive_dataset,
    extract_cardinal_features,
    featurize,
    label_index,
    read_corpus,
    read_derived,
    record_from_json,
    record_to_json,
    replicate_for_training,
    split_sentences,
    summary_tsv,
    tokenize,
    write_derived,
)


# ---------------------------------------------------------------------------
# Tokenizer


# every character for which str.isspace() holds
_WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]
_ALPHABET = st.sampled_from(
    list(string.punctuation) + list(string.digits) + list("aBzİßﬁé") + _WHITESPACE)
_ABBREVIATION = st.sampled_from(sorted(ABBREVIATIONS | {a.upper() for a in ABBREVIATIONS}))


# letters, digits, all punctuation and whitespace, the suffixes of the rule
# tagger and some lexicon words; a token may end in "s" or "ss"
_TAGGER_PIECES = st.one_of(
    st.sampled_from(list(string.ascii_lowercase) + list("AZéß") + list(string.digits)
                    + list(",.") + list(string.punctuation) + _WHITESPACE),
    st.sampled_from([suffix for suffix, _, _ in ORACLE_SUFFIX_TAGS]),
    st.sampled_from(sorted(ORACLE_WORD_TAGS.keys() | ORACLE_NUMBER_WORDS)),
)
_TAGGER_TOKEN = st.tuples(st.lists(_TAGGER_PIECES, max_size=6),
                          st.sampled_from(["", "s", "ss"])).map(
    lambda parts: "".join(parts[0]) + parts[1])


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("US Will Have 100 Million") == [
            "us", "will", "have", "100", "million"]

    def test_peels_edge_punctuation(self):
        assert tokenize("$1.2 million!") == ["$", "1.2", "million", "!"]

    def test_comma_grouped_number_stays_whole(self):
        assert tokenize("over 1,000 people") == ["over", "1,000", "people"]

    def test_decimal_number_stays_whole(self):
        assert tokenize("up 3.5 percent") == ["up", "3.5", "percent"]

    def test_parenthesized_number(self):
        assert tokenize("(100)") == ["(", "100", ")"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("Don't stop") == ["don't", "stop"]

    def test_quoted_word(self):
        assert tokenize('"hello," she said.') == [
            '"', "hello", ",", '"', "she", "said", "."]

    def test_pure_punctuation_run(self):
        assert tokenize("--- ok") == ["-", "-", "-", "ok"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.text(_ALPHABET, max_size=40))
    @settings(max_examples=300)
    def test_matches_character_loop_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_tokens_lowercase_and_nonempty(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()


# ---------------------------------------------------------------------------
# Sentence splitter


class TestSplitSentences:
    def test_basic_periods(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_abbreviation_guard(self):
        got = split_sentences("Mr. Smith left. He ran.")
        assert got == ["Mr. Smith left.", "He ran."]

    def test_question_and_exclaim(self):
        got = split_sentences("Really? Yes! Fine.")
        assert got == ["Really?", "Yes!", "Fine."]

    def test_decimal_point_not_a_boundary(self):
        assert split_sentences("It rose 3.5 percent. Then fell.") == [
            "It rose 3.5 percent.", "Then fell."]

    def test_no_terminator_returns_whole(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_repeated_terminators_stay_together(self):
        assert split_sentences("Wow!! Next.") == ["Wow!!", "Next."]

    def test_empty_body(self):
        assert split_sentences("") == []
        assert split_sentences("   ") == []

    def test_country_abbreviation_mid_sentence(self):
        got = split_sentences("The U.S. economy grew. Markets rose.")
        assert got == ["The U.S. economy grew.", "Markets rose."]

    @given(st.lists(st.one_of(_ABBREVIATION, st.text(_ALPHABET, max_size=4)),
                    max_size=20).map("".join))
    @settings(max_examples=300)
    def test_matches_character_loop_oracle(self, body):
        assert split_sentences(body) == oracle_split_sentences(body)

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_never_empty_and_preserves_nonspace(self, body):
        pieces = split_sentences(body)
        for p in pieces:
            assert p.strip() == p and p != ""
        # splitting only removes whitespace between/around sentences
        assert "".join("".join(pieces).split()) == "".join(body.split())


# ---------------------------------------------------------------------------
# Rule tagger


class TestRuleTagger:
    def setup_method(self):
        self.tagger = RuleTagger()

    def tags(self, tokens):
        headline_tags, _ = self.tagger.tags("r0", tokens, [])
        return headline_tags

    def test_reference_sequence(self):
        assert self.tags(["loan", "1", "million"]) == ["NN", CD_TAG, CD_TAG]

    def test_leading_digit_sequence(self):
        assert self.tags(["5", "ways", "to"]) == [CD_TAG, "NNS", "TO"]

    def test_number_words_are_cardinal(self):
        assert self.tags(["seven", "billion"]) == [CD_TAG, CD_TAG]

    def test_comma_grouped_and_decimal(self):
        assert self.tags(["1,000", "3.5"]) == [CD_TAG, CD_TAG]

    def test_lexicon_entries(self):
        assert self.tags(["the", "he", "who", "when", "of", "and", "must"]) == [
            "DT", "PRP", "WP", "WRB", "IN", "CC", "MD"]

    def test_suffix_rules(self):
        assert self.tags(["running", "talked", "quickly", "careful", "ways"]) == [
            "VBG", "VBD", "RB", "JJ", "NNS"]

    def test_short_words_skip_suffix_rules(self):
        # 'as'/'is' must not hit the plural rule, 'red' not the past-tense rule
        assert self.tags(["is", "red"]) == ["VBZ", "NN"]

    def test_double_s_not_plural(self):
        assert self.tags(["boss", "press"]) == ["NN", "NN"]

    def test_punctuation_tags(self):
        assert self.tags([".", ",", "$", "!"]) == [".", ",", "$", "."]

    def test_default_is_noun(self):
        assert self.tags(["xylophone"]) == ["NN"]

    @given(_TAGGER_TOKEN)
    @example("")
    @example("ss")
    @example("boss")
    @example("1,000.5")
    @example("1,00")
    @example("n't")
    @settings(max_examples=400)
    def test_matches_rule_chain_oracle(self, token):
        assert self.tagger.tag_token(token) == oracle_tag_token(token)
        assert self.tagger[token] == oracle_tag_token(token)

    def test_every_lexicon_entry_matches_oracle(self):
        for word in ORACLE_NUMBER_WORDS | ORACLE_WORD_TAGS.keys() | ORACLE_PUNCT_TAGS.keys():
            assert self.tagger.tag_token(word) == oracle_tag_token(word), word

    @pytest.mark.parametrize("suffix,min_len", [(s, n) for s, _, n in ORACLE_SUFFIX_TAGS])
    def test_every_suffix_at_its_minimum_length(self, suffix, min_len):
        # an "s" stem also puts every suffix after an "s"
        for stem in ("x", "s"):
            for length in (min_len - 1, min_len):
                token = stem * (length - len(suffix)) + suffix
                assert len(token) == length
                assert self.tagger.tag_token(token) == oracle_tag_token(token), token

    @given(st.lists(_TAGGER_TOKEN, max_size=30), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_tags_do_not_depend_on_cache_or_arrival_order(self, tokens, rng):
        expected = [oracle_tag_token(t) for t in tokens]
        first, _ = self.tagger.tags("r0", tokens, [])
        again, _ = self.tagger.tags("r0", tokens, [])
        assert first == again == expected
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        other = RuleTagger()
        _, body = other.tags("r1", [], [shuffled, tokens])
        assert body[1] == expected

    def test_each_tagger_starts_empty(self):
        self.tagger.tags("r0", ["loan", "hits", "1", "million"], [["a", "b"]])
        assert len(self.tagger) == 6
        assert len(RuleTagger()) == 0


# ---------------------------------------------------------------------------
# Sidecar tags


def _write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


class TestSidecarTags:
    def make(self, tmp_path, objs):
        p = tmp_path / "tags.jsonl"
        _write_jsonl(p, objs)
        return SidecarTags.from_jsonl(p)

    def test_headline_and_sentence_lookup(self, tmp_path):
        side = self.make(tmp_path, [{
            "id": "r1",
            "headline_tags": ["NN", "CD"],
            "body_tags": [["DT", "NN"], ["PRP", "VBD"]],
        }])
        headline, sentences = side.tags("r1", ["loan", "1"], [["a", "b"], ["he", "ran"]])
        assert headline == ["NN", "CD"]
        assert sentences[1] == ["PRP", "VBD"]

    def test_unknown_record_names_id(self, tmp_path):
        side = self.make(tmp_path, [])
        with pytest.raises(TaggingError, match="r9"):
            side.tags("r9", ["x"], [])

    def test_length_mismatch_names_id(self, tmp_path):
        side = self.make(tmp_path, [{
            "id": "r1", "headline_tags": ["NN"], "body_tags": []}])
        with pytest.raises(TaggingError, match="r1"):
            side.tags("r1", ["two", "tokens"], [])

    def test_sentence_index_out_of_range(self, tmp_path):
        side = self.make(tmp_path, [{
            "id": "r1", "headline_tags": [], "body_tags": [["NN"]]}])
        with pytest.raises(TaggingError, match="r1"):
            side.tags("r1", [], [["x"], ["y"]])

    def test_extra_sentence_tag_lists_rejected(self, tmp_path):
        side = self.make(tmp_path, [{
            "id": "r1", "headline_tags": [], "body_tags": [["NN"], ["NN"]]}])
        with pytest.raises(TaggingError, match="r1.*2 sentence tag lists for 1 sentences"):
            side.tags("r1", [], [["x"]])

    def test_missing_field_in_file(self, tmp_path):
        p = tmp_path / "tags.jsonl"
        _write_jsonl(p, [{"id": "r1", "headline_tags": []}])
        with pytest.raises(DataError, match="body_tags"):
            SidecarTags.from_jsonl(p)


# ---------------------------------------------------------------------------
# Cardinal features


def _tt(*pairs):
    return [TaggedToken(text=t, pos=p) for t, p in pairs]


class TestExtractCardinalFeatures:
    def test_interior_and_trailing_cardinals(self):
        tagged = _tt(("loan", "NN"), ("1", "CD"), ("million", "CD"))
        patterns, phrases = extract_cardinal_features(tagged)
        assert patterns == ["NN:CD:CD", "CD:CD:EOS"]
        assert phrases == [
            CardinalPhrase(prev="loan", num="1", next="million"),
            CardinalPhrase(prev="1", num="million", next=EOS_TOKEN),
        ]

    def test_leading_cardinal(self):
        tagged = _tt(("5", "CD"), ("ways", "NNS"), ("to", "TO"))
        patterns, phrases = extract_cardinal_features(tagged)
        assert patterns == ["BOS:CD:NNS"]
        assert phrases == [CardinalPhrase(prev=BOS_TOKEN, num="5", next="ways")]

    def test_solo_cardinal_gets_both_sentinels(self):
        patterns, phrases = extract_cardinal_features(_tt(("7", "CD")))
        assert patterns == [f"{BOS_TAG}:CD:{EOS_TAG}"]
        assert phrases == [CardinalPhrase(prev=BOS_TOKEN, num="7", next=EOS_TOKEN)]

    def test_no_cardinal_yields_nothing(self):
        patterns, phrases = extract_cardinal_features(
            _tt(("dog", "NN"), ("bites", "VBZ"), ("man", "NN")))
        assert patterns == [] and phrases == []

    def test_empty_input(self):
        assert extract_cardinal_features([]) == ([], [])

    @given(st.lists(st.tuples(st.sampled_from(["4", "cat", "ran", "big"]),
                              st.sampled_from(["CD", "NN", "VBD", "JJ"])),
                    max_size=12))
    @settings(max_examples=200)
    def test_alignment_invariants(self, raw):
        tagged = _tt(*raw)
        patterns, phrases = extract_cardinal_features(tagged)
        cd_at = [i for i, t in enumerate(tagged) if t.pos == "CD"]
        assert len(patterns) == len(phrases) == len(cd_at)
        for pat, phr, i in zip(patterns, phrases, cd_at):
            left = tagged[i - 1] if i else TaggedToken(BOS_TOKEN, BOS_TAG)
            right = tagged[i + 1] if i + 1 < len(tagged) else TaggedToken(EOS_TOKEN, EOS_TAG)
            assert pat == f"{left.pos}:CD:{right.pos}"
            assert pat.count(":") == 2
            assert phr == (left.text, tagged[i].text, right.text)


# ---------------------------------------------------------------------------
# Derivation, replication


def _raw(i, headline, body="He ran. She won.", label=CONGRUENT):
    return RawRecord(id=f"r{i}", headline=headline, body=body, label=label)


class TestDeriveDataset:
    def test_keeps_only_cardinal_headlines(self):
        records = [
            _raw(0, "Loan hits 1 million"),
            _raw(1, "Dog bites man", label=INCONGRUENT),
            _raw(2, "Five ways to save", label=INCONGRUENT),
        ]
        kept, counts = derive_dataset(records, RuleTagger())
        assert [r.id for r in kept] == ["r0", "r2"]
        assert counts[CONGRUENT, True] == 1 and counts[CONGRUENT, False] == 0
        assert counts[INCONGRUENT, True] == 1 and counts[INCONGRUENT, False] == 1
        assert counts[CONGRUENT, True] + counts[INCONGRUENT, True] == 2

    def test_filter_matches_tag_scan(self):
        # kept iff the tagged headline contains at least one CD token
        headlines = ["A b c", "win 7 now", "one more time", "no digits here"]
        records = [_raw(i, h) for i, h in enumerate(headlines)]
        tagger = RuleTagger()
        kept, _ = derive_dataset(records, tagger)
        expect = {r.id for r in records
                  if CD_TAG in tagger.tags(r.id, tokenize(r.headline), [])[0]}
        assert {r.id for r in kept} == expect

    def test_featurize_populates_sentences(self):
        rec = featurize(_raw(0, "Loan hits 1 million", body="A b. C d."), RuleTagger())
        assert len(rec.sentences) == 2
        assert [t.text for t in rec.sentences[0]] == ["a", "b", "."]

    def test_summary_tsv_shape(self):
        _, counts = derive_dataset([_raw(0, "7 up")], RuleTagger())
        lines = summary_tsv(counts).strip().split("\n")
        assert lines[0] == "label\tkept\tdropped"
        assert len(lines) == 4
        assert lines[-1].startswith("total\t")


class TestReplicateForTraining:
    def test_one_copy_per_pattern(self):
        rec = featurize(_raw(0, "Loan hits 1 million"), RuleTagger())
        copies = replicate_for_training(rec)
        # each copy keeps one cardinal's pattern and phrase, all else shared
        assert [c.patterns for c in copies] == [[p] for p in rec.patterns]
        assert [c.phrases for c in copies] == [[p] for p in rec.phrases]
        for c in copies:
            assert (c.id, c.headline, c.sentences, c.label) == (
                rec.id, rec.headline, rec.sentences, rec.label)
        assert len(rec.patterns) == len(rec.phrases) == 2

    def test_single_cardinal_gets_index_zero(self):
        rec = featurize(_raw(0, "Win 7 today"), RuleTagger())
        copies = replicate_for_training(rec)
        assert copies == [rec]

    def test_no_cardinal_raises(self):
        rec = featurize(_raw(0, "Dog bites man"), RuleTagger())
        with pytest.raises(DataError, match="r0"):
            replicate_for_training(rec)


# ---------------------------------------------------------------------------
# JSONL I/O


class TestCorpusIO:
    def test_read_valid(self, tmp_path):
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [
            {"id": "a", "headline": "H 1", "body": "B.", "label": "Congruent"},
            {"id": "b", "headline": "H 2", "body": "B.", "label": "incongruent"},
        ])
        recs = read_corpus(p)
        assert [r.label for r in recs] == [CONGRUENT, INCONGRUENT]

    def test_missing_field_reports_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [
            {"id": "a", "headline": "H", "body": "B.", "label": "congruent"},
            {"id": "b", "headline": "H", "label": "congruent"},
        ])
        with pytest.raises(DataError, match=r":2:.*body"):
            read_corpus(p)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "headline": "H", "body": "B", "label": "congruent"}\n'
            "not json\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            read_corpus(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        _write_jsonl(p, [{"id": "a", "headline": "H", "body": "B", "label": "maybe"}])
        with pytest.raises(DataError, match="maybe"):
            read_corpus(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_corpus(tmp_path / "absent.jsonl")

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '\n{"id": "a", "headline": "H", "body": "B", "label": "congruent"}\n\n',
            encoding="utf-8")
        assert len(read_corpus(p)) == 1


_HEADLINE_PIECES = st.one_of(
    st.sampled_from(["top", "loan", "hits", "ways", "the", "million", "five", "saving"]),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["1,000", "3.5"]),
    st.sampled_from(["-", "--", ":", ";", ",", "(", ")", "$", "'"]),
)


# bodies of words, abbreviations and runs of punctuation, digits, letters
# and whitespace, so that some are empty or whitespace only
_BODY = st.lists(st.one_of(st.sampled_from(["he", "won", "7", "games", "Mr.", "U.S.", "."]),
                           st.text(_ALPHABET, max_size=3)), max_size=8).map(" ".join)


class TestDerivedIO:
    def test_round_trip(self, tmp_path):
        src = [
            featurize(_raw(0, "Loan hits 1 million", body="A b. C d."), RuleTagger()),
            featurize(_raw(1, "Win 7 today", label=INCONGRUENT), RuleTagger()),
        ]
        p = tmp_path / "d.jsonl"
        write_derived(src, p)
        back = read_derived(p)
        assert back == src

    @given(st.lists(st.tuples(_HEADLINE_PIECES, st.sampled_from([" ", ""])), max_size=10))
    @example([("5", " "), ("ways", " "), ("to", " "), ("save", " "), ("1,000", " "),
              ("now", "")])
    @example([("top", " "), ("-", " "), ("5", " "), ("things", "")])
    @settings(max_examples=200, deadline=None)
    def test_record_json_round_trip(self, pieces):
        # the rule tagger tags "-", ":" and ";" as ":", which also
        # appears as a separator in pattern keys
        headline = "".join(piece + sep for piece, sep in pieces)
        rec = featurize(_raw(0, headline), RuleTagger())
        obj = json.loads(json.dumps(record_to_json(rec)))
        if not rec.headline:
            with pytest.raises(DataError, match="headline has no tokens"):
                record_from_json(obj)
        else:
            assert record_from_json(obj) == rec

    @given(st.lists(st.tuples(_HEADLINE_PIECES, st.sampled_from([" ", ""])), max_size=6), _BODY)
    @example([("5", " "), ("ways", "")], "")
    @example([("5", " "), ("ways", "")], " \u3000\n\t")
    @example([("5", " "), ("ways", "")], "Mr. 7 . won")
    @settings(max_examples=200, deadline=None)
    def test_every_kept_record_reads_back_and_pads(self, pieces, body):
        raw = _raw(0, "".join(piece + sep for piece, sep in pieces), body=body)
        rec = featurize(raw, RuleTagger())
        kept, counts = derive_dataset([raw], RuleTagger())
        assert kept == ([rec] if rec.patterns and rec.sentences else [])
        assert counts == {(CONGRUENT, bool(kept)): 1}
        for r in kept:
            assert record_from_json(json.loads(json.dumps(record_to_json(r)))) == r
            padded = pad_record(r, 1, 1)
            assert [s.tokens for s in padded.sentences] == [[r.sentences[0][0].text]]

    def test_bad_derived_record_reports_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [{"id": "a"}])
        with pytest.raises(DataError, match=r":1:"):
            read_derived(p)

    @pytest.mark.parametrize("field,value", [
        ("sentences", 5),
        ("sentences", [["word"]]),
        ("headline", "Loan hits 1 million"),
        ("headline", [["Loan", "NN", "x"]]),
        ("headline", [["Loan"]]),
        ("headline", [["Loan", 5]]),
        ("headline", [["Loan", ["NN"]]]),
        ("sentences", [[["a", "DT"], "ab"]]),
        ("patterns", [3]),
        ("phrases", [["a", "b"]]),
        ("active_cardinal_index", 2),
        ("active_cardinal_index", -1),
        ("active_cardinal_index", True),
        ("active_cardinal_index", "0"),
        ("sentences", []),
        ("sentences", [[["<pad>", "NN"]]]),
    ])
    def test_derived_record_field_types_checked(self, tmp_path, field, value):
        obj = record_to_json(featurize(_raw(0, "Loan hits 1 million"), RuleTagger()))
        obj[field] = value
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, [obj])
        with pytest.raises(DataError, match=r":1:"):
            read_derived(p)


class TestLabelIndex:
    def test_mapping(self):
        assert label_index(CONGRUENT) == 0
        assert label_index(INCONGRUENT) == 1

    def test_unknown_raises(self):
        with pytest.raises(DataError):
            label_index("sideways")
