"""Tokenizer, segmentation, and sampling tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerclip import tokenizer as tk
from cornerclip.tokenizer import (
    CLS_ID,
    CORNER_ID_BASE,
    PAD_ID,
    ROLE_CLS,
    ROLE_CORNER,
    ROLE_PAD,
    ROLE_SEP,
    ROLE_TEXT,
    SEP_ID,
    UNK_ID,
    Vocabulary,
    sample_consecutive,
    split_subcaptions,
    tokenize,
)

WORDS = ["cat", "dog", "sun", "rock", "tree", "bird", "wave", "leaf"]


def random_text(rng):
    n_sent = int(rng.integers(1, 5))
    sents = []
    for _ in range(n_sent):
        k = int(rng.integers(1, 6))
        sents.append(" ".join(rng.choice(WORDS, size=k)) + ".")
    return " ".join(sents)


def split_subcaptions_loop(text):
    """The character loop that split_subcaptions once was, kept as its reference."""
    out = []
    buf = []
    for ch in text:
        buf.append(ch)
        if ch == ".":
            piece = "".join(buf).strip()
            if piece:
                out.append(piece)
            buf = []
    tail = "".join(buf).strip()
    if tail:
        out.append(tail)
    return out


class TestSplitSubcaptions:
    @given(st.text(st.one_of(st.sampled_from("ab.. \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"),
                             st.characters())))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_character_loop(self, text):
        assert split_subcaptions(text) == split_subcaptions_loop(text)

    def test_two_sentences(self):
        assert split_subcaptions("A cat. A dog.") == ["A cat.", "A dog."]

    def test_empty(self):
        assert split_subcaptions("") == []

    def test_trailing_fragment_kept(self):
        assert split_subcaptions("A cat. and then") == ["A cat.", "and then"]

    def test_eight_periods(self):
        text = " ".join(f"sentence number {i}." for i in range(8))
        assert len(split_subcaptions(text)) == 8

    def test_join_reconstructs_random_texts(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            text = random_text(rng)
            joined = " ".join(split_subcaptions(text))
            assert " ".join(joined.split()) == " ".join(text.split())


class TestSampleConsecutive:
    def test_window_of_two(self):
        subcaps = ["a.", "b.", "c.", "d."]
        out = sample_consecutive(subcaps, 2, np.random.default_rng(7))
        assert out in ("a. b.", "b. c.", "c. d.")
        assert all(sample_consecutive(subcaps, 2, np.random.default_rng(7)) == out
                   for _ in range(5))

    def test_clamps_to_available(self):
        assert sample_consecutive(["a."], 3, np.random.default_rng(123)) == "a."

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty long text"):
            sample_consecutive([], 2, np.random.default_rng(0))

    def test_nonpositive_k_errors(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            sample_consecutive(["a."], 0, np.random.default_rng(0))

    def test_uniform_over_windows(self):
        subcaps = ["a.", "b.", "c.", "d."]
        counts = {"a. b.": 0, "b. c.": 0, "c. d.": 0}
        for seed in range(10_000):
            counts[sample_consecutive(subcaps, 2, np.random.default_rng(seed))] += 1
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 3) < 0.02

    def test_always_contiguous_window(self):
        subcaps = [f"s{i}." for i in range(7)]
        for seed in range(50):
            out = sample_consecutive(subcaps, 3, np.random.default_rng(seed))
            assert out in [" ".join(subcaps[i:i + 3]) for i in range(5)]


class TestVocabulary:
    def test_reserved_layout(self):
        v = Vocabulary(m_max=4)
        assert PAD_ID == 0
        ids = [PAD_ID, UNK_ID, CLS_ID, SEP_ID] + [CORNER_ID_BASE + i for i in range(4)]
        assert [v.id_of(v.token_of(i)) for i in ids] == ids
        assert sorted(v.token_to_id.values()) == sorted(ids) == list(range(len(v)))

    def test_words_follow_the_reserved_ids_in_sorted_order(self):
        v = Vocabulary.build(["zebra ate. a cat."])
        assert len(v) == CORNER_ID_BASE + v.m_max + 4
        words = [v.token_of(i) for i in range(CORNER_ID_BASE + v.m_max, len(v))]
        assert words == ["a", "ate", "cat", "zebra"]

    def test_round_trip(self):
        v = Vocabulary.build(["a cat sat. a dog ran."])
        for tid in range(len(v)):
            assert v.id_of(v.token_of(tid)) == tid

    def test_unknown_word_maps_to_unk(self):
        v = Vocabulary.build(["a cat."])
        assert v.id_of("zeppelin") == UNK_ID


class TestTokenize:
    def test_direct_construction(self):
        v = Vocabulary.build(["a cat."])
        seq = tokenize("a cat.", 8, 2, v)
        a, cat = v.id_of("a"), v.id_of("cat")
        assert seq.ids.tolist() == [CLS_ID, CORNER_ID_BASE, CORNER_ID_BASE + 1,
                                    a, cat, SEP_ID, PAD_ID, PAD_ID]
        assert seq.roles.tolist() == [ROLE_CLS, ROLE_CORNER, ROLE_CORNER,
                                      ROLE_TEXT, ROLE_TEXT, ROLE_SEP,
                                      ROLE_PAD, ROLE_PAD]
        assert seq.true_length == 6

    def test_m_zero_degenerate(self):
        v = Vocabulary.build(["a cat."])
        seq = tokenize("a cat.", 6, 0, v)
        assert seq.ids.tolist()[:4] == [CLS_ID, v.id_of("a"), v.id_of("cat"), SEP_ID]
        assert ROLE_CORNER not in seq.roles

    def test_limit_too_small(self):
        v = Vocabulary.build(["a."])
        with pytest.raises(ValueError, match=r"^limit must be >= m \+ 2 \(4\), got 3$"):
            tokenize("a.", 3, 2, v)

    def test_negative_corner_count_refused(self):
        v = Vocabulary.build(["a b c"])
        with pytest.raises(ValueError, match=r"m must be >= 0, got -1"):
            tokenize("a b c", 8, -1, v)

    def test_truncation_hard_cut(self):
        v = Vocabulary.build(["w0 w1 w2 w3 w4 w5 w6 w7."])
        seq = tokenize("w0 w1 w2 w3 w4 w5 w6 w7.", 6, 1, v)
        assert len(seq.ids) == 6
        assert seq.true_length == 6
        assert ROLE_PAD not in seq.roles

    @given(st.integers(0, 4), st.lists(st.sampled_from(WORDS), min_size=0, max_size=20),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_role_layout_regular_expression(self, m, words, seed):
        rng = np.random.default_rng(seed)
        text = random_text(rng) if not words else " ".join(words) + "."
        v = Vocabulary.build([text])
        seq = tokenize(text, 16, m, v)
        # CLS CORNER{m} (TEXT|SEP)* PAD* corresponds to non-decreasing phases
        order = {ROLE_CLS: 0, ROLE_CORNER: 1, ROLE_TEXT: 2, ROLE_SEP: 2, ROLE_PAD: 3}
        phases = [order[int(r)] for r in seq.roles]
        assert phases[0] == 0
        assert all(p >= 1 for p in phases[1:])
        assert phases == sorted(phases)
        assert list(seq.roles[1:1 + m]) == [ROLE_CORNER] * min(m, len(seq.roles) - 1)

    def test_detokenize_round_trip(self):
        v = Vocabulary.build(["a cat. a dog."])
        seq = tokenize("a cat. a dog.", 12, 2, v)
        assert tk.detokenize(seq, v) == ["[CLS]", "[COR_1]", "[COR_2]",
                                         "a", "cat", "[SEP]", "a", "dog", "[SEP]"]
