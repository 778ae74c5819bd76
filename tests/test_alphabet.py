import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapumorph.alphabet import (AlphabetError, DIGRAPHS, SINGLE_LETTERS,
                                final_segment, is_valid, is_vowel, segments)


def test_digraphs_are_single_segments():
    assert segments("langüm") == ["l", "a", "ng", "ü", "m"]
    assert segments("llegüm") == ["ll", "e", "g", "ü", "m"]
    assert segments("watro") == ["w", "a", "tr", "o"]
    assert segments("chaw") == ["ch", "a", "w"]


def test_greedy_digraph_wins_over_letters():
    assert segments("üngüm") == ["ü", "ng", "ü", "m"]
    assert segments("mansun") == ["m", "a", "n", "s", "u", "n"]


def test_unknown_character_reports_offender():
    with pytest.raises(AlphabetError) as err:
        segments("xyz")
    assert err.value.char == "x"


def test_final_kind():
    # a final digraph is one consonant segment
    assert is_vowel(final_segment("küpa"))
    assert final_segment("reng") == "ng" and not is_vowel("ng")
    assert not is_vowel(final_segment("watrokaw"))
    assert is_vowel("ü")


@given(st.lists(st.sampled_from(sorted(DIGRAPHS) + sorted(SINGLE_LETTERS)),
                min_size=1, max_size=12))
def test_segmentation_rejoins(seq):
    word = "".join(seq)
    assert "".join(segments(word)) == word
    assert is_valid(word)


@given(st.lists(st.sampled_from(sorted(DIGRAPHS) + sorted(SINGLE_LETTERS)
                                + ["l", "l", "n"]),
                min_size=1, max_size=12))
def test_final_segment_agrees_with_segmentation(seq):
    # runs of l pair off from their start, so their length decides the
    # last segment
    word = "".join(seq)
    assert final_segment(word) == segments(word)[-1]


def test_an_empty_surface_has_no_final_segment():
    with pytest.raises(ValueError,
                       match="^empty surface string has no final segment$"):
        final_segment("")


def test_final_segment_reports_the_whole_word():
    with pytest.raises(AlphabetError) as err:
        final_segment("kax")
    assert err.value.char == "x" and err.value.text == "kax"
