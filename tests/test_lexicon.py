from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapumorph.defaults import data_path
from mapumorph.lexicon import (Allomorph, Lexicon, LexiconError, RootEntry,
                               Sense, data_lines, load_lexicon,
                               parse_root_line, parse_suffix_line,
                               validate_lexicon)

from conftest import DATA
from helpers import dump_roots, dump_suffixes


def test_labile_root_line_parses_to_two_senses():
    entry = parse_root_line("monge\tverb\tlabile\tIV:to heal|TV:to revive")
    assert entry.form == "monge" and entry.category == "verb"
    assert entry.valency == "labile"
    assert entry.senses == (Sense("IV", "to heal"), Sense("TV", "to revive"))


def test_empty_file_gives_empty_lexicon(tmp_path):
    path = tmp_path / "roots.tsv"
    path.write_text("# nothing here\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert not lex.roots and not lex.suffixes


def test_lexicon_mappings_are_read_only(lexicon):
    key = ("küpa", "verb")
    with pytest.raises(TypeError):
        lexicon.roots[key] = lexicon.roots[key]
    with pytest.raises(TypeError):
        lexicon.suffixes["CA.l"] = lexicon.suffixes["CA.l"]


def test_lexicon_copies_the_mappings_it_is_built_from(lexicon):
    roots = dict(lexicon.roots)
    copy = Lexicon(roots, dict(lexicon.suffixes))
    roots.clear()
    assert copy == lexicon


def test_duplicate_form_category_rejected(tmp_path):
    path = tmp_path / "roots.tsv"
    path.write_text("püna\tverb\tTV\tTV:glue\npüna\tverb\tIV\tIV:stick\n",
                    encoding="utf-8")
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    assert "duplicate" in str(err.value) and ":2:" in str(err.value)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "roots.tsv"
    path.write_text("good\tverb\tIV\tIV:fine\nbad-line-no-tabs\n",
                    encoding="utf-8")
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    assert ":2:" in str(err.value)


def test_a_gloss_holding_a_line_separator_loads_intact(tmp_path):
    # lines end at line feeds only
    path = tmp_path / "roots.tsv"
    path.write_text("küpa\tverb\tIV\tIV:come\u2028here\n", encoding="utf-8")
    assert load_lexicon(path).roots["küpa", "verb"].senses == (
        Sense("IV", "come\u2028here"),)


def test_a_crlf_root_file_reads_as_its_lf_copy(tmp_path, lexicon):
    crlf = tmp_path / "roots.tsv"
    crlf.write_bytes(data_path("roots.tsv").read_bytes().replace(b"\n",
                                                                 b"\r\n"))
    assert load_lexicon(crlf, data_path("suffixes.tsv")) == lexicon
    crlf.write_bytes(b"good\tverb\tIV\tIV:fine\r\nbad-line-no-tabs\r\n")
    with pytest.raises(LexiconError, match=r"roots\.tsv:2: expected"):
        load_lexicon(crlf)


def test_the_shipped_slot_table_lists_each_suffix_once_with_its_slot(
        lexicon):
    slots = [line.split("\t") for _, line in data_lines(
        data_path("slots.tsv"))]
    assert sorted(sid for sid, _ in slots) == sorted(lexicon.suffixes)
    assert all(int(slot) == lexicon.suffixes[sid].slot
               for sid, slot in slots)


def test_labile_invariant_enforced_on_strict_load(tmp_path):
    path = tmp_path / "roots.tsv"
    path.write_text("aye\tverb\tlabile\tIV:laugh\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(path)
    lex = load_lexicon(path, strict=False)
    diagnostics = validate_lexicon(lex)
    assert any(d.code == "labile_missing_sense" and d.subject == "aye"
               for d in diagnostics)


def test_unregistered_tag_diagnosed(tmp_path):
    roots = tmp_path / "roots.tsv"
    roots.write_text("aye\tverb\tIV\tIV:laugh\n", encoding="utf-8")
    suffixes = tmp_path / "suffixes.tsv"
    suffixes.write_text("X.q\t4\tXYZ\tneutral\tany\tq@any\n", encoding="utf-8")
    lex = load_lexicon(roots, suffixes, strict=False)
    assert any(d.code == "unregistered_tag" for d in validate_lexicon(lex))


ROOT_LINE = "küpa\tverb\tIV\tIV:come\n"
SUFFIX_LINE = "X.y\t4\tIND\tneutral\tany\ty@any\n"


@pytest.mark.parametrize("roots, suffixes, where, message", [
    ("küpa\tverb\tIV\tIV:come\tkona\tloan,old\n", "", "roots.tsv:1",
     "unknown flag 'old'"),
    ("# roots\nküpa\tverb\tIV\tIV-come\n", "", "roots.tsv:2",
     "sense 'IV-come' is not CTX:gloss"),
    (ROOT_LINE, "# suffixes\n\nX.y\t4\tIND\n", "suffixes.tsv:3",
     "expected 6 tab-separated columns, got 3"),
    (ROOT_LINE, "X.y\tfour\tIND\tneutral\tany\ty@any\n", "suffixes.tsv:1",
     "slot 'four' is not an integer"),
    (ROOT_LINE, "X.y\t4\tIND\tneutral\tany\ty@any|k-C\n", "suffixes.tsv:1",
     "allomorph 'k-C' is not surface@context"),
    (ROOT_LINE, SUFFIX_LINE + "# again\n" + SUFFIX_LINE, "suffixes.tsv:3",
     "duplicate suffix id 'X.y'"),
    (ROOT_LINE, SUFFIX_LINE + "Y.w\t40\tIND\tneutral\tany\ty@any\n",
     "suffixes.tsv:2",
     "invariant violation for suffix 'Y.w': slot 40 outside 1..36"),
], ids=["unknown-flag", "sense-without-context", "suffix-columns",
        "suffix-slot", "allomorph-context", "duplicate-suffix",
        "suffix-invariant"])
def test_malformed_lexicon_line_is_located(tmp_path, roots, suffixes, where,
                                           message):
    (tmp_path / "roots.tsv").write_text(roots, encoding="utf-8")
    (tmp_path / "suffixes.tsv").write_text(suffixes, encoding="utf-8")
    with pytest.raises(LexiconError) as err:
        load_lexicon(tmp_path / "roots.tsv", tmp_path / "suffixes.tsv")
    assert str(err.value) == f"{tmp_path / where}: {message}"


ROOT = parse_root_line(ROOT_LINE)
SUFFIX = parse_suffix_line(SUFFIX_LINE)


@pytest.mark.parametrize("entry, code", [
    (replace(ROOT, form="Küpa"), "bad_form"),
    (replace(ROOT, category="Verb"), "bad_category"),
    (replace(ROOT, valency="XV"), "bad_valency"),
    (replace(ROOT, source="book"), "bad_source"),
    (replace(ROOT, senses=()), "no_senses"),
    (replace(ROOT, senses=(Sense("XV", "come"),)), "bad_sense_context"),
    (replace(SUFFIX, slot=40), "bad_slot"),
    (replace(SUFFIX, valency_effect="up"), "bad_effect"),
    (replace(SUFFIX, attach_constraint="some"), "bad_attach"),
    (replace(SUFFIX, allomorphs=()), "no_allomorphs"),
    (replace(SUFFIX, allomorphs=(Allomorph("y", "any"),
                                 Allomorph("k", "any"))),
     "multiple_fallbacks"),
    (replace(SUFFIX, allomorphs=(Allomorph("Y", "any"),)), "bad_form"),
    (replace(SUFFIX, allomorphs=(Allomorph("y", "X"),)), "bad_context"),
    (replace(SUFFIX, valency_effect="agreement_tv_only"), "agreement_attach"),
], ids=["root-form", "category", "valency", "source", "no-senses",
        "sense-context", "slot", "effect", "attach", "no-allomorphs",
        "fallbacks", "allomorph-form", "allomorph-context", "agreement"])
def test_each_invariant_is_diagnosed(entry, code):
    # the entry replaces its clean counterpart; nothing else is at fault
    root, suffix = (entry, SUFFIX) if isinstance(entry, RootEntry) \
        else (ROOT, entry)
    lex = Lexicon({(root.form, root.category): root}, {suffix.id: suffix})
    found = [d for d in validate_lexicon(lex) if d.invariant]
    subject = root.form if suffix is SUFFIX else suffix.id
    assert [(d.code, d.subject) for d in found] == [(code, subject)]


def test_nine_labile_fixture_is_clean_and_has_18_sense_rows():
    lex = load_lexicon(DATA / "labile9.tsv")
    assert validate_lexicon(lex) == []
    senses = [(r.form, s.context) for r in lex.iter_roots() for s in r.senses]
    assert len(senses) == 18
    assert sorted({form for form, _ in senses}) == [
        "aye", "kewa", "llüka", "meke", "monge", "nge", "püna",
        "waychüf", "yewe"]
    for form in {form for form, _ in senses}:
        contexts = {ctx for f, ctx in senses if f == form}
        assert contexts == {"IV", "TV"}


def test_shipped_lexicon_is_clean(lexicon):
    assert validate_lexicon(lexicon) == []


def test_gloss_corpus_uses_only_registered_tags(gloss_corpus):
    """Closed-world check over every tag the fixture corpus mentions."""
    from mapumorph.tags import GLOSS_TAGS
    for _, gloss, _ in gloss_corpus:
        for token in gloss.split():
            body = token.lstrip("+-")
            if body.startswith("CR."):
                continue  # compound-stem marker, not a morph tag
            for part in body.split("+"):
                code = part.split(".", 1)[0]
                assert code in GLOSS_TAGS, (gloss, code)


def test_round_trip_of_shipped_lexicon(tmp_path, lexicon):
    roots = tmp_path / "roots.tsv"
    suffixes = tmp_path / "suffixes.tsv"
    roots.write_text(dump_roots(lexicon), encoding="utf-8")
    suffixes.write_text(dump_suffixes(lexicon), encoding="utf-8")
    again = load_lexicon(roots, suffixes)
    assert again == lexicon


_gloss = st.text(alphabet="abcdefghij ", min_size=1, max_size=10).map(str.strip).filter(bool)
_form = st.lists(st.sampled_from(["a", "e", "ü", "k", "l", "ng", "tr", "w"]),
                 min_size=1, max_size=6).map("".join)


@st.composite
def _root_entries(draw):
    form = draw(_form)
    category = draw(st.sampled_from(["verb", "noun", "adjective"]))
    valency = draw(st.sampled_from(["IV", "TV", "labile", "unknown"]))
    if valency == "labile":
        senses = (Sense("IV", draw(_gloss)), Sense("TV", draw(_gloss)))
    else:
        ctx = draw(st.sampled_from(["IV", "TV"]))
        senses = (Sense(ctx, draw(_gloss)),)
    source = draw(st.sampled_from(["smeets", "kona", "augusta", "user"]))
    return RootEntry(form, category, valency, senses, source,
                     draw(st.booleans()))


@given(st.lists(_root_entries(), max_size=8))
def test_round_trip_random_lexicons(tmp_path_factory, entries):
    roots = {}
    for entry in entries:
        roots.setdefault((entry.form, entry.category), entry)
    lex = Lexicon(roots)
    path = tmp_path_factory.mktemp("lex") / "roots.tsv"
    path.write_text(dump_roots(lex) if lex.roots else "", encoding="utf-8")
    assert load_lexicon(path) == lex
