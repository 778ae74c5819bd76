"""The command line's promise on bad input, pinned by a property test: a
golden input line with one character inserted, deleted or replaced, or a
classify line with one field of the wrong JSON type, never lets an
exception escape :func:`mapumorph.cli.run`, which exits 0, 1 or 2.

``analyse`` and ``generate`` read each line on its own, so the lines
around an edited one keep their golden output.  ``classify`` reads the
whole stream before it writes: one bad line stops the run with exit 1, a
message located at that line and nothing on stdout.
"""

import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapumorph.cli import run
from mapumorph.defaults import data_path

from conftest import DATA

GOLDEN = DATA / "golden"
WORDS = GOLDEN.joinpath("words.txt").read_text(encoding="utf-8").splitlines()
GENERATE = [line for line in GOLDEN.joinpath("generate.tsv").read_text(
    encoding="utf-8").splitlines() if line.strip()]
ROOTS = data_path("roots.tsv").read_text(encoding="utf-8").splitlines()
ROOT_LINES = [i for i, line in enumerate(ROOTS)
              if line.strip() and not line.startswith("#")]

# characters an edit puts in: alphabet letters, the separators and JSON
# punctuation the readers split on, and characters outside the alphabet
EDIT_CHARS = st.sampled_from(list("aküngñ0-x\t ,.:|@{}[]\"")
                             + ["\u0308", "\u2028", "\x00", "Ü", "h"])
# values of every JSON type, for a field that takes none of them
JSON_VALUES = [5, 2.5, True, None, "x", [], {}]


def _str(value):
    return type(value) is str


def _list(value):
    return type(value) is list


def _str_or_null(value):
    return value is None or type(value) is str


# the JSON types a classify field takes, by the field's name
PIECE_FIELDS = {
    "surface": _str, "gloss": _str_or_null, "category": _str_or_null,
    "sense_context": _str_or_null, "effect": _str_or_null,
    "slot": lambda v: v is None or type(v) is int,
    "fused_with_prev": lambda v: type(v) is bool,
    "span": lambda v: False,  # no value above is a list of two ints
    "kind": _str, "morph": _str, "tags": _list}
ANALYSIS_FIELDS = {"trace": _list, "stem_valency": _str_or_null,
                   "word": _str, "source": _str_or_null, "pieces": _list}

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def invoke(argv, lines):
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(argv, stdin, stdout, stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def golden_outputs(lines, text, command):
    """Each golden input line's output: the lines of *text* that start
    with it and a tab, in input order."""
    out, rest = {}, text.splitlines(keepends=True)
    for line in lines:
        key = (line.rstrip() if command == "generate" else line) + "\t"
        n = 1 if command == "generate" else next(
            (i for i, o in enumerate(rest) if not o.startswith(key)),
            len(rest))
        assert n and rest[0].startswith(key), line
        out[line], rest = "".join(rest[:n]), rest[n:]
    assert not rest
    return out


EXPECTED = {
    "analyse": golden_outputs(WORDS, GOLDEN.joinpath("analyse.txt").read_text(
        encoding="utf-8"), "analyse"),
    "generate": golden_outputs(GENERATE, GOLDEN.joinpath(
        "generate.txt").read_text(encoding="utf-8"), "generate"),
}
LINES = {"analyse": WORDS, "generate": GENERATE}


@functools.cache
def json_lines():
    """``analyse --format json-lines --source kona`` lines of the first
    golden words that have an analysis."""
    code, out, _ = invoke(["analyse", "--format", "json-lines", "--source",
                           "kona"], WORDS[:60])
    assert code == 0
    return [line for line in out.splitlines() if json.loads(line)["analyses"]]


@st.composite
def edited(draw, line):
    """*line* with one character inserted, deleted or replaced."""
    op = draw(st.sampled_from(("insert", "delete", "replace")) if line
              else st.just("insert"))
    pos = draw(st.integers(0, len(line) - (op != "insert")))
    if op == "delete":
        return line[:pos] + line[pos + 1:]
    return line[:pos] + draw(EDIT_CHARS) + line[pos + (op == "replace"):]


@st.composite
def windows(draw, lines):
    """(three neighbouring lines, the index of one, that one edited)."""
    start = draw(st.integers(0, len(lines) - 3))
    window = lines[start:start + 3]
    at = draw(st.integers(0, 2))
    return window, at, draw(edited(window[at]))


@st.composite
def mistyped(draw, line):
    """*line*, an analyse JSON line, with one field of an analysis or of a
    piece, or its analyses list, given a value of a wrong JSON type."""
    data = json.loads(line)
    target, fields = data, {"analyses": _list}
    analysis = draw(st.sampled_from(data["analyses"]))
    level = draw(st.sampled_from(("line", "analysis", "piece")))
    if level == "analysis":
        target, fields = analysis, ANALYSIS_FIELDS
    elif level == "piece":
        target, fields = draw(st.sampled_from(analysis["pieces"])), \
            PIECE_FIELDS
    name = draw(st.sampled_from(sorted(fields)))
    target[name] = draw(st.sampled_from(
        [v for v in JSON_VALUES if not fields[name](v)]))
    return json.dumps(data, ensure_ascii=False, sort_keys=True)


@PROPERTY
@given(st.sampled_from(("analyse", "generate")).flatmap(
    lambda command: st.tuples(st.just(command), windows(LINES[command]))))
def test_an_edited_line_changes_only_its_own_output(case):
    command, (window, at, line) = case
    code, out, _ = invoke([command], window[:at] + [line] + window[at + 1:])
    alone_code, alone, _ = invoke([command], [line])
    assert code == alone_code == 0
    expected = EXPECTED[command]
    assert out == "".join(expected[w] for w in window[:at]) + alone + "".join(
        expected[w] for w in window[at + 1:])


def check_classify(lines, at, always_bad):
    code, out, err = invoke(["classify"], lines)
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith(f"<stdin>:{at + 1}: ")
        assert err.count("\n") == 1
    assert code == 1 or not always_bad


@PROPERTY
@given(st.data())
def test_classify_stops_at_an_edited_line(data):
    window, at, line = data.draw(windows(json_lines()))
    check_classify(window[:at] + [line] + window[at + 1:], at, False)


@PROPERTY
@given(st.data())
def test_classify_stops_at_a_field_of_the_wrong_type(data):
    lines = json_lines()
    at = data.draw(st.integers(0, len(lines) - 1))
    bad = data.draw(mistyped(lines[at]))
    check_classify(lines[:at] + [bad] + lines[at + 1:], at, True)


@pytest.fixture(scope="module")
def roots_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roots") / "roots.tsv"


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_validate_lexicon_survives_an_edited_root_line(roots_path, data):
    at = data.draw(st.sampled_from(ROOT_LINES))
    lines = ROOTS[:at] + [data.draw(edited(ROOTS[at]))] + ROOTS[at + 1:]
    roots_path.write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")
    code, _, err = invoke(["validate-lexicon", "--lexicon", str(roots_path)],
                          [])
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
