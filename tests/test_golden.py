"""CLI stdout pinned on a fixed word list.

``tests/data/golden/words.txt`` holds the gloss-corpus words, then the
word generated from each of the first 100 tuples of
``sample_valid_tuples(Random(36))`` followed by its near-miss probes
``w[:-1]``, ``w + "a"`` and ``w + "m"``.  The pinned outputs are
``analyse`` in gloss text, the sha256 of ``analyse --format json-lines
--source kona`` and ``classify`` on that JSON.  ``generate.tsv`` holds
those 100 tuples as ``generate`` input lines, then lines that fire the
prothesis, both sandhi rules and both fusions, and invalid lines; its
``generate`` output is pinned in ``generate.txt``.  To regenerate them
after an intended output change, from the repository root in bash:

    cd tests/data/golden && export PYTHONPATH=../../../src && python -S -m mapumorph analyse < words.txt > analyse.txt && python -S -m mapumorph analyse --format json-lines --source kona < words.txt | tee >(sha256sum | cut -d' ' -f1 > analyse-kona.sha256) | python -S -m mapumorph classify > classify.tsv && python -S -m mapumorph generate < generate.tsv > generate.txt

A wider ``analyse --format json-lines`` run is pinned by its sha256 alone:
the words of ``sample_valid_tuples(Random(37), lexicon, 1000)`` and
their probes ``w[:-1]``, ``w + "a"`` and ``w + "m"``, 4,000 words built
in the test.  The same run, its lines split by thirds over the sources
smeets, kona and augusta as ``--source`` would mark them, is fed to
``classify``, whose output is pinned by its sha256 too.  After an
intended output change, print the new digests with
``PYTHONPATH=src:tests python -c "import test_golden as t;
out = t.wide_json(); print(t.wide_digest(out));
print(t.wide_classify_digest(out))"`` from the repository root and pin
them.

``generate`` is pinned the same way, by the sha256 of its stdout over
4,000 lines built in the test: the 3,000 tuples of
``sample_valid_tuples(Random(41), lexicon, 3000)`` as ``form:category``
lines, then 1,000 invalid variants of them, each swapping two adjacent
suffixes of different slots, whose ``ERROR`` lines carry their
violation JSON.  After an intended output change, print the new digest
with ``PYTHONPATH=src:tests python -c "import test_golden as t;
print(t.generate_digest())"`` from the repository root and pin it.

The morphotactic fold is pinned too: the sha256 of the violations
(code, position, message) and traces ``validate_plan`` gives on 3,000
plans from ``build_random_plan(Random(8))``, which reach every code.
"""

import hashlib
import io
import itertools
import json
from random import Random

import pytest

from mapumorph import generate
from mapumorph.cli import run
from mapumorph.defaults import data_path, tables
from mapumorph.morphotactics import VIOLATION_MESSAGES, validate_plan

from conftest import DATA, load_gloss_corpus
from helpers import build_random_plan, sample_valid_tuples

GOLDEN = DATA / "golden"


def invoke(argv, stdin_text):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=stdout,
               stderr=stderr)
    assert code == 0, stderr.getvalue()
    return stdout.getvalue()


def read(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def kona_json():
    return invoke(["analyse", "--format", "json-lines", "--source", "kona"],
                  read("words.txt"))


def test_word_list_is_rebuilt_by_the_generator(lexicon, rules):
    words = [word for word, _, _ in load_gloss_corpus()]
    for root, sense, seq in sample_valid_tuples(Random(36), lexicon, 100):
        word = generate(root, sense.context, seq, lexicon, rules)
        words += [word, word[:-1], word + "a", word + "m"]
    assert "\n".join(words) + "\n" == read("words.txt")


def test_analyse_gloss_text():
    assert invoke(["analyse"], read("words.txt")) == read("analyse.txt")


def test_a_cold_grammar_fed_in_reverse_gives_the_same_text():
    # --rules loads a rule table of its own, so its grammar starts empty
    # and numbers its pieces and folds in the order the reversed words
    # meet them; the output must not depend on that order.
    words = read("words.txt").split()
    out = invoke(["analyse", "--rules", str(data_path("rules.tsv"))],
                 "\n".join(reversed(words)) + "\n")
    blocks = ["".join(lines) for _, lines in itertools.groupby(
        out.splitlines(keepends=True), key=lambda line: line.split("\t")[0])]
    assert len(blocks) == len(words)
    assert "".join(reversed(blocks)) == read("analyse.txt")


def test_analyse_json_lines(kona_json):
    digest = hashlib.sha256(kona_json.encode("utf-8")).hexdigest()
    assert digest == read("analyse-kona.sha256").strip()


def test_classify(kona_json):
    assert invoke(["classify"], kona_json) == read("classify.tsv")


def test_classify_counts_each_occurrence(kona_json):
    # every analysis twice: the shared decoded pieces still count once per
    # occurrence, so each hit count doubles and no verdict moves
    doubled = [row.split("\t")
               for row in invoke(["classify"], kona_json * 2).splitlines()]
    rows = [row.split("\t") for row in read("classify.tsv").splitlines()]
    assert doubled == [[root, label, str(2 * int(iv)), str(2 * int(tv)), disc]
                       for root, label, iv, tv, disc in rows]
    assert any(int(iv) and int(tv) == 0 for _, _, iv, tv, _ in rows)
    assert any(int(tv) and int(iv) == 0 for _, _, iv, tv, _ in rows)


def test_generate(lexicon):
    lines = read("generate.tsv").splitlines()
    assert lines[:100] == [
        f"{root.form}\t{sense.context}\t{' '.join(seq)}"
        for root, sense, seq in sample_valid_tuples(Random(36), lexicon, 100)]
    out = invoke(["generate"], read("generate.tsv"))
    assert out == read("generate.txt")
    words = read("words.txt").split()
    assert [line.rsplit("\t", 1)[1] for line in out.splitlines()[:100]] \
        == words[-400::4]


def test_generate_on_filled_rows_prints_the_same_text():
    # --rules loads a rule table of its own, so its grammar starts with no
    # generation entry filled; the second copy of the lines reads the
    # rows the first one filled
    out = invoke(["generate", "--rules", str(data_path("rules.tsv"))],
                 read("generate.tsv") * 2)
    assert out == read("generate.txt") * 2


def wide_words():
    """The words of 1,000 valid tuples from ``Random(37)`` and their
    near-miss probes."""
    lexicon, rules = tables(None, None)
    words = []
    for root, sense, seq in sample_valid_tuples(Random(37), lexicon, 1000):
        word = generate(root, sense.context, seq, lexicon, rules)
        words += [word, word[:-1], word + "a", word + "m"]
    return words


def wide_json():
    """``analyse --format json-lines`` over :func:`wide_words`."""
    return invoke(["analyse", "--format", "json-lines"],
                  "\n".join(wide_words()) + "\n")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wide_digest(out):
    """The sha256 of :func:`wide_json`'s output *out*."""
    return sha256(out)


WIDE_SOURCES = ("smeets", "kona", "augusta")


def with_sources(out):
    """The lines of *out* split by thirds over :data:`WIDE_SOURCES`,
    each payload and analysis marked as ``analyse --source`` marks them."""
    lines = out.splitlines()
    payloads = []
    for i, line in enumerate(lines):
        payload = json.loads(line)
        payload["source"] = WIDE_SOURCES[3 * i // len(lines)]
        for item in payload["analyses"]:
            item["source"] = payload["source"]
        payloads.append(payload)
    return payloads


def json_lines(objects):
    return "".join(json.dumps(o, ensure_ascii=False, sort_keys=True) + "\n"
                   for o in objects)


def wide_classify_digest(out):
    """The sha256 of ``classify`` over :func:`with_sources` of *out*."""
    return sha256(invoke(["classify"], json_lines(with_sources(out))))


@pytest.fixture(scope="module")
def wide():
    return wide_json()


def test_analyse_json_lines_on_4000_generated_words(wide):
    assert wide_digest(wide) == (
        "4be262c5d3f2f22d592d60dacad811f872fafd897afd1dfea6b0e5fd5896b046")


def test_classify_on_4000_generated_words_from_three_sources(wide):
    assert wide_classify_digest(wide) == (
        "95286bc39ead7ad45132a582144fead5abdd1075e4f1be549c15914ae74f291b")


def test_wide_sources_are_marked_as_the_cli_marks_them(wide):
    payloads = with_sources(wide)
    for i in (0, len(payloads) // 2, -1):
        argv = ["analyse", "--format", "json-lines",
                "--source", payloads[i]["source"]]
        assert invoke(argv, payloads[i]["word"] + "\n") \
            == json_lines([payloads[i]])
    assert [sum(p["source"] == s for p in payloads)
            for s in WIDE_SOURCES] == [1334, 1333, 1333]


def test_bare_analyses_classify_as_their_lines(wide):
    # one analysis per line, the shape the benchmark feeds, gives the
    # same table as the analyse output lines that hold them
    payloads = with_sources(wide)
    bare = json_lines(item for p in payloads for item in p["analyses"])
    assert invoke(["classify"], bare) == invoke(["classify"],
                                                json_lines(payloads))


def generate_digest():
    """The sha256 of ``generate`` over 3,000 valid tuples from
    ``Random(41)`` and 1,000 invalid variants of them."""
    lexicon, _ = tables(None, None)
    rng = Random(41)
    tuples = sample_valid_tuples(rng, lexicon, 3000)
    lines = [f"{root.form}:{root.category}\t{sense.context}\t{' '.join(seq)}"
             for root, sense, seq in tuples]
    for root, sense, seq in tuples:
        if len(lines) == 4000:
            break
        pairs = [i for i in range(len(seq) - 1)
                 if lexicon.suffixes[seq[i]].slot
                 != lexicon.suffixes[seq[i + 1]].slot]
        if pairs:
            i = rng.choice(pairs)
            seq = seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2:]
            lines.append(f"{root.form}:{root.category}\t{sense.context}\t"
                         f"{' '.join(seq)}")
    assert len(lines) == 4000
    out = invoke(["generate"], "\n".join(lines) + "\n")
    assert out.count("\tERROR\t[{") == 1000
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_generate_on_4000_tuples():
    assert generate_digest() == (
        "37c28eee83cee3a4bd52fee802072abce671c795c761ef39ad5a24dab38c35d4")


def test_validate_plan_fold(lexicon):
    rng = Random(8)
    digest = hashlib.sha256()
    seen = set()
    for _ in range(3000):
        trace = []
        found = validate_plan(build_random_plan(rng, lexicon), lexicon, trace)
        seen.update(v.code for v in found)
        digest.update(repr(([(v.code, v.at, v.message) for v in found],
                            trace)).encode("utf-8"))
    assert seen == set(VIOLATION_MESSAGES)
    assert digest.hexdigest() == (
        "8588a59f1e9c33d54f889d14718aeb63f05c3ddc8ff94a119f8b2b9e1274f5f6")
