"""CLI stdout pinned on a fixed word list.

``tests/data/golden/words.txt`` holds the gloss-corpus words, then the
word generated from each of the first 100 tuples of
``sample_valid_tuples(Random(36))`` followed by its near-miss probes
``w[:-1]``, ``w + "a"`` and ``w + "m"``.  The pinned outputs are
``analyse`` in gloss text, the sha256 of ``analyse --format json-lines
--source kona`` and ``classify`` on that JSON.  To regenerate them after
an intended output change, from the repository root in bash:

    cd tests/data/golden && export PYTHONPATH=../../../src && python -m mapumorph analyse < words.txt > analyse.txt && python -m mapumorph analyse --format json-lines --source kona < words.txt | tee >(sha256sum | cut -d' ' -f1 > analyse-kona.sha256) | python -m mapumorph classify > classify.tsv

The morphotactic fold is pinned too: the sha256 of the violations
(code, position, message) and traces ``validate_plan`` gives on 3,000
plans from ``build_random_plan(Random(8))``, which reach every code.
"""

import hashlib
import io
import itertools
from random import Random

import pytest

from mapumorph import generate
from mapumorph.cli import run
from mapumorph.defaults import data_path
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
    # and numbers its pieces, folds and fold sets in the order the
    # reversed words meet them; the output must not depend on that order.
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
