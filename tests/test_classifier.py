import dataclasses
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapumorph import classifier
from mapumorph.classifier import (Evidence, Verdict, classify,
                                  classify_corpus, collect_evidence,
                                  reconcile, render_table)

from helpers import CLASSIFIER_FORMS, classifier_corpus


@pytest.fixture(scope="module")
def corpus(lexicon, rules):
    return classifier_corpus(lexicon, rules)


class TestCollectEvidence:
    def test_intransitive_only_root(self, corpus):
        evidence = collect_evidence("püna", corpus)
        assert evidence.iv_hits >= 1
        assert evidence.tv_hits == 0

    def test_labile_root_has_both_hit_classes(self, corpus):
        evidence = collect_evidence("monge", corpus)
        assert evidence.iv_hits >= 1 and evidence.tv_hits >= 1

    def test_empty_corpus(self):
        evidence = collect_evidence("monge", [])
        assert (evidence.iv_hits, evidence.tv_hits) == (0, 0)
        assert not evidence.sources

    def test_compound_forms_contribute_nothing(self, corpus):
        compounds = [a for a in corpus if len(a.root_pieces) > 1]
        assert compounds  # the fixture set does exercise the exclusion
        for root in ("tüku", "kon"):
            evidence = collect_evidence(root, corpus)
            assert (evidence.iv_hits, evidence.tv_hits) == (0, 0)

    def test_an_analysis_without_a_root_is_no_evidence(self, corpus):
        rooted = [a for a in corpus if len(a.root_pieces) == 1
                  and a.root_pieces[0].morph == "püna"]
        assert collect_evidence("püna", rooted).iv_hits >= 1
        rootless = [dataclasses.replace(a, pieces=tuple(
            p for p in a.pieces if p.kind != "root")) for a in rooted]
        assert collect_evidence("püna", rootless) == Evidence("püna")

    def test_agreement_after_increase_is_not_evidence(self, corpus):
        # the third-person patient in the causativised form proves
        # nothing about the root itself
        evidence = collect_evidence("nge", corpus)
        assert evidence.iv_hits == 1 and evidence.tv_hits == 0

    def test_at_most_one_hit_per_analysis(self, corpus):
        evidence = collect_evidence("kewa", corpus)
        relevant = [a for a in corpus if len(a.root_pieces) == 1
                    and a.root_pieces[0].morph == "kewa"]
        assert evidence.tv_hits <= len(relevant)

    def test_hit_total_bounded_by_attested_forms(self, corpus):
        roots = {a.root_pieces[0].morph for a in corpus
                 if len(a.root_pieces) == 1}
        for root in roots:
            evidence = collect_evidence(root, corpus)
            attested = sum(evidence.sources.values())
            assert evidence.iv_hits + evidence.tv_hits <= attested


class TestClassify:
    def test_both_classes_give_labile(self):
        assert classify(Evidence("monge", iv_hits=1, tv_hits=2)).label == "labile"

    def test_only_intransitive_evidence(self):
        assert classify(Evidence("püna", iv_hits=2)).label == "IV"

    def test_no_evidence_is_undetermined(self):
        assert classify(Evidence("x")).label == "undetermined"

    def test_threshold_is_configurable(self):
        evidence = Evidence("x", iv_hits=1, tv_hits=2)
        assert classify(evidence, threshold=2).label == "TV"
        with pytest.raises(ValueError):
            classify(evidence, threshold=0)

    @pytest.mark.parametrize("with_corpus", [False, True])
    def test_corpus_threshold_below_one_is_refused(self, lexicon, corpus,
                                                    with_corpus):
        with pytest.raises(ValueError, match="threshold must be >= 1"):
            classify_corpus(corpus if with_corpus else [], lexicon,
                            threshold=0)

    def test_soft_features_only_reach_the_rationale(self):
        verdict = classify(Evidence("x", kle_hits=5, ke_tv_hits=3))
        assert verdict.label == "undetermined"
        assert any("soft" in line for line in verdict.rationale)

    @given(st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 3), st.integers(0, 3))
    def test_more_evidence_never_demotes_labile(self, iv, tv, extra_iv, extra_tv):
        before = classify(Evidence("x", iv_hits=iv, tv_hits=tv))
        after = classify(Evidence("x", iv_hits=iv + extra_iv,
                                  tv_hits=tv + extra_tv))
        if before.label == "labile":
            assert after.label == "labile"


class TestReconcile:
    def test_disagreement_prefers_intransitive(self):
        merged = reconcile(("smeets", Verdict("TV")), ("kona", Verdict("IV")))
        assert merged.label == "IV"
        assert merged.discrepancy == (("smeets", "TV"), ("kona", "IV"))

    def test_agreement_passes_through(self):
        merged = reconcile(("smeets", Verdict("IV")), ("kona", Verdict("IV")))
        assert merged.label == "IV" and merged.discrepancy is None

    def test_labile_absorbs_single_labels(self):
        merged = reconcile(("smeets", Verdict("TV")), ("kona", Verdict("labile")))
        assert merged.label == "labile"

    def test_full_policy_product(self):
        """Enumerate all 4x4 label pairs against the stated policy."""
        def expected(a, b):
            if a == b:
                return a
            if "undetermined" in (a, b):
                return b if a == "undetermined" else a
            if "labile" in (a, b):
                return "labile"
            return "IV"  # IV/TV conflict resolves intransitively

        for a, b in itertools.product(
                ("TV", "IV", "labile", "undetermined"), repeat=2):
            merged = reconcile(("s", Verdict(a)), ("k", Verdict(b)))
            assert merged.label == expected(a, b), (a, b)


EXPECTED_TABLE = """\
aye\tlabile\t0\t1\t-
kewa\tlabile\t0\t2\t-
llüka\tlabile\t0\t2\t-
maychü\tTV\t0\t1\t-
meke\tlabile\t0\t2\t-
monge\tlabile\t1\t2\t-
nge\tlabile\t1\t0\t-
püna\tlabile\t1\t0\t-
watro\tIV\t0\t0\t-
waychüf\tlabile\t0\t0\t-
yewe\tlabile\t0\t1\t-
"""


class TestClassifyCorpus:
    def test_exact_table(self, corpus, lexicon):
        table = classify_corpus(corpus, lexicon)
        assert render_table(table) == EXPECTED_TABLE

    def test_nine_labile_roots(self, corpus, lexicon):
        table = classify_corpus(corpus, lexicon)
        labile = sorted(root for root, (verdict, _) in table.items()
                        if verdict.label == "labile")
        assert labile == ["aye", "kewa", "llüka", "meke", "monge", "nge",
                          "püna", "waychüf", "yewe"]

    def test_corpus_alone_calls_püna_intransitive(self, corpus):
        e8 = [a for a in corpus if a.root_pieces
              and a.root_pieces[0].morph == "püna"]
        verdict = classify(collect_evidence("püna", e8))
        assert verdict.label == "IV"

    def test_a_discrepancy_is_rendered_by_its_sources(self):
        table = {"aye": (Verdict("IV"), Evidence("aye", 1)),
                 "küpa": (reconcile(("smeets", Verdict("TV")),
                                    ("kona", Verdict("IV"))),
                          Evidence("küpa", 2, 3))}
        assert render_table(table) == ("aye\tIV\t1\t0\t-\n"
                                       "küpa\tIV\t2\t3\tsmeets:TV|kona:IV\n")

    def test_render_table_is_deterministic(self, corpus, lexicon):
        first = render_table(classify_corpus(corpus, lexicon))
        second = render_table(classify_corpus(corpus, lexicon))
        assert first == second


def reference_classify_corpus(corpus, lexicon=None, threshold=1):
    """classify_corpus as a nested root x source loop: every source's
    analyses are rescanned for every root, and sources without a hit on
    the root are skipped."""
    by_source, roots = {}, set()
    for analysis in corpus:
        pieces = analysis.root_pieces
        if len(pieces) == 1:
            roots.add(pieces[0].morph)
        by_source.setdefault(analysis.source or "unknown", []).append(analysis)
    asserted = {}
    if lexicon is not None:
        for entry in lexicon.iter_roots():
            if entry.category == "verb" and entry.valency == "labile":
                asserted.setdefault(entry.form, "labile")
                roots.add(entry.form)
            elif entry.category == "verb" and entry.valency in ("TV", "IV"):
                asserted.setdefault(entry.form, entry.valency)
    table = {}
    for root in sorted(roots):
        total, verdict = Evidence(root), None
        for source in sorted(by_source):
            evidence = collect_evidence(root, by_source[source])
            if not evidence.sources:
                continue
            total = total.add(evidence)
            per_source = (source, classify(evidence, threshold))
            verdict = per_source if verdict is None \
                else (source, reconcile(verdict, per_source))
        if verdict is None:
            verdict = ("corpus", Verdict("undetermined"))
        if root in asserted:
            final = reconcile(verdict, ("lexicon", Verdict(asserted[root])))
        else:
            final = verdict[1]
        table[root] = (final, total)
    return table


SOURCES = st.sampled_from(["smeets", "kona", "augusta", None])


@given(picks=st.lists(st.tuples(st.integers(0, len(CLASSIFIER_FORMS) - 1),
                                 SOURCES), max_size=40),
       with_lexicon=st.booleans(), threshold=st.integers(1, 2))
def test_one_pass_matches_the_nested_loop(corpus, lexicon, picks,
                                          with_lexicon, threshold):
    sub = [dataclasses.replace(corpus[i], source=source)
           for i, source in picks]
    lex = lexicon if with_lexicon else None
    seen = Counter()

    def recording(root, group):
        seen.update(id(a) for a in group)
        return collect_evidence(root, group)

    with mock.patch.object(classifier, "collect_evidence", recording):
        table = classify_corpus(sub, lex, threshold)
    expected = reference_classify_corpus(sub, lex, threshold)
    assert table == expected
    assert render_table(table) == render_table(expected)
    assert seen == Counter(id(a) for a in sub if len(a.root_pieces) == 1)
