import dataclasses
import itertools
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapumorph import analyzer, tags
from mapumorph.lexicon import Lexicon
from mapumorph.morphotactics import (MAX_MEMBERS, STEM_ZONE, RootUse,
                                     advance, compound_valency, end_codes,
                                     follows, settle, start_fold, tags_below,
                                     tags_reading_lone, valency_step,
                                     validate_plan, validate_sequence)

from helpers import build_random_plan


def codes(violations):
    return [v.code for v in violations]


class TestValencyStep:
    @pytest.mark.parametrize("state,effect,expected", [
        ("IV", "increase", "TV"),
        ("TV", "increase", "TV2"),
        ("TV2", "increase", "TV2"),
        ("TV", "decrease", "IV"),
        ("TV2", "decrease", "TV"),
        ("IV", "decrease", "IV"),
        ("TV", "neutral", "TV"),
        ("IV", "neutral", "IV"),
        ("TV", "agreement_tv_only", "TV"),
    ])
    def test_table(self, state, effect, expected):
        assert valency_step(state, effect) == expected

    @given(st.sampled_from(["IV", "TV", "TV2"]),
           st.lists(st.sampled_from(["increase", "decrease", "neutral",
                                     "agreement_tv_only"]), max_size=12))
    def test_total_and_closed(self, state, effects):
        for effect in effects:
            state = valency_step(state, effect)
            assert state in ("IV", "TV", "TV2")


class TestValidateSequence:
    def test_causative_chain_on_intransitive(self, lexicon):
        root = lexicon.roots[("küpa", "verb")]
        assert validate_sequence((root, "IV"), ["CA.l", "IND1SG.n"]) == []

    def test_causative_on_transitive_rejected(self, lexicon):
        root = lexicon.roots[("elu", "verb")]
        found = validate_sequence((root, "TV"), ["CA.m", "IND.y", "P3.ng"])
        assert "CA_on_TV" in codes(found)

    def test_labile_intransitive_sense_with_causative(self, lexicon):
        root = lexicon.roots[("monge", "verb")]
        seq = ["CA.l", "HAB.ke", "AGR.fi", "IND.y", "P1.i", "PL.un"]
        assert validate_sequence((root, "IV"), seq) == []

    def test_labile_root_licenses_bare_agreement(self, lexicon):
        root = lexicon.roots[("aye", "verb")]
        seq = ["CONT.ka", "AGR.fi", "IND1SG.n"]
        assert validate_sequence((root, "TV"), seq) == []
        # the intransitive sense passes too: the root is listed in both
        # valency classes, which is exactly what the agreement marks
        assert validate_sequence((root, "IV"), seq) == []

    def test_agreement_on_plain_intransitive_rejected(self, lexicon):
        root = lexicon.roots[("weyel", "verb")]
        found = validate_sequence((root, "IV"), ["AGR.fi", "IND1SG.n"])
        assert "AGR_on_IV" in codes(found)

    def test_persistent_aspect_licenses_agreement(self, lexicon):
        root = lexicon.roots[("weyel", "verb")]
        seq = ["PFPS.kunu", "AGR.fi", "IND1SG.n"]
        assert validate_sequence((root, "IV"), seq) == []

    def test_m_causative_rejected_on_loan(self, lexicon):
        root = lexicon.roots[("kansa", "verb")]
        found = validate_sequence((root, "IV"), ["CA.m", "IND1SG.n"])
        assert "um_on_loan" in codes(found)
        assert validate_sequence((root, "IV"), ["CA.l", "IND1SG.n"]) == []

    def test_slot_order_enforced(self, lexicon):
        root = lexicon.roots[("küpa", "verb")]
        found = validate_sequence((root, "IV"),
                                  ["HAB.ke", "CA.l", "IND1SG.n"])
        assert "slot_order" in codes(found)

    def test_same_slot_suffixes_conflict(self, lexicon):
        root = lexicon.roots[("küpa", "verb")]
        found = validate_sequence((root, "IV"),
                                  ["PRPS.nie", "PFPS.kunu", "IND1SG.n"])
        assert "slot_conflict" in codes(found)

    def test_ind1sg_keeps_a_lower_floor(self, lexicon):
        # IND1SG counts as slot 3, so after a suffix below that it leaves
        # the floor where it was
        root = lexicon.roots[("küpa", "verb")]
        found = validate_sequence((root, "IV"), ["DL.u", "IND1SG.n", "P3.ng"])
        assert [(v.code, v.at) for v in found] == [("slot_order", 2),
                                                   ("slot_order", 3)]
        found = validate_sequence((root, "IV"), ["A3.ew", "IND1SG.n", "SG.0"])
        assert ("slot_order", 3) in [(v.code, v.at) for v in found]

    def test_missing_mood_on_bare_verb_root(self, lexicon):
        root = lexicon.roots[("monge", "verb")]
        assert "missing_mood" in codes(validate_sequence((root, "IV"), []))

    def test_missing_person_on_finite_mood(self, lexicon):
        root = lexicon.roots[("küpa", "verb")]
        found = validate_sequence((root, "IV"), ["IND.y"])
        assert "missing_person" in codes(found)

    def test_citation_stem_is_valid(self, lexicon):
        root = lexicon.roots[("anel", "verb")]
        assert validate_sequence((root, "TV"), ["TR.tu"]) == []

    def test_stative_on_transitive_roots_is_legal(self, lexicon):
        # stativity must not be encoded as an intransitivity test
        elu = lexicon.roots[("elu", "verb")]
        seq = ["REF.w", "ST.le", "RI.fu", "IND1SG.n"]
        assert validate_sequence((elu, "TV"), seq) == []
        pi = lexicon.roots[("pi", "verb")]
        assert validate_sequence((pi, "TV"), ["ST.le", "IND.y", "P3.ng"]) == []

    def test_stative_excludes_slot6_agreement(self, lexicon):
        root = lexicon.roots[("elu", "verb")]
        found = validate_sequence((root, "TV"),
                                  ["ST.le", "AGR.fi", "IND.y", "P3.ng"])
        assert "slot_conflict" in codes(found)

    def test_inverse_needs_agent_and_vice_versa(self, lexicon):
        root = lexicon.roots[("kewa", "verb")]
        found = validate_sequence((root, "TV"), ["AGR.e", "IND.y", "P3.ng"])
        assert "inverse_requires_agent" in codes(found)
        found = validate_sequence((root, "TV"), ["IND.y", "P3.ng", "A3.ew"])
        assert "agent_requires_inverse" in codes(found)

    def test_a_sense_the_root_lacks_raises(self, lexicon):
        root = lexicon.roots[("küpa", "verb")]
        with pytest.raises(ValueError, match="^root 'küpa' has no TV sense$"):
            validate_sequence((root, "TV"), ["IND1SG.n"])

    def test_unknown_suffix_id_raises(self, lexicon):
        root = lexicon.roots[("küpa", "verb")]
        with pytest.raises(KeyError):
            validate_sequence((root, "IV"), ["NOPE.x"])

    @pytest.mark.parametrize("suffix_ids,expected", [
        (["FORCE.fal", "IND1SG.n"], [("tv_only_suffix", 1)]),
        (["PVN.n", "P3.ng"], [("person_on_nominal", 3)]),
        (["IND1SG.n", "INST.mew"], [("inst_requires_nominal", 3)]),
        (["NOM.0"], [("nom_requires_causative", 1)]),
        (["IND.y", "P1.i"], [("first_person_number", 3)]),
        (["IND.y", "P2.m", "SG.0"], [("sg_context", 4)]),
    ])
    def test_single_code_plans(self, lexicon, suffix_ids, expected):
        küpa = lexicon.roots[("küpa", "verb")]
        items = [RootUse(küpa, küpa.senses[0])] + [
            lexicon.suffixes[sid] for sid in suffix_ids]
        assert [(v.code, v.at) for v in validate_plan(items)] == expected

    def test_trace_reaches_second_object(self, lexicon):
        root = lexicon.roots[("ngül", "verb")]
        items = [RootUse(root, root.senses[0]), lexicon.suffixes["CA.m"],
                 lexicon.suffixes["IO.nma"], lexicon.suffixes["AGR.e"],
                 lexicon.suffixes["IND1SG.n"], lexicon.suffixes["A3.ew"]]
        trace = []
        validate_plan(items, lexicon, trace)
        states = [state for _, state in trace]
        assert states[:3] == ["IV", "TV", "TV2"]


class TestCompoundValency:
    def test_transitive_later_member_wins(self, lexicon):
        pura = lexicon.roots[("püra", "verb")]
        ye = lexicon.roots[("ye", "verb")]
        ca = lexicon.suffixes["CA.m"]
        assert compound_valency([(pura, ca), (ye, None)]) == "TV"

    def test_causative_on_last_member_transitivises(self, lexicon):
        tofku = lexicon.roots[("tofkü", "verb")]
        pura = lexicon.roots[("püra", "verb")]
        assert compound_valency([(tofku, None),
                                 (pura, lexicon.suffixes["CA.m"])]) == "TV"

    def test_double_causativisation(self, lexicon):
        reng = lexicon.roots[("reng", "verb")]
        nag = lexicon.roots[("nag", "adverb")]
        ca = lexicon.suffixes["CA.m"]
        assert compound_valency([(reng, ca), (nag, ca)]) == "TV"

    def test_incorporated_noun_detransitivises(self, lexicon):
        elu = lexicon.roots[("elu", "verb")]
        che = lexicon.roots[("che", "noun")]
        assert compound_valency([(elu, None), (che, None)]) == "IV"

    def test_needs_two_members(self, lexicon):
        with pytest.raises(ValueError):
            compound_valency([(lexicon.roots[("elu", "verb")], None)])


class TestMemberLicensing:
    def test_member_blocked_after_inflection(self, lexicon):
        kewa = lexicon.roots[("kewa", "verb")]
        nie = lexicon.roots[("nie", "verb")]
        items = [RootUse(kewa, kewa.senses[0]), lexicon.suffixes["HAB.ke"],
                 RootUse(nie, nie.senses[0]), lexicon.suffixes["IND.y"],
                 lexicon.suffixes["P3.ng"]]
        assert "member_position" in codes(validate_plan(items, lexicon))

    def test_adverb_member_needs_causative(self, lexicon):
        llüka = lexicon.roots[("llüka", "verb")]
        la = lexicon.roots[("la", "adjective")]
        items = [RootUse(llüka, llüka.senses[0]), RootUse(la, la.senses[0]),
                 lexicon.suffixes["IND.y"], lexicon.suffixes["P3.ng"]]
        assert "member_needs_causative" in codes(validate_plan(items, lexicon))

    def test_noun_incorporation_needs_transitive_stem(self, lexicon):
        kon = lexicon.roots[("kon", "verb")]
        che = lexicon.roots[("che", "noun")]
        items = [RootUse(kon, kon.senses[0]), RootUse(che, che.senses[0]),
                 lexicon.suffixes["IND.y"], lexicon.suffixes["P3.ng"]]
        assert "noun_incorporation" in codes(validate_plan(items, lexicon))


def _search_drop(plan, below):
    """The number of items after which the analyser's search drops *plan*:
    its fold raises a code, or an end check is certain to fail under the
    suffixes that may still come.  None when no prefix is dropped."""
    fold = start_fold(plan[0])
    for i, item in enumerate(plan[1:], 2):
        fold, codes = advance(fold, item)
        if codes or end_codes(fold, follows(fold, below)):
            return i
    return None


def test_only_a_lone_verb_root_is_bare(lexicon):
    """start_fold marks a verb root bare, the end of the word then lacks
    its mood, and any later item, suffix or member, clears the mark."""
    küpa = lexicon.roots[("küpa", "verb")]
    che = lexicon.roots[("che", "noun")]
    verb = start_fold(RootUse(küpa, küpa.senses[0]))
    noun = start_fold(RootUse(che, che.senses[0]))
    assert verb.bare and not noun.bare
    assert end_codes(verb) == ["missing_mood"] and end_codes(noun) == []
    # mid-word the end of a bare fold is not yet certain
    assert end_codes(verb, None) == []
    for item in (lexicon.suffixes["CA.l"], RootUse(che, che.senses[0])):
        assert not advance(verb, item)[0].bare
    assert not advance(noun, RootUse(küpa, küpa.senses[0]))[0].bare


def test_the_fold_keeps_the_slot_template(lexicon):
    """advance raises the template's member codes itself, and follows
    leaves the suffixes open exactly while a member may still come."""
    below = tags_below(lexicon)
    küpa = lexicon.roots[("küpa", "verb")]
    nie = lexicon.roots[("nie", "verb")]
    fold = start_fold(RootUse(küpa, küpa.senses[0]))
    assert follows(fold, below) is None
    member = RootUse(nie, nie.senses[0])
    # a stem-zone suffix keeps the stem open, one below it closes it
    ca, hab = lexicon.suffixes["CA.l"], lexicon.suffixes["HAB.ke"]
    assert ca.slot >= STEM_ZONE > hab.slot
    stem = advance(fold, ca)[0]
    assert stem.floor >= STEM_ZONE and follows(stem, below) is None
    assert advance(stem, member)[1] == []
    closed = advance(fold, hab)[0]
    assert closed.floor < STEM_ZONE
    assert follows(closed, below) == below[hab.slot]
    assert advance(closed, member)[1] == ["member_position"]
    # the third member closes the compound, and a fourth is too deep
    for members in range(2, MAX_MEMBERS + 1):
        fold, codes = advance(fold, member)
        assert codes == [] and fold.members == members
        assert (follows(fold, below) is None) == (members < MAX_MEMBERS)
    assert follows(fold, below) == below[fold.floor]
    assert advance(fold, member)[1] == ["compound_depth"]
    assert advance(closed._replace(members=MAX_MEMBERS), member)[1] == [
        "member_position", "compound_depth"]


def test_the_floor_says_whether_the_stem_is_open(lexicon):
    """Over random plans, a prefix's floor is in the stem zone exactly when
    every suffix since its latest member is, so the floor alone says
    whether a new member may come."""
    rng = Random(29)
    prefixes = 0
    for _ in range(3000):
        plan = build_random_plan(rng, lexicon)
        fold, open_stem = start_fold(plan[0]), True
        for item in plan[1:]:
            fold = advance(fold, item)[0]
            open_stem = isinstance(item, RootUse) or (
                open_stem and item.slot >= STEM_ZONE)
            assert (fold.floor >= STEM_ZONE) == open_stem, plan
            prefixes += 1
    assert prefixes > 10_000, prefixes


def test_a_plan_must_start_with_a_root(lexicon):
    for plan in ([], [lexicon.suffixes["CA.l"]]):
        with pytest.raises(ValueError,
                           match="^sequence must start with a root$"):
            validate_plan(plan)


def _in_slot_order(plan):
    """*plan* with each run of suffixes put in falling slot order."""
    out = []
    for is_member, run in itertools.groupby(
            plan, lambda item: isinstance(item, RootUse)):
        out += run if is_member else sorted(run, key=lambda s: -s.slot)
    return out


def _reslotted(lexicon, rng):
    """*lexicon* with every suffix slot drawn again from 1..36, and one
    mood suffix in the stem zone."""
    slots = {sid: rng.randint(1, 36) for sid in lexicon.suffixes}
    mood = rng.choice(sorted(sid for sid, entry in lexicon.suffixes.items()
                             if entry.tag in tags.MOOD_TAGS))
    slots[mood] = rng.randint(STEM_ZONE, 36)
    return Lexicon(dict(lexicon.roots), {
        sid: dataclasses.replace(entry, slot=slots[sid])
        for sid, entry in lexicon.suffixes.items()})


def test_search_drops_only_rejected_plans(lexicon):
    """Every prefix the search drops belongs to a plan validate_plan
    rejects, so no accepted plan is dropped; over the shipped slots and
    over re-drawn ones with a mood in the stem zone."""
    rng = Random(2026)
    lexicons = [lexicon] * 4 + [_reslotted(lexicon, rng) for _ in range(4)]
    unsound, drops, accepted = [], 0, 0
    for lex in lexicons:
        below = tags_below(lex)
        for n in range(3000):
            plan = build_random_plan(rng, lex)
            if n % 2:
                plan = _in_slot_order(plan)
            dropped = _search_drop(plan, below)
            if validate_plan(plan, lex):
                drops += dropped is not None
            else:
                accepted += 1
                if dropped is not None:
                    unsound.append((plan, dropped))
    assert not unsound, unsound[:3]
    assert drops > 6_000 and accepted > 1_000, (drops, accepted)


def test_settle_forgets_only_what_no_continuation_reads(lexicon, rules):
    """Folds that settle alike are equivalent: on the closure of the
    shipped start folds, unsettled, under the items the search tries,
    Moore refinement from the valency and the word-end checks (with and
    without a bare verb root) puts every two folds that settle alike in one
    class.  The grammar the analyser compiles is the settled closure."""
    below, reading_lone = tags_below(lexicon), tags_reading_lone(lexicon)
    items = sorted(lexicon.suffixes.values(), key=lambda entry: entry.id)
    n_suffixes = len(items)
    items += [RootUse(entry, sense) for entry in lexicon.iter_roots()
              for sense in entry.senses]

    def tried(fold):
        follow = follows(fold, below)
        return [column for column, item in enumerate(items)
                if (follow is None if column >= n_suffixes
                    else item.slot < fold.floor)]

    folds = list(dict.fromkeys(start_fold(RootUse(entry, sense))
                               for entry in lexicon.iter_roots() if entry.form
                               for sense in entry.senses))
    ids = {fold: fid for fid, fold in enumerate(folds)}
    rows = []  # per fold, its live (column, fold number) pairs
    for fold in folds:
        row = []
        for column in tried(fold):
            new, codes = advance(fold, items[column])
            if not codes and not end_codes(new, follows(new, below)):
                if new not in ids:
                    ids[new] = len(folds)
                    folds.append(new)
                row.append((column, ids[new]))
        rows.append(row)

    blocks = {}
    classes = [blocks.setdefault((fold.state, not end_codes(fold)),
                                 len(blocks))
               for fold in folds]
    while True:
        blocks = {}
        refined = [blocks.setdefault((classes[fid], tuple(
            (column, classes[new]) for column, new in row)), len(blocks))
                   for fid, row in enumerate(rows)]
        if len(blocks) == len(set(classes)):
            break
        classes = refined

    settled = {}
    for fid, fold in enumerate(folds):
        settled.setdefault(settle(fold, follows(fold, below), reading_lone),
                           set()).add(classes[fid])
    assert all(len(found) == 1 for found in settled.values())
    assert len(folds) > 5000 and len(set(classes)) < len(settled) < 1000, (
        len(folds), len(set(classes)), len(settled))
    grammar = rules.for_lexicon(lexicon, analyzer._Grammar)
    assert set(grammar.folds) == set(settled)
