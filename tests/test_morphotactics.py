import dataclasses
import itertools
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapumorph import tags
from mapumorph.lexicon import Lexicon
from mapumorph.morphotactics import (MAX_MEMBERS, OPEN_FLOOR, STEM_ZONE,
                                     RootUse, advance, compound_valency,
                                     end_codes, next_floor, start_fold,
                                     tags_below, valency_step, validate_plan,
                                     validate_sequence)

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
    suffixes that may still come.  None when no prefix is dropped, or when
    the plan breaks the slot template, which the search never builds."""
    fold = start_fold(plan[0])
    floor, n_members, stem_open = OPEN_FLOOR, 1, True
    for i, item in enumerate(plan[1:], 2):
        if isinstance(item, RootUse):
            if not stem_open or n_members >= MAX_MEMBERS:
                return None
            fold, codes = advance(fold, item)
            floor, n_members = OPEN_FLOOR, n_members + 1
        else:
            if item.slot >= floor:
                return None
            fold, codes = advance(fold, item, floor)
            floor = next_floor(item, floor)
            stem_open = stem_open and item.slot >= STEM_ZONE
        follow = None if stem_open and n_members < MAX_MEMBERS \
            else below[floor]
        if codes or end_codes(fold, follow):
            return i
    return None


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
