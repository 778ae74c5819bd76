"""Slot grammar and valency constraints for verb-form sequences.

A verb form is a stem (one root, or a compound of up to three members)
followed by suffixes whose slots strictly decrease towards the end of the
word; a new compound member reopens the slot range.  Validation walks the
sequence once, folding the valency state with :func:`valency_step` and
collecting :class:`Violation` records; an empty list means the sequence
is well formed.

Hard constraints only: the stative suffix is deliberately NOT treated as
an intransitivity test (transitive roots with the stative are attested
and must validate), and no habitual-aspect rule is enforced; both are
soft classifier features instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tags
from .defaults import tables
from .lexicon import Lexicon, RootEntry, Sense, SuffixEntry

# Codes beyond the core seven (CA_on_TV .. um_on_loan) belong to the
# artifact's finiteness/compounding plumbing; each code fixes its message.
VIOLATION_MESSAGES = {
    "CA_on_TV": "causative attached to a transitive stem",
    "AGR_on_IV": "person agreement on an intransitive stem",
    "tv_only_suffix": "suffix requires a transitive stem",
    "slot_order": "suffix out of template order",
    "slot_conflict": "mutually exclusive suffixes in one slot",
    "missing_mood": "finite form lacks a mood marker in slot 4",
    "missing_person": "finite form lacks a person marker in slot 3",
    "um_on_loan": "the m-causative does not combine with loan roots",
    "member_position": "compound member after an inflectional suffix",
    "compound_depth": "compound exceeds three members",
    "noun_incorporation": "incorporated noun requires a transitive stem",
    "member_needs_causative": "non-verbal member must carry a causative",
    "dp_member_context": "demonstrative member only before causative or stative",
    "inverse_requires_agent": "inverse form lacks its agent marker in slot 1",
    "agent_requires_inverse": "agent marker without the inverse suffix",
    "person_on_nominal": "person/number marking on a nominalised form",
    "inst_requires_nominal": "instrumental case only on nominalised forms",
    "nom_requires_causative": "zero nominaliser only after a causative",
    "first_person_number": "first person in the indicative needs dual/plural",
    "sg_context": "explicit singular only in agent-marked forms",
}


@dataclass(frozen=True)
class Violation:
    code: str
    at: int
    message: str = ""

    def __post_init__(self):
        if not self.message:
            object.__setattr__(self, "message",
                               VIOLATION_MESSAGES.get(self.code, self.code))

    def to_json(self) -> dict:
        return {"code": self.code, "at": self.at, "message": self.message}


def violations_json(violations) -> str:
    """One JSON line for a violation list (the CLI's wire format)."""
    import json
    return json.dumps([v.to_json() for v in violations], ensure_ascii=False)


@dataclass(frozen=True)
class RootUse:
    """A root together with the sense row selected for this analysis."""

    entry: RootEntry
    sense: Sense

    @property
    def base_state(self) -> str:
        return self.sense.context


def valency_step(state: str, effect: str) -> str:
    """Next transitivity state after a suffix with the given effect.

    Total and deterministic; TV2 caps growth (no third object).
    """
    if effect == "increase":
        return {"IV": "TV", "TV": "TV2", "TV2": "TV2"}[state]
    if effect == "decrease":
        return {"IV": "IV", "TV": "IV", "TV2": "TV"}[state]
    return state  # neutral and agreement_tv_only leave the state alone


def compound_valency(members: list[tuple[RootEntry, SuffixEntry | None]]) -> str:
    """Resulting {IV, TV} valency of a compound stem.

    The compound takes the valency of its later verbal member; a
    causative on any member requires that member to be intransitive and
    makes the whole compound transitive, and an incorporated noun
    saturates the object of a transitive stem.
    """
    if len(members) < 2:
        raise ValueError("a compound needs at least two members")
    state = "IV"
    for root, causative in members:
        if root.category == "verb":
            state = _member_effective_valency(root)
        elif root.category == "noun" and state == "TV":
            state = "IV"
        # other categories are transparent
        if causative is not None and causative.tag == "CA":
            state = "TV"
    return state


def _member_effective_valency(root: RootEntry) -> str:
    if root.category != "verb":
        return "IV"
    return "TV" if root.valency == "TV" else "IV"


def validate_plan(items: list, lexicon: Lexicon | None = None,
                  trace: list | None = None) -> list[Violation]:
    """Validate a mixed sequence of RootUse and SuffixEntry items.

    Walks *items* once, folding the transitivity state and collecting
    violations.  When *trace* is a list, each step's (root form or
    suffix id, state after it) is appended to it.
    """
    violations: list[Violation] = []
    if not items or not isinstance(items[0], RootUse):
        raise ValueError("sequence must start with a root")

    state = "IV"
    slot_floor = 37
    members: list[RootUse] = []
    since_root_min_slot = 37
    pending_member: str | None = None  # "causative" or "dp"
    first_root: RootUse | None = None
    mood_tag: str | None = None
    min_suffix_slot = 37
    has_person = has_inv = has_agent = False
    has_st = has_slot6 = has_inst = False
    has_p1 = has_sg = has_dl_pl = False
    prev_item = None

    for i, item in enumerate(items):
        if isinstance(item, RootUse):
            if members:
                if since_root_min_slot < 33:
                    violations.append(Violation("member_position", i))
                if len(members) >= 3:
                    violations.append(Violation("compound_depth", i))
                if pending_member is not None:
                    code = ("dp_member_context" if pending_member == "dp"
                            else "member_needs_causative")
                    violations.append(Violation(code, i))
                    pending_member = None
                category = item.entry.category
                if category == "verb":
                    state = _member_effective_valency(item.entry)
                elif category == "noun":
                    if state in ("TV", "TV2"):
                        state = valency_step(state, "decrease")
                    else:
                        violations.append(Violation("noun_incorporation", i))
                elif category == "demonstrative":
                    pending_member = "dp"
                else:
                    pending_member = "causative"
            else:
                first_root = item
                state = item.base_state
            members.append(item)
            slot_floor = 37
            since_root_min_slot = 37
            prev_item = item
            if trace is not None:
                trace.append((item.entry.form, state))
            continue

        entry: SuffixEntry = item
        if pending_member is not None:
            ok = (entry.tag == "CA" if pending_member == "causative"
                  else entry.id == "CA.l" or entry.tag == "ST")
            if not ok:
                code = ("dp_member_context" if pending_member == "dp"
                        else "member_needs_causative")
                violations.append(Violation(code, i))
            pending_member = None

        if entry.slot >= slot_floor:
            code = "slot_conflict" if entry.slot == slot_floor else "slot_order"
            violations.append(Violation(code, i))
        slot_floor = min(slot_floor, entry.slot)
        since_root_min_slot = min(since_root_min_slot, entry.slot)
        min_suffix_slot = min(min_suffix_slot, entry.slot)
        if entry.tag == "IND1SG":
            slot_floor = 3  # portmanteau mood+person fills slots 4 and 3

        if entry.tag == "CA":
            attached_root = prev_item if isinstance(prev_item, RootUse) else None
            if attached_root is not None:
                if len(members) == 1:  # attached to the stem-initial root
                    target_ok = attached_root.base_state == "IV" \
                        or attached_root.entry.valency == "unknown"
                else:
                    target_ok = _member_effective_valency(attached_root.entry) == "IV"
                target_root = attached_root.entry
            else:
                target_ok = state == "IV" or (
                    first_root is not None
                    and first_root.entry.valency == "unknown"
                    and len(members) == 1)
                target_root = members[-1].entry
            if not target_ok:
                violations.append(Violation("CA_on_TV", i))
            if entry.id == "CA.m" and target_root.loan:
                violations.append(Violation("um_on_loan", i))
            state = valency_step(state, "increase")
        elif entry.attach_constraint == "tv_stem_only":
            permissive = (len(members) == 1 and first_root is not None
                          and first_root.entry.valency in ("labile", "unknown"))
            if state not in ("TV", "TV2") and not permissive:
                code = ("AGR_on_IV"
                        if entry.valency_effect == "agreement_tv_only"
                        else "tv_only_suffix")
                violations.append(Violation(code, i))
            state = valency_step(state, entry.valency_effect)
        else:
            if entry.attach_constraint == "iv_stem_only" and state != "IV":
                violations.append(Violation("CA_on_TV", i))
            state = valency_step(state, entry.valency_effect)

        if entry.tag in tags.MOOD_TAGS and mood_tag is None:
            mood_tag = entry.tag
        if entry.tag in tags.PERSON_TAGS:
            has_person = True
            if entry.tag == "1":
                has_p1 = True
        if entry.tag == "SG":
            has_sg = True
        if entry.tag in ("DL", "PL"):
            has_dl_pl = True
        if entry.tag == "INV":
            has_inv = True
        if entry.tag in tags.AGENT_TAGS:
            has_agent = True
        if entry.tag == "ST":
            has_st = True
        if entry.slot == 6:
            has_slot6 = True
        if entry.tag == "INST":
            has_inst = True
        if entry.id == "NOM.0":
            prev_is_ca = isinstance(prev_item, SuffixEntry) and prev_item.tag == "CA"
            if not prev_is_ca:
                violations.append(Violation("nom_requires_causative", i))
        prev_item = item
        if trace is not None:
            trace.append((entry.id, state))

    if pending_member is not None:
        code = ("dp_member_context" if pending_member == "dp"
                else "member_needs_causative")
        violations.append(Violation(code, len(items)))

    end = len(items)
    n_suffixes = sum(1 for it in items if isinstance(it, SuffixEntry))
    if mood_tag is None:
        # Uninflected derivational stems (citation forms) and bare
        # non-verbal roots are words; anything carrying inflection-zone
        # suffixes, and any bare verb root, needs a mood.
        if n_suffixes == 0:
            if first_root is not None and first_root.entry.category == "verb" \
                    and len(members) == 1:
                violations.append(Violation("missing_mood", end))
        elif min_suffix_slot <= 15:
            violations.append(Violation("missing_mood", end))
    elif mood_tag in tags.FINITE_MOOD_TAGS:
        if mood_tag not in tags.PORTMANTEAU_MOOD_TAGS and not has_person:
            violations.append(Violation("missing_person", end))
    else:  # verbal-noun mood
        if has_person or has_sg or has_dl_pl or has_agent:
            violations.append(Violation("person_on_nominal", end))

    if has_inv and not has_agent:
        violations.append(Violation("inverse_requires_agent", end))
    if has_agent and not has_inv:
        violations.append(Violation("agent_requires_inverse", end))
    if has_inst and (mood_tag is None or mood_tag not in tags.VERBAL_NOUN_TAGS):
        violations.append(Violation("inst_requires_nominal", end))
    if has_st and has_slot6:
        violations.append(Violation("slot_conflict", end,
                                    "stative excludes slot-6 agreement"))
    # 1sg indicative is the portmanteau mood, so a bare first-person
    # marker under IND must be dual or plural.
    if has_p1 and mood_tag == "IND" and not has_dl_pl:
        violations.append(Violation("first_person_number", end))
    if has_sg and not has_agent:
        violations.append(Violation("sg_context", end))
    return violations


def validate_sequence(root_sense: tuple[RootEntry, str],
                      suffixes: list[SuffixEntry | str],
                      lexicon: Lexicon | None = None) -> list[Violation]:
    """Validate a single-root stem with an ordered suffix list.

    ``root_sense`` is (entry, valency-context); the context selects the
    sense of a labile root and must exist on the entry.  Suffixes may be
    given as entries or ids, looked up in *lexicon* (the shipped one by
    default); an unknown id raises.
    """
    lexicon, _ = tables(lexicon)
    entry, context = root_sense
    senses = entry.senses_for(context)
    if not senses:
        raise ValueError(f"root {entry.form!r} has no {context} sense")
    items: list = [RootUse(entry, senses[0])]
    for suffix in suffixes:
        if isinstance(suffix, str):
            if suffix not in lexicon.suffixes:
                raise KeyError(f"unknown suffix id {suffix!r}")
            suffix = lexicon.suffixes[suffix]
        items.append(suffix)
    return validate_plan(items, lexicon)
