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


@dataclass(frozen=True)
class RootUse:
    """A root together with the sense row selected for this analysis."""

    entry: RootEntry
    sense: Sense


# The slot template, stated here alone.  Suffix slots fall from OPEN_FLOOR;
# a new member (at most MAX_MEMBERS) reopens them while every suffix since
# the last one is in the stem zone (slot >= STEM_ZONE); a suffix in slot
# INFLECTION_ZONE or below inflects the form, which then needs a mood.
OPEN_FLOOR = 37
STEM_ZONE = 33
MAX_MEMBERS = 3
INFLECTION_ZONE = 15

# tags that mark person or number, which a verbal noun does not take
_PERSON_NUMBER_TAGS = tags.PERSON_TAGS | tags.AGENT_TAGS | {"SG", "DL", "PL"}


def next_floor(entry: SuffixEntry, floor: int = OPEN_FLOOR) -> int:
    """Slot floor after *entry* under *floor*: the lower of the two.  The
    IND1SG portmanteau fills the mood and person slots 4 and 3, so it
    leaves 3 whatever the floor was, even a lower one."""
    return 3 if entry.tag == "IND1SG" else min(floor, entry.slot)


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
    return "TV" if root.category == "verb" and root.valency == "TV" else "IV"


def validate_plan(items: list, lexicon: Lexicon | None = None,
                  trace: list | None = None) -> list[Violation]:
    """Validate a mixed sequence of RootUse and SuffixEntry items.

    Walks *items* once, folding a small state and collecting violations
    (*lexicon* is not read): the valency ``state``, the slot ``floor``,
    the stem members so far and the ``last``; ``stem_open``, whether every
    suffix since it is in the stem zone; ``pending``, the code a
    non-verbal member raises unless the next suffix licenses it; the
    previous suffix tag (None after a member); the first ``mood``;
    whether the form is ``inflected``; the tags ``seen`` and ``slot6``.
    When *trace* is a list, each step's (root form or suffix id, state
    after it) is appended to it.
    """
    if not items or not isinstance(items[0], RootUse):
        raise ValueError("sequence must start with a root")
    first = items[0]
    violations: list[Violation] = []
    state, floor, n_members, last = first.sense.context, OPEN_FLOOR, 1, first
    stem_open, pending, prev_tag = True, None, None
    mood, inflected, seen, slot6 = None, False, set(), False
    if trace is not None:
        trace.append((first.entry.form, state))

    for i, item in enumerate(items[1:], 1):
        if isinstance(item, RootUse):
            if not stem_open:
                violations.append(Violation("member_position", i))
            if n_members >= MAX_MEMBERS:
                violations.append(Violation("compound_depth", i))
            if pending is not None:
                violations.append(Violation(pending, i))
                pending = None
            category = item.entry.category
            if category == "verb":
                state = _member_effective_valency(item.entry)
            elif category == "noun":
                if state in ("TV", "TV2"):
                    state = valency_step(state, "decrease")
                else:
                    violations.append(Violation("noun_incorporation", i))
            elif category == "demonstrative":
                pending = "dp_member_context"
            else:
                pending = "member_needs_causative"
            n_members, last = n_members + 1, item
            floor, stem_open, prev_tag = OPEN_FLOOR, True, None
            if trace is not None:
                trace.append((item.entry.form, state))
            continue

        entry: SuffixEntry = item
        if pending is not None:
            if not (entry.tag == "CA" if pending == "member_needs_causative"
                    else entry.id == "CA.l" or entry.tag == "ST"):
                violations.append(Violation(pending, i))
            pending = None

        if entry.slot >= floor:
            violations.append(Violation(
                "slot_conflict" if entry.slot == floor else "slot_order", i))
        floor = next_floor(entry, floor)
        stem_open = stem_open and entry.slot >= STEM_ZONE
        inflected = inflected or entry.slot <= INFLECTION_ZONE

        # a lone root of unknown valency takes a causative or agreement
        # whatever its sense; a labile one takes agreement
        lone = first.entry.valency if n_members == 1 else None
        if entry.tag == "CA":
            if prev_tag is None and n_members > 1:  # on a later member
                ok = _member_effective_valency(last.entry) == "IV"
            else:  # on the stem (right after a lone root, its sense)
                ok = state == "IV" or lone == "unknown"
            if not ok:
                violations.append(Violation("CA_on_TV", i))
            if entry.id == "CA.m" and last.entry.loan:
                violations.append(Violation("um_on_loan", i))
        elif entry.attach_constraint == "tv_stem_only":
            if state not in ("TV", "TV2") and lone not in ("labile", "unknown"):
                violations.append(Violation(
                    "AGR_on_IV" if entry.valency_effect == "agreement_tv_only"
                    else "tv_only_suffix", i))
        elif entry.attach_constraint == "iv_stem_only" and state != "IV":
            violations.append(Violation("CA_on_TV", i))
        state = valency_step(state, "increase" if entry.tag == "CA"
                             else entry.valency_effect)

        if mood is None and entry.tag in tags.MOOD_TAGS:
            mood = entry.tag
        seen.add(entry.tag)
        slot6 = slot6 or entry.slot == 6
        if entry.id == "NOM.0" and prev_tag != "CA":
            violations.append(Violation("nom_requires_causative", i))
        prev_tag = entry.tag
        if trace is not None:
            trace.append((entry.id, state))

    end = len(items)
    if pending is not None:
        violations.append(Violation(pending, end))
    if mood is None:
        # Uninflected derivational stems (citation forms) and bare
        # non-verbal roots are words; anything carrying inflection-zone
        # suffixes, and a bare verb root, needs a mood.
        if inflected or end == 1 and first.entry.category == "verb":
            violations.append(Violation("missing_mood", end))
    elif mood in tags.FINITE_MOOD_TAGS:
        if mood not in tags.PORTMANTEAU_MOOD_TAGS \
                and seen.isdisjoint(tags.PERSON_TAGS):
            violations.append(Violation("missing_person", end))
    elif not seen.isdisjoint(_PERSON_NUMBER_TAGS):  # verbal-noun mood
        violations.append(Violation("person_on_nominal", end))

    agent = not seen.isdisjoint(tags.AGENT_TAGS)
    if "INV" in seen and not agent:
        violations.append(Violation("inverse_requires_agent", end))
    if agent and "INV" not in seen:
        violations.append(Violation("agent_requires_inverse", end))
    if "INST" in seen and mood not in tags.VERBAL_NOUN_TAGS:
        violations.append(Violation("inst_requires_nominal", end))
    if "ST" in seen and slot6:
        violations.append(Violation("slot_conflict", end,
                                    "stative excludes slot-6 agreement"))
    # 1sg indicative is the portmanteau mood, so a bare first-person
    # marker under IND must be dual or plural.
    if "1" in seen and mood == "IND" and seen.isdisjoint(("DL", "PL")):
        violations.append(Violation("first_person_number", end))
    if "SG" in seen and not agent:
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
