"""Slot grammar and valency constraints for verb-form sequences.

A verb form is a stem (one root, or a compound of up to three members)
followed by suffixes whose slots strictly decrease towards the end of the
word; a new compound member reopens the slot range.  Validation walks the
sequence once, folding a small :class:`Fold` with :func:`advance` and
running :func:`end_codes` at the end of the word, and collects
:class:`Violation` records; an empty list means the sequence is well
formed.  The fold holds the slot template too (the floor and the members
so far), so it is the whole morphotactic state.
The analyser's search folds each prefix the same way and runs the end
checks under the suffixes that may still follow (:func:`follows`), so it
drops a sequence at its first violation that no continuation can undo.

Hard constraints only: the stative suffix is deliberately NOT treated as
an intransitivity test (transitive roots with the stative are attested
and must validate), and no habitual-aspect rule is enforced; both are
soft classifier features instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# a new member (at most MAX_MEMBERS) reopens them while the floor is in the
# stem zone (floor >= STEM_ZONE; IND1SG counts as slot 3); a suffix in slot
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
    counts as slot 3: it leaves 3, or the floor if that is lower."""
    return min(floor, 3 if entry.tag == "IND1SG" else entry.slot)


_INCREASE = {"IV": "TV", "TV": "TV2", "TV2": "TV2"}
_DECREASE = {"IV": "IV", "TV": "IV", "TV2": "TV"}


def valency_step(state: str, effect: str) -> str:
    """Next transitivity state after a suffix with the given effect.

    Total and deterministic; TV2 caps growth (no third object).
    """
    if effect == "increase":
        return _INCREASE[state]
    if effect == "decrease":
        return _DECREASE[state]
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


class Fold(NamedTuple):
    """What later items and the end checks read of a plan so far: the slot
    template's state, whose floor also says whether a member may come, and
    whether the plan is a lone verb root, which no transition leads to.
    Folds are built with ``tuple.__new__``, which skips the keyword
    handling of the NamedTuple constructor: the analyser's grammar build
    calls :func:`advance` about 19,000 times on the shipped tables, when it
    compiles the transitions between settled folds (:func:`settle`) once
    per grammar."""

    state: str              # the valency: IV, TV or TV2
    pending: str | None     # the code a non-verbal member raises unless
                            # the next suffix licenses it
    prev_ca: bool | None    # the previous suffix is CA; None right after
                            # a member
    lone: str | None        # the root's lexical valency while it is the
                            # only member
    last_iv: bool           # the latest member's effective valency is IV
    last_loan: bool         # the latest member is a loan
    mood: str | None        # the first mood tag
    inflected: bool         # a suffix sits in slot <= INFLECTION_ZONE
    seen: frozenset         # the tags seen that the end checks read
    slot6: bool             # a suffix sits in slot 6
    floor: int              # the next suffix's slot must be below it; at
                            # STEM_ZONE or above, a new member may come
    members: int            # the stem members so far
    bare: bool              # the plan is a lone verb root


# the tags the end checks read
_END_TAGS = _PERSON_NUMBER_TAGS | {"INV", "INST", "ST"}

# a slot conflict at the end of the word is always the stative's
_END_MESSAGES = {"slot_conflict": "stative excludes slot-6 agreement"}


def start_fold(first: RootUse) -> Fold:
    """The fold of a plan that is *first* alone."""
    entry = first.entry
    return tuple.__new__(Fold, (
        first.sense.context, None, None, entry.valency,
        _member_effective_valency(entry) == "IV", entry.loan, None, False,
        frozenset(), False, OPEN_FLOOR, 1, entry.category == "verb"))


def advance(fold: Fold, item) -> tuple[Fold, list]:
    """The fold after *item*, a later member or a suffix, and the codes
    *item* raises, in order, the slot template's among them."""
    (state, pending, prev_ca, lone, last_iv, last_loan, mood, inflected,
     seen, slot6, floor, members, _) = fold
    codes = []
    if isinstance(item, RootUse):
        if floor < STEM_ZONE:
            codes.append("member_position")
        if members >= MAX_MEMBERS:
            codes.append("compound_depth")
        if pending is not None:
            codes.append(pending)
            pending = None
        entry = item.entry
        category = entry.category
        if category == "verb":
            state = _member_effective_valency(entry)
        elif category == "noun":
            if state in ("TV", "TV2"):
                state = valency_step(state, "decrease")
            else:
                codes.append("noun_incorporation")
        elif category == "demonstrative":
            pending = "dp_member_context"
        else:
            pending = "member_needs_causative"
        return tuple.__new__(Fold, (
            state, pending, None, None,
            _member_effective_valency(entry) == "IV", entry.loan, mood,
            inflected, seen, slot6, OPEN_FLOOR, members + 1, False)), codes

    tag, slot = item.tag, item.slot
    if pending is not None:
        if not (tag == "CA" if pending == "member_needs_causative"
                else item.id == "CA.l" or tag == "ST"):
            codes.append(pending)
    if slot >= floor:
        codes.append("slot_conflict" if slot == floor else "slot_order")

    # a lone root of unknown valency takes a causative or agreement
    # whatever its sense; a labile one takes agreement
    if tag == "CA":
        if prev_ca is None and lone is None:  # on a later member
            ok = last_iv
        else:  # on the stem (right after a lone root, its sense)
            ok = state == "IV" or lone == "unknown"
        if not ok:
            codes.append("CA_on_TV")
        if item.id == "CA.m" and last_loan:
            codes.append("um_on_loan")
        state = valency_step(state, "increase")
    else:
        attach, effect = item.attach_constraint, item.valency_effect
        if attach == "tv_stem_only":
            if state not in ("TV", "TV2") \
                    and lone not in ("labile", "unknown"):
                codes.append("AGR_on_IV" if effect == "agreement_tv_only"
                             else "tv_only_suffix")
        elif attach == "iv_stem_only" and state != "IV":
            codes.append("CA_on_TV")
        state = valency_step(state, effect)

    if mood is None and tag in tags.MOOD_TAGS:
        mood = tag
    if tag in _END_TAGS and tag not in seen:
        seen = seen | {tag}
    if item.id == "NOM.0" and not prev_ca:
        codes.append("nom_requires_causative")
    return tuple.__new__(Fold, (
        state, None, tag == "CA", lone, last_iv, last_loan, mood,
        inflected or slot <= INFLECTION_ZONE, seen, slot6 or slot == 6,
        next_floor(item, floor), members, False)), codes


def follows(fold: Fold, below: dict[int, frozenset]) -> frozenset | None:
    """The ``follow`` of :func:`end_codes` mid-word after *fold*: None
    while another compound member may come, which reopens every slot,
    else the tags in *below* (:func:`tags_below`) under the fold's
    floor."""
    if fold.floor >= STEM_ZONE and fold.members < MAX_MEMBERS:
        return None
    return below[fold.floor]


def _settled(follow: frozenset | None, clearing) -> bool:
    """No suffix that may still follow carries a tag of *clearing*."""
    return follow is not None and follow.isdisjoint(clearing)


def end_codes(fold: Fold, follow: frozenset | None = frozenset()) -> list:
    """The codes the end of the word raises on *fold*, in order, that no
    continuation can clear.  *follow* holds the tags of the suffixes that
    may still come: none at the end of the word, and mid-word those that
    :func:`follows` gives (None while another compound member may come).
    A bare fold lacks its mood at the end of the word."""
    (_, pending, _, _, _, _, mood, inflected, seen, slot6, _, _,
     bare) = fold
    codes = []
    nothing_follows = follow is not None and not follow
    if pending is not None and nothing_follows:
        codes.append(pending)
    if mood is None:
        # Uninflected derivational stems (citation forms) and bare
        # non-verbal roots are words; anything carrying inflection-zone
        # suffixes, and a bare verb root, needs a mood.
        if (inflected and _settled(follow, tags.MOOD_TAGS)
                or bare and nothing_follows):
            codes.append("missing_mood")
    elif mood in tags.FINITE_MOOD_TAGS:
        if mood not in tags.PORTMANTEAU_MOOD_TAGS \
                and seen.isdisjoint(tags.PERSON_TAGS) \
                and _settled(follow, tags.PERSON_TAGS):
            codes.append("missing_person")
    elif not seen.isdisjoint(_PERSON_NUMBER_TAGS):  # verbal-noun mood
        codes.append("person_on_nominal")

    if not seen:  # the checks below each read a tag seen
        return codes
    agent = not seen.isdisjoint(tags.AGENT_TAGS)
    if "INV" in seen and not agent and _settled(follow, tags.AGENT_TAGS):
        codes.append("inverse_requires_agent")
    if agent and "INV" not in seen and _settled(follow, ("INV",)):
        codes.append("agent_requires_inverse")
    if "INST" in seen and mood not in tags.VERBAL_NOUN_TAGS and (
            mood is not None or _settled(follow, tags.VERBAL_NOUN_TAGS)):
        codes.append("inst_requires_nominal")
    if "ST" in seen and slot6:
        codes.append("slot_conflict")
    # 1sg indicative is the portmanteau mood, so a bare first-person
    # marker under IND must be dual or plural.
    if "1" in seen and mood == "IND" and seen.isdisjoint(("DL", "PL")) \
            and _settled(follow, ("DL", "PL")):
        codes.append("first_person_number")
    if "SG" in seen and not agent and _settled(follow, tags.AGENT_TAGS):
        codes.append("sg_context")
    return codes


def tags_below(lexicon: Lexicon) -> dict[int, frozenset]:
    """For each slot floor a suffix can leave (and the open floor), the
    tags of the lexicon's suffixes that may follow under it, which
    :func:`follows` reads while the stem cannot reopen."""
    entries = list(lexicon.suffixes.values())
    floors = {OPEN_FLOOR} | {next_floor(entry) for entry in entries}
    return {floor: frozenset(entry.tag for entry in entries
                             if entry.slot < floor)
            for floor in floors}


def tags_reading_lone(lexicon: Lexicon) -> frozenset:
    """The tags of the suffixes that read ``lone`` in :func:`advance`: the
    causatives and those that need a transitive stem."""
    return frozenset(entry.tag for entry in lexicon.suffixes.values()
                     if entry.tag == "CA"
                     or entry.attach_constraint == "tv_stem_only")


def settle(fold: Fold, follow: frozenset | None,
           reading_lone: frozenset) -> Fold:
    """*fold* without what no later item or end check reads, given the
    tags that may still *follow* (:func:`follows`) and those that read
    ``lone`` (:func:`tags_reading_lone`): folds that settle alike go on,
    item by item, to folds that settle alike, valency and end codes."""
    member = follow is None  # may follow, and then so may every suffix
    causative = member or "CA" in follow
    # a lone TV root reads as IV: only None, labile and unknown differ
    lone = ("IV" if fold.lone == "TV" else fold.lone) \
        if member or not follow.isdisjoint(reading_lone) else None
    return fold._replace(
        lone=lone,
        # read only by a causative right after a later member
        last_iv=fold.last_iv and causative and fold.prev_ca is None
        and lone is None,
        last_loan=fold.last_loan and causative,
        slot6=fold.slot6 and (member or "ST" in fold.seen or "ST" in follow),
        members=fold.members if member else MAX_MEMBERS)


def validate_plan(items: list, lexicon: Lexicon | None = None,
                  trace: list | None = None) -> list[Violation]:
    """Validate a mixed sequence of RootUse and SuffixEntry items.

    Walks *items* once from :func:`start_fold`, folding with
    :func:`advance`, then runs :func:`end_codes` on the last fold at the
    end of the word (*lexicon* is not read).  When *trace* is a list,
    each step's (root form or suffix id, state after it) is appended to it.
    """
    if not items or not isinstance(items[0], RootUse):
        raise ValueError("sequence must start with a root")
    first = items[0]
    violations: list[Violation] = []
    fold = start_fold(first)
    if trace is not None:
        trace.append((first.entry.form, fold.state))

    for i, item in enumerate(items[1:], 1):
        fold, codes = advance(fold, item)
        for code in codes:
            violations.append(Violation(code, i))
        if trace is not None:
            trace.append((item.entry.form if isinstance(item, RootUse)
                          else item.id, fold.state))

    end = len(items)
    for code in end_codes(fold):
        violations.append(Violation(code, end, _END_MESSAGES.get(code, "")))
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
