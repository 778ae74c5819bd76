"""Morpheme-boundary sound rules, their table format, and the one path
that applies them.

Rules live in a TSV table (``id kind left right rewrite exceptions``):

* ``kind``: prothesis, sandhi, epenthesis or fusion.
* ``left``: pattern on the piece before the boundary: ``=form`` or
  ``=form:category`` (whole-lexeme match), a single segment literal
  (``f``, ``g``) or ``V``/``C`` (tested on the final segment of the
  surface so far), ``suffix:ID``, or ``any``/``-``.
* ``right``: pattern on the piece after the boundary, which is read by
  its identity alone: ``=form[:category]``, ``suffix:ID`` or ``any``/``-``.
* ``rewrite``: ``&``-joined ops among ``left:append:X``, ``left:final:X``,
  ``right:prefix:X``, ``right:set:X`` and ``fuse:X`` (fusion rules
  only); ``-`` for none.  Each target ``X`` is empty or alphabet text.
* ``exceptions``: comma list of lexemes (``form`` or ``form:category``)
  that never undergo the rule; ``-`` for none.

A lexeme's form, in a pattern or an exception, is alphabet text and its
category one of the lexicon's categories.  A ``suffix:ID`` pattern is
checked only against the suffix ids :func:`load_rules` is given (the
command line gives those of the lexicon it runs with), since one table
serves any lexicon.

A rule reads a piece by its identity alone, never by the allomorph that
spells a suffix: ``suffix:ID`` matches a suffix piece by its id, a lexeme
pattern or exception a root piece by its form (and category).  So the
right pattern alone picks the candidate rules at a boundary.

Each line is parsed once, at load, straight into the compiled
:class:`BoundaryRule`; a malformed line fails there with its file and
line.  Application is single pass, one rule per boundary, in table
order, and happens in one place, :func:`extend_realization`: a pure
function of the previous piece, its pending part (the part the rule at
the next boundary may still rewrite), the final segment of the surface
so far and the next piece.  It never reads the surface before the
pending part.  :func:`realize` folds it over a running surface; the
analyser's grammar keeps what the step gives for each (previous piece,
pending part, final segment, next piece) it meets, and generation and
the search, which runs forward through the rules rather than undoing
them, read it there, so neither carries realization state.  A rule
table holds no memo, and changes only when the analyser keeps its latest
grammar on it.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, replace
from pathlib import Path

from . import alphabet
from .lexicon import CATEGORIES, Lexicon, data_lines

RULE_KINDS = ("prothesis", "sandhi", "epenthesis", "fusion")

# Rewrite op prefix -> the BoundaryRule field holding its target.
_REWRITES = {"fuse:": "fuse", "left:append:": "left_append",
             "left:final:": "left_final", "right:set:": "right_set",
             "right:prefix:": "right_prefix"}


class PhonologyError(ValueError):
    pass


@dataclass(frozen=True)
class Piece:
    """One underlying morph in a boundary sequence."""

    form: str                      # root form, or suffix allomorph surface
    kind: str                      # "root" or "suffix"
    category: str | None = None    # lexical category, for roots
    suffix_id: str | None = None   # suffix entry id, when known
    fused: bool = False            # set on the piece a fusion ate

    @property
    def is_root(self) -> bool:
        return self.kind == "root"


def replace_final(surface: str, segment: str) -> str:
    segs = alphabet.segments(surface)
    segs[-1] = segment
    return "".join(segs)


# Pattern kinds of a compiled left/right pattern.
_ANY, _LEXEME, _SUFFIX, _VOWEL, _CONSONANT, _SEGMENT = range(6)


def _compile_pattern(text: str) -> tuple:
    """(kind, form-or-id-or-segment, category) for one pattern string."""
    if text in ("", "-", "any"):
        return (_ANY, None, None)
    if text.startswith("="):
        return (_LEXEME, *_lexeme(text[1:], f"pattern {text!r}"))
    if text.startswith("suffix:"):
        if text == "suffix:":
            raise PhonologyError(f"empty suffix id in pattern {text!r}")
        return (_SUFFIX, text.split(":", 1)[1], None)
    if text == "V":
        return (_VOWEL, None, None)
    if text == "C":
        return (_CONSONANT, None, None)
    if alphabet.is_valid(text) and len(alphabet.segments(text)) == 1:
        return (_SEGMENT, text, None)
    raise PhonologyError(f"unknown pattern {text!r}")


def _lexeme(text: str, where: str) -> tuple[str, str | None]:
    """(form, category or None) of the lexeme ``form`` or
    ``form:category``: PhonologyError unless the form is alphabet text
    and the category one of :data:`lexicon.CATEGORIES`, since a lexeme
    that no root can be would never match."""
    form, colon, category = text.partition(":")
    if not form or (colon and not category):
        raise PhonologyError(f"empty form or category in {where}")
    if not alphabet.is_valid(form):
        raise PhonologyError(f"form {form!r} in {where} is outside the "
                             "alphabet")
    if colon and category not in CATEGORIES:
        raise PhonologyError(f"unknown category {category!r} in {where}")
    return form, category if colon else None


def _may_be(pattern: tuple, piece: Piece) -> bool:
    """Whether *pattern* can match *piece* by the piece's identity alone:
    a suffix pattern a suffix piece with its id, a lexeme pattern a root
    piece with its form and category.  Other patterns test segments, so
    they pass here."""
    kind, arg, category = pattern
    if kind == _SUFFIX:
        return not piece.is_root and piece.suffix_id == arg
    if kind == _LEXEME:
        return piece.is_root and piece.form == arg and (
            category is None or piece.category == category)
    return True


def _matches(pattern: tuple, piece: Piece, final: str) -> bool:
    """Match a compiled left pattern against the piece before a boundary.

    ``final`` is the final segment of the surface realised so far ("" when
    nothing is), which V/C and segment-literal patterns test.
    """
    kind, arg, _ = pattern
    if kind in (_ANY, _LEXEME, _SUFFIX):
        return _may_be(pattern, piece)
    if not final:
        return False
    if kind == _VOWEL:
        return alphabet.is_vowel(final)
    if kind == _CONSONANT:
        return not alphabet.is_vowel(final)
    return final == arg


def _may_match_left(pattern: tuple, piece: Piece, surface: str) -> bool:
    """Whether *pattern* can match *piece* on the left of a boundary while
    its part reads *surface* (non-empty).  Never false when the match is
    possible; used only to bound what a later rule can do to the part."""
    kind, arg, _ = pattern
    if kind == _VOWEL:
        return alphabet.is_vowel(surface[-1])
    if kind == _CONSONANT:
        return not alphabet.is_vowel(surface[-1])
    if kind == _SEGMENT:
        # the final segment is the end of the part, or a digraph that
        # ends with the whole part
        return surface.endswith(arg) or arg.endswith(surface)
    return _may_be(pattern, piece)


@dataclass(frozen=True, slots=True)
class BoundaryRule:
    """One rule as parsed: compiled patterns, its exceptions as bare
    root forms and (form, category) pairs, and the target of each
    rewrite op (None when the rule has no such op)."""

    id: str
    left: tuple
    right: tuple
    except_forms: frozenset[str] = frozenset()
    except_lexemes: frozenset[tuple[str, str]] = frozenset()
    fuse: str | None = None
    left_append: str | None = None
    left_final: str | None = None
    right_set: str | None = None
    right_prefix: str | None = None

    @property
    def suffix_ids(self) -> tuple[str, ...]:
        """The suffix ids its ``suffix:ID`` patterns name, left first."""
        return tuple(arg for kind, arg, _ in (self.left, self.right)
                     if kind == _SUFFIX)

    def part(self, form: str) -> str:
        """The part spelled *form* after the boundary once the rule has
        applied: ``right:set``, then ``right:prefix``."""
        part = form if self.right_set is None else self.right_set
        return part if self.right_prefix is None else self.right_prefix + part

    def excepts(self, piece: Piece) -> bool:
        """Whether *piece* is a root the rule names as an exception."""
        return piece.is_root and (
            piece.form in self.except_forms
            or (piece.form, piece.category) in self.except_lexemes)


def parse_rule_line(line: str) -> BoundaryRule:
    cols = line.split("\t")
    if len(cols) < 6:
        raise PhonologyError(f"expected 6 tab-separated columns, got {len(cols)}")
    rid, kind, left, right, rewrite, exceptions = (c.strip() for c in cols[:6])
    if kind not in RULE_KINDS:
        raise PhonologyError(f"unknown rule kind {kind!r}")
    targets = {}
    for op in (op.strip() for op in rewrite.split("&")):
        if op in ("", "-"):
            continue
        prefix = next((p for p in _REWRITES if op.startswith(p)), None)
        if prefix is None:
            raise PhonologyError(f"unknown rewrite op {op!r}")
        if prefix == "fuse:" and kind != "fusion":
            raise PhonologyError(f"{op!r} on a {kind} rule; only fusion "
                                 "rules fuse")
        if _REWRITES[prefix] in targets:
            raise PhonologyError(f"second {prefix!r} op {op!r}; a rule "
                                 "has at most one of each")
        target = op[len(prefix):]
        if not alphabet.is_valid(target):
            raise PhonologyError(f"target {target!r} of {op!r} is outside "
                                 "the alphabet")
        targets[_REWRITES[prefix]] = target
    left, pattern = _compile_pattern(left), _compile_pattern(right)
    if pattern[0] not in (_ANY, _LEXEME, _SUFFIX):
        raise PhonologyError(f"right pattern {right!r} is not any, "
                             "=form[:category] or suffix:ID")
    exc = [_lexeme(e, f"exception {e!r}")
           for e in (e.strip() for e in exceptions.split(","))
           if e not in ("", "-")]
    return BoundaryRule(
        rid, left, pattern,
        frozenset(form for form, category in exc if category is None),
        frozenset(lexeme for lexeme in exc if lexeme[1] is not None),
        **targets)


def load_rules(path: str | Path,
               suffixes: Container[str] | None = None) -> RuleTable:
    """The rule table at *path*.  Given *suffixes*, the suffix ids of a
    lexicon, a rule whose ``suffix:ID`` pattern names none of them fails
    at its line, since it could never fire with that lexicon."""
    rules = []
    for lineno, line in data_lines(path):
        try:
            # trailing whitespace opens no column
            rule = parse_rule_line(line.rstrip())
            for sid in rule.suffix_ids:
                if suffixes is not None and sid not in suffixes:
                    raise PhonologyError(f"pattern 'suffix:{sid}' names no "
                                         "suffix of the lexicon")
            rules.append(rule)
        except PhonologyError as err:
            raise PhonologyError(f"{path}:{lineno}: {err}") from None
    return RuleTable(tuple(rules))


class RuleTable:
    """A rule table, in table order.

    The candidates for a boundary are the rules whose right pattern
    matches the identity of the piece after it, in table order, and the
    first one whose exceptions and left pattern pass fires.
    """

    def __init__(self, rules: tuple[BoundaryRule, ...] = ()):
        self.rules = tuple(rules)
        # rules that can rewrite the start of the part left of a boundary
        self._left_rewriters = [rule for rule in self.rules
                                if rule.fuse is not None
                                or rule.left_final is not None]

    def morph(self, form: str, kind: str, category: str | None = None,
              suffix_id: str | None = None):
        """(piece, rewrites_left, starts) for a lexicon morph.

        ``rewrites_left`` tells whether a candidate rule of the piece can
        rewrite the part before it.  When none can, that part stays as it
        is and the piece's own part, whichever candidate fires, begins
        with one of ``starts`` (see :meth:`initials`), or with anything
        when ``starts`` is None because the part may be empty.
        """
        piece = Piece(form, kind, category=category, suffix_id=suffix_id)
        surfaces = {form}
        rewrites_left = False
        for rule in self.candidates(piece):
            if (rule.fuse is not None or rule.left_append is not None
                    or rule.left_final is not None):
                rewrites_left = True
            surfaces.add(rule.part(form))
        chars = [self.initials(piece, surface) if surface else None
                 for surface in surfaces]
        starts = None if None in chars else frozenset().union(*chars)
        return piece, rewrites_left, starts

    def candidates(self, piece: Piece) -> tuple[BoundaryRule, ...]:
        """Rules that may fire with *piece* right of the boundary, in
        table order."""
        return tuple(rule for rule in self.rules
                     if _may_be(rule.right, piece))

    def initials(self, piece: Piece, surface: str) -> frozenset[str] | None:
        """First characters the part *surface* (non-empty) of *piece* can
        have once the rule at the next boundary has applied to it, or
        None for any character.

        Only that rule can still change the part: fusion replaces it
        whole, and a final-segment rewrite replaces the first character
        of a one-segment part, so their targets are counted too.  A
        target that empties the part lets the next part's first
        character through, so then any character goes.  Called by
        :meth:`morph` alone, while a grammar is built.
        """
        chars = {surface[0]}
        one_segment = None
        for rule in self._left_rewriters:
            if rule.excepts(piece) or not _may_match_left(rule.left, piece,
                                                          surface):
                continue
            target = rule.fuse
            if target is None:
                if one_segment is None:
                    one_segment = len(alphabet.segments(surface)) == 1
                if not one_segment:
                    continue
                target = rule.left_final
            if not target:
                return None
            chars.add(target[0])
        return frozenset(chars)


def normalize_piece(item, first: bool, lexicon: Lexicon) -> Piece:
    """Coerce a str / (form, category) / Piece into a Piece.

    A bare string in the first position is a root.  After it, a string
    that spells some suffix allomorph is a suffix piece of the smallest
    such suffix id; otherwise one that is some root's form is a root
    (compound member); otherwise it is a suffix piece without an id,
    which no ``suffix:ID`` pattern matches.
    """
    if isinstance(item, Piece):
        return item
    if isinstance(item, tuple):
        form, category = item
        return Piece(form, "root", category=category)
    form = str(item)
    if first:
        return Piece(form, "root")
    owners = [sid for sid, entry in lexicon.suffixes.items()
              if form in entry.surfaces()]
    if owners:
        return Piece(form, "suffix", suffix_id=min(owners))
    return Piece(form, "root" if any(r.form == form for r in
                                     lexicon.roots.values()) else "suffix")


def realize(seq, lexicon: Lexicon | None = None,
            rules: RuleTable | None = None) -> str:
    """Surface form of an underlying morph sequence.

    Deterministic: rules apply left to right, one pass, at most one rule
    per boundary.  Pieces may be given as plain strings, as
    ``(form, category)`` pairs (needed when homographs differ in their
    rule behaviour, e.g. nag 'down' vs nag- 'go down'), or as
    :class:`Piece` objects.
    """
    from .defaults import tables  # defaults imports this module
    lexicon, rules = tables(lexicon, rules)
    if not seq:
        raise PhonologyError("empty morph sequence")
    prev = None
    for i, item in enumerate(seq):
        piece = normalize_piece(item, i == 0, lexicon)
        try:
            alphabet.segments(piece.form)  # rules read only part ends
            if prev is None:
                if not piece.is_root:
                    raise PhonologyError("sequence must start with a root")
                surface = pending = piece.form
                final = alphabet.final_segment(surface) if surface else ""
            else:
                piece, finalized, part, final = extend_realization(
                    prev, pending, final, piece, rules)
                surface = surface[:len(surface) - len(pending)] \
                    + finalized + part
                pending = part
                if final is None:
                    final = alphabet.final_segment(surface) if surface else ""
        except alphabet.AlphabetError as err:
            raise PhonologyError(f"boundary {i}: {err}") from None
        prev = piece
    return surface


def extend_realization(prev: Piece, pending: str, final: str, piece: Piece,
                       rules: RuleTable) -> tuple:
    """The boundary step: *piece* placed after *prev*, whose part
    *pending* ends a surface whose final segment is *final*, with at most
    one rule applied at the boundary.  The one step that :func:`realize`,
    generation and the analyser's search all take.  It reads the two
    pieces by their identity alone (kind, and suffix id or root form and
    category), never by the allomorph that spells a suffix.

    Returns ``(piece as placed, finalized pending part, new part, new
    final segment)``.  While the rule appends to the pending part (or no
    rule fires), the new final segment follows from *final*: greedy
    segmentation splits a surface ``s + t`` as ``s`` up to its final
    segment, then that segment followed by ``t``.  A rule that rewrites
    the pending part instead (a fusion, or a final-segment rewrite) sets a
    new segment next to the surface before it, which the step does not
    see: then the new final segment is None, for the caller to read off
    the whole surface.
    """
    appended, part = "", piece.form
    for rule in rules.candidates(piece):
        if (rule.excepts(prev) or rule.excepts(piece)
                or not _matches(rule.left, prev, final)):
            continue
        if rule.left_final is not None and not pending:
            continue  # no final segment to rewrite
        if rule.fuse is not None:
            return replace(piece, fused=True), rule.fuse, "", None
        part = rule.part(piece.form)
        appended = rule.left_append or ""
        if rule.left_final is not None:
            return (piece, replace_final(pending + appended, rule.left_final),
                    part, None)
        break  # at most one rule per boundary
    joined = final + appended + part
    return (piece, pending + appended, part,
            alphabet.final_segment(joined) if joined else "")
