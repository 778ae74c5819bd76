"""Boundary rules compiled for lookup, and the realization state they
extend.

A rule table (:mod:`mapumorph.phonology`) is compiled once, on first use,
into a :class:`CompiledRules`: realization, generation and the
analyser's search all apply rules through it.  A realization state is
immutable, so the search can branch from any state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from . import alphabet
from .lexicon import Lexicon

if TYPE_CHECKING:
    from .phonology import BoundaryRule, RuleTable


class PhonologyError(ValueError):
    pass


@dataclass(frozen=True)
class Piece:
    """One underlying morph in a boundary sequence."""

    form: str                      # root form, or suffix allomorph surface
    kind: str                      # "root" or "suffix"
    category: str | None = None    # lexical category, for roots
    suffix_id: str | None = None   # suffix entry id, when known
    fused: bool = False            # set by extend on the piece a fusion ate

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
        form, colon, category = text[1:].partition(":")
        return (_LEXEME, form, category if colon else None)
    if text.startswith("suffix:"):
        return (_SUFFIX, text.split(":", 1)[1], None)
    if text == "V":
        return (_VOWEL, None, None)
    if text == "C":
        return (_CONSONANT, None, None)
    return (_SEGMENT, text, None)


def _matches(pattern: tuple, piece: Piece, final: str,
             lexicon: Lexicon | None) -> bool:
    """Match a compiled pattern against a piece.

    ``final`` is the final segment of the surface realised so far ("" when
    nothing is), which V/C and segment-literal patterns test.
    """
    kind, arg, category = pattern
    if kind == _ANY:
        return True
    if kind == _LEXEME:
        return piece.form == arg and (category is None
                                      or piece.category == category)
    if kind == _SUFFIX:
        if piece.suffix_id is not None:
            return piece.suffix_id == arg
        if piece.kind != "suffix" or lexicon is None:
            return False
        entry = lexicon.suffixes.get(arg)
        return entry is not None and piece.form in entry.surfaces()
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
    if kind in (_LEXEME, _SUFFIX):
        if kind == _SUFFIX and piece.suffix_id is None:
            return piece.kind == "suffix"
        return _matches(pattern, piece, "", None)
    if kind == _VOWEL:
        return alphabet.is_vowel(surface[-1])
    if kind == _CONSONANT:
        return not alphabet.is_vowel(surface[-1])
    if kind == _SEGMENT:
        # the final segment is the end of the part, or a digraph that
        # ends with the whole part
        return surface.endswith(arg) or arg.endswith(surface)
    return True


class _CompiledRule:
    """One rule with its patterns parsed and its rewrite ops pulled out."""

    __slots__ = ("order", "left", "right", "except_forms", "except_lexemes",
                 "fuse", "left_append", "left_final", "right_set",
                 "right_prefix")

    def __init__(self, order: int, rule: BoundaryRule):
        self.order = order              # position in the table
        self.left = _compile_pattern(rule.left)
        self.right = _compile_pattern(rule.right)
        self.except_forms = frozenset(
            e for e in rule.exceptions if ":" not in e)
        self.except_lexemes = frozenset(    # (form, category) pairs
            tuple(e.split(":", 1)) for e in rule.exceptions if ":" in e)
        self.fuse = (rule.rewrite_op("fuse:") if rule.kind == "fusion"
                     else None)
        self.left_append = rule.rewrite_op("left:append:")
        self.left_final = rule.rewrite_op("left:final:")
        self.right_set = rule.rewrite_op("right:set:")
        self.right_prefix = rule.rewrite_op("right:prefix:")

    def excepts(self, piece: Piece) -> bool:
        return (piece.form in self.except_forms
                or (piece.form, piece.category) in self.except_lexemes)


class Realization(NamedTuple):
    """A morph sequence realised so far; the last part may still change."""

    pieces: tuple[Piece, ...] = ()
    parts: tuple[str, ...] = ()     # per-piece surfaces
    surface: str = ""               # the parts joined
    final: str = ""                 # final segment of surface, "" if empty


class CompiledRules:
    """A rule table compiled once into lookup structures.

    Rules are dispatched by the identity of the piece on the right of the
    boundary (suffix id or lexeme); rules whose right pattern is a segment
    class or ``any`` are candidates for every piece.  Candidates keep
    table order, and the first one whose exceptions and patterns all pass
    fires.  Per-piece answers depend only on the table and the piece's
    value, never on a lexicon, so they are memoised by value.
    """

    def __init__(self, table: RuleTable):
        self._by_suffix: dict[str, list] = {}
        self._by_form: dict[str, list] = {}
        self._by_lexeme: dict[tuple, list] = {}
        self._any_suffix: list[_CompiledRule] = []
        self._generic: list[_CompiledRule] = []
        # rules that can rewrite the start of the part left of a boundary
        self._left_rewriters: list[_CompiledRule] = []
        for order, rule in enumerate(table.rules):
            compiled = _CompiledRule(order, rule)
            kind, arg, category = compiled.right
            if kind == _SUFFIX:
                self._by_suffix.setdefault(arg, []).append(compiled)
                self._any_suffix.append(compiled)
            elif kind == _LEXEME and category is None:
                self._by_form.setdefault(arg, []).append(compiled)
            elif kind == _LEXEME:
                self._by_lexeme.setdefault((arg, category), []).append(compiled)
            else:
                self._generic.append(compiled)
            if compiled.fuse is not None or compiled.left_final is not None:
                self._left_rewriters.append(compiled)
        # memos, keyed by the piece fields the answers depend on
        self._candidates: dict[tuple, tuple] = {}
        self._morphs: dict[tuple, tuple] = {}
        self._initials: dict[tuple, frozenset | None] = {}

    def morph(self, form: str, kind: str, category: str | None = None,
              suffix_id: str | None = None):
        """(piece, rewrites_left, starts) for a lexicon morph, memoised, as
        the analyser asks for every morph on every word.

        ``rewrites_left`` tells whether a candidate rule of the piece can
        rewrite the part before it.  When none can, that part stays as it
        is and the piece's own part, whichever candidate fires, begins
        with one of ``starts`` (see :meth:`initials`), or with anything
        when ``starts`` is None because the part may be empty.
        """
        key = (form, kind, category, suffix_id)
        found = self._morphs.get(key)
        if found is None:
            piece = Piece(form, kind, category=category, suffix_id=suffix_id)
            surfaces = {form}
            rewrites_left = False
            for rule in self.candidates(piece):
                if (rule.fuse is not None or rule.left_append is not None
                        or rule.left_final is not None):
                    rewrites_left = True
                surface = form if rule.right_set is None else rule.right_set
                if rule.right_prefix is not None:
                    surface = rule.right_prefix + surface
                surfaces.add(surface)
            starts = frozenset()
            for surface in surfaces:
                chars = self.initials(piece, surface) if surface else None
                if chars is None:
                    starts = None
                    break
                starts |= chars
            found = self._morphs[key] = (piece, rewrites_left, starts)
        return found

    def candidates(self, piece: Piece) -> tuple[_CompiledRule, ...]:
        """Rules that may fire with *piece* right of the boundary, in
        table order."""
        key = (piece.kind, piece.suffix_id, piece.form, piece.category)
        found = self._candidates.get(key)
        if found is None:
            if piece.suffix_id is not None:
                by_id = self._by_suffix.get(piece.suffix_id, ())
            else:
                by_id = self._any_suffix if piece.kind == "suffix" else ()
            found = tuple(sorted(
                [*self._generic, *by_id,
                 *self._by_form.get(piece.form, ()),
                 *self._by_lexeme.get((piece.form, piece.category), ())],
                key=lambda rule: rule.order))
            self._candidates[key] = found
        return found

    def initials(self, piece: Piece, surface: str) -> frozenset[str] | None:
        """First characters the part *surface* (non-empty) of *piece* can
        have once the rule at the next boundary has applied to it, or
        None for any character.

        Only that rule can still change the part: fusion replaces it
        whole, and a final-segment rewrite replaces the first character
        of a one-segment part, so their targets are counted too.  A
        target that empties the part lets the next part's first
        character through, so then any character goes.
        """
        key = (piece.kind, piece.suffix_id, piece.form, piece.category,
               surface)
        chars = self._initials.get(key, False)
        if chars is False:
            chars = self._rewritten_initials(piece, surface)
            self._initials[key] = chars
        return chars

    def may_start(self, piece: Piece, surface: str, char: str) -> bool:
        """Whether the part *surface* of *piece* can begin with *char* once
        the rule at the next boundary has applied (see :meth:`initials`)."""
        if surface[0] == char:
            return True
        chars = self.initials(piece, surface)
        return chars is None or char in chars

    def _rewritten_initials(self, piece: Piece, surface: str):
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

    def extend(self, state: Realization, piece: Piece,
               lexicon: Lexicon | None) -> Realization:
        """*state* followed by *piece*, with at most one rule applied at
        the new boundary."""
        if not state.pieces:
            if not piece.is_root:
                raise PhonologyError("sequence must start with a root")
            return Realization((piece,), (piece.form,), piece.form,
                               alphabet.final_segment(piece.form)
                               if piece.form else "")
        surface = piece.form
        candidates = self.candidates(piece)
        if not candidates:
            joined = state.surface + surface
            return Realization(state.pieces + (piece,),
                               state.parts + (surface,), joined,
                               alphabet.final_segment(joined) if surface
                               else state.final)
        prev = state.pieces[-1]
        left = state.parts[-1]
        for rule in candidates:
            if rule.excepts(prev) or rule.excepts(piece):
                continue
            if not (_matches(rule.left, prev, state.final, lexicon)
                    and _matches(rule.right, piece, state.final, lexicon)):
                continue
            if rule.left_final is not None and not left:
                continue  # no final segment to rewrite
            if rule.fuse is not None:
                left, surface = rule.fuse, ""
                piece = replace(piece, fused=True)
                break
            if rule.left_append is not None:
                left = left + rule.left_append
            if rule.left_final is not None:
                left = replace_final(left, rule.left_final)
            if rule.right_set is not None:
                surface = rule.right_set
            if rule.right_prefix is not None:
                surface = rule.right_prefix + surface
            break  # at most one rule per boundary
        head = state.surface[:len(state.surface) - len(state.parts[-1])]
        joined = head + left + surface
        return Realization(state.pieces + (piece,),
                           state.parts[:-1] + (left, surface), joined,
                           alphabet.final_segment(joined) if joined else "")
