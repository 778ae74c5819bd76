"""Morpheme-boundary sound rules, their table format, and the one path
that applies them.

Rules live in a TSV table (``id kind left right rewrite exceptions``):

* ``kind``: prothesis, sandhi, epenthesis or fusion.
* ``left``: pattern on the piece before the boundary: ``=form`` or
  ``=form:category`` (whole-lexeme match), a single segment literal
  (``f``, ``g``), ``V``/``C``, or ``suffix:ID``.
* ``right``: same pattern language for the piece after the boundary.
* ``rewrite``: ``&``-joined ops among ``left:append:X``, ``left:final:X``,
  ``right:prefix:X``, ``right:set:X`` and ``fuse:X``.
* ``exceptions``: comma list of lexemes (``form`` or ``form:category``)
  that never undergo the rule; ``-`` for none.

Application is single pass, one rule per boundary, in table order; a
table is applied through its compiled form (:mod:`mapumorph.boundary`).
Generation applies the rules forward, and the analyser searches forward
through the same compiled rules rather than undoing them.
All functions here are pure; tables are immutable after loading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import alphabet
from .boundary import CompiledRules, PhonologyError, Piece, Realization
from .lexicon import Lexicon, SuffixEntry

RULE_KINDS = ("prothesis", "sandhi", "epenthesis", "fusion")


@dataclass(frozen=True)
class BoundaryRule:
    id: str
    kind: str
    left: str
    right: str
    rewrite: tuple[str, ...]
    exceptions: tuple[str, ...] = ()

    def rewrite_op(self, prefix: str) -> str | None:
        for op in self.rewrite:
            if op.startswith(prefix):
                return op[len(prefix):]
        return None


@dataclass(frozen=True)
class RuleTable:
    rules: tuple[BoundaryRule, ...] = ()

    @cached_property
    def compiled(self) -> CompiledRules:
        """The table compiled for lookup, built on first use."""
        return CompiledRules(self)


def parse_rule_line(line: str) -> BoundaryRule:
    cols = line.split("\t")
    if len(cols) < 6:
        raise PhonologyError(f"expected 6 tab-separated columns, got {len(cols)}")
    rid, kind, left, right, rewrite, exceptions = (c.strip() for c in cols[:6])
    if kind not in RULE_KINDS:
        raise PhonologyError(f"unknown rule kind {kind!r}")
    ops = tuple(op.strip() for op in rewrite.split("&") if op.strip())
    exc = tuple(e.strip() for e in exceptions.split(",")
                if e.strip() and e.strip() != "-")
    return BoundaryRule(rid, kind, left, right, ops, exc)


def load_rules(path: str | Path) -> RuleTable:
    rules = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        try:
            rules.append(parse_rule_line(line))
        except PhonologyError as err:
            raise PhonologyError(f"{path}:{lineno}: {err}") from None
    return RuleTable(tuple(rules))


def normalize_piece(item, first: bool, lexicon: Lexicon | None) -> Piece:
    """Coerce a str / (form, category) / Piece into a Piece.

    Bare strings after the first position resolve to a suffix when they
    match some suffix allomorph surface, otherwise to a root (compound
    member).  ``ø`` and ``0`` denote zero-surface pieces.
    """
    if isinstance(item, Piece):
        return item
    if isinstance(item, tuple):
        form, category = item
        return Piece(form, "root", category=category)
    form = str(item)
    if form in ("ø", "0"):
        return Piece("", "suffix")
    if first:
        return Piece(form, "root")
    if lexicon is not None and lexicon.suffixes:
        owners = sorted(sid for sid, entry in lexicon.suffixes.items()
                        if form in entry.surfaces())
        if owners:
            preferred = "CA.m" if "CA.m" in owners else owners[0]
            return Piece(form, "suffix", suffix_id=preferred)
        if any(r.form == form for r in lexicon.roots.values()):
            return Piece(form, "root")
    return Piece(form, "suffix")


def select_allomorph(suffix: SuffixEntry, stem_final: str) -> str:
    """The allomorph generation uses after the given stem-final segment
    ("" when nothing is realised): the first context match."""
    kind = None
    if stem_final:
        kind = "V" if alphabet.is_vowel(stem_final) else "C"
    fits = suffix.allomorphs_after(kind)
    if not fits:
        raise PhonologyError(
            f"no allomorph of {suffix.id} fits after {stem_final!r}")
    return fits[0].surface


def matching_allomorphs(suffix: SuffixEntry, preceding_surface: str) -> list[str]:
    """All allomorph surfaces usable after the given realised surface."""
    kind = alphabet.final_kind(preceding_surface) if preceding_surface else None
    return [a.surface for a in suffix.allomorphs_after(kind)]


def realize(seq, lexicon: Lexicon | None = None,
            rules: RuleTable | None = None) -> str:
    """Surface form of an underlying morph sequence.

    Deterministic: rules apply left to right, one pass, at most one rule
    per boundary.  Pieces may be given as plain strings, as
    ``(form, category)`` pairs (needed when homographs differ in their
    rule behaviour, e.g. nag 'down' vs nag- 'go down'), or as
    :class:`Piece` objects.
    """
    if rules is None:
        from .defaults import default_rules
        rules = default_rules()
    if lexicon is None:
        from .defaults import default_lexicon
        lexicon = default_lexicon()
    if not seq:
        raise PhonologyError("empty morph sequence")
    state = new_realization()
    for i, item in enumerate(seq):
        piece = normalize_piece(item, i == 0, lexicon)
        try:
            alphabet.segments(piece.form)  # rules read only part ends
            state = extend_realization(state, piece, rules, lexicon)
        except alphabet.AlphabetError as err:
            raise PhonologyError(f"boundary {i}: {err}") from None
    return state.surface


def extend_realization(state: Realization, piece: Piece, rules: RuleTable,
                       lexicon: Lexicon | None) -> Realization:
    """*state* followed by *piece*: the one realization step that
    :func:`realize`, generation and the analyser's search all take."""
    return rules.compiled.extend(state, piece, lexicon)


def new_realization() -> Realization:
    return Realization()
