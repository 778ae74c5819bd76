"""Segmentation of surface verb forms into glossed analyses, and the
inverse: generation of surface forms from a root and suffix ids.

The analyser searches, depth first and with dead-state memoisation, the
underlying morph sequences whose realization equals the input word.  Each
path carries the number of the set of morphotactic folds that its
root-sense combinations still reach: a combination drops at its first
violation that no continuation can undo, and a piece that leaves no fold
alive is never realized, so the pruning loses no analysis.  A
zero-surface indicative is licensed by the parts around it as they are
finalized, and a path that leaves one unlicensed dies there.  The grammar
numbers the pieces, and a search step holds only numbers and strings.
Fold sets move on through a transition table and pieces are realized
through a realization table, both kept per grammar and filled on first
use, so each transition and each boundary is computed once, not once per
piece tried.  A path's pieces and parts are built only once it reaches
the end of the word, and its combinations are replayed through the
folds; each one whose end checks pass is an analysis, traced by the
folds it went through.  The search is the only judge: the morphotactic
validator is the tests' oracle for it.  Ambiguity is deliberately
preserved: labile roots contribute one analysis per sense row, and
homophonous suffixes one per reading.

Analyses are ranked by piece count, then lexicographically by morph ids;
the ranking is a plumbing choice, not a linguistic claim.
"""

from __future__ import annotations

import functools
import json
import threading
import unicodedata
from array import array
from dataclasses import dataclass

from . import alphabet, tags
from .defaults import tables
from .lexicon import Lexicon, RootEntry, SuffixEntry
# validate_plan is not called here; it stays importable from this module,
# where the benchmark's tracer counts its calls
from .morphotactics import (MAX_MEMBERS, OPEN_FLOOR, STEM_ZONE, Fold,
                            RootUse, advance, compound_valency, end_codes,
                            next_floor, start_fold, tags_below,
                            validate_plan, validate_sequence)  # noqa: F401
from .phonology import (Piece, Realization, RuleTable, extend_realization,
                        new_realization, select_allomorph)


class GenerationError(ValueError):
    """Raised when generation input fails validation or realization."""

    def __init__(self, message, violations=()):
        self.violations = tuple(violations)
        if self.violations:
            message = f"{message}: " + "; ".join(
                f"{v.code}@{v.at}" for v in self.violations)
        super().__init__(message)


@dataclass(frozen=True)
class AnalysisPiece:
    start: int
    end: int
    kind: str                 # "root" or "suffix"
    morph: str                # root form or suffix id
    surface: str
    tags: tuple[str, ...]
    gloss: str | None = None
    category: str | None = None
    sense_context: str | None = None
    effect: str | None = None
    slot: int | None = None
    fused_with_prev: bool = False

    def to_json(self) -> dict:
        return {
            "span": [self.start, self.end], "kind": self.kind,
            "morph": self.morph, "surface": self.surface,
            "tags": list(self.tags), "gloss": self.gloss,
            "category": self.category, "sense_context": self.sense_context,
            "effect": self.effect, "slot": self.slot,
            "fused_with_prev": self.fused_with_prev,
        }


@dataclass(frozen=True)
class Analysis:
    word: str
    pieces: tuple[AnalysisPiece, ...]
    trace: tuple[tuple[str, str], ...]
    stem_valency: str | None = None   # compound stem label, when ≥2 members
    source: str | None = None

    def key(self) -> tuple:
        out = []
        for p in self.pieces:
            if p.kind == "root":
                out.append(("R", p.morph, p.sense_context, p.gloss))
            else:
                out.append(("S", p.morph))
        return tuple(out)

    @property
    def score(self) -> tuple:
        return (len(self.pieces), self.key())

    @property
    def root_pieces(self) -> tuple[AnalysisPiece, ...]:
        return tuple(p for p in self.pieces if p.kind == "root")

    @property
    def suffix_ids(self) -> tuple[str, ...]:
        return tuple(p.morph for p in self.pieces if p.kind == "suffix")

    def matches(self, root_form: str, sense_context: str,
                suffix_ids) -> bool:
        roots = self.root_pieces
        return (len(roots) == 1 and roots[0].morph == root_form
                and roots[0].sense_context == sense_context
                and self.suffix_ids == tuple(suffix_ids))

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "gloss": gloss_render(self),
            "pieces": [p.to_json() for p in self.pieces],
            "trace": [list(step) for step in self.trace],
            "stem_valency": self.stem_valency,
            "source": self.source,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, data: dict) -> "Analysis":
        """Inverse of :meth:`to_json`; a field of the wrong JSON type, or a
        trace step that is not a [morph, state] pair of strings with state
        IV, TV or TV2, raises TypeError."""
        pieces = tuple(
            AnalysisPiece(p["span"][0], p["span"][1], _text(p, "kind"),
                          _text(p, "morph"), p.get("surface", ""),
                          _tags(p.get("tags", [])), p.get("gloss"),
                          p.get("category"), p.get("sense_context"),
                          p.get("effect"), p.get("slot"),
                          p.get("fused_with_prev", False))
            for p in data["pieces"])
        trace = tuple(_trace_step(step) for step in data.get("trace", ()))
        source = data.get("source")
        return cls(_text(data, "word"), pieces, trace,
                   data.get("stem_valency"),
                   None if source is None else _text(data, "source"))


def _text(data: dict, name: str) -> str:
    value = data[name]
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, not "
                        f"{type(value).__name__}")
    return value


def _trace_step(step) -> tuple[str, str]:
    if not (isinstance(step, list) and len(step) == 2
            and isinstance(step[0], str) and step[1] in ("IV", "TV", "TV2")):
        raise TypeError("trace step must be [morph, IV|TV|TV2], not "
                        f"{step!r}")
    return step[0], step[1]


def _tags(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(t, str)
                                              for t in value):
        raise TypeError(f"tags must be a list of strings, not {value!r}")
    return tuple(value)


# an entry not yet computed, and one for a transition into a dead end
_UNKNOWN, _DEAD = -1, -2
# the largest state id a row can hold; a transition into a later state is
# recomputed on each use instead
_ROW_MAX = 2 ** 15 - 1

# Zero-indicative licensing, judged on the pieces' final parts in order: a
# zero-surface IND is licensed right after a 3P piece, or when a zero 1
# and then a PL realized iñ follow it.  Each piece has a code for the one
# of these tags it carries, or 0; the state says what is owed.
_IND, _3P, _FIRST, _PL = 1, 2, 3, 4
_LICENSING_CODES = {"IND": _IND, "3P": _3P, "1": _FIRST, "PL": _PL}
_FREE, _AFTER_3P, _OWES_1, _OWES_PL, _UNLICENSED = 0, 1, 2, 3, -1


def _licensed(owed: int, code: int, part: str) -> int:
    """The licensing state after a piece of licensing *code* whose final
    part is *part*, in state *owed*."""
    if owed == _OWES_1:
        return _OWES_PL if code == _FIRST and part == "" else _UNLICENSED
    if owed == _OWES_PL:
        return _FREE if code == _PL and part == "iñ" else _UNLICENSED
    if code == _IND and part == "":
        return _FREE if owed == _AFTER_3P else _OWES_1
    return _AFTER_3P if code == _3P else _FREE


class _Table:
    """One part of the transition table: its columns, and per state id a
    row of the state id each column leads to.  A row is the shared blank
    until its first entry.  The columns are (item, follow) pairs, or
    tuples of columns of the table *under* this one, whose entries an
    entry unites."""

    __slots__ = ("columns", "rows", "blank", "under")

    def __init__(self, columns: list, under: _Table | None = None):
        self.columns, self.rows, self.under = columns, [], under
        self.blank = array("h", [_UNKNOWN]) * len(columns)


class _Grammar:
    """The search's tables for one (lexicon, rules), built once and shared
    by every :func:`analyse` call with them: the suffix options per
    preceding V/C, the root options, their filter by the character that
    follows and each root's sense choices.

    Every piece the search can try gets a number: each suffix allomorph
    and each root when the grammar is built, and each fused variant that
    a rule makes the first time it appears.  The searches fill tables
    keyed by these numbers as they go.

    The realization table takes ``(previous piece, pending part, final
    segment)`` to a row indexed by the next piece, whose entries are
    ``(new piece, finalized part, new pending part, new final segment,
    initials of the new pending part)``: what
    :func:`~mapumorph.phonology.extend_realization` gives on first use,
    or None before it.  The pending part is the last piece's part, which
    the rule at the next boundary may still rewrite; the final segment is
    that of the whole surface so far, which the key needs because a
    digraph can straddle the pending part's start.  The initials are
    :meth:`~mapumorph.phonology.RuleTable.initials` of the new pending
    part (None when it is empty).

    The key decides every field but one.  Greedy segmentation splits a
    surface ``s + t`` as ``s`` up to its final segment, then that segment
    followed by ``t``, so while the finalized part is the pending part
    with something appended, the new final segment follows from the old
    one.  A rule that rewrites the pending part instead (a fusion, or a
    final-segment rewrite) sets a new segment next to the surface before
    it, which the key leaves out: such an entry holds None for the new
    final segment, and the search reads it off the word.

    The morphotactic transition table numbers each
    :class:`~mapumorph.morphotactics.Fold` met, and ``(fold, item,
    closed)`` leads to the number of the fold after *item* (a suffix
    entry, or a root sense as a later compound member), or to a dead end,
    computed by :func:`advance` and :func:`end_codes` on first use.
    *closed* says that the stem cannot reopen after *item*, so the end
    checks count as certain under the suffix tags that may still follow;
    while it can, no end check is.  The key needs no slot floor: the
    search tries a suffix only below the floor, where :func:`advance`
    raises no slot code and gives the same fold whatever the floor.

    A search step carries the set of the folds its root-sense
    combinations still reach, as one number: a set of one fold has the
    fold's number, and a larger one a number of its own from the same
    count.  The table leads a set by a suffix column, or by a member's
    group of sense columns, to the set of its folds' entries there, or to
    a dead end when none lives; which combination reaches which fold is
    read off the fold entries again only for a path that spells the whole
    word.

    The pieces, the folds, the fold sets and so the tables are bounded by
    the grammar, not by the words analysed.  Lists indexed by a number
    belong to the grammar and grow under its lock together with the
    number, since a search may meet a number that another thread has just
    given.
    """

    def __init__(self, lexicon: Lexicon, rules: RuleTable):
        self.lexicon, self.rules = lexicon, rules
        self._lock = threading.Lock()
        # the pieces by number, each one's rule identity (suffix id or
        # form, category) and licensing code, and the numbers by piece;
        # the realization rows
        self.pieces, self.idents, self.licensing = [], [], []
        self.piece_ids, self.realized = {}, {}
        below = tags_below(lexicon)
        entries = sorted(lexicon.suffixes.values(), key=lambda s: s.id)
        # Suffix columns: each suffix with the stem closed, then each
        # stem-zone suffix with it open (a suffix below the zone closes it)
        columns = [(entry, below[next_floor(entry)]) for entry in entries]
        opens = {}
        for entry in entries:
            if entry.slot >= STEM_ZONE:
                opens[entry.id] = len(columns)
                columns.append((entry, None))
        self.suffix_table = _Table(columns)
        # ((closed column, open column), slot, next floor, keeps the stem
        # open, its pieces) per suffix, with a (piece id, rewrites_left,
        # starts) per allomorph usable after a vowel / consonant
        self.suffixes = {kind: [] for kind in ("V", "C")}
        for column, entry in enumerate(entries):
            for kind, options in self.suffixes.items():
                options.append(((column, opens.get(entry.id)), entry.slot,
                                next_floor(entry), entry.slot >= STEM_ZONE,
                                tuple(self._numbered(rules.morph(
                                    a.surface, "suffix", suffix_id=entry.id))
                                      for a in entry.allomorphs_after(kind))))
        # (sense choices as the first member, as a later one) per root; an
        # incorporated demonstrative is a fixed construction, so its
        # citation sense stands for all of them.  Member columns: each
        # later sense choice with the stem open, then closed; a root's
        # groups of them, open then closed, are the group columns.
        self.uses = {}
        columns, groups, later_groups = [], [], {}
        for key, entry in lexicon.roots.items():
            uses = tuple(RootUse(entry, s) for s in entry.senses)
            later = uses[:1] if entry.category == "demonstrative" else uses
            self.uses[key] = (uses, later)
            first = len(columns)
            for use in later:
                columns += [(use, None), (use, below[OPEN_FLOOR])]
            later_groups[key] = (len(groups), len(groups) + 1)
            groups += [tuple(range(first, len(columns), 2)),
                       tuple(range(first + 1, len(columns), 2))]
        self.member_table = _Table(columns)
        self.group_table = _Table(groups, self.member_table)
        self._tables = (self.suffix_table, self.member_table,
                        self.group_table)
        # (piece id, rewrites_left, starts, (open group, closed group) of
        # its sense choices as a later member)
        self.roots = [self._numbered(rules.morph(e.form, "root", e.category))
                      + (later_groups[(e.form, e.category)],)
                      for e in lexicon.iter_roots() if e.form]

        # the folds by number (None for a set of folds) and the numbers by
        # fold, the seen-tag sets the folds share; the sets of two or more
        # folds (sorted tuples of fold numbers) by number and the numbers
        # by set
        self.folds, self.fold_ids, self._seen = [], {}, {}
        self.sets, self.set_ids = {}, {}
        # the fold of each sense choice per first root's piece id, and each
        # root alone as a path's first step: (piece id, part, final
        # segment, fold set)
        self.starts, self._firsts = {}, []
        for pid, _, _, _ in self.roots:
            piece = self.pieces[pid]
            uses = self.uses[(piece.form, piece.category)][0]
            starts = self.starts[pid] = tuple(self.fold_id(start_fold(use))
                                              for use in uses)
            if starts:
                state = extend_realization(new_realization(), piece, rules,
                                           lexicon)
                self._firsts.append((pid, state.parts[-1], state.final,
                                     self.set_id(starts)))
        # every piece the search tries has been numbered by now; a fused
        # variant, numbered later, is only ever a result
        self.width = len(self.pieces)
        self.options = functools.cache(self.options)
        self.firsts = functools.cache(self.firsts)

    def _numbered(self, morph: tuple) -> tuple:
        """A :meth:`RuleTable.morph` triple with its piece numbered."""
        return (self.piece_id(morph[0]),) + morph[1:]

    def piece_id(self, piece: Piece) -> int:
        """The number of *piece*, given on first sight."""
        pid = self.piece_ids.get(piece)
        if pid is None:
            with self._lock:
                pid = self.piece_ids.get(piece)
                if pid is None:
                    pid = len(self.pieces)
                    self.pieces.append(piece)
                    self.idents.append((piece.suffix_id or piece.form,
                                        piece.category))
                    self.licensing.append(0 if piece.is_root else
                                          _LICENSING_CODES.get(
                                              self.lexicon.suffixes[
                                                  piece.suffix_id].tag, 0))
                    self.piece_ids[piece] = pid
        return pid

    def options(self, kind: str, char: str | None,
                floor: int | None = None) -> tuple:
        """Suffix (kind "V"/"C") or root (kind "R") options worth trying
        when the pending part reads on and is followed by *char* ("" at
        the end of the word), or does not read on (None).  A piece whose
        rule may rewrite the pending part is always worth trying.  A
        suffix comes with the pieces of it worth trying, if any, and
        given a *floor*, only if its slot is below it.  Memoised per
        grammar."""
        if floor is not None:
            return tuple(option for option in self.options(kind, char)
                         if option[1] < floor)

        def worth(option):
            return option[1] or (char is not None and (
                option[2] is None or char in option[2]))

        if kind == "R":
            return tuple(filter(worth, self.roots))
        return tuple(suffix[:4] + (pieces,)
                     for suffix in self.suffixes[kind]
                     if (pieces := tuple(filter(worth, suffix[4]))))

    def firsts(self, char: str) -> tuple:
        """The first steps of the paths for a word that starts with
        *char*: the roots whose part can start with it once the rule at
        the next boundary, the only one that can still rewrite it, has
        applied.  Memoised per grammar."""
        def may_start(first):
            chars = self.rules.initials(self.pieces[first[0]], first[1])
            return chars is None or char in chars

        return tuple(filter(may_start, self._firsts))

    def fold_id(self, fold: Fold) -> int:
        """The number of *fold*, given on first sight.  A new fold is
        stored with a shared ``seen``, and other threads learn its number
        only once its rows exist."""
        fid = self.fold_ids.get(fold)
        if fid is None:
            with self._lock:
                fid = self.fold_ids.get(fold)
                if fid is None:
                    fold = fold._replace(
                        seen=self._seen.setdefault(fold.seen, fold.seen))
                    fid = len(self.folds)
                    self.folds.append(fold)
                    for table in self._tables:
                        table.rows.append(table.blank)
                    self.fold_ids[fold] = fid
        return fid

    def set_id(self, live) -> int:
        """The number of the set of the fold numbers *live*, given on first
        sight: a fold's own for a set of one.  Other threads learn a new
        number only once its rows exist."""
        key = tuple(sorted(set(live)))
        if len(key) == 1:
            return key[0]
        sid = self.set_ids.get(key)
        if sid is None:
            with self._lock:
                sid = self.set_ids.get(key)
                if sid is None:
                    sid = len(self.folds)
                    self.folds.append(None)
                    self.sets[sid] = key
                    for table in self._tables:
                        table.rows.append(table.blank)
                    self.set_ids[key] = sid
        return sid

    def transition(self, table: _Table, sid: int, column: int) -> int:
        """The entry of fold set *sid* in *column* of *table*, computed and
        stored on first use: for a fold, the fold after the column's item,
        and otherwise the set of the entries of its folds there, or under
        each column of a group."""
        new = table.rows[sid][column]
        if new != _UNKNOWN:
            return new
        under, members = table.under, self.sets.get(sid)
        if under is None and members is None:
            item, follow = table.columns[column]
            fold, codes = advance(self.folds[sid], item)
            new = (_DEAD if codes or end_codes(fold, follow)
                   else self.fold_id(fold))
        else:
            under, columns = ((table, (column,)) if under is None
                              else (under, table.columns[column]))
            live = [fid for folded in members or (sid,) for c in columns
                    if (fid := self.transition(under, folded, c)) != _DEAD]
            new = self.set_id(live) if live else _DEAD
        if new <= _ROW_MAX:
            row = table.rows[sid]
            if row is table.blank:
                with self._lock:
                    row = table.rows[sid]
                    if row is table.blank:
                        row = table.rows[sid] = array("h", table.blank)
            row[column] = new
        return new

    def _realize(self, row: list, prev: int, pending: str, final: str,
                 pid: int, head: str) -> tuple:
        """Compute, store in *row* and return the realization entry of
        piece *pid* after piece *prev*, whose part *pending* follows *head*
        in a surface ending in *final*."""
        pieces = self.pieces
        state = extend_realization(
            Realization((pieces[prev],), (pending,), head + pending, final),
            pieces[pid], self.rules, self.lexicon)
        piece = state.pieces[-1]
        finalized, part = state.parts
        entry = row[pid] = (self.piece_id(piece), finalized, part,
                            state.final if finalized.startswith(pending)
                            else None,
                            self.rules.initials(piece, part) if part else None)
        return entry

    def search(self, word: str) -> list[tuple[tuple[Piece, ...], tuple,
                                              list]]:
        """Depth-first enumeration of the paths matching *word*, each as
        (pieces, parts, survivors); the results and dead states belong to
        this call alone.

        A path extends only with pieces that can still spell the word.  A
        piece whose boundary rule may rewrite the pending part is always
        tried; any other leaves that part as it is, so it is tried only
        when the part reads on in the word and the piece's own part can
        start at the character that follows.  Pieces are tried in the
        order of an unpruned search (suffixes by id, then roots), so
        results come out in that order.

        A step holds numbers and strings only: a link to the path so far
        (``(parent link, piece number, finalized part, column)``, the
        column being the one that led on to the next piece), the number of
        the last piece, its pending part, the final segment, the position
        the pending part starts at, the slot floor, the member count,
        whether another member may follow, the fold set and the licensing
        state.  Each piece tried is realized by a lookup in the step's row
        of the realization table, and the final segment is read off the
        word when the entry has none.

        The fold set holds the folds of the root-sense combinations still
        alive.  A piece moves it on by the transition table before it is
        realized, and is not realized when no fold lives after it; a
        combination dies at the first code its next item raises, or once
        an end check is certain to fail.  A zero-surface indicative must
        be licensed by the pieces around it: the licensing state moves on
        with each part as it is finalized, and a path dies once its state
        is unlicensed or it ends owing a piece.

        A path that spells the whole word is built only then: its root-
        sense combinations are replayed through the fold table along its
        columns, and each one whose end checks pass comes out, in the
        order of ``itertools.product``, as (sense index tuple, the fold id
        after each item).
        """
        options, idents, licensing = self.options, self.idents, self.licensing
        realized, realize, width = self.realized, self._realize, self.width
        suffix_table, group_table = self.suffix_table, self.group_table
        suffix_rows, group_rows = suffix_table.rows, group_table.rows
        transition, complete = self.transition, self._complete
        results, dead = [], set()
        size = len(word)

        def step(link, prev, pending, final, pos, floor, n_members,
                 member_ok, live, owed):
            key = (pos, pending, idents[prev], floor, n_members, member_ok,
                   live, owed)
            if key in dead:
                return
            produced = len(results)
            row = realized.get((prev, pending, final))
            if row is None:
                row = realized.setdefault((prev, pending, final),
                                          [None] * width)

            end = pos + len(pending)
            if word.startswith(pending, pos):
                # a path may end in neither licensing state that owes
                if end == size and _licensed(owed, licensing[prev],
                                             pending) in (_FREE, _AFTER_3P):
                    path = complete(link, prev, pending,
                                    link is None and idents[prev][1] == "verb")
                    if path[2]:
                        results.append(path)
                char = word[end:end + 1]
            else:
                char = None
            kind = "V" if alphabet.is_vowel(final) else "C"
            after = suffix_rows[live]
            for columns, _, next_floor, keeps_stem, pieces in options(
                    kind, char, floor):
                keeps = member_ok and keeps_stem
                column = columns[keeps and n_members < MAX_MEMBERS]
                new = after[column]
                if new == _UNKNOWN:
                    new = transition(suffix_table, live, column)
                    after = suffix_rows[live]
                if new != _DEAD:
                    for pid, _, _ in pieces:
                        extend(row, link, prev, pending, final, pos, pid,
                               next_floor, n_members, keeps, new, column,
                               owed)

            if member_ok and n_members < MAX_MEMBERS:
                after = group_rows[live]
                for pid, _, _, groups in options("R", char):
                    group = groups[n_members + 1 >= MAX_MEMBERS]
                    new = after[group]
                    if new == _UNKNOWN:
                        new = transition(group_table, live, group)
                        after = group_rows[live]
                    if new != _DEAD:
                        extend(row, link, prev, pending, final, pos, pid,
                               OPEN_FLOOR, n_members + 1, True, new, group,
                               owed)

            if len(results) == produced:
                dead.add(key)

        def extend(row, link, prev, pending, final, pos, pid, floor,
                   n_members, member_ok, live, column, owed):
            entry = row[pid]
            if entry is None:
                entry = realize(row, prev, pending, final, pid, word[:pos])
            new, finalized, part, new_final, initials = entry
            if not word.startswith(finalized, pos):
                return
            new_pos = pos + len(finalized)
            # The pending part is rewritten at most once more, by the rule
            # at the next boundary; its initials count the first characters
            # that rule can give it, so this probe never drops a path.
            if part and (new_pos >= size or initials is not None
                         and word[new_pos] not in initials):
                return
            code = licensing[prev]
            if owed or code:
                owed = _licensed(owed, code, finalized)
                if owed == _UNLICENSED:
                    return
            if new_final is None:
                surface = word[:new_pos] + part
                new_final = alphabet.final_segment(surface) if surface else ""
            step((link, prev, finalized, column), new, part, new_final,
                 new_pos, floor, n_members, member_ok, live, owed)

        try:
            for pid, part, final, live in self.firsts(word[0]):
                step(None, pid, part, final, 0, OPEN_FLOOR, 1, True, live,
                     _FREE)
        finally:
            # step and extend refer to each other; unbinding them frees
            # this call's states without the cyclic collector
            step = extend = None
        return results

    def _complete(self, link, last: int, pending: str, bare: bool) -> tuple:
        """(pieces, parts, survivors) of the path that *link* leads to,
        followed by piece *last* with part *pending*.  The survivors are
        the path's root-sense combinations replayed through the fold table
        along its columns, each whose end checks pass (*bare*: the path is
        a lone verb root) as (sense indices, fold id after each item)."""
        pids, parts, columns = [last], [pending], []
        while link is not None:
            link, pid, part, column = link
            pids.append(pid)
            parts.append(part)
            columns.append(column)
        pids.reverse()
        parts.reverse()
        columns.reverse()
        pieces, transition = self.pieces, self.transition
        suffix_table, member_table = self.suffix_table, self.member_table
        groups = self.group_table.columns
        paths = [((k,), (fid,)) for k, fid in enumerate(self.starts[pids[0]])]
        for pid, column in zip(pids[1:], columns):
            if pieces[pid].is_root:
                paths = [(combo + (k,), fids + (new,))
                         for combo, fids in paths
                         for k, c in enumerate(groups[column])
                         if (new := transition(member_table, fids[-1], c))
                         != _DEAD]
            else:
                paths = [(combo, fids + (new,)) for combo, fids in paths
                         if (new := transition(suffix_table, fids[-1],
                                               column)) != _DEAD]
        folds = self.folds
        return (tuple(pieces[pid] for pid in pids), tuple(parts),
                [path for path in paths
                 if not end_codes(folds[path[1][-1]], bare=bare)])


def _build_analysis(word: str, pieces: tuple[Piece, ...],
                    parts: tuple[str, ...], items: list,
                    trace: list) -> Analysis:
    offsets = []
    pos = 0
    for part in parts:
        offsets.append((pos, pos + len(part)))
        pos += len(part)

    out_pieces = []
    members: list[tuple[RootEntry, SuffixEntry | None]] = []
    for i, piece in enumerate(pieces):
        start, end = offsets[i]
        item = items[i]
        if piece.is_root:
            use: RootUse = item
            out_pieces.append(AnalysisPiece(
                start, end, "root", use.entry.form, parts[i],
                (use.sense.context,), use.sense.gloss, use.entry.category,
                use.sense.context))
            members.append((use.entry, None))
        else:
            entry: SuffixEntry = item
            if entry.tag == "CA" and members and members[-1][1] is None \
                    and pieces[i - 1].is_root:
                members[-1] = (members[-1][0], entry)
            out_pieces.append(AnalysisPiece(
                start, end, "suffix", entry.id, parts[i], (entry.tag,),
                effect=entry.valency_effect, slot=entry.slot,
                fused_with_prev=piece.fused))

    stem_valency = compound_valency(members) if len(members) >= 2 else None
    return Analysis(word, tuple(out_pieces), tuple(trace), stem_valency)


def _expand_senses(pieces: tuple[Piece, ...], parts: tuple[str, ...],
                   survivors: list, word: str,
                   grammar: _Grammar) -> list[Analysis]:
    """Turn one piece path into analyses, one per root-sense combination
    that survives it (index tuples into each root's senses), each traced
    by the valency of the folds it went through."""
    lexicon, folds = grammar.lexicon, grammar.folds
    # the path starts with a root, so any root after piece 0 is a later
    # compound member
    sense_choices = [grammar.uses[(p.form, p.category)][i > 0]
                     for i, p in enumerate(pieces) if p.is_root]

    analyses = []
    for combo, fids in survivors:
        uses = iter([choices[k] for choices, k in zip(sense_choices, combo)])
        items = [next(uses) if p.is_root
                 else lexicon.suffixes[p.suffix_id] for p in pieces]
        trace = [(item.entry.form if p.is_root else item.id,
                  folds[fid].state)
                 for p, item, fid in zip(pieces, items, fids)]
        analyses.append(_build_analysis(word, pieces, parts, items, trace))
    return analyses


def analyse(word: str, lexicon: Lexicon | None = None,
            rules: RuleTable | None = None) -> list[Analysis]:
    """All licit glossed analyses of a surface word, best ranked first.

    The word is read in Unicode NFC, so a decomposed ``u`` + combining
    diaeresis is ``ü``.  Characters outside the alphabet, upper case
    included, raise :class:`alphabet.AlphabetError`; a well-formed word
    with no parse returns an empty list.
    """
    if not word:
        raise ValueError("word must be non-empty")
    word = unicodedata.normalize("NFC", word)
    alphabet.segments(word)
    lexicon, rules = tables(lexicon, rules)

    analyses: list[Analysis] = []
    seen = set()
    grammar = rules.for_lexicon(lexicon, _Grammar)
    for pieces, parts, combos in grammar.search(word):
        for analysis in _expand_senses(pieces, parts, combos, word, grammar):
            marker = (analysis.key(),
                      tuple((p.start, p.end) for p in analysis.pieces))
            if marker not in seen:
                seen.add(marker)
                analyses.append(analysis)
    analyses.sort(key=lambda a: a.score)
    return analyses


def _resolve_root(root, lexicon: Lexicon) -> RootEntry:
    if isinstance(root, RootEntry):
        return root
    entries = lexicon.roots_by_form(str(root))
    if not entries:
        raise KeyError(f"unknown root {root!r}")
    verbs = [e for e in entries if e.category == "verb"]
    if len(entries) > 1 and not verbs:
        raise KeyError(f"ambiguous root {root!r}; pass a RootEntry")
    return verbs[0] if verbs else entries[0]


def generate(root, sense_context: str, suffix_ids,
             lexicon: Lexicon | None = None,
             rules: RuleTable | None = None) -> str:
    """Surface form for a root sense plus an ordered list of suffix ids.

    The sequence is validated first; any violations are surfaced verbatim
    on the raised :class:`GenerationError`.  Deterministic: allomorphs
    are picked by the first context match.
    """
    lexicon, rules = tables(lexicon, rules)
    entry = _resolve_root(root, lexicon)
    suffix_entries = []
    for sid in suffix_ids:
        if sid not in lexicon.suffixes:
            raise KeyError(f"unknown suffix id {sid!r}")
        suffix_entries.append(lexicon.suffixes[sid])
    violations = validate_sequence((entry, sense_context), suffix_entries,
                                   lexicon)
    if violations:
        raise GenerationError(f"invalid sequence for {entry.form!r}",
                              violations)
    state = extend_realization(new_realization(),
                               Piece(entry.form, "root",
                                     category=entry.category),
                               rules, lexicon)
    for suffix in suffix_entries:
        chosen = select_allomorph(suffix, state.final)
        state = extend_realization(
            state, Piece(chosen, "suffix", suffix_id=suffix.id),
            rules, lexicon)
    return state.surface


def gloss_render(analysis: Analysis) -> str:
    """Interlinear gloss line: root as CODE.sense, suffixes as +TAG.

    Verb roots are coded by the valency context of the sense in use,
    other roots by their lexical category; incorporated object nouns are
    reduced to their bare category code.  A fused pair shares one token.
    A compound stem is annotated with its resulting valency right after
    its last member (and that member's own causative, if any).
    """
    tokens: list[str] = []
    root_seen = False
    last_member_token = -1
    n_members = 0
    for i, piece in enumerate(analysis.pieces):
        if piece.kind == "root":
            n_members += 1
            if piece.category == "verb":
                code = piece.sense_context or "IV"
                body = f"{code}.{piece.gloss}"
            else:
                code = tags.CATEGORY_CODES.get(piece.category, "NN")
                if root_seen and code == "NN":
                    body = "NN"   # incorporated object noun
                else:
                    body = f"{code}.{piece.gloss}"
            tokens.append(body if not root_seen else f"+{body}")
            root_seen = True
            last_member_token = len(tokens) - 1
        else:
            tag = piece.tags[0]
            if piece.fused_with_prev and tokens:
                tokens[-1] = tokens[-1] + f"+{tag}"
            else:
                tokens.append(f"+{tag}")
            if tag == "CA" and analysis.pieces[i - 1].kind == "root":
                if last_member_token == len(tokens) - 2:
                    last_member_token = len(tokens) - 1
    if n_members >= 2 and analysis.stem_valency:
        tokens.insert(last_member_token + 1, f"-CR.{analysis.stem_valency}")
    return " ".join(tokens)


def normalize_gloss(gloss: str) -> str:
    """Comparison form of a gloss line.

    The source notation varies in the sign it puts on compound members
    (+TV.say vs -TV.say) and in whether it prints the compound valency
    marker at all, so comparisons strip leading +/- and drop CR tokens.
    """
    tokens = []
    for token in gloss.split():
        body = token.lstrip("+-")
        if body in ("CR.TV", "CR.IV"):
            continue
        tokens.append(body)
    return " ".join(tokens)


def gloss_set(analyses) -> set[str]:
    return {normalize_gloss(gloss_render(a)) for a in analyses}
