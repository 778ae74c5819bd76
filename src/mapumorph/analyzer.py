"""Segmentation of surface verb forms into glossed analyses, and the
inverse: generation of surface forms from a root and suffix ids.

Both directions read one grammar per (lexicon, rules), kept on the rule
table for the latest lexicon it served (:func:`_grammar`): a transition
table of morphotactic folds with end flags, compiled with it, and a
realization table, filled on first use, whose entries link each
realization state to the next; so each transition and each boundary is
computed once, not once per piece tried.  The analyser searches, depth
first and with dead-state memoisation, the underlying morph sequences
whose realization equals the input word.  A root, as a path's first step
or as a later compound member, is tried once per distinct sense choice,
so each path stands for one root-sense combination and carries the
number of its fold: a path dies at its first violation that no
continuation can undo, so the pruning loses no analysis.  A zero-surface
indicative is licensed by the parts around it as they are finalized, and
a path that leaves one unlicensed dies there.  Each distinct sense and
allomorph is tried once, so no path is walked twice.  A path that spells
the word and whose fold's end flag is set is an analysis, built straight
off its links, traced by the folds it went through.  The search is the
only judge: the morphotactic validator is the tests' oracle for it.
Ambiguity is deliberately preserved: labile roots contribute one
analysis per sense row, homographs one per entry, and homophonous
suffixes one per reading.  Analyses are ranked by piece count, then
lexicographically by morph ids; the ranking is a plumbing choice, not a
linguistic claim.

Generation looks its root up in the grammar, judges a sequence by a
walk of the transition table from the root's start fold, and reads its
surface off the realization table's linked rows, each suffix by its
first context-matching allomorph.  Once the rows are filled an accepted
sequence costs table lookups only; only a rejected sequence is folded
by the validator, :func:`validate_plan` over the use of the root's first
sense in the context and the grammar's suffix entries, to list its
violations.
"""

from __future__ import annotations

import functools
import unicodedata
from array import array
from dataclasses import dataclass, replace

from . import alphabet, tags
from .defaults import tables
from .lexicon import Lexicon, RootEntry
from .morphotactics import (Fold, RootUse, advance, compound_valency,
                            end_codes, follows, settle, start_fold,
                            tags_below, tags_reading_lone, validate_plan)
# validate_sequence is not called here; the benchmark's tracer counts its
# calls in this module, and tests/test_bench_contract.py guards the name
from .morphotactics import validate_sequence  # noqa: F401
from .phonology import Piece, PhonologyError, RuleTable, extend_realization


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

    @classmethod
    def from_json(cls, data: dict) -> "Analysis":
        """Inverse of :meth:`to_json`, in one pass that checks every field
        for its exact JSON type before it is used: an analysis or piece
        that is no JSON object, pieces that are no list, a field of the
        wrong JSON type, a span that is not a list of two ints, a trace
        that is no list, or a trace step that is not a [morph, state]
        pair of strings with state IV, TV or TV2, raises TypeError, and a
        missing required field KeyError.  The first fault is reported, in
        this order: each piece's optional fields, span, kind, morph and
        tags, piece by piece; then the trace, stem_valency, word and
        source.  Equal pieces, and equal trace steps, are shared: one
        immutable object stands for each distinct one among the last few
        thousand decoded."""
        if type(data) is not dict:
            raise TypeError("analysis must be a JSON object, not "
                            f"{type(data).__name__}")
        pieces = []
        for p in json_objects(data["pieces"], "pieces"):
            get = p.get
            surface = get("surface", "")
            if type(surface) is not str:
                raise _mistyped("surface", "a string", surface)
            gloss = get("gloss")
            if gloss is not None and type(gloss) is not str:
                raise _mistyped("gloss", "a string or null", gloss)
            category = get("category")
            if category is not None and type(category) is not str:
                raise _mistyped("category", "a string or null", category)
            context = get("sense_context")
            if context is not None and type(context) is not str:
                raise _mistyped("sense_context", "a string or null", context)
            effect = get("effect")
            if effect is not None and type(effect) is not str:
                raise _mistyped("effect", "a string or null", effect)
            slot = get("slot")
            if slot is not None and type(slot) is not int:
                raise _mistyped("slot", "an int or null", slot)
            fused = get("fused_with_prev", False)
            if type(fused) is not bool:
                raise _mistyped("fused_with_prev", "a bool", fused)
            span = p["span"]
            if not (type(span) is list and len(span) == 2
                    and type(span[0]) is int and type(span[1]) is int):
                raise TypeError("span must be a list of two ints, not "
                                f"{span!r}")
            kind = p["kind"]
            if type(kind) is not str:
                raise _mistyped("kind", "a string", kind)
            morph = p["morph"]
            if type(morph) is not str:
                raise _mistyped("morph", "a string", morph)
            tags = get("tags", [])
            if type(tags) is not list or not all(map(_is_str, tags)):
                raise TypeError("tags must be a list of strings, not "
                                f"{tags!r}")
            pieces.append(_shared_piece(
                span[0], span[1], kind, morph, surface, tuple(tags), gloss,
                category, context, effect, slot, fused))
        trace = data.get("trace", [])
        if type(trace) is not list:
            raise TypeError("trace must be a list, not "
                            f"{type(trace).__name__}")
        steps = []
        for step in trace:
            if not (type(step) is list and len(step) == 2
                    and type(step[0]) is str and step[1] in _STATES):
                raise TypeError("trace step must be [morph, IV|TV|TV2], "
                                f"not {step!r}")
            steps.append(_shared_step(*step))
        stem_valency = data.get("stem_valency")
        if stem_valency is not None and type(stem_valency) is not str:
            raise _mistyped("stem_valency", "a string or null", stem_valency)
        word = data["word"]
        if type(word) is not str:
            raise _mistyped("word", "a string", word)
        source = data.get("source")
        if source is not None and type(source) is not str:
            raise _mistyped("source", "a string", source)
        return cls(word, tuple(pieces), tuple(steps), stem_valency, source)


# Decoded pieces and trace steps repeat: a 1,000-line corpus holds about
# five thousand pieces but only a few hundred distinct ones, and fewer
# distinct steps.  Every field is checked for its exact JSON type before
# the call, so equal arguments here are equal pieces or steps, and a bool
# never stands in for an int.
_PIECE_CACHE_SIZE = 4096
_shared_piece = functools.lru_cache(maxsize=_PIECE_CACHE_SIZE)(AnalysisPiece)


@functools.lru_cache(maxsize=1024)
def _shared_step(morph: str, state: str) -> tuple[str, str]:
    return morph, state


def json_objects(value, name: str):
    """The items of the list *value*, each checked to be a JSON object
    when it is reached: TypeError if *value* is no list or an item is no
    object."""
    if type(value) is not list:
        raise TypeError(f"{name} must be a list of objects, not "
                        f"{type(value).__name__}")
    for item in value:
        if type(item) is not dict:
            raise TypeError(f"{name} must be a list of objects, not a list "
                            f"holding {type(item).__name__}")
        yield item


_STATES = ("IV", "TV", "TV2")
# isinstance(value, str) as one C call, for map; json.loads makes no str
# subclass, so on decoded JSON this is the exact type
_is_str = str.__instancecheck__


def _mistyped(name: str, expected: str, value) -> TypeError:
    return TypeError(f"{name} must be {expected}, not "
                     f"{type(value).__name__}")


# a transition into a dead end, or one the search never reads
_DEAD = -1

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


class _Grammar:
    """The tables of one (lexicon, rules), built once and shared by every
    :func:`analyse` and :func:`generate` call with them: the transition
    table with its end flags, the realization table, and what feeds them
    (per preceding V, C or nothing, each column's spellings and their
    filter by the character that follows; each root's first steps with
    its spelling's starts, and its row and start fold per sense context by
    every spelling
    :meth:`generate` takes; each suffix's column).  Every piece gets a
    number when the grammar is built: each distinct suffix allomorph,
    each root, and the fused variant of each of them that a fusion rule
    can place.  A search or a generation writes only to the realization
    table.

    The realization table has a row per realization state ``(previous
    piece, pending part, final segment)``, the arguments of the boundary
    step :func:`~mapumorph.phonology.extend_realization`, which reads
    nothing else.  The pending part is the last piece's part, which the
    rule at the next boundary may still rewrite; the final segment is
    that of the whole surface so far, which a digraph can make straddle
    the pending part's start.  A row holds an entry per piece, None
    before first use, then the state, what may follow its final segment
    (V, C, or None after an empty surface, where any allomorph may), and
    each suffix column's first spelling there (None where no allomorph
    fits).  An entry is what the step gives, ``(new piece, finalized
    part, new pending part, next row)``, the last the row of the state it
    leads to.  Where a rule rewrites the pending part the new final
    segment may reach back before it, and the next row is None: the
    search reads the final segment off the word, generation off its
    surface, both through :meth:`_surface_row`.  Each root's row is
    installed with the grammar.
    The table is bounded by the grammar, not by the words analysed, and
    needs no lock: threads that fill an entry race only to store equal
    values, and a row is installed by a single ``dict.setdefault``, so
    every entry links to the one row of its state.

    The morphotactic transition table, compiled with the grammar, has a
    column per item (each suffix entry by id, then each root sense as a
    later compound member) and a row per settled
    :class:`~mapumorph.morphotactics.Fold` that the start folds lead to
    (:func:`settle`): the number of the fold after each column's item, or
    a dead end where the item raises a code or an end check is certain to
    fail.  The build moves a fold on only by the suffixes below its floor,
    and by members where one may follow: every other entry is a dead end,
    so the row alone says what may follow the fold.  The end checks at
    the end of the word are compiled per settled fold too, into one flag,
    :attr:`accepts`, ``not end_codes(fold)``; a lone verb root's start
    fold is bare, so the fold alone decides.  The search and generation
    read these flags, and only the build and the validator run
    :func:`end_codes`.
    """

    def __init__(self, lexicon: Lexicon, rules: RuleTable):
        self.lexicon, self.rules = lexicon, rules
        # the pieces by number, each one's rule identity (suffix id or
        # form, category) and licensing code, and the numbers by piece;
        # the realization table's rows by state
        self.pieces, self.idents, self.licensing = [], [], []
        self.piece_ids, self.realized = {}, {}
        self.below = tags_below(lexicon)
        self.reading_lone = tags_reading_lone(lexicon)
        # the settled folds by number and the numbers by fold
        self.folds, self.fold_ids = [], {}
        # the transition table's columns: one per suffix, by id, ...
        self.columns = sorted(lexicon.suffixes.values(), key=lambda s: s.id)
        n_suffixes = len(self.columns)
        self.suffix_columns = {entry.id: column
                               for column, entry in enumerate(self.columns)}
        # per preceding V, C or nothing (None, after a surface rewritten
        # away), (column, the pieces that spell its item) in the order they
        # are tried, with a (piece id, rewrites_left, starts) per distinct
        # allomorph usable there
        self.spellings = {kind: [] for kind in ("V", "C", None)}
        for column, entry in enumerate(self.columns):
            for kind, spellings in self.spellings.items():
                spellings.append((column, tuple(dict.fromkeys(
                    self._numbered(rules.morph(a.surface, "suffix",
                                               suffix_id=entry.id))
                    for a in entry.allomorphs_after(kind)))))
        # each root's piece, after the suffixes': every piece the search
        # tries has been numbered by now; the fused variants a rule can
        # place come after them, only ever a result
        roots = [(entry, self._numbered(rules.morph(entry.form, "root",
                                                    entry.category)))
                 for entry in lexicon.iter_roots() if entry.form]
        self.width = len(self.pieces)
        for piece in self.pieces[:self.width]:
            if any(rule.fuse is not None for rule in rules.candidates(piece)):
                self._piece_id(replace(piece, fused=True))
        # each suffix column's first spelling per final kind, or None
        self.trailers = {
            kind: tuple(pieces[0][0] if pieces else None
                        for _, pieces in spellings[:n_suffixes])
            for kind, spellings in self.spellings.items()}
        # the columns go on with one per distinct sense choice of a root as
        # a later member (an incorporated demonstrative is a fixed
        # construction, so its citation sense stands for all of them);
        # each root's first steps, one per distinct sense choice, with its
        # spelling's starts, and its start by form:category for generation:
        # its row and a start fold per sense context, since a start fold
        # reads only that context
        self._firsts, self.starts = [], {}
        for entry, root in roots:
            for sense in dict.fromkeys(entry.senses[:1] if entry.category
                                       == "demonstrative" else entry.senses):
                for spellings in self.spellings.values():
                    spellings.append((len(self.columns), (root,)))
                self.columns.append(RootUse(entry, sense))
            row = self._surface_row(root[0], entry.form, entry.form)
            key, folds = f"{entry.form}:{entry.category}", {}
            for sense in dict.fromkeys(entry.senses):
                use = RootUse(entry, sense)
                folds[sense.context] = self._fold_id(start_fold(use))
                self._firsts.append((row, use, folds[sense.context],
                                     root[2]))
            start = self.starts[key] = (entry, row, folds)
            # the bare form names the verb entry, or the only one; a form
            # of several entries and no verb is ambiguous (None)
            if entry.category == "verb" or entry.form not in self.starts:
                self.starts[entry.form] = start
            elif self.starts[entry.form] is not None \
                    and self.starts[entry.form][0].category != "verb":
                self.starts[entry.form] = None

        # each fold's row; the loop meets the folds it numbers as it goes,
        # and judges each fold met once.  Only the suffixes below the
        # fold's floor, and members where one may follow, can move it on.
        self.transitions = []
        under = {floor: [column for column, entry
                         in enumerate(self.columns[:n_suffixes])
                         if entry.slot < floor] for floor in self.below}
        members, met = list(range(n_suffixes, len(self.columns))), {}
        for fold in self.folds:
            row = array("i", [_DEAD]) * len(self.columns)
            tried = under[fold.floor] + (
                members if follows(fold, self.below) is None else [])
            for column in tried:
                new, codes = advance(fold, self.columns[column])
                if not codes:
                    if new not in met:
                        met[new] = _DEAD if end_codes(new, follows(
                            new, self.below)) else self._fold_id(new)
                    row[column] = met[new]
            self.transitions.append(row)
        # the end checks per fold
        self.accepts = tuple(not end_codes(fold) for fold in self.folds)
        self.options = functools.cache(self.options)

    def _fold_id(self, fold: Fold) -> int:
        """The number of *fold* settled, given on first sight."""
        fold = settle(fold, follows(fold, self.below), self.reading_lone)
        fid = self.fold_ids.setdefault(fold, len(self.folds))
        if fid == len(self.folds):
            self.folds.append(fold)
        return fid

    def _numbered(self, morph: tuple) -> tuple:
        """A :meth:`RuleTable.morph` triple with its piece numbered."""
        return (self._piece_id(morph[0]),) + morph[1:]

    def _piece_id(self, piece: Piece) -> int:
        """The number of *piece*, given on first sight."""
        pid = self.piece_ids.setdefault(piece, len(self.pieces))
        if pid == len(self.pieces):
            self.pieces.append(piece)
            self.idents.append((piece.suffix_id or piece.form,
                                piece.category))
            self.licensing.append(0 if piece.is_root else _LICENSING_CODES.get(
                self.lexicon.suffixes[piece.suffix_id].tag, 0))
        return pid

    def options(self, kind: str | None, char: str | None) -> tuple:
        """The columns worth trying after a final segment of *kind* (as
        :meth:`_row` reads it) when the pending part reads on and is
        followed by *char* ("" at the end of the word), or does not read
        on (None): each column, in the order they are tried, with the
        numbers of the pieces that spell its item and are worth trying.  A
        piece whose rule may rewrite the pending part is always worth
        trying.  Memoised per grammar."""
        return tuple(
            (column, pids) for column, pieces in self.spellings[kind]
            if (pids := tuple(
                pid for pid, rewrites, starts in pieces
                if rewrites or char is not None and (starts is None
                                                     or char in starts))))

    def _row(self, prev: int, pending: str, final: str) -> list:
        """The row of the realization state (*prev*, *pending*, *final*),
        installed on first sight with what may follow *final*: "V", "C",
        or None after an empty surface, where any allomorph may: the
        package's one V/C reading of a final segment."""
        state = (prev, pending, final)
        row = self.realized.get(state)
        if row is None:
            kind = ("V" if alphabet.is_vowel(final) else "C") \
                if final else None
            row = self.realized.setdefault(state, [None] * self.width + [
                state, kind, self.trailers[kind]])
        return row

    def _surface_row(self, prev: int, pending: str, surface: str) -> list:
        """The row of the state whose final segment is read off the whole
        *surface*, which ends with *pending*: a root's, or the one a step
        leads to when its rule leaves the final segment open."""
        return self._row(prev, pending, alphabet.final_segment(surface)
                         if surface else "")

    def _fill(self, row: list, pid: int) -> tuple:
        """Compute, store in *row* and return its entry for piece *pid*,
        ``(placed piece, finalized part, new pending part, next row)``,
        linked to the row of the state it leads to, or None where the
        final segment is left to the caller."""
        prev, pending, final = row[self.width]
        piece, finalized, part, new_final = extend_realization(
            self.pieces[prev], pending, final, self.pieces[pid], self.rules)
        placed = self.piece_ids[piece]
        entry = row[pid] = (
            placed, finalized, part,
            None if new_final is None else self._row(placed, part, new_final))
        return entry

    def search(self, word: str) -> list[Analysis]:
        """Depth-first enumeration of the analyses of *word*, one per path;
        the results and dead states belong to this call alone.

        A path starts only with a root whose spelling's starts
        (:meth:`RuleTable.morph`), which hold its part's initials, hold the
        word's first character, and extends only with pieces that can still
        spell the word.  A piece whose boundary rule may rewrite the pending
        part is always tried; any other leaves that part as it is, so it is
        tried only when the part reads on in the word and the piece's own
        part can start at the character that follows (:meth:`options`).
        These are the search's one first-character filter: once realized, a
        piece is kept if its finalized part spells the word on.  Pieces are
        tried in the order of an unpruned search, by column (suffixes by id,
        then roots), each distinct allomorph once and each root once per
        distinct sense choice, so no path is walked twice and a root-sense
        combination's results come out in that order.

        A step holds the row of its realization state, numbers and
        strings: a link to the path before the last piece, the position
        the pending part starts at, the column that led to the last piece
        (its root use for the first root), the fold after it and the
        licensing state.  A link is ``(parent link, piece number, column,
        fold, finalized part)``.  Each piece tried is realized by its entry
        in the step's row, and the next step takes the row the entry links
        to, or the row of the final segment read off the word.

        A piece moves the fold on by the transition table before it is
        realized, and is not realized into a dead end; a step makes one
        pass over the columns, and the fold's row alone gates each one.  A
        zero-surface indicative must be licensed by the pieces around it:
        the licensing state moves on with each part as it is finalized,
        and a path dies once its state is unlicensed or it ends owing a
        piece.  A path that spells the whole word, and whose fold's end
        flag is set, is built into its analysis only then, straight off
        its links.

        A step that yields no analysis is dead, and a later step with its
        key ``(position, pending part, last piece's identity, fold,
        licensing state)`` is cut at once.  Nothing else decides what
        follows: the final segment is read off the word, and the rules
        read a piece by its identity alone, a suffix ``(id, None)`` by its
        id and a root by its form and set category, never by the
        allomorph that spells it.  So two spellings of one suffix lead on
        alike, and the cut loses no analysis.
        """
        options, idents, licensing = self.options, self.idents, self.licensing
        width, fill, surface_row = self.width, self._fill, self._surface_row
        transitions, build = self.transitions, self._analysis
        accepts = self.accepts
        results, dead = [], set()
        size = len(word)

        def step(link, row, pos, column, live, owed):
            prev, pending, _ = row[width]
            key = (pos, pending, idents[prev], live, owed)
            if key in dead:
                return
            produced = len(results)
            node = (link, prev, column, live)
            code = licensing[prev]

            end = pos + len(pending)
            if word.startswith(pending, pos):
                # a path may end in neither licensing state that owes
                if end == size and accepts[live] and _licensed(
                        owed, code, pending) in (_FREE, _AFTER_3P):
                    results.append(build(word, node + (pending,)))
                char = word[end:end + 1]
            else:
                char = None
            after = transitions[live]
            for column, pids in options(row[width + 1], char):
                new = after[column]
                if new == _DEAD:
                    continue
                for pid in pids:
                    placed, finalized, part, linked = \
                        row[pid] or fill(row, pid)
                    if not word.startswith(finalized, pos):
                        continue
                    new_pos = pos + len(finalized)
                    new_owed = _licensed(owed, code, finalized) \
                        if owed or code else owed
                    if new_owed == _UNLICENSED:
                        continue
                    if linked is None:
                        linked = surface_row(placed, part,
                                             word[:new_pos] + part)
                    step(node + (finalized,), linked, new_pos, column, new,
                         new_owed)

            if len(results) == produced:
                dead.add(key)

        first = word[0]
        try:
            for row, use, live, starts in self._firsts:
                if starts is None or first in starts:
                    step(None, row, 0, use, live, _FREE)
        finally:
            # step refers to itself; unbinding it frees this call's states
            # without the cyclic collector
            step = None
        return results

    def generate(self, root, sense_context: str, suffix_ids) -> str:
        """The surface of *root* in *sense_context* with *suffix_ids*, by
        table lookups alone once the rows are filled.  *root* is looked up
        in :attr:`starts`, a string as it is and a :class:`RootEntry` by
        its ``form:category``, which must then be that entry or equal it.
        One pass resolves the suffix ids and walks the transition table
        from the sense's start fold; the fold reached is judged by the
        compiled end check.  The surface is then read off the realization
        table from the root's row, each suffix by the entry of the first
        spelling its row names, which links to the next row.  The faults
        are reported in this order: an unknown or ambiguous root; suffix
        ids that are no iterable, or an unknown or mistyped id anywhere in
        them; a missing or mistyped sense; a rejected sequence; then a
        suffix with no allomorph after the final segment.  Only a rejected
        sequence is folded again, by :func:`validate_plan` over the use of
        the context's first sense and the suffix entries already resolved,
        for its violations."""
        given = isinstance(root, RootEntry)
        key = f"{root.form}:{root.category}" if given else root
        try:
            start = self.starts[key]
        except (KeyError, TypeError):  # an unhashable key names no root
            raise KeyError(f"unknown root {key!r}") from None
        if start is None:
            raise KeyError(f"ambiguous root {key!r}; pass form:category")
        entry, row, start_folds = start
        if given and entry is not root and entry != root:
            raise KeyError(f"unknown root {key!r}")
        # a missing sense walks no table, but its suffix ids are resolved
        try:
            live = start_folds.get(sense_context, _DEAD)
        except TypeError:  # unhashable, so no sense's context
            live = _DEAD
        suffix_columns, transitions = self.suffix_columns, self.transitions
        columns, sid = [], suffix_ids
        try:
            for sid in suffix_ids:
                column = suffix_columns[sid]
                columns.append(column)
                if live != _DEAD:
                    live = transitions[live][column]
        except (KeyError, TypeError):
            # the id the lookup failed on, or suffix_ids if none was read
            if sid is suffix_ids:
                raise _mistyped("suffix_ids", "an iterable of suffix ids",
                                sid) from None
            if type(sid) is not str:
                raise _mistyped(f"suffix id {sid!r}", "a string",
                                sid) from None
            if sid in suffix_columns:
                raise  # from the iterable itself
            raise KeyError(f"unknown suffix id {sid!r}") from None
        if live == _DEAD and type(sense_context) is not str:
            raise _mistyped("sense_context", "a string", sense_context)
        if live == _DEAD and sense_context not in start_folds:
            raise ValueError(f"root {entry.form!r} has no {sense_context} "
                             "sense")
        if live == _DEAD or not self.accepts[live]:
            use = RootUse(entry, entry.senses_for(sense_context)[0])
            raise GenerationError(
                f"invalid sequence for {entry.form!r}", validate_plan(
                    [use, *[self.columns[column] for column in columns]]))

        # the trailer by a non-negative index: list indexing's fast path
        done, part, trailer = "", entry.form, self.width + 2
        for column in columns:
            pid = row[trailer][column]
            if pid is None:
                raise PhonologyError(
                    f"no allomorph of {self.columns[column].id} fits after "
                    f"{row[self.width][2]!r}")
            placed, finalized, part, row = row[pid] or self._fill(row, pid)
            done += finalized
            if row is None:
                row = self._surface_row(placed, part, done + part)
        return done + part

    def _analysis(self, word: str, link) -> Analysis:
        """The analysis of *word* whose path ends in *link*, read off the
        links from the last piece back: each piece's item is its column's,
        or its sense choice for the first root, its part ends where the
        next one starts, and its trace step holds the valency of the fold
        after it.  A root with a causative right after it is a compound
        member with that causative."""
        pieces, trace, members = [], [], []
        end, causative = len(word), None
        while link is not None:
            link, pid, column, fid, part = link
            piece = self.pieces[pid]
            # the first root's link holds its RootUse in place of a column
            item = column if link is None else self.columns[column]
            start = end - len(part)
            if piece.is_root:
                entry, sense = item.entry, item.sense
                pieces.append(AnalysisPiece(
                    start, end, "root", entry.form, part, (sense.context,),
                    sense.gloss, entry.category, sense.context))
                members.append((entry, causative))
                causative = None
            else:
                pieces.append(AnalysisPiece(
                    start, end, "suffix", item.id, part, (item.tag,),
                    effect=item.valency_effect, slot=item.slot,
                    fused_with_prev=piece.fused))
                causative = item if item.tag == "CA" else None
            trace.append((pieces[-1].morph, self.folds[fid].state))
            end = start
        stem_valency = compound_valency(members[::-1]) \
            if len(members) >= 2 else None
        return Analysis(word, tuple(pieces[::-1]), tuple(trace[::-1]),
                        stem_valency)


def _grammar(lexicon: Lexicon | None = None,
             rules: RuleTable | None = None) -> _Grammar:
    """The grammar of *lexicon* and *rules*, with the shipped table in place
    of each that is None.  It is kept on the rule table until the table
    is used with another lexicon object: a process serves one lexicon at
    a time, and a build is not cheap."""
    lexicon, rules = tables(lexicon, rules)
    grammar = getattr(rules, "_grammar", None)
    if grammar is None or grammar.lexicon is not lexicon:
        grammar = rules._grammar = _Grammar(lexicon, rules)
    return grammar


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
    return sorted(_grammar(lexicon, rules).search(word),
                  key=lambda a: a.score)


def generate(root, sense_context: str, suffix_ids,
             lexicon: Lexicon | None = None,
             rules: RuleTable | None = None) -> str:
    """Surface form for a root sense plus an ordered list of suffix ids.

    *root* is a :class:`RootEntry` of the lexicon, a form (its verb entry,
    or its only one) or ``form:category``, each looked up once in the
    grammar; any other raises KeyError, as an unknown suffix id does, and
    so does a form of several entries none of which is a verb.  *suffix_ids* is an iterable of id strings; a
    single string, which would be read character by character, or an
    argument of another wrong type raises TypeError that names it.
    The sequence is judged first, through the grammar the analyser
    searches (:meth:`_Grammar.generate`); any violations are surfaced
    verbatim on the raised :class:`GenerationError`.  Deterministic:
    allomorphs are picked by the first context match.
    """
    if isinstance(suffix_ids, (str, bytes)):
        raise _mistyped("suffix_ids", "an iterable of suffix ids",
                        suffix_ids)
    return _grammar(lexicon, rules).generate(root, sense_context,
                                             suffix_ids)


def gloss_render(analysis: Analysis) -> str:
    """Interlinear gloss line: root as CODE.sense, suffixes as +TAG.

    Verb roots are coded by the valency context of the sense in use,
    other roots by their lexical category; incorporated object nouns are
    reduced to their bare category code.  A fused pair shares one token.
    A compound stem is annotated with its resulting valency right after
    its last member (and that member's own causative, if any).
    """
    tokens: list[str] = []
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
                if n_members > 1 and code == "NN":
                    body = "NN"   # incorporated object noun
                else:
                    body = f"{code}.{piece.gloss}"
            tokens.append(f"+{body}" if n_members > 1 else body)
            last_member_token = len(tokens) - 1
        else:
            tag = piece.tags[0]
            if piece.fused_with_prev and tokens:
                tokens[-1] = tokens[-1] + f"+{tag}"
            else:
                tokens.append(f"+{tag}")
            if tag == "CA" and analysis.pieces[i - 1].kind == "root":
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
