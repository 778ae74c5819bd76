"""Root and suffix inventories.

Two line-oriented TSV formats are used (``#`` starts a comment line):

Root file, one entry per line::

    form<TAB>category<TAB>valency<TAB>senses[<TAB>source[<TAB>flags]]

where ``senses`` is ``CTX:gloss`` items joined by ``|`` with CTX one of
IV/TV, ``source`` one of smeets/kona/augusta/corlexim/user (default
user), and ``flags`` a comma list (currently only ``loan``).

Suffix file, one entry per line::

    id<TAB>slot<TAB>tag<TAB>valency_effect<TAB>attach_constraint<TAB>allomorphs

where ``allomorphs`` is ``surface@context`` items joined by ``|`` with
context one of V/C/any and ``0`` denoting a zero surface.  Allomorph
order matters: generation picks the first context match, analysis may
use any context match, so variants listed after a full V/C cover are
reachable in analysis only.

A lexicon is immutable, its mappings read-only copies of the ones it was
built from, and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from . import alphabet, tags

CATEGORIES = ("verb", "noun", "adjective", "adverb", "demonstrative",
              "numeral", "other")
VALENCIES = ("TV", "IV", "labile", "unknown")
SOURCES = ("smeets", "kona", "augusta", "corlexim", "user")
VALENCY_EFFECTS = ("increase", "decrease", "neutral", "agreement_tv_only")
ATTACH_CONSTRAINTS = ("iv_stem_only", "tv_stem_only", "any")
SENSE_CONTEXTS = ("IV", "TV")


class LexiconError(ValueError):
    """Parse or invariant failure while loading a lexicon file."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        if path or line:
            message = f"{path}:{line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Sense:
    context: str  # IV or TV
    gloss: str


@dataclass(frozen=True)
class RootEntry:
    form: str
    category: str
    valency: str
    senses: tuple[Sense, ...]
    source: str = "user"
    loan: bool = False

    def senses_for(self, context: str) -> tuple[Sense, ...]:
        return tuple(s for s in self.senses if s.context == context)


@dataclass(frozen=True)
class Allomorph:
    surface: str  # may be "" for zero morphs
    requires: str  # V, C or any


@dataclass(frozen=True)
class SuffixEntry:
    id: str
    slot: int
    tag: str
    valency_effect: str
    attach_constraint: str
    allomorphs: tuple[Allomorph, ...]

    def surfaces(self) -> tuple[str, ...]:
        return tuple(a.surface for a in self.allomorphs)

    def allomorphs_after(self, kind: str | None) -> tuple[Allomorph, ...]:
        """Allomorphs usable after a vowel (*kind* "V") or a consonant
        ("C"), in listed order; all of them when nothing precedes (None)."""
        return tuple(a for a in self.allomorphs
                     if kind is None or a.requires in ("any", kind))


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str
    invariant: bool = True  # False for advisory findings


@dataclass(frozen=True)
class Lexicon:
    roots: Mapping[tuple[str, str], RootEntry] = field(default_factory=dict)
    suffixes: Mapping[str, SuffixEntry] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("roots", "suffixes"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))

    def iter_roots(self) -> list[RootEntry]:
        return [self.roots[k] for k in sorted(self.roots)]

    def iter_suffixes(self) -> list[SuffixEntry]:
        return [self.suffixes[k] for k in sorted(self.suffixes)]


def _check_root(entry: RootEntry) -> list[Diagnostic]:
    found = []
    if not entry.form or not alphabet.is_valid(entry.form):
        found.append(Diagnostic("bad_form", entry.form,
                                f"form {entry.form!r} is empty or outside the alphabet"))
    if entry.category not in CATEGORIES:
        found.append(Diagnostic("bad_category", entry.form,
                                f"unknown category {entry.category!r}"))
    if entry.valency not in VALENCIES:
        found.append(Diagnostic("bad_valency", entry.form,
                                f"unknown valency {entry.valency!r}"))
    if entry.source not in SOURCES:
        found.append(Diagnostic("bad_source", entry.form,
                                f"unknown source {entry.source!r}"))
    if not entry.senses:
        found.append(Diagnostic("no_senses", entry.form, "entry has no senses"))
    for sense in entry.senses:
        if sense.context not in SENSE_CONTEXTS:
            found.append(Diagnostic("bad_sense_context", entry.form,
                                    f"sense context {sense.context!r} is not IV/TV"))
    if entry.valency == "labile":
        contexts = {s.context for s in entry.senses}
        missing = {"IV", "TV"} - contexts
        for ctx in sorted(missing):
            found.append(Diagnostic("labile_missing_sense", entry.form,
                                    f"labile root {entry.form!r} lacks a {ctx} sense"))
    return found


def _check_suffix(entry: SuffixEntry) -> list[Diagnostic]:
    found = []
    if not (1 <= entry.slot <= 36):
        found.append(Diagnostic("bad_slot", entry.id,
                                f"slot {entry.slot} outside 1..36"))
    if not tags.is_registered(entry.tag):
        found.append(Diagnostic("unregistered_tag", entry.id,
                                f"unregistered tag {entry.tag!r}"))
    if entry.valency_effect not in VALENCY_EFFECTS:
        found.append(Diagnostic("bad_effect", entry.id,
                                f"unknown valency effect {entry.valency_effect!r}"))
    if entry.attach_constraint not in ATTACH_CONSTRAINTS:
        found.append(Diagnostic("bad_attach", entry.id,
                                f"unknown attach constraint {entry.attach_constraint!r}"))
    if not entry.allomorphs:
        found.append(Diagnostic("no_allomorphs", entry.id, "no allomorphs"))
    fallbacks = [a for a in entry.allomorphs if a.requires == "any"]
    if len(fallbacks) > 1:
        found.append(Diagnostic("multiple_fallbacks", entry.id,
                                "more than one allomorph with context 'any'"))
    for a in entry.allomorphs:
        if a.surface and not alphabet.is_valid(a.surface):
            found.append(Diagnostic("bad_form", entry.id,
                                    f"allomorph {a.surface!r} outside the alphabet"))
        if a.requires not in ("V", "C", "any"):
            found.append(Diagnostic("bad_context", entry.id,
                                    f"allomorph context {a.requires!r} is not V/C/any"))
    if entry.valency_effect == "agreement_tv_only" \
            and entry.attach_constraint != "tv_stem_only":
        found.append(Diagnostic("agreement_attach", entry.id,
                                "agreement_tv_only requires tv_stem_only"))
    return found


def parse_root_line(line: str) -> RootEntry:
    cols = line.split("\t")
    if len(cols) < 4:
        raise LexiconError(f"expected at least 4 tab-separated columns, got {len(cols)}")
    form, category, valency, senses_col = cols[:4]
    source = cols[4].strip() if len(cols) > 4 and cols[4].strip() else "user"
    flags = [f.strip() for f in cols[5].split(",")] if len(cols) > 5 else []
    flags = [f for f in flags if f and f != "-"]
    for f in flags:
        if f != "loan":
            raise LexiconError(f"unknown flag {f!r}")
    senses = []
    if senses_col.strip() and senses_col.strip() != "-":
        for item in senses_col.split("|"):
            if ":" not in item:
                raise LexiconError(f"sense {item!r} is not CTX:gloss")
            ctx, gloss = item.split(":", 1)
            senses.append(Sense(ctx.strip(), gloss.strip()))
    return RootEntry(form.strip(), category.strip(), valency.strip(),
                     tuple(senses), source, "loan" in flags)


def parse_suffix_line(line: str) -> SuffixEntry:
    cols = line.split("\t")
    if len(cols) < 6:
        raise LexiconError(f"expected 6 tab-separated columns, got {len(cols)}")
    sid, slot_col, tag, effect, attach, allo_col = cols[:6]
    try:
        slot = int(slot_col)
    except ValueError:
        raise LexiconError(f"slot {slot_col!r} is not an integer") from None
    allomorphs = []
    for item in allo_col.split("|"):
        if "@" not in item:
            raise LexiconError(f"allomorph {item!r} is not surface@context")
        surface, context = item.rsplit("@", 1)
        surface = surface.strip()
        if surface == "0":
            surface = ""
        allomorphs.append(Allomorph(surface, context.strip()))
    return SuffixEntry(sid.strip(), slot, tag.strip(), effect.strip(),
                       attach.strip(), tuple(allomorphs))


def data_lines(path: str | Path):
    """(line number, line) for each line of a TSV table that holds data,
    in order: blank lines and ``#`` comment lines are skipped.  Lines end
    at line feeds only, each dropping one carriage return before it, so a
    field may hold any other character, U+2028 included.  A byte that is
    not UTF-8 fails with a ValueError located at its line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8").replace("\r\n", "\n")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8: byte "
                         f"0x{raw[err.start]:02x} ({err.reason})") from None
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def load_lexicon(root_path: str | Path,
                 suffix_path: str | Path | None = None,
                 strict: bool = True) -> Lexicon:
    """Load root (and optionally suffix) inventories from TSV files.

    With ``strict=True`` (the default) any entry-level invariant failure
    raises :class:`LexiconError`; with ``strict=False`` offending entries
    are still loaded so that :func:`validate_lexicon` can report them.
    Duplicate (form, category) pairs and malformed lines always raise.
    """
    roots: dict[tuple[str, str], RootEntry] = {}
    suffixes: dict[str, SuffixEntry] = {}
    root_path = Path(root_path)
    for lineno, line in data_lines(root_path):
        try:
            entry = parse_root_line(line)
        except LexiconError as err:
            raise LexiconError(str(err), str(root_path), lineno) from None
        key = (entry.form, entry.category)
        if key in roots:
            raise LexiconError(
                f"duplicate root ({entry.form}, {entry.category})",
                str(root_path), lineno)
        if strict:
            problems = _check_root(entry)
            if problems:
                raise LexiconError(
                    f"invariant violation for root {entry.form!r}: "
                    + "; ".join(d.message for d in problems),
                    str(root_path), lineno)
        roots[key] = entry
    if suffix_path is not None:
        suffix_path = Path(suffix_path)
        for lineno, line in data_lines(suffix_path):
            try:
                entry = parse_suffix_line(line)
            except LexiconError as err:
                raise LexiconError(str(err), str(suffix_path), lineno) from None
            if entry.id in suffixes:
                raise LexiconError(f"duplicate suffix id {entry.id!r}",
                                   str(suffix_path), lineno)
            if strict:
                problems = _check_suffix(entry)
                if problems:
                    raise LexiconError(
                        f"invariant violation for suffix {entry.id!r}: "
                        + "; ".join(d.message for d in problems),
                        str(suffix_path), lineno)
            suffixes[entry.id] = entry
    return Lexicon(roots, suffixes)


def validate_lexicon(lex: Lexicon) -> list[Diagnostic]:
    """Collect diagnostics for a loaded lexicon; empty list means clean."""
    found: list[Diagnostic] = []
    for entry in lex.iter_roots():
        found.extend(_check_root(entry))
    for entry in lex.iter_suffixes():
        found.extend(_check_suffix(entry))
    # A slot shared by several suffixes means mutual exclusion, which is
    # fine, except no slot may host two mandatory fillers; the only
    # mandatory slots are mood (4) and person (3), both multi-filler by
    # design, so here we just flag empty mandatory slots.
    if lex.suffixes:
        for slot, name in ((4, "mood"), (3, "person")):
            if not any(s.slot == slot for s in lex.suffixes.values()):
                found.append(Diagnostic("missing_mandatory_slot", name,
                                        f"no suffix occupies mandatory slot {slot} ({name})",
                                        invariant=False))
    return found
