"""Corpus-driven valency inference for verbal roots.

The hard diagnostics mirror how valency surfaces in the morphology: a
causative attaching directly to a root proves the root can be used
intransitively, and a person-agreement marker with no valency-increasing
suffix in between proves a transitive use.  Stative and habitual
co-occurrence are tallied as soft features only; they are recorded in
the rationale and never decide a verdict.  Roots inside verbal compounds
contribute no evidence (compound valency comes from the later member, so
nothing about the inner root follows).

Discrepancies between sources resolve by prioritising the intransitive
reading (transitivisation is overtly marked, intransitivity may be
unmarked), and a labile verdict absorbs single-valency ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .analyzer import Analysis
from .lexicon import Lexicon


@dataclass
class Evidence:
    root: str
    iv_hits: int = 0
    tv_hits: int = 0
    kle_hits: int = 0
    ke_tv_hits: int = 0
    sources: Counter = field(default_factory=Counter)

    def add(self, other: "Evidence") -> "Evidence":
        merged = Evidence(self.root, self.iv_hits + other.iv_hits,
                          self.tv_hits + other.tv_hits,
                          self.kle_hits + other.kle_hits,
                          self.ke_tv_hits + other.ke_tv_hits,
                          self.sources + other.sources)
        return merged


@dataclass(frozen=True)
class Verdict:
    label: str
    rationale: tuple[str, ...] = ()
    discrepancy: tuple[tuple[str, str], tuple[str, str]] | None = None


def _analysis_hits(analysis: Analysis,
                   root: str) -> tuple[bool, bool, bool, bool] | None:
    """(iv, tv, kle, ke_tv) hit flags for an analysis whose only root
    piece is *root*; None for any other analysis."""
    iv_hit = tv_hit = decided = increased = rooted = False
    agreement = stative = habitual = False
    for i, piece in enumerate(analysis.pieces):
        if piece.kind != "suffix":
            if piece.kind == "root":
                if rooted or piece.morph != root:
                    return None
                rooted = True
            continue
        if i == 1 and "CA" in piece.tags:
            state_at_root = analysis.trace[0][1] if analysis.trace else "IV"
            iv_hit = state_at_root == "IV"
        if "3P" in piece.tags or "INV" in piece.tags:
            agreement = True
            if i and not decided:  # first agreement after the root
                tv_hit, decided = not increased, True
        elif i and piece.effect == "increase":
            increased = True
        stative = stative or "ST" in piece.tags
        habitual = habitual or "HAB" in piece.tags
    if not rooted:
        return None
    return (iv_hit, tv_hit, stative, agreement and habitual)


def collect_evidence(root: str, corpus: list[Analysis]) -> Evidence:
    """Tally diagnostic hits for one root over analysed forms.

    An analysis contributes at most one hit per category; compound forms
    contribute nothing.
    """
    evidence = Evidence(root)
    for analysis in corpus:
        hits = _analysis_hits(analysis, root)
        if hits is None:
            continue
        iv_hit, tv_hit, kle_hit, ke_tv_hit = hits
        evidence.iv_hits += int(iv_hit)
        evidence.tv_hits += int(tv_hit)
        evidence.kle_hits += int(kle_hit)
        evidence.ke_tv_hits += int(ke_tv_hit)
        evidence.sources[analysis.source or "unknown"] += 1
    return evidence


def classify(evidence: Evidence, threshold: int = 1) -> Verdict:
    """Verdict from tallied evidence; soft features never decide."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    iv = evidence.iv_hits >= threshold
    tv = evidence.tv_hits >= threshold
    rationale = []
    if evidence.iv_hits:
        rationale.append(f"causative on root x{evidence.iv_hits}")
    if evidence.tv_hits:
        rationale.append(f"bare agreement x{evidence.tv_hits}")
    if evidence.kle_hits:
        rationale.append(f"stative (soft) x{evidence.kle_hits}")
    if evidence.ke_tv_hits:
        rationale.append(f"habitual with agreement (soft) x{evidence.ke_tv_hits}")
    if iv and tv:
        label = "labile"
    elif iv:
        label = "IV"
    elif tv:
        label = "TV"
    else:
        label = "undetermined"
    return Verdict(label, tuple(rationale))


def reconcile(a: tuple[str, Verdict], b: tuple[str, Verdict]) -> Verdict:
    """Merge two per-source verdicts for the same root.

    Equal labels pass through; labile absorbs any single label;
    undetermined defers to the other side; an IV/TV disagreement resolves
    to IV with the discrepancy recorded.
    """
    (source_a, verdict_a), (source_b, verdict_b) = a, b
    rationale = verdict_a.rationale + verdict_b.rationale
    discrepancy = verdict_a.discrepancy or verdict_b.discrepancy
    la, lb = verdict_a.label, verdict_b.label
    if la == lb:
        label = la
    elif la == "undetermined":
        label = lb
    elif lb == "undetermined":
        label = la
    elif "labile" in (la, lb):
        label = "labile"
    else:  # IV vs TV
        label = "IV"
        discrepancy = ((source_a, la), (source_b, lb))
    return Verdict(label, rationale, discrepancy)


def classify_corpus(corpus: list[Analysis], lexicon: Lexicon | None = None,
                    threshold: int = 1) -> dict[str, tuple[Verdict, Evidence]]:
    """Full pipeline: per-source evidence, reconciliation, assertions.

    Verdicts are reconciled across corpus sources in sorted source order,
    then against the lexicon's own valency assertion (labile entries with
    no corpus attestation still get a row; unknown-valency entries assert
    nothing).  A *threshold* below 1 raises ValueError, whatever the
    corpus holds.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    # root -> source -> its single-root analyses, grouped in one pass
    groups: dict[str, dict[str, list[Analysis]]] = {}
    for analysis in corpus:
        pieces = analysis.root_pieces
        if len(pieces) == 1:
            groups.setdefault(pieces[0].morph, {}).setdefault(
                analysis.source or "unknown", []).append(analysis)

    asserted: dict[str, str] = {}
    if lexicon is not None:
        for entry in lexicon.iter_roots():
            if entry.category == "verb" and entry.valency == "labile":
                asserted.setdefault(entry.form, "labile")
                groups.setdefault(entry.form, {})
            elif entry.category == "verb" and entry.valency in ("TV", "IV"):
                asserted.setdefault(entry.form, entry.valency)

    table: dict[str, tuple[Verdict, Evidence]] = {}
    for root in sorted(groups):
        total = Evidence(root)
        verdict: tuple[str, Verdict] | None = None
        for source, group in sorted(groups[root].items()):
            evidence = collect_evidence(root, group)
            total = total.add(evidence)
            per_source = (source, classify(evidence, threshold))
            verdict = per_source if verdict is None \
                else (source, reconcile(verdict, per_source))
        if verdict is None:
            verdict = ("corpus", Verdict("undetermined"))
        if root in asserted:
            final = reconcile(verdict, ("lexicon", Verdict(asserted[root])))
        else:
            final = verdict[1]
        table[root] = (final, total)
    return table


def render_table(table: dict[str, tuple[Verdict, Evidence]]) -> str:
    """TSV rows: root, label, iv_hits, tv_hits, discrepancy."""
    lines = []
    for root in sorted(table):
        verdict, evidence = table[root]
        if verdict.discrepancy:
            (sa, la), (sb, lb) = verdict.discrepancy
            disc = f"{sa}:{la}|{sb}:{lb}"
        else:
            disc = "-"
        lines.append("\t".join([root, verdict.label, str(evidence.iv_hits),
                                str(evidence.tv_hits), disc]))
    return "\n".join(lines) + ("\n" if lines else "")
