"""Shared test machinery: a random sequence sampler for round-trip
checks and an independent forward-enumeration oracle for the analyser.

The oracle never touches the analyser's search: it builds every valid
morph sequence over a miniature lexicon, realizes each through the
forward phonology (over every context-compatible allomorph choice), and
string-matches surfaces.  It states the surface licensing of the
zero-surface indicative on whole realizations itself, in
:func:`surface_licensing_ok`; the search checks the same licensing part
by part as it finalizes them.
"""

from __future__ import annotations

import itertools

from mapumorph.alphabet import final_kind
from mapumorph.lexicon import Lexicon, SuffixEntry
from mapumorph.morphotactics import STEM_ZONE, RootUse, validate_plan
from mapumorph.phonology import Piece, extend_realization, new_realization

MOODS_FINITE = ["IND.y", "IND1SG.n"]
MOODS_NOMINAL = ["OVN.el", "SVN.lu", "PVN.n", "IVN.m"]
DERIVATION_GROUPS = [
    ["EXP.nma"], ["CA.l", "CA.m", "OO.ye"], ["TR.tu", "FAC.ka"],
    ["PRPS.nie", "PFPS.kunu"], ["REF.w"], ["MIO.l"], ["ST.le"], ["BEN.el"],
    ["IO.nma"], ["PASS.nge"], ["TH.me"], ["LOC.pu"], ["RE.tu", "CONT.ka"],
    ["HAB.ke"], ["NEG.la"], ["FUT.a"], ["RI.fu"],
]


def build_random_sequence(rng, lexicon):
    """One random (root, sense, suffix-id list); may be invalid."""
    roots = [r for r in lexicon.iter_roots() if r.senses]
    root = rng.choice(roots)
    sense = rng.choice(root.senses)
    seq = []
    for group in DERIVATION_GROUPS:
        if rng.random() < 0.12:
            seq.append(rng.choice(group))
    agreement = None
    if rng.random() < 0.3:
        agreement = rng.choice(["AGR.fi", "AGR.e"])
        seq.append(agreement)
    if rng.random() < 0.75:
        mood = rng.choice(MOODS_FINITE)
        seq.append(mood)
        if mood == "IND.y":
            person = rng.choice(["P1.i", "P2.m", "P3.ng"])
            seq.append(person)
            if person == "P1.i" or rng.random() < 0.4:
                seq.append(rng.choice(["DL.u", "PL.un"]))
        if agreement == "AGR.e":
            seq.append(rng.choice(["A3.ew", "A1t2.0"]))
    else:
        seq.append(rng.choice(MOODS_NOMINAL))
        if rng.random() < 0.3:
            seq.append("INST.mew")
    return root, sense, seq


def build_random_plan(rng, lexicon):
    """One random item list for ``validate_plan``, usually invalid: a
    :func:`build_random_sequence` tuple whose suffixes may lose their
    tail, take up to two strays from the whole inventory and have one run
    shuffled, and whose stem may take up to three more members of any
    category."""
    root, sense, seq = build_random_sequence(rng, lexicon)
    suffixes = [lexicon.suffixes[sid] for sid in seq]
    if rng.random() < 0.1:
        del suffixes[rng.randrange(len(suffixes) + 1):]
    pool = lexicon.iter_suffixes()
    for _ in range(rng.randrange(3)):
        suffixes.insert(rng.randrange(len(suffixes) + 1), rng.choice(pool))
    if len(suffixes) > 1 and rng.random() < 0.3:
        i = rng.randrange(len(suffixes) - 1)
        j = rng.randrange(i + 2, len(suffixes) + 1)
        run = suffixes[i:j]
        rng.shuffle(run)
        suffixes[i:j] = run
    items = [RootUse(root, sense)] + suffixes
    roots = [r for r in lexicon.iter_roots() if r.senses]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        member = rng.choice(roots)
        items.insert(rng.randint(1, min(len(items), 4)),
                     RootUse(member, rng.choice(member.senses)))
    return items


def sample_valid_tuples(rng, lexicon, count, max_attempts=200_000):
    """Valid (root, sense-context, suffix-ids) tuples, rejection-sampled."""
    from mapumorph.morphotactics import validate_sequence
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("sampler failed to reach the requested count")
        root, sense, seq = build_random_sequence(rng, lexicon)
        entries = [lexicon.suffixes[sid] for sid in seq]
        if validate_sequence((root, sense.context), entries, lexicon):
            continue
        out.append((root, sense, seq))
    return out


# ---------------------------------------------------------------------------
# Forward-enumeration oracle over a miniature lexicon.

MINI_ROOT_FORMS = ["küpa", "elu", "kewa", "tüku", "af"]
MINI_SUFFIX_IDS = ["CA.m", "ST.le", "HAB.ke", "RI.fu", "IND.y", "P3.ng"]

_STEM_ONLY_CODES = {
    "CA_on_TV", "um_on_loan", "noun_incorporation", "member_needs_causative",
    "dp_member_context", "member_position", "compound_depth",
}


def build_mini_lexicon(full: Lexicon, root_forms=MINI_ROOT_FORMS,
                       suffix_ids=MINI_SUFFIX_IDS) -> Lexicon:
    """The verb roots of *root_forms* and the suffixes of *suffix_ids*."""
    return Lexicon({(form, category): entry
                    for (form, category), entry in full.roots.items()
                    if form in root_forms and category == "verb"},
                   {sid: full.suffixes[sid] for sid in suffix_ids})


def sequence_key(items):
    out = []
    for item in items:
        if isinstance(item, RootUse):
            out.append(("R", item.entry.form, item.sense.context,
                        item.sense.gloss))
        else:
            out.append(("S", item.id))
    return tuple(out)


def matching_allomorphs(suffix: SuffixEntry,
                        preceding_surface: str) -> list[str]:
    """All allomorph surfaces usable after the given realised surface."""
    kind = final_kind(preceding_surface) if preceding_surface else None
    return [a.surface for a in suffix.allomorphs_after(kind)]


def surface_licensing_ok(shaped: list[tuple[tuple[str, ...], str]]) -> bool:
    """Surface-level licensing, the oracle's statement of what the
    analyser's search checks as it finalizes each part.

    ``shaped`` is a list of (tags, surface) pairs.  The zero-surface
    indicative is licensed only in its two attested environments: fused
    into a preceding third-person-patient marker, or in the first-person
    plural ending (zero first person followed by iñ).
    """
    for i, (piece_tags, surface) in enumerate(shaped):
        if "IND" in piece_tags and surface == "":
            prev_ok = i > 0 and "3P" in shaped[i - 1][0]
            nxt = shaped[i + 1] if i + 1 < len(shaped) else ((), None)
            nxt2 = shaped[i + 2] if i + 2 < len(shaped) else ((), None)
            plural_ok = ("1" in nxt[0] and nxt[1] == ""
                         and "PL" in nxt2[0] and nxt2[1] == "iñ")
            if not (prev_ok or plural_ok):
                return False
    return True


def _all_realizations(items, lexicon, rules):
    """Every surface an item sequence can take over allomorph choices."""
    results = []

    def walk(state, index, shaped):
        if index == len(items):
            if surface_licensing_ok(shaped):
                results.append(state.surface)
            return
        item = items[index]
        if isinstance(item, RootUse):
            piece = Piece(item.entry.form, "root",
                          category=item.entry.category)
            new = extend_realization(state, piece, rules, lexicon)
            walk(new, index + 1, shaped + [((), new.parts[-1])])
        else:
            for surface in matching_allomorphs(item, state.surface):
                piece = Piece(surface, "suffix", suffix_id=item.id)
                new = extend_realization(state, piece, rules, lexicon)
                walk(new, index + 1, shaped + [((item.tag,), new.parts[-1])])

    first = items[0]
    state = extend_realization(
        new_realization(),
        Piece(first.entry.form, "root", category=first.entry.category),
        rules, lexicon)
    walk(state, 1, [((), first.entry.form)])
    return results


def _slot_chains(suffixes):
    """Every chain over *suffixes* in falling slot order, the empty one
    first; chains with two suffixes of one slot are left to validation."""
    pool = sorted(suffixes, key=lambda s: -s.slot)
    return [chain for r in range(len(pool) + 1)
            for chain in itertools.combinations(pool, r)]


def oracle_map(lexicon: Lexicon, rules, max_pieces: int = 6) -> dict[str, set]:
    """surface -> set of valid sequence keys, by forward enumeration.

    Every sequence of up to *max_pieces* morphs (stems of up to three
    members, each followed by a chain of stem-zone suffixes, then a chain
    of the other suffixes; every chain slot-descending) is validated and
    realized forward.
    """
    root_uses = [RootUse(r, s) for r in lexicon.iter_roots()
                 for s in r.senses]
    suffixes = lexicon.iter_suffixes()
    stem_chains = _slot_chains(s for s in suffixes if s.slot >= STEM_ZONE)
    tail_chains = _slot_chains(s for s in suffixes if s.slot < STEM_ZONE)

    stems: list[list] = []

    def grow(prefix, depth):
        for use in root_uses:
            for chain in stem_chains:
                stem = prefix + [use] + list(chain)
                if len(stem) > max_pieces:
                    continue
                issues = validate_plan(stem, lexicon)
                if any(v.code in _STEM_ONLY_CODES for v in issues):
                    continue
                stems.append(stem)
                if depth < 3:
                    grow(stem, depth + 1)

    grow([], 1)

    surface_to_keys: dict[str, set] = {}
    for stem in stems:
        for chain in tail_chains:
            if len(stem) + len(chain) > max_pieces:
                continue
            items = stem + list(chain)
            if validate_plan(items, lexicon):
                continue
            key = sequence_key(items)
            for surface in _all_realizations(items, lexicon, rules):
                surface_to_keys.setdefault(surface, set()).add(key)
    return surface_to_keys


# ---------------------------------------------------------------------------
# Classifier fixture corpus: analysed attested forms with their sources.

CLASSIFIER_FORMS = [
    # (word, normalized printed gloss, source)
    ("pünam", "IV.stick CA", "smeets"),
    ("pünawingün", "IV.stick REF IND 3 PL", "kona"),
    ("pünantükuley", "IV.stick TV.put ST IND 3", "kona"),
    ("pünakonküley", "IV.stick IV.enter ST IND 3", "kona"),
    ("pünantükuy", "IV.stick TV.put IND 3", "kona"),
    ("watrokawüy", "IV.split FAC REF IND 3", "smeets"),
    ("watrokay", "IV.break_split FAC IND 3", "smeets"),
    ("mongekeiñ", "IV.live HAB IND 1 PL", "kona"),
    ("mongekefiñ", "IV.live HAB 3P IND1SG", "kona"),
    ("mongelkefiiñ", "IV.heal CA HAB 3P IND 1 PL", "kona"),
    ("mongekefiiñ", "TV.revive HAB 3P IND 1 PL", "kona"),
    ("yewey", "IV.be-ashamed IND 3", "kona"),
    ("yewewaiyu", "TV.respect REF FUT IND 1 DL", "kona"),
    ("yewelkantükukeeli",
     "IV.be-ashamed CA FAC TV.put NEG INV SJI 1 SG 1t2A", "kona"),
    ("ngelmefiñ", "IV.be CA TH 3P IND1SG", "smeets"),
    ("ayekafiñ", "IV.laugh CONT 3P IND1SG", "smeets"),
    ("kewaeyew", "IV.fight INV IND 3 3A", "smeets"),
    ("kewayafiñ", "IV.fight FUT 3P IND1SG", "kona"),
    ("llükayaeyu", "IV.fear FUT INV IND 1 DL 1t2A", "smeets"),
    ("llükafi", "IV.fear 3P IND 3", "kona"),
    ("maychüfiñ", "IV.rise-hands 3P IND1SG", "smeets"),
    ("mekeaenew", "IV.get-busy FUT INV IND1SG 3A", "smeets"),
    ("mekefi", "IV.get-busy 3P IND 3", "kona"),
    ("yewekefwin", "IV.be-ashamed HAB RI+3P IND1SG", "smeets"),
]


def classifier_corpus(lexicon, rules):
    """Analyses of the attested diagnostic forms, tagged with sources."""
    import dataclasses

    from mapumorph.analyzer import analyse, gloss_render, normalize_gloss

    corpus = []
    for word, target, source in CLASSIFIER_FORMS:
        hits = [a for a in analyse(word, lexicon, rules)
                if normalize_gloss(gloss_render(a)) == target]
        if not hits:
            raise AssertionError(f"no analysis of {word!r} renders {target!r}")
        corpus.append(dataclasses.replace(hits[0], source=source))
    return corpus
