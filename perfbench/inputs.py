"""Seeded input generators owned by the benchmark.

Everything here is a pure function of the seed and the package's public
tables, so the workloads do not move when the test helpers change.  The
package is called only while inputs are prepared (``validate_sequence`` to
keep valid tuples, ``generate`` to turn them into words), never while the
benchmark times or traces it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Share of near-miss probes among the words drawn for the analyse stream.
PROBE_SHARE = 0.2
# Share of generate inputs that are invalid by construction.
INVALID_SHARE = 0.2
# Classify corpus: lines per corpus, sources, share of repeated lines.
CORPUS_LINES = 1000
CORPUS_SOURCES = ("smeets", "kona", "augusta")
REPEAT_SHARE = 0.1

# Inclusion probability of a suffix slot when sampling a tuple.  Slots
# 7 and up are derivational; 6 is object agreement; 4 mood; 3 person;
# 2 number; 1 agent or case.
_SLOT_PROBABILITY = {6: 0.3, 4: 0.9, 3: 0.6, 2: 0.4, 1: 0.25}
_DERIVATIONAL_PROBABILITY = 0.12

# Single letters of the alphabet, for appended-character probes.
_LETTERS = "adefgiklmnñoprstuüwy"


def read_tsv(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            rows.append(line.split("\t"))
    return rows


def _sample_tuple(rng, roots, by_slot):
    root = rng.choice(roots)
    sense = rng.choice(root.senses)
    seq = []
    for slot in sorted(by_slot, reverse=True):
        p = _SLOT_PROBABILITY.get(slot, _DERIVATIONAL_PROBABILITY)
        if rng.random() < p:
            seq.append(rng.choice(by_slot[slot]))
    return root, sense, seq


def valid_tuples(rng, lexicon):
    """Endless stream of valid (RootEntry, Sense, suffix ids), by rejection."""
    from mapumorph.morphotactics import validate_sequence

    roots = [r for r in lexicon.iter_roots() if r.senses]
    by_slot: dict[int, list[str]] = {}
    for entry in lexicon.iter_suffixes():
        by_slot.setdefault(entry.slot, []).append(entry.id)
    while True:
        root, sense, seq = _sample_tuple(rng, roots, by_slot)
        entries = [lexicon.suffixes[sid] for sid in seq]
        if not validate_sequence((root, sense.context), entries, lexicon):
            yield root, sense, seq


def break_order(rng, lexicon, seq):
    """Swap two adjacent suffixes of different slots, or None if none.

    Suffix slots must strictly decrease, so the swapped pair breaks the
    template whatever else the sequence holds: invalid by construction.
    """
    pairs = [i for i in range(len(seq) - 1)
             if lexicon.suffixes[seq[i]].slot != lexicon.suffixes[seq[i + 1]].slot]
    if not pairs:
        return None
    i = rng.choice(pairs)
    out = list(seq)
    out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _is_alphabet(word):
    i = 0
    while i < len(word):
        if word[i:i + 2] in ("ch", "ll", "ng", "sh", "tr"):
            i += 2
        elif word[i] in _LETTERS:
            i += 1
        else:
            return False
    return True


def near_miss(rng, word):
    """The word with its last character dropped, or one letter appended."""
    if rng.random() < 0.5 and len(word) > 2 and _is_alphabet(word[:-1]):
        return word[:-1]
    return word + rng.choice(_LETTERS)


def gloss_corpus(root: Path):
    """(word, printed gloss) rows of the shipped attested-form corpus."""
    rows = read_tsv(root / "tests" / "data" / "gloss_corpus.tsv")
    return [(r[0], r[1]) for r in rows]


# Word cost grows with length, so the analyse stream is emitted in rounds
# with a fixed length mix: (longest length of the class, words per round).
# A run then analyses the same mix whatever the seed.
GENERATED_ROUND = ((7, 3), (9, 3), (11, 3), (13, 3), (16, 3), (None, 1))
PROBE_ROUND = ((7, 1), (10, 1), (13, 1), (None, 1))
_QUEUE_CAP = 64


def _length_class(pattern, word):
    for i, (longest, _) in enumerate(pattern):
        if longest is None or len(word) <= longest:
            return i


def analyse_stream(seed, root, lexicon, rules):
    """The analyse input stream: dicts with ``word``, ``kind`` and a reference.

    Every gloss-corpus word comes first, in seeded order.  Then, without
    end, rounds of generated words (GENERATED_ROUND) and near-miss probes
    (PROBE_ROUND), shuffled within the round: probes are 4 of every 20
    words.  All words are distinct.  ``kind`` is ``gloss`` (reference: the
    printed gloss), ``generated`` (reference: the generating tuple) or
    ``probe``.
    """
    from mapumorph.analyzer import generate

    rng = random.Random(f"analyse-{seed}")
    items = [{"word": w, "kind": "gloss", "gloss": g}
             for w, g in gloss_corpus(root)]
    rng.shuffle(items)
    yield from items
    seen = {it["word"] for it in items}
    tuples = valid_tuples(rng, lexicon)
    patterns = {"generated": GENERATED_ROUND, "probe": PROBE_ROUND}
    queues = {(kind, i): [] for kind, pattern in patterns.items()
              for i in range(len(pattern))}
    quota = {(kind, i): count for kind, pattern in patterns.items()
             for i, (_, count) in enumerate(pattern)}
    while True:
        while any(len(queues[k]) < n for k, n in quota.items()):
            rootent, sense, seq = next(tuples)
            word = generate(rootent, sense.context, seq, lexicon, rules)
            if rng.random() < PROBE_SHARE:
                word = near_miss(rng, word)
                item = {"word": word, "kind": "probe"}
            else:
                item = {"word": word, "kind": "generated",
                        "root": rootent.form, "sense": sense.context,
                        "suffixes": seq}
            if word in seen:
                continue
            seen.add(word)
            queue = queues[item["kind"], _length_class(patterns[item["kind"]], word)]
            if len(queue) < _QUEUE_CAP:
                queue.append(item)
        batch = []
        for key, n in quota.items():
            batch += queues[key][:n]
            del queues[key][:n]
        rng.shuffle(batch)
        yield from batch


def generate_items(seed, lexicon, count):
    """Generate inputs: dicts with ``index``, ``root`` (a RootEntry),
    ``sense``, ``suffixes`` and ``valid``; INVALID_SHARE of them are
    invalid."""
    rng = random.Random(f"generate-{seed}")
    tuples = valid_tuples(rng, lexicon)
    items = []
    while len(items) < count:
        rootent, sense, seq = next(tuples)
        valid = True
        if rng.random() < INVALID_SHARE:
            broken = break_order(rng, lexicon, seq)
            if broken is None:
                continue
            seq, valid = broken, False
        items.append({"index": len(items), "root": rootent,
                      "sense": sense.context, "suffixes": seq, "valid": valid})
    return items


def _valency_step(state, effect):
    if effect == "increase":
        return {"IV": "TV", "TV": "TV2", "TV2": "TV2"}[state]
    if effect == "decrease":
        return {"IV": "IV", "TV": "IV", "TV2": "TV"}[state]
    return state


def analysis_json(rootent, sense, seq, lexicon, source):
    """One analysis in the ``analyse --format json-lines`` shape, built
    from the tables: pieces carry their underlying first-listed surfaces."""
    pieces = [{"span": [0, len(rootent.form)], "kind": "root",
               "morph": rootent.form, "surface": rootent.form,
               "tags": [sense.context], "gloss": sense.gloss,
               "category": rootent.category, "sense_context": sense.context,
               "effect": None, "slot": None, "fused_with_prev": False}]
    trace = [[rootent.form, sense.context]]
    gloss = [f"{sense.context}.{sense.gloss}"]
    state, pos, word = sense.context, len(rootent.form), rootent.form
    for sid in seq:
        entry = lexicon.suffixes[sid]
        surface = entry.allomorphs[0].surface
        pieces.append({"span": [pos, pos + len(surface)], "kind": "suffix",
                       "morph": sid, "surface": surface, "tags": [entry.tag],
                       "gloss": None, "category": None, "sense_context": None,
                       "effect": entry.valency_effect, "slot": entry.slot,
                       "fused_with_prev": False})
        pos += len(surface)
        word += surface
        state = _valency_step(state, entry.valency_effect)
        trace.append([sid, state])
        gloss.append(f"+{entry.tag}")
    return {"word": word, "gloss": " ".join(gloss), "pieces": pieces,
            "trace": trace, "stem_valency": None, "source": source}


def diagnostic_hits(sense, seq, lexicon):
    """(iv, tv) hits of one single-root tuple, by the two diagnostics:
    a causative right after an intransitive root, and person agreement
    with no valency-increasing suffix before it."""
    tags = [lexicon.suffixes[sid].tag for sid in seq]
    iv = bool(tags) and tags[0] == "CA" and sense.context == "IV"
    tv = False
    for sid, tag in zip(seq, tags):
        if tag in ("3P", "INV"):
            tv = True
            break
        if lexicon.suffixes[sid].valency_effect == "increase":
            break
    return iv, tv


def classify_corpora(seed, lexicon, n_corpora):
    """JSON-lines corpora for ``classify`` with their expected tallies.

    Returns a list of (lines, line count, tally) where tally maps each root
    form to its [iv, tv] hit counts.  REPEAT_SHARE of the lines repeat an
    earlier line of the same corpus verbatim.
    """
    rng = random.Random(f"classify-{seed}")
    tuples = valid_tuples(rng, lexicon)
    corpora = []
    for _ in range(n_corpora):
        lines, hits, tally = [], [], {}
        while len(lines) < CORPUS_LINES:
            if lines and rng.random() < REPEAT_SHARE:
                k = rng.randrange(len(lines))
                lines.append(lines[k])
                hits.append(hits[k])
                continue
            rootent, sense, seq = next(tuples)
            source = rng.choice(CORPUS_SOURCES)
            data = analysis_json(rootent, sense, seq, lexicon, source)
            lines.append(json.dumps(data, ensure_ascii=False,
                                    sort_keys=True) + "\n")
            hits.append((rootent.form, diagnostic_hits(sense, seq, lexicon)))
        for form, (iv, tv) in hits:
            row = tally.setdefault(form, [0, 0])
            row[0] += iv
            row[1] += tv
        corpora.append((lines, len(lines), tally))
    return corpora
