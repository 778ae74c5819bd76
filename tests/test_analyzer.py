import dataclasses
import gc
import random
import sys
import threading

import pytest

from mapumorph import analyzer, morphotactics
from mapumorph.alphabet import (DIGRAPHS, SINGLE_LETTERS, AlphabetError,
                                final_segment)
from mapumorph.analyzer import (GenerationError, analyse, generate,
                                gloss_render, gloss_set, normalize_gloss)
from mapumorph.defaults import data_path
from mapumorph.lexicon import Lexicon, RootEntry, Sense
from mapumorph.morphotactics import (OPEN_FLOOR, STEM_ZONE, RootUse, advance,
                                     end_codes, next_floor, start_fold,
                                     tags_below, validate_plan)
from mapumorph.phonology import Realization, extend_realization, load_rules

import helpers
from conftest import DATA, load_gloss_corpus
from helpers import (build_mini_lexicon, build_random_plan, oracle_map,
                     sample_valid_tuples)

GOLDEN_WORDS = (DATA / "golden" / "words.txt").read_text(
    encoding="utf-8").split()


def glosses(word, lexicon=None, rules=None):
    return gloss_set(analyse(word, lexicon, rules))


def run_in_threads(work, count, timeout=120):
    """Run ``work(k)`` for k < *count* in threads that switch as often as
    the interpreter allows, and wait for them all."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestAnalyse:
    def test_simple_causative_form(self):
        assert "IV.come +CA +IND1SG" in {
            gloss_render(a) for a in analyse("küpalün")}

    def test_persistent_on_causativised_root(self):
        assert "IV.get-together +CA +PRPS +IND +3" in {
            gloss_render(a) for a in analyse("ngülümniey")}

    def test_unknown_character_is_an_error(self):
        with pytest.raises(AlphabetError):
            analyse("xyz")

    def test_decomposed_umlaut_analyses_as_composed(self):
        decomposed = "ku\u0308pan"
        assert decomposed != "küpan"
        found = analyse(decomposed)
        assert found and [a.to_json() for a in found] == [
            a.to_json() for a in analyse("küpan")]

    def test_uppercase_is_an_unknown_character(self):
        with pytest.raises(AlphabetError) as err:
            analyse("Küpan")
        assert err.value.char == "K"

    def test_no_parse_is_empty_list(self):
        assert analyse("kkkk") == []

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            analyse("")

    def test_results_are_sorted_and_deterministic(self):
        first = analyse("küpalün")
        second = analyse("küpalün")
        assert [a.key() for a in first] == [a.key() for a in second]
        assert [a.score for a in first] == sorted(a.score for a in first)

    def test_fused_agreement_form(self):
        # -fi with the indicative folded into it, both tags kept
        assert "IV.fear +3P +IND +3" in {
            gloss_render(a) for a in analyse("llükafi")}

    def test_spans_concatenate_to_word(self):
        for analysis in analyse("mongelkefiiñ"):
            rebuilt = "".join(p.surface for p in analysis.pieces)
            assert rebuilt == analysis.word
            assert analysis.pieces[0].start == 0
            assert analysis.pieces[-1].end == len(analysis.word)


@pytest.mark.parametrize("word,gloss,source", load_gloss_corpus(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_gloss_corpus_reproduced(word, gloss, source):
    assert normalize_gloss(gloss) in glosses(word)


class TestAmbiguity:
    def test_three_readings_of_the_fal_tail(self):
        expected = {
            normalize_gloss("TV.say +DP.this -CR.TV +ST +IND +2 +PL"),
            normalize_gloss("TV.say +FORCE +INV +IND +2 +PL +1t2A"),
            normalize_gloss("TV.say +DP.this -CR.TV +CA +INV +IND +2 +PL +1t2A"),
        }
        assert glosses("pifaleymün") == expected

    def test_experimentative_and_indirect_object_both_emitted(self):
        found = glosses("anüñmay")
        assert "IV.sit EXP IND 3" in found
        assert "IV.sit IO IND 3" in found

    def test_word_final_fal_readings(self):
        found = glosses("ifal")
        assert "TV.eat ADJDO" in found
        assert "TV.eat DP.this CA NOM" in found

    def test_intransitive_stem_excludes_doable_reading(self):
        found = glosses("allküfal")
        assert "IV.hear DP.this CA NOM" in found
        assert not any("ADJDO" in g or "FORCE" in g for g in found)

    def test_adding_a_root_never_removes_analyses(self, lexicon):
        words = ["küpalün", "mongekefiñ", "pifaleymün"]
        before = {w: {a.key() for a in analyse(w, lexicon)} for w in words}
        extra = RootEntry("küpal", "verb", "IV", (Sense("IV", "novel"),))
        bigger = Lexicon({**lexicon.roots, ("küpal", "verb"): extra},
                         dict(lexicon.suffixes))
        for word in words:
            after = {a.key() for a in analyse(word, bigger)}
            assert before[word] <= after

    def test_compound_label_can_differ_from_the_fold(self):
        # The -CR label reads the labile root aye as IV whatever its
        # sense, while validate_plan's fold stays TV after every piece.
        # The printed label is pinned here: deriving it from the fold
        # would change this output.
        found = [a for a in analyse("ayefalen") if gloss_render(a)
                 == "TV.laugh-at +DP.this -CR.IV +ST +IND1SG"]
        assert len(found) == 1
        assert found[0].stem_valency == "IV"
        assert {state for _, state in found[0].trace} == {"TV"}


class TestSharedTables:
    """The search tables are built once per (lexicon, rules) and shared
    by every analyse call with them."""

    def test_one_rule_table_serves_two_lexicons(self, lexicon, rules):
        extra = RootEntry("küpal", "verb", "IV", (Sense("IV", "novel"),))
        bigger = Lexicon({**lexicon.roots, ("küpal", "verb"): extra},
                         dict(lexicon.suffixes))
        assert "IV.novel IND1SG" not in glosses("küpalün", lexicon, rules)
        assert "IV.novel IND1SG" in glosses("küpalün", bigger, rules)
        assert "IV.novel IND1SG" not in glosses("küpalün", lexicon, rules)

    def test_tables_are_built_once_per_lexicon(self, lexicon, monkeypatch):
        rules = load_rules(data_path("rules.tsv"))
        grammar = analyzer._Grammar
        built = []

        def counting(*args):
            built.append(args)
            return grammar(*args)

        monkeypatch.setattr(analyzer, "_Grammar", counting)
        for word in ("küpalün", "pünamün", "küpalün", "kkkk"):
            analyse(word, lexicon, rules)
        assert len(built) == 1
        analyse("küpalün", Lexicon(dict(lexicon.roots),
                                   dict(lexicon.suffixes)), rules)
        assert len(built) == 2

    def test_threads_sharing_the_tables_get_the_serial_results(self, lexicon):
        rules = load_rules(data_path("rules.tsv"))
        words = ["pünamün", "küpalün", "mongelkefiiñ", "pifaleymün", "kkkk",
                 "yewekefwin", "llükafi"]
        expected = [[a.to_json() for a in analyse(w, lexicon)] for w in words]
        got = {}

        def work(k):
            got[k] = [[a.to_json() for a in analyse(w, lexicon, rules)]
                      for w in words[k % len(words):] + words[:k % len(words)]]

        run_in_threads(work, 4, timeout=60)
        for k in range(4):
            shift = k % len(words)
            assert got[k] == expected[shift:] + expected[:shift], k


# Roots and suffixes of a second oracle lexicon: RI.fu fuses with AGR.fi
# and AGR.e, tu and püra take an epenthetic n/ñ as later compound
# members, and llüka is labile.
FUSION_ROOT_FORMS = ["püra", "tu", "llüka", "elu"]
FUSION_SUFFIX_IDS = ["CA.m", "RI.fu", "AGR.fi", "AGR.e", "IND.y",
                     "IND1SG.n", "P3.ng", "A3.ew"]


def test_oracle_equivalence_with_fusion_and_epenthesis(lexicon, rules):
    """analyse matches forward enumeration on accepted and rejected
    strings over a mini lexicon whose boundaries fuse and epenthesise."""
    mini = build_mini_lexicon(lexicon, FUSION_ROOT_FORMS, FUSION_SUFFIX_IDS)
    assert len(mini.roots) == 4 and len(mini.suffixes) == 8
    surface_map = oracle_map(mini, rules, max_pieces=5)

    mismatches = []
    fused = epenthetic = 0
    for surface, keys in sorted(surface_map.items()):
        found = [a for a in analyse(surface, mini, rules)
                 if len(a.pieces) <= 5]
        if {a.key() for a in found} != keys:
            mismatches.append((surface, keys ^ {a.key() for a in found}))
        pieces = [p for a in found for p in a.pieces]
        fused += any(p.fused_with_prev for p in pieces)
        epenthetic += any(p.kind == "root" and p.surface != p.morph
                          for p in pieces)
    assert not mismatches, mismatches[:5]
    assert fused and epenthetic, (fused, epenthetic)

    probe_rng = random.Random(9)
    probes = set()
    for surface in probe_rng.sample(sorted(surface_map), 400):
        probes.update({surface[:-1], surface + "a", surface + "m"})
    rejected = 0
    for probe in sorted(p for p in probes if p):
        got = {a.key() for a in analyse(probe, mini, rules)
               if len(a.pieces) <= 5}
        expected = surface_map.get(probe, set())
        assert got == expected, probe
        rejected += not expected
    assert rejected > 0


def test_oracle_equivalence_with_a_mood_in_the_stem_zone(lexicon, rules):
    """analyse matches forward enumeration when the slots are not the
    shipped ones: the indicative sits in the stem zone, so a compound
    member may follow it, and person marking sits above it, so a
    finite form gets its person only from a later member's suffixes."""
    mini = build_mini_lexicon(lexicon, ["küpa", "elu"],
                              ["CA.m", "IND.y", "P3.ng"])
    slots = {"IND.y": 35, "P3.ng": 36}
    mini = Lexicon(dict(mini.roots), {
        sid: dataclasses.replace(entry, slot=slots.get(sid, entry.slot))
        for sid, entry in mini.suffixes.items()})
    surface_map = oracle_map(mini, rules, max_pieces=5)
    probe_rng = random.Random(9)
    probes = set()
    for surface in probe_rng.sample(sorted(surface_map), 400):
        probes.update({surface[:-1], surface + "a", surface + "m"})
    mismatches = []
    for word in sorted(set(surface_map) | {p for p in probes if p}):
        found = {a.key() for a in analyse(word, mini, rules)
                 if len(a.pieces) <= 5}
        if found != surface_map.get(word, set()):
            mismatches.append((word, found ^ surface_map.get(word, set())))
    assert not mismatches, mismatches[:5]
    reopened = [key for keys in surface_map.values() for key in keys
                if ("S", "IND.y") in key[1:-1] and key[-1] == ("S", "P3.ng")
                and ("R", "elu", "TV", "give") in key[2:]]
    assert reopened


def plan_of(analysis, lexicon):
    """The validate_plan items and the surface licensing shape of
    *analysis*."""
    items, shaped = [], []
    for piece in analysis.pieces:
        if piece.kind == "root":
            entry = lexicon.roots[(piece.morph, piece.category)]
            items.append(RootUse(entry, next(
                s for s in entry.senses if s.context == piece.sense_context
                and s.gloss == piece.gloss)))
            shaped.append(((), piece.surface))
        else:
            items.append(lexicon.suffixes[piece.morph])
            shaped.append(((items[-1].tag,), piece.surface))
    return items, shaped


def test_analyses_pass_the_plan_and_licensing_oracles(lexicon, monkeypatch):
    """The search is the only judge at run time: over the golden words it
    calls neither validate_plan nor the licensing oracle, and each of its
    analyses is a plan validate_plan accepts, with the same trace, whose
    surfaces the oracle licenses."""
    calls = []

    def counting(judge):
        def wrapper(*args):
            calls.append(judge.__name__)
            return judge(*args)
        return wrapper

    for module, name in ((analyzer, "validate_plan"),
                         (morphotactics, "validate_plan"),
                         (helpers, "surface_licensing_ok")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    found = [a for word in GOLDEN_WORDS for a in analyse(word)]
    assert len(found) == 1007 and not calls
    monkeypatch.undo()
    for analysis in found:
        items, shaped = plan_of(analysis, lexicon)
        trace = []
        assert validate_plan(items, lexicon, trace) == [], analysis.word
        assert tuple(trace) == analysis.trace, analysis.word
        assert helpers.surface_licensing_ok(shaped), analysis.word


def test_search_is_complete_on_a_sample_of_accepted_plans(lexicon, rules):
    """Every plan validate_plan accepts is found: a seeded sample of
    single-root plans, 250 each with one to four suffixes in slot order,
    each generates a word that analyses back to it, with its trace."""
    rng = random.Random(13)
    roots = [r for r in lexicon.iter_roots() if r.senses]
    suffixes = lexicon.iter_suffixes()
    quota = dict.fromkeys(range(1, 5), 250)
    while quota:
        entry = rng.choice(roots)
        sense = rng.choice(entry.senses)
        size = rng.choice(list(quota))
        chain = sorted(rng.sample(suffixes, size), key=lambda s: -s.slot)
        items = [RootUse(entry, sense)] + chain
        trace = []
        if validate_plan(items, lexicon, trace):
            continue
        ids = [s.id for s in chain]
        word = generate(entry, sense.context, ids, lexicon, rules)
        hits = [a for a in analyse(word, lexicon, rules)
                if a.matches(entry.form, sense.context, ids)
                and a.root_pieces[0].gloss == sense.gloss]
        assert hits and hits[0].trace == tuple(trace), (entry.form, ids, word)
        quota[size] -= 1
        if not quota[size]:
            del quota[size]


def test_search_leaves_no_cyclic_garbage(lexicon):
    words = ["küpalün", "pifaleymün", "kkkk", "mongelkefiiñ"]
    for word in words:
        analyse(word, lexicon)
    gc.collect()
    gc.disable()
    try:
        for word in words:
            analyse(word, lexicon)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def warm(lexicon):
    """A rule table of its own and its grammar, with the tables filled by
    the golden words."""
    rules = load_rules(data_path("rules.tsv"))
    for word in GOLDEN_WORDS:
        analyse(word, lexicon, rules)
    return rules, rules.for_lexicon(lexicon, analyzer._Grammar)


class TestTransitionTable:
    """The grammar's morphotactic transition table, over folds and over
    the sets of folds a search step carries, filled by the golden words on
    a grammar of its own."""

    def test_every_filled_entry_is_the_direct_fold(self, warm):
        _, grammar = warm
        below = tags_below(grammar.lexicon)
        tables = {"suffix": grammar.suffix_table,
                  "member": grammar.member_table}
        checked = dict.fromkeys(tables, 0)
        for name, table in tables.items():
            for column, (item, follow) in enumerate(table.columns):
                if name == "member":
                    assert isinstance(item, RootUse)
                    closed = column % 2
                    assert follow == (below[OPEN_FLOOR] if closed else None)
                elif column < len(grammar.lexicon.suffixes):
                    assert follow == below[next_floor(item)]
                else:
                    assert follow is None and item.slot >= STEM_ZONE
            for fid, row in enumerate(table.rows):
                if grammar.folds[fid] is None:  # a set of folds
                    continue
                for column, new in enumerate(row):
                    if new == analyzer._UNKNOWN:
                        continue
                    item, follow = table.columns[column]
                    fold, codes = advance(grammar.folds[fid], item)
                    assert new == (
                        analyzer._DEAD if codes or end_codes(fold, follow)
                        else grammar.fold_ids[fold]), (name, fid, column)
                    checked[name] += 1
        assert checked["suffix"] > 3000 and checked["member"] > 500, checked

    def test_every_filled_set_entry_unites_its_folds_entries(self, warm):
        _, grammar = warm
        folds, sets = grammar.folds, grammar.sets
        assert len(grammar.set_ids) == len(sets) > 100
        for sid, key in sets.items():
            assert folds[sid] is None and grammar.set_ids[key] == sid
            assert len(key) > 1 and list(key) == sorted(set(key))
            assert all(folds[fid] is not None for fid in key)

        def direct(fid, column, table):
            item, follow = table.columns[column]
            fold, codes = advance(folds[fid], item)
            return (None if codes or end_codes(fold, follow)
                    else grammar.fold_ids[fold])

        checked = dict.fromkeys(("suffix", "group"), 0)
        for name, table in (("suffix", grammar.suffix_table),
                            ("group", grammar.group_table)):
            under = table.under or table
            for sid, row in enumerate(table.rows):
                if name == "suffix" and sid not in sets:
                    continue  # a fold: the direct-fold test checks it
                for column, new in enumerate(row):
                    if new == analyzer._UNKNOWN:
                        continue
                    columns = (table.columns[column] if table.under
                               else (column,))
                    live = {direct(fid, c, under)
                            for fid in sets.get(sid, (sid,))
                            for c in columns} - {None}
                    key = tuple(sorted(live))
                    assert new == (analyzer._DEAD if not key else key[0]
                                   if len(key) == 1
                                   else grammar.set_ids[key]), (name, sid)
                    checked[name] += 1
        assert checked["suffix"] > 400 and checked["group"] > 600, checked

    def test_a_suffix_folds_alike_under_every_floor_above_its_slot(
            self, lexicon):
        # the search tries a suffix only below the floor, so the table
        # may leave the floor out of its key
        rng = random.Random(10)
        checked = 0
        for _ in range(400):
            plan = build_random_plan(rng, lexicon)
            fold = start_fold(plan[0])
            for item in plan[1:]:
                if not isinstance(item, RootUse):
                    moved = advance(fold, item)
                    for floor in range(item.slot + 1, OPEN_FLOOR):
                        assert advance(fold, item, floor) == moved
                        checked += 1
                fold = advance(fold, item)[0]
        assert checked > 10_000

    def test_a_warm_grammar_computes_no_transition(self, warm, lexicon,
                                                   monkeypatch):
        rules, grammar = warm
        n_folds = len(grammar.folds)
        tables = (grammar.suffix_table, grammar.member_table,
                  grammar.group_table)
        filled = [[bytes(row) for row in table.rows] for table in tables]
        calls = []

        def counting(*args):
            calls.append(args)
            return advance(*args)

        monkeypatch.setattr(analyzer, "advance", counting)
        for word in GOLDEN_WORDS:
            analyse(word, lexicon, rules)
        assert not calls
        assert len(grammar.folds) == n_folds
        assert [[bytes(row) for row in table.rows]
                for table in tables] == filled

    def test_folds_beyond_a_rows_reach_are_recomputed(self, lexicon,
                                                      monkeypatch):
        words = GOLDEN_WORDS[::8]
        expected = [analyse(word, lexicon) for word in words]
        monkeypatch.setattr(analyzer, "_ROW_MAX", 20)
        rules = load_rules(data_path("rules.tsv"))
        assert [analyse(word, lexicon, rules) for word in words] == expected
        grammar = rules.for_lexicon(lexicon, analyzer._Grammar)
        assert len(grammar.folds) > 20
        assert all(max(row) <= 20
                   for table in (grammar.suffix_table, grammar.member_table,
                                 grammar.group_table)
                   for row in table.rows)

    def test_threads_filling_a_cold_table_get_the_serial_results(
            self, lexicon):
        expected = [analyse(word, lexicon) for word in GOLDEN_WORDS]
        rules = load_rules(data_path("rules.tsv"))
        got = {}

        def work(k):
            shift = k * len(GOLDEN_WORDS) // 4
            words = GOLDEN_WORDS[shift:] + GOLDEN_WORDS[:shift]
            got[k] = [analyse(word, lexicon, rules) for word in words]

        run_in_threads(work, 4)
        for k in range(4):
            shift = k * len(GOLDEN_WORDS) // 4
            assert got[k] == expected[shift:] + expected[:shift], k
        # each fold and each set of folds got one number
        grammar = rules.for_lexicon(lexicon, analyzer._Grammar)
        assert len(grammar.fold_ids) + len(grammar.set_ids) == len(
            grammar.folds)
        assert {sid: key for key, sid in grammar.set_ids.items()} \
            == grammar.sets
        assert all(grammar.fold_ids[fold] == fid
                   for fid, fold in enumerate(grammar.folds)
                   if fid not in grammar.sets)


# Surfaces to put before a pending part: every segment alone and after a
# vowel, and runs of the letters that begin a digraph, which
# final_segment reads back through.
SEGMENTS = sorted(SINGLE_LETTERS) + list(DIGRAPHS)
HEADS = [""] + SEGMENTS + ["a" + s for s in SEGMENTS] + [
    "nn", "ll", "lll", "ann", "all", "alll", "nng", "lng", "ntr", "ltr",
    "nch", "lch", "nsh", "tch"]

# Rules put before the shipped ones whose rewrites of the pending part let
# the surface before it decide the new final segment: an empty fusion
# leaves the stem's own final, and g after a one-segment l completes ng
# after an n-final stem, which the zero first person leaves final for the
# epenthesis to read.
REWRITING_RULES = (
    "ef\tfusion\tsuffix:RI.fu\tsuffix:AGR.fi\tfuse:\t-",
    "lg\tsandhi\tsuffix:SJI.l\tsuffix:P1.i\tleft:final:g\t-",
    "gx\tepenthesis\tg\tany\tright:prefix:ü\t-")
# (root form, sense, suffix ids) pairs that differ only in the stem before
# a rewritten part
REWRITTEN = [("elu", "TV", ["RI.fu", "AGR.fi", "IND1SG.n"]),
             ("anel", "TV", ["RI.fu", "AGR.fi", "IND1SG.n"]),
             ("küpa", "IV", ["SJI.l", "P1.i", "DL.u"]),
             ("kon", "IV", ["SJI.l", "P1.i", "DL.u"])]


@pytest.fixture(scope="module")
def rewriting_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("rules") / "rules.tsv"
    path.write_text("\n".join(REWRITING_RULES) + "\n"
                    + data_path("rules.tsv").read_text(encoding="utf-8"),
                    encoding="utf-8")
    return path


def check_entries(rules, grammar, lexicon):
    """Check every filled realization entry against a direct
    RuleTable.extend after each head of its final segment: equal, but for
    a final segment left to the word after a rewritten pending part.
    Returns (entries, checks, entries whose final differs by head)."""
    pieces = grammar.pieces
    entries = checked = head_bound = 0
    for (prev, pending, final), row in grammar.realized.items():
        assert len(row) == grammar.width
        heads = [h for h in HEADS if h + pending
                 and final_segment(h + pending) == final]
        assert heads, (pending, final)
        for pid, entry in enumerate(row):
            if entry is None:
                continue
            entries += 1
            finals = set()
            for head in heads:
                state = rules.extend(
                    Realization((pieces[prev],), (pending,),
                                head + pending, final),
                    pieces[pid], lexicon)
                piece = state.pieces[-1]
                finalized, part = state.parts
                kept = state.final if finalized.startswith(pending) else None
                assert entry == (
                    grammar.piece_ids[piece], finalized, part, kept,
                    rules.initials(piece, part) if part else None), (
                        head, pending, final, pieces[pid])
                finals.add(state.final)
                checked += 1
            head_bound += len(finals) > 1
    return entries, checked, head_bound


class TestRealizationTable:
    """The grammar's realization table, filled by the golden words on a
    grammar of its own."""

    def test_every_filled_entry_holds_whatever_precedes_the_pending_part(
            self, warm, lexicon):
        # The key leaves out the surface before the pending part and keeps
        # only the final segment, which may reach back into it.  Each
        # entry must be what the rules give after any head of that final.
        entries, checked, _ = check_entries(*warm, lexicon)
        assert entries > 3000 and checked > 50_000, (entries, checked)

    def test_rewriting_rules_leave_the_final_segment_to_the_word(
            self, lexicon, rewriting_path):
        rules = load_rules(rewriting_path)
        for word in GOLDEN_WORDS:
            analyse(word, lexicon, rules)
        grammar = rules.for_lexicon(lexicon, analyzer._Grammar)
        entries, _, head_bound = check_entries(rules, grammar, lexicon)
        assert entries > 3000 and head_bound, (entries, head_bound)

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_a_rewritten_pending_part_takes_the_final_of_its_word(
            self, lexicon, rewriting_path, order):
        # Whichever stem fills an entry first, each word must analyse as
        # the sequence that generates it.
        rules = load_rules(rewriting_path)
        words = []
        for form, sense, seq in REWRITTEN[::order]:
            word = generate(lexicon.roots[(form, "verb")], sense, seq,
                            lexicon, rules)
            found = analyse(word, lexicon, rules)
            assert any(a.matches(form, sense, seq) for a in found), word
            words.append(word)
        assert sorted(words) == ["anelün", "elun", "kongu", "küpagüu"]

    def test_a_warm_grammar_realizes_nothing(self, warm, lexicon,
                                             monkeypatch):
        rules, grammar = warm
        n_pieces = len(grammar.pieces)
        filled = {state: list(row) for state, row in grammar.realized.items()}
        calls = []

        def counting(*args):
            calls.append(args)
            return extend_realization(*args)

        monkeypatch.setattr(analyzer, "extend_realization", counting)
        for word in GOLDEN_WORDS:
            analyse(word, lexicon, rules)
        assert not calls
        assert len(grammar.pieces) == n_pieces
        assert grammar.realized == filled


class TestGenerate:
    def test_causative_surface(self, lexicon):
        root = lexicon.roots[("püra", "verb")]
        assert generate(root, "IV", ["CA.m", "IND1SG.n"]) == "püramün"

    def test_verbalised_adjective_with_prothesis(self, lexicon):
        root = lexicon.roots[("la", "adjective")]
        assert generate(root, "IV", ["CA.m"]) == "langüm"

    def test_missing_mood_is_surfaced(self, lexicon):
        root = lexicon.roots[("monge", "verb")]
        with pytest.raises(GenerationError) as err:
            generate(root, "IV", [])
        assert any(v.code == "missing_mood" for v in err.value.violations)

    def test_unknown_suffix_id(self, lexicon):
        with pytest.raises(KeyError):
            generate("küpa", "IV", ["NOPE.x"])

    def test_root_resolution_by_form(self):
        assert generate("küpa", "IV", ["CA.l", "IND1SG.n"]) == "küpalün"

    def test_fusion_applies_in_generation(self, lexicon):
        root = lexicon.roots[("yewe", "verb")]
        word = generate(root, "IV", ["HAB.ke", "RI.fu", "AGR.fi", "IND1SG.n"])
        assert word == "yewekefwin"


class TestRoundTrip:
    def test_fixture_round_trips(self, lexicon):
        cases = [
            ("küpa", "IV", ["CA.l", "IND1SG.n"]),
            ("püra", "IV", ["CA.m", "IND1SG.n"]),
            ("monge", "IV", ["CA.l", "HAB.ke", "AGR.fi", "IND.y", "P1.i",
                             "PL.un"]),
            ("elu", "TV", ["REF.w", "ST.le", "RI.fu", "IND1SG.n"]),
            ("anel", "TV", ["TR.tu", "NEG.la", "AGR.e", "IND.y", "P1.i",
                            "DL.u", "A1t2.0"]),
        ]
        for form, context, seq in cases:
            entry = next(r for r in lexicon.roots_by_form(form)
                         if r.category == "verb")
            sense = entry.senses_for(context)[0]
            word = generate(entry, context, seq, lexicon)
            hits = [a for a in analyse(word, lexicon)
                    if a.matches(form, context, seq)
                    and a.root_pieces[0].gloss == sense.gloss]
            assert hits, (form, seq, word)

    @pytest.mark.parametrize("form", ["f", "g"])
    def test_one_segment_root_rewritten_by_sandhi(self, lexicon, rules, form):
        # Before the m-causative the sandhi rules rewrite the final segment
        # of the root, which for a one-segment root is all of it: the word
        # starts with a character the root does not.
        seq = ["CA.m", "IND.y", "P3.ng"]
        mini = Lexicon({(form, "verb"): RootEntry(form, "verb", "IV",
                                                  (Sense("IV", "blow"),))},
                       {sid: lexicon.suffixes[sid] for sid in seq})
        word = generate(form, "IV", seq, mini, rules)
        assert word[0] != form
        assert any(a.matches(form, "IV", seq)
                   for a in analyse(word, mini, rules)), word

    def test_random_sample_round_trips(self, lexicon):
        rng = random.Random(20250810)
        for root, sense, seq in sample_valid_tuples(rng, lexicon, 60):
            word = generate(root, sense.context, seq, lexicon)
            assert any(a.matches(root.form, sense.context, seq)
                       for a in analyse(word, lexicon)), (root.form, seq, word)


class TestGlossRender:
    def test_root_only_noun(self):
        found = analyse("wentru")
        assert [gloss_render(a) for a in found] == ["NN.man"]

    def test_fused_pieces_share_one_token(self):
        target = [a for a in analyse("yewekefwin")
                  if gloss_render(a) == "IV.be-ashamed +HAB +RI+3P +IND1SG"]
        assert target
        fused = [p for p in target[0].pieces if p.fused_with_prev]
        assert len(fused) == 1 and fused[0].tags == ("3P",)

    def test_compound_stem_annotated(self):
        found = {gloss_render(a) for a in analyse("rengümnaküm")}
        assert "IV.sediment +CA +AV.down +CA -CR.TV" in found

    def test_normalization_strips_signs_and_stem_markers(self):
        raw = "DP.that -TV.say +ST +IND +3 -CR.TV"
        assert normalize_gloss(raw) == "DP.that TV.say ST IND 3"
