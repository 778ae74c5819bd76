import collections
import dataclasses
import gc
import random
import sys
import threading

import pytest

from mapumorph import analyzer, morphotactics, phonology
from mapumorph.alphabet import (DIGRAPHS, SINGLE_LETTERS, AlphabetError,
                                final_segment, is_vowel)
from mapumorph.analyzer import (Analysis, GenerationError, analyse, generate,
                                gloss_render, gloss_set, normalize_gloss)
from mapumorph.defaults import data_path
from mapumorph.lexicon import (Allomorph, Lexicon, RootEntry, Sense,
                               validate_lexicon)
from mapumorph.morphotactics import (OPEN_FLOOR, RootUse, advance, end_codes,
                                     follows, settle, start_fold, tags_below,
                                     tags_reading_lone, validate_plan,
                                     validate_sequence)
from mapumorph.phonology import (PhonologyError, Piece, RuleTable,
                                 extend_realization, load_rules,
                                 parse_rule_line, realize)

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

    @pytest.mark.parametrize("repeated", ["sense", "allomorph"])
    def test_a_repeated_lexicon_row_adds_no_analysis(self, lexicon,
                                                     repeated):
        # validate_lexicon passes a root with a repeated sense row and a
        # suffix with a repeated allomorph; the grammar takes each
        # distinct sense and allomorph once, so the search walks no path
        # twice
        roots, suffixes = dict(lexicon.roots), dict(lexicon.suffixes)
        if repeated == "sense":
            root = roots["küpa", "verb"]
            roots["küpa", "verb"] = dataclasses.replace(
                root, senses=root.senses * 2)
        else:
            suffix = suffixes["IND1SG.n"]
            suffixes["IND1SG.n"] = dataclasses.replace(
                suffix, allomorphs=suffix.allomorphs + suffix.allomorphs[:1])
        doubled = Lexicon(roots, suffixes)
        assert validate_lexicon(doubled) == validate_lexicon(lexicon) == []
        rules = load_rules(data_path("rules.tsv"))
        grammar = analyzer._grammar(doubled, rules)
        assert len(grammar.search("küpan")) == 2
        assert [a.to_json() for a in analyse("küpan", doubled, rules)] == [
            a.to_json() for a in analyse("küpan", lexicon)]
        assert len(analyse("küpan", lexicon)) == 2

    def test_homographs_sharing_a_sense_both_read(self, lexicon):
        # the adverb nag given the verb nag's sense: the two entries differ
        # only in category, and each gives its own analyses
        roots = dict(lexicon.roots)
        roots["nag", "adverb"] = dataclasses.replace(
            roots["nag", "adverb"], senses=(Sense("IV", "go-down"),))
        homographs = Lexicon(roots, dict(lexicon.suffixes))
        assert validate_lexicon(homographs) == []
        found = [gloss_render(a) for a in analyse("nagel", homographs)]
        assert len(found) == 12
        assert sum(g.startswith("AV.go-down ") for g in found) == 6
        assert sum(g.startswith("IV.go-down ") for g in found) == 6

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
    return rules, analyzer._grammar(lexicon, rules)


def test_every_path_built_is_an_analysis(warm, lexicon, monkeypatch):
    """The search builds a path only once its fold passes the end checks,
    and walks no path twice, so on a warm golden pass each analysis built
    is one analysis found."""
    built = []
    rules, grammar = warm
    build = grammar._analysis

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(grammar, "_analysis", counting)
    found = sum(len(analyse(word, lexicon, rules)) for word in GOLDEN_WORDS)
    assert found == 1007
    assert len(built) == found


def test_pieces_of_one_identity_are_read_alike_by_every_rule(lexicon, rules):
    """The search's dead-state key holds the last piece's identity, not
    the piece, so every rule must read two pieces of one identity (two
    spellings of a suffix, a piece and its fused variant) alike."""
    grammar = analyzer._Grammar(lexicon, rules)
    readings = {}
    for ident, piece in zip(grammar.idents, grammar.pieces):
        assert (ident[1] is None) != piece.is_root, piece
        readings.setdefault(ident, set()).add(tuple(
            (rule.excepts(piece), phonology._may_be(rule.left, piece),
             phonology._may_be(rule.right, piece)) for rule in rules.rules))
    assert len(readings) < len(grammar.pieces)
    assert not [ident for ident, seen in readings.items() if len(seen) > 1]


class TestTransitionTable:
    """The grammar's morphotactic transition table, compiled with the
    grammar."""

    def test_every_filled_entry_is_the_direct_fold(self, warm):
        _, grammar = warm
        below = tags_below(grammar.lexicon)
        reading_lone = tags_reading_lone(grammar.lexicon)
        suffixes = sorted(grammar.lexicon.suffixes.values(),
                          key=lambda entry: entry.id)
        assert grammar.columns[:len(suffixes)] == suffixes
        assert all(isinstance(item, RootUse)
                   for item in grammar.columns[len(suffixes):])
        # with each fold's number checked below, every fold number in a row
        # has a row of its own
        assert len(grammar.transitions) == len(grammar.folds) \
            == len(grammar.fold_ids)
        live = 0
        for fid, row in enumerate(grammar.transitions):
            fold = grammar.folds[fid]
            assert grammar.fold_ids[fold] == fid
            assert settle(fold, follows(fold, below), reading_lone) == fold
            assert len(row) == len(grammar.columns)
            for column, new in enumerate(row):
                moved, codes = advance(fold, grammar.columns[column])
                follow = follows(moved, below)
                assert new == (
                    analyzer._DEAD if codes or end_codes(moved, follow)
                    else grammar.fold_ids[settle(moved, follow,
                                                 reading_lone)]), (fid, column)
                if new != analyzer._DEAD:
                    # the row alone gates the search: no suffix at or above
                    # the floor, and no member where none may follow
                    if column < len(suffixes):
                        assert suffixes[column].slot < fold.floor
                    else:
                        assert follows(fold, below) is None
                    live += 1
        assert live > 10_000, live

    @pytest.mark.parametrize("mini", [False, True], ids=["full", "mini"])
    def test_the_end_flags_are_the_end_checks(self, lexicon, rules, mini):
        # the flags the search and generation read in place of end_codes
        if mini:
            lexicon = build_mini_lexicon(lexicon)
        grammar = analyzer._Grammar(lexicon, rules)
        assert grammar.accepts == tuple(
            not end_codes(fold) for fold in grammar.folds)
        assert set(grammar.accepts) == {True, False}
        # a bare fold, a lone verb root's, never ends a word, and only its
        # bare field keeps some of them from it
        bare = [fid for fid, fold in enumerate(grammar.folds) if fold.bare]
        assert bare and not any(grammar.accepts[fid] for fid in bare)
        assert any(not end_codes(grammar.folds[fid]._replace(bare=False))
                   for fid in bare)

    def test_a_verb_and_a_noun_start_apart_only_in_bare(self, lexicon,
                                                         rules):
        # küpa (verb) and che (noun) share valency and an IV sense: their
        # settled start folds differ only in the lone-verb-root flag, and
        # only the verb's rejects the end of the word
        grammar = analyzer._grammar(lexicon, rules)
        verb = grammar.starts["küpa:verb"][2]["IV"]
        noun = grammar.starts["che:noun"][2]["IV"]
        assert verb != noun
        assert grammar.folds[verb] == grammar.folds[noun]._replace(bare=True)
        assert not grammar.accepts[verb] and grammar.accepts[noun]

    def test_a_suffix_folds_alike_under_every_floor_above_its_slot(
            self, lexicon):
        # the build tries a suffix only below the floor, so folds that
        # differ only in a floor above its slot must lead to one fold
        rng = random.Random(10)
        checked = 0
        for _ in range(400):
            plan = build_random_plan(rng, lexicon)
            fold = start_fold(plan[0])
            for item in plan[1:]:
                if not isinstance(item, RootUse):
                    moved = advance(fold._replace(floor=OPEN_FLOOR), item)
                    for floor in range(item.slot + 1, OPEN_FLOOR):
                        assert advance(fold._replace(floor=floor),
                                       item) == moved
                        checked += 1
                fold = advance(fold, item)[0]
        assert checked > 10_000

    def test_options_list_each_column_once_in_order(self, warm):
        # every character a word can hold, the end of it, and no character
        _, grammar = warm
        chars = sorted(SINGLE_LETTERS.union(*DIGRAPHS)) + ["", None]
        for kind in ("V", "C", None):
            for char in chars:
                options = grammar.options(kind, char)
                columns = [column for column, _ in options]
                assert columns == sorted(set(columns)), (kind, char)
                assert all(pids and len(set(pids)) == len(pids)
                           for _, pids in options), (kind, char)

    def test_a_warm_grammar_computes_no_transition(self, lexicon,
                                                   monkeypatch):
        # the table is whole once the grammar is built, before any word,
        # and so are the end flags the search reads in place of end_codes
        rules = load_rules(data_path("rules.tsv"))
        grammar = analyzer._grammar(lexicon, rules)
        folds = list(grammar.folds)
        filled = [bytes(row) for row in grammar.transitions]
        calls = []

        def counting(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(analyzer, "advance", counting(advance))
        monkeypatch.setattr(analyzer, "end_codes", counting(end_codes))
        assert sum(len(analyse(word, lexicon, rules))
                   for word in GOLDEN_WORDS) == 1007
        assert not calls
        assert grammar.folds == folds
        assert [bytes(row) for row in grammar.transitions] == filled

    def test_threads_filling_a_cold_table_get_the_serial_results(
            self, lexicon):
        expected = [analyse(word, lexicon) for word in GOLDEN_WORDS]
        tuples = sample_valid_tuples(random.Random(31), lexicon, 200)
        generated = [generate(root, sense.context, seq, lexicon)
                     for root, sense, seq in tuples]
        rules = load_rules(data_path("rules.tsv"))
        got, made = {}, {}

        def work(k):
            # even threads generate first, on the cold grammar; odd ones
            # analyse first
            shift = k * len(GOLDEN_WORDS) // 4
            words = GOLDEN_WORDS[shift:] + GOLDEN_WORDS[:shift]
            mine = tuples[k * 50:] + tuples[:k * 50]
            for task in (0, 1) if k % 2 else (1, 0):
                if task:
                    made[k] = [generate(root, sense.context, seq, lexicon,
                                        rules) for root, sense, seq in mine]
                else:
                    got[k] = [analyse(word, lexicon, rules) for word in words]

        run_in_threads(work, 4)
        for k in range(4):
            shift = k * len(GOLDEN_WORDS) // 4
            assert got[k] == expected[shift:] + expected[:shift], k
            assert made[k] == generated[k * 50:] + generated[:k * 50], k
        # the threads numbered no piece, and every realization row they
        # filled holds what one boundary step gives
        grammar = analyzer._grammar(lexicon, rules)
        fresh = analyzer._Grammar(lexicon, rules)
        assert grammar.pieces == fresh.pieces
        assert grammar.piece_ids == fresh.piece_ids
        assert len(grammar.piece_ids) == len(grammar.pieces) \
            == len(grammar.idents) == len(grammar.licensing)
        assert all(grammar.piece_ids[piece] == pid
                   for pid, piece in enumerate(grammar.pieces))
        entries, _, _ = check_entries(rules, grammar)
        assert entries > 3000, entries
        assert check_links(grammar) == entries


def test_the_classifiers_diagnostics_read_off_the_transition_table(lexicon):
    # A verb root reads IV where a causative can follow it at once, and TV
    # where an agreement (3P or INV) can follow it with no causative or
    # valency-increasing suffix before it; each with an accepting fold
    # reachable by suffixes after it.  That is how the classifier reads
    # analyses, and it gives back each declared valency; an unknown root
    # may take both.
    grammar = analyzer._grammar(lexicon)
    transitions = grammar.transitions
    suffixes = list(enumerate(grammar.columns[:len(grammar.suffix_columns)]))
    causative = [column for column, entry in suffixes if entry.tag == "CA"]
    agreement = [column for column, entry in suffixes
                 if entry.tag in ("3P", "INV")]
    plain = [column for column, entry in suffixes if entry.tag != "CA"
             and entry.valency_effect != "increase"]

    def reached(folds, columns):
        seen, todo = set(folds), list(folds)
        while todo:
            fold = todo.pop()
            for column in columns:
                new = transitions[fold][column]
                if new != analyzer._DEAD and new not in seen:
                    seen.add(new)
                    todo.append(new)
        return seen

    def attested(folds, columns):
        after = {transitions[fold][column] for fold in folds
                 for column in columns} - {analyzer._DEAD}
        return any(grammar.accepts[fold]
                   for fold in reached(after, range(len(suffixes))))

    labels = {(True, True): "labile", (True, False): "IV",
              (False, True): "TV", (False, False): None}
    read = collections.Counter()
    for entry in lexicon.iter_roots():
        if entry.category == "verb":
            starts = set(grammar.starts[f"{entry.form}:verb"][2].values())
            read[entry.valency, labels[
                attested(starts, causative),
                attested(reached(starts, plain), agreement)]] += 1
    assert read == {("IV", "IV"): 27, ("TV", "TV"): 16,
                    ("labile", "labile"): 9, ("unknown", "labile"): 2}


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


# Rules put before the shipped ones that rewrite the pending part only after
# a final vowel, or a final consonant: a part's initials then depend on how
# the part ends.
VOWEL_CONSONANT_RULES = (
    "vf\tfusion\tV\tsuffix:P1.i\tfuse:e\t-",
    "ca\tsandhi\tC\tsuffix:DL.u\tleft:final:a\t-")


def before_the_shipped_rules(factory, lines):
    path = factory.mktemp("rules") / "rules.tsv"
    path.write_text("\n".join(lines) + "\n"
                    + data_path("rules.tsv").read_text(encoding="utf-8"),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def rewriting_path(tmp_path_factory):
    return before_the_shipped_rules(tmp_path_factory, REWRITING_RULES)


@pytest.fixture(scope="module")
def vowel_consonant_path(tmp_path_factory):
    return before_the_shipped_rules(tmp_path_factory, VOWEL_CONSONANT_RULES)


def check_entries(rules, grammar):
    """Check every filled realization entry against one direct boundary
    step, and its final segment, where it has one, against the whole
    surface after each head of the key's final segment.  Returns
    (entries, checks, entries without a final segment whose surface's
    final differs by head)."""
    pieces, width = grammar.pieces, grammar.width
    entries = checked = head_bound = 0
    for (prev, pending, final), row in grammar.realized.items():
        assert len(row) == width + 3
        heads = [h for h in HEADS if h + pending
                 and final_segment(h + pending) == final]
        assert heads, (pending, final)
        for pid, entry in enumerate(row[:width]):
            if entry is None:
                continue
            entries += 1
            piece, finalized, part, new_final = extend_realization(
                pieces[prev], pending, final, pieces[pid], rules)
            assert entry[:3] == (grammar.piece_ids[piece], finalized,
                                 part), (pending, final, pieces[pid])
            finals = set()
            for head in heads:
                surface = head + finalized + part
                finals.add(final_segment(surface) if surface else "")
                checked += 1
            if new_final is None:
                head_bound += len(finals) > 1
            else:
                assert finals == {new_final}, (pending, final, pieces[pid])
    return entries, checked, head_bound


def check_links(grammar):
    """Check that each row is the one installed for its state, ending with
    the state, what may follow its final segment and the first spellings
    there, that each root's first steps and generation start from its
    installed row, each first step with starts that hold its part's
    initials, and that every filled entry links to the installed row
    of the state it leads to, or to None exactly where the boundary step
    leaves the final segment open.  Returns the number of filled entries."""
    realized, width, pieces = grammar.realized, grammar.width, grammar.pieces
    for row, _, _, starts in grammar._firsts:
        assert realized[row[width]] is row
        # the search's first-step filter must pass every first character
        prev, part, _ = row[width]
        chars = grammar.rules.initials(pieces[prev], part)
        assert starts is None or chars is not None and chars <= starts
    assert all(realized[row[width]] is row
               for _, row, _ in grammar.starts.values())
    entries = 0
    for (prev, pending, final), row in realized.items():
        kind = ("V" if is_vowel(final) else "C") if final else None
        assert row[width:] == [(prev, pending, final), kind,
                               grammar.trailers[kind]]
        for pid, entry in enumerate(row[:width]):
            if entry is None:
                continue
            entries += 1
            placed, _, part, linked = entry
            new_final = extend_realization(pieces[prev], pending, final,
                                           pieces[pid], grammar.rules)[3]
            if new_final is None:
                assert linked is None, (pending, final, pieces[pid])
            else:
                assert linked is realized[placed, part, new_final]
    return entries


def check_initials(rules, grammar):
    """Collect each (piece, pending part, final segment) that a filled
    realization entry leads to, with the part's
    :meth:`~mapumorph.phonology.RuleTable.initials`, which the starts of
    the search's column options are built from, taking the finals after
    each head of the key's final segment where the entry has none.
    Returns (the number of these triples, those whose part the boundary
    step before some next piece finalizes to a string that does not start
    with one of its initials)."""
    pieces, triples = grammar.pieces, {}
    for (prev, pending, final), row in grammar.realized.items():
        heads = [h for h in HEADS if h + pending
                 and final_segment(h + pending) == final]
        for entry in row[:grammar.width]:
            if entry is None or not entry[2]:
                continue
            new, finalized, part, linked = entry
            finals = {linked[grammar.width][2]} if linked is not None else {
                final_segment(head + finalized + part) for head in heads}
            for end in finals:
                triples[new, part, end] = rules.initials(pieces[new], part)
    return len(triples), [
        (pieces[new], part, final, pieces[pid])
        for (new, part, final), initials in triples.items()
        for pid in range(grammar.width)
        if initials is not None and extend_realization(
            pieces[new], part, final, pieces[pid],
            rules)[1][:1] not in initials]


class TestRealizationTable:
    """The grammar's realization table, filled by the golden words on a
    grammar of its own."""

    def test_every_filled_entry_holds_whatever_precedes_the_pending_part(
            self, warm):
        # The key leaves out the surface before the pending part and keeps
        # only the final segment, which may reach back into it.  Each
        # entry must be what the rules give after any head of that final.
        entries, checked, _ = check_entries(*warm)
        assert entries > 3000 and checked > 50_000, (entries, checked)

    def test_every_filled_entry_links_to_the_row_it_leads_to(self, warm):
        assert check_links(warm[1]) > 3000

    def test_rewriting_rules_leave_the_final_segment_to_the_word(
            self, lexicon, rewriting_path):
        rules = load_rules(rewriting_path)
        for word in GOLDEN_WORDS:
            analyse(word, lexicon, rules)
        grammar = analyzer._grammar(lexicon, rules)
        entries, _, head_bound = check_entries(rules, grammar)
        assert entries > 3000 and head_bound, (entries, head_bound)
        assert check_links(grammar) == entries

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

    def test_the_next_step_keeps_a_pending_part_within_its_initials(
            self, warm, lexicon, rewriting_path, vowel_consonant_path):
        # The search tries a piece that leaves the pending part as it is
        # only where the piece's starts hold the next character of the
        # word; the initials those starts are built from must hold every
        # first character a part can take once the next rule has applied.
        tables = [warm]
        for path in (rewriting_path, vowel_consonant_path):
            rules = load_rules(path)
            for word in GOLDEN_WORDS:
                analyse(word, lexicon, rules)
            tables.append((rules, analyzer._grammar(lexicon, rules)))
        for rules, grammar in tables:
            triples, violations = check_initials(rules, grammar)
            assert not violations, violations[:5]
            assert triples > 100, triples
        # the V and C rules each rewrote some pending part
        rules, grammar = tables[-1]
        entries, _, _ = check_entries(rules, grammar)
        rewritten = {grammar.pieces[pid].suffix_id
                     for (_, pending, _), row in grammar.realized.items()
                     for pid, entry in enumerate(row[:grammar.width])
                     if entry is not None and entry[1] != pending}
        assert {"P1.i", "DL.u"} <= rewritten and entries > 3000

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


# a fusion into nothing, which leaves no final segment for the next piece
FUSED_AWAY = parse_rule_line("x\tfusion\t=la\tsuffix:CA.m\tfuse:\t-")


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

    @pytest.mark.parametrize("ids", ["IND1SG.n", b"IND1SG.n", ""],
                             ids=["str", "bytes", "empty"])
    def test_a_string_of_suffix_ids_is_a_type_error(self, ids):
        # a string would be read character by character
        with pytest.raises(TypeError, match="suffix_ids must be an iterable "
                           f"of suffix ids, not {type(ids).__name__}$"):
            generate("küpa", "IV", ids)

    @pytest.mark.parametrize("ids", [None, 5], ids=["None", "int"])
    def test_suffix_ids_that_are_no_iterable_are_a_type_error(self, ids):
        with pytest.raises(TypeError, match="^suffix_ids must be an iterable "
                           f"of suffix ids, not {type(ids).__name__}$"):
            generate("küpa", "IV", ids)

    @pytest.mark.parametrize("sense, ids, message", [
        ("IV", [["CA.l"]], "suffix id ['CA.l'] must be a string, not list"),
        ("IV", ["CA.l", 5], "suffix id 5 must be a string, not int"),
        ("IV", ("CA.l", None), "suffix id None must be a string, not "
         "NoneType"),
        (["IV"], [], "sense_context must be a string, not list"),
        (["IV"], ["CA.l", "IND1SG.n"], "sense_context must be a string, not "
         "list"),
        (None, ["CA.l"], "sense_context must be a string, not NoneType"),
    ], ids=["unhashable-id", "int-id", "None-id", "unhashable-sense",
            "unhashable-sense-with-ids", "None-sense"])
    def test_a_wrongly_typed_argument_is_named(self, sense, ids, message):
        with pytest.raises(TypeError) as err:
            generate("küpa", sense, ids)
        assert str(err.value) == message

    def test_a_mistyped_sense_comes_after_an_unknown_suffix_id(self):
        # the faults keep their order: suffix ids are resolved first
        with pytest.raises(KeyError, match="unknown suffix id 'NOPE.x'"):
            generate("küpa", ["IV"], ["CA.l", "NOPE.x"])

    def test_an_error_inside_the_suffix_ids_iterable_is_its_own(self):
        def ids():
            yield "CA.l"
            raise TypeError("from the iterable")

        with pytest.raises(TypeError, match="^from the iterable$"):
            generate("küpa", "IV", ids())

    def test_root_resolution_by_form(self):
        assert generate("küpa", "IV", ["CA.l", "IND1SG.n"]) == "küpalün"

    def test_fusion_applies_in_generation(self, lexicon):
        root = lexicon.roots[("yewe", "verb")]
        word = generate(root, "IV", ["HAB.ke", "RI.fu", "AGR.fi", "IND1SG.n"])
        assert word == "yewekefwin"

    def test_table_walk_gives_the_validators_verdict(self, lexicon, rules):
        # sampled tuples and every one-edit mutation of them: one suffix
        # dropped, two neighbours swapped, or one replaced
        rng = random.Random(29)
        ids = sorted(lexicon.suffixes)
        cases = []
        for root, sense, seq in sample_valid_tuples(rng, lexicon, 300):
            cases.append((root, sense.context, seq))
            for i in range(len(seq)):
                cases.append((root, sense.context, seq[:i] + seq[i + 1:]))
                cases.append((root, sense.context,
                              seq[:i] + [rng.choice(ids)] + seq[i + 1:]))
                if i + 1 < len(seq):
                    cases.append((root, sense.context, seq[:i] + [
                        seq[i + 1], seq[i]] + seq[i + 2:]))
        verdicts = {True: 0, False: 0}
        for root, context, seq in cases:
            violations = validate_sequence((root, context), seq, lexicon)
            verdicts[not violations] += 1
            if violations:
                with pytest.raises(GenerationError) as err:
                    generate(root, context, seq, lexicon, rules)
                assert err.value.violations == tuple(violations)
                continue
            # the form: each suffix by its first context match after the
            # surface so far, the whole realized by the boundary rules
            pieces, form = [(root.form, root.category)], root.form
            for sid in seq:
                pieces.append(Piece(helpers.matching_allomorphs(
                    lexicon.suffixes[sid], form)[0], "suffix",
                    suffix_id=sid))
                form = realize(pieces, lexicon, rules)
            assert generate(root, context, seq, lexicon, rules) == form
        assert min(verdicts.values()) > 1000, verdicts

    def test_first_spelling_is_the_allomorph_select_allomorph_picks(
            self, lexicon, rules):
        grammar = analyzer._grammar(lexicon, rules)
        for final, kind in (("a", "V"), ("f", "C"), ("", None)):
            trailer = grammar.trailers[kind]
            assert len(trailer) == len(lexicon.suffixes)
            for sid, suffix in lexicon.suffixes.items():
                column = grammar.suffix_columns[sid]
                assert grammar.columns[column] is suffix
                pid = grammar.spellings[kind][column][1][0][0]
                assert trailer[column] == pid
                assert grammar.pieces[pid] == Piece(
                    helpers.matching_allomorphs(suffix, final)[0], "suffix",
                    suffix_id=sid)

    def test_a_suffix_with_no_allomorph_after_the_final_is_an_error(
            self, lexicon):
        # IND1SG.n spelled only after a vowel: kon ends in a consonant
        suffixes = dict(lexicon.suffixes)
        suffixes["IND1SG.n"] = dataclasses.replace(
            suffixes["IND1SG.n"], allomorphs=(Allomorph("n", "V"),))
        vowel_only = Lexicon(lexicon.roots, suffixes)
        rules = load_rules(data_path("rules.tsv"))
        assert generate("küpa", "IV", ["IND1SG.n"], vowel_only,
                        rules) == "küpan"
        with pytest.raises(PhonologyError,
                           match="^no allomorph of IND1SG.n fits after 'n'$"):
            generate("kon", "IV", ["IND1SG.n"], vowel_only, rules)

    def test_after_a_surface_fused_away_any_allomorph_fits(self, lexicon,
                                                           rules):
        # a fusion into nothing leaves no final segment for the next
        # suffix to follow, so it takes its first allomorph of all: n,
        # where after a consonant it would take ün
        fused_away = RuleTable((FUSED_AWAY,) + rules.rules)
        assert generate("la:adjective", "IV", ["CA.m", "IND1SG.n"], lexicon,
                        fused_away) == "n"

    def test_after_a_surface_fused_away_the_search_tries_any_allomorph(
            self, lexicon, rules):
        # the search reads an empty surface as generation does, and a
        # compound member may follow it too
        fused_away = RuleTable((FUSED_AWAY,) + rules.rules)
        found = analyse("n", lexicon, fused_away)
        assert any(a.matches("la", "IV", ["CA.m", "IND1SG.n"])
                   for a in found)
        assert any(len(a.root_pieces) == 2 for a in found)

    def test_a_rejected_sequence_keeps_the_validators_violations(
            self, lexicon, rules):
        # three kinds of rejected tuple: two adjacent suffixes of different
        # slots swapped, as the benchmark builds them; a causative on a TV
        # sense; and a labile root, in each of its contexts, with one
        # suffix inserted anywhere
        rng = random.Random(30)
        suffixes = lexicon.suffixes
        ids = sorted(suffixes)
        causatives = [sid for sid in ids
                      if suffixes[sid].attach_constraint == "iv_stem_only"]
        labile = [root for root in lexicon.iter_roots()
                  if len({sense.context for sense in root.senses}) > 1]
        kinds = {"swapped": [], "valency": [], "labile": []}
        for root, sense, seq in sample_valid_tuples(rng, lexicon, 700):
            pairs = [i for i in range(len(seq) - 1)
                     if suffixes[seq[i]].slot != suffixes[seq[i + 1]].slot]
            if pairs:
                i = rng.choice(pairs)
                kinds["swapped"].append((root, sense.context, seq[:i] + [
                    seq[i + 1], seq[i]] + seq[i + 2:]))
            tv = [s for s in root.senses if s.context == "TV"]
            if tv:
                kinds["valency"].append(
                    (root, "TV", [rng.choice(causatives)] + seq))
            member = rng.choice(labile)
            i = rng.randrange(len(seq) + 1)
            for context in sorted({s.context for s in member.senses}):
                kinds["labile"].append(
                    (member, context, seq[:i] + [rng.choice(ids)] + seq[i:]))
        checked = {kind: 0 for kind in kinds}
        contexts = set()
        for kind, cases in kinds.items():
            for root, context, seq in cases:
                expected = validate_sequence((root, context), seq, lexicon)
                if not expected:
                    assert kind == "labile", (root.form, context, seq)
                    continue
                given = rng.choice((root, f"{root.form}:{root.category}"))
                with pytest.raises(GenerationError) as err:
                    generate(given, context, seq, lexicon, rules)
                assert err.value.violations == tuple(expected)
                assert str(err.value) == (
                    f"invalid sequence for {root.form!r}: "
                    + "; ".join(f"{v.code}@{v.at}" for v in expected))
                checked[kind] += 1
                if kind == "labile":
                    contexts.add(context)
        assert sum(checked.values()) >= 1000, checked
        assert min(checked.values()) >= 100, checked
        assert contexts == {"IV", "TV"}

    def test_an_accepted_sequence_is_neither_validated_nor_stepped(
            self, lexicon, rules, monkeypatch):
        tuples = sample_valid_tuples(random.Random(30), lexicon, 200)
        # the first pass warms the realization table
        words = [generate(root, sense.context, seq, lexicon, rules)
                 for root, sense, seq in tuples]
        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(analyzer, "validate_plan")
        counting(analyzer, "validate_sequence")
        counting(analyzer, "extend_realization")
        counting(analyzer, "end_codes")
        assert [generate(root, sense.context, seq, lexicon, rules)
                for root, sense, seq in tuples] == words
        assert not calls
        # a rejected sequence is folded once more, over the grammar's own
        # root use and suffix entries, for its violations
        with pytest.raises(GenerationError):
            generate("monge", "IV", [], lexicon, rules)
        assert calls == ["validate_plan"]

    def test_a_root_entry_the_lexicon_does_not_hold_is_unknown(self,
                                                                lexicon):
        foreign = RootEntry("küpal", "verb", "IV", (Sense("IV", "novel"),))
        with pytest.raises(KeyError, match="unknown root 'küpal:verb'"):
            generate(foreign, "IV", ["CA.l", "IND1SG.n"], lexicon)
        held = lexicon.roots[("küpa", "verb")]
        altered = dataclasses.replace(held, senses=(Sense("IV", "novel"),))
        with pytest.raises(KeyError, match="unknown root 'küpa:verb'"):
            generate(altered, "IV", ["CA.l", "IND1SG.n"], lexicon)
        # an equal copy is the entry the lexicon holds
        assert generate(dataclasses.replace(held), "IV",
                        ["CA.l", "IND1SG.n"], lexicon) == "küpalün"


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
            entry = lexicon.roots[form, "verb"]
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


class TestFromJson:
    # a well-formed piece whose slot and span start are 1 and whose
    # fused_with_prev is false, so that a bool in their place is equal,
    # and hashes equal, to the field it replaces
    PIECE = {"span": [1, 6], "kind": "suffix", "morph": "CA.m",
             "surface": "m", "tags": ["CA"], "gloss": None,
             "category": None, "sense_context": None, "effect": "increase",
             "slot": 1, "fused_with_prev": False}

    def decode(self, **changes):
        piece = dict(self.PIECE, **changes)
        return Analysis.from_json({"word": "pünamün", "pieces": [piece],
                                   "trace": [["CA.m", "TV"]]})

    def test_equal_pieces_are_shared(self):
        first, second = self.decode(), self.decode()
        assert first == second and first.pieces[0] is second.pieces[0]
        assert self.decode(slot=2).pieces[0].slot == 2

    @pytest.mark.parametrize("field, value, message", [
        ("slot", True, "slot must be an int or null, not bool"),
        ("fused_with_prev", 0, "fused_with_prev must be a bool, not int"),
        ("span", [True, 6], "span must be a list of two ints, not [True, 6]"),
    ])
    def test_a_cached_equal_piece_does_not_skip_a_check(self, field, value,
                                                        message):
        self.decode()
        misses = analyzer._shared_piece.cache_info().misses
        with pytest.raises(TypeError) as err:
            self.decode(**{field: value})
        assert str(err.value) == message
        assert analyzer._shared_piece.cache_info().misses == misses

    def test_golden_analyses_round_trip(self, lexicon):
        for word in GOLDEN_WORDS:
            for a in analyse(word, lexicon):
                assert Analysis.from_json(a.to_json()) == a, word


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
