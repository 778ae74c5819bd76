import re

import pytest

from mapumorph.analyzer import _grammar, analyse, generate
from mapumorph.defaults import data_path
from mapumorph.phonology import PhonologyError, Piece, load_rules, realize


def one_table(tmp_path, *lines):
    path = tmp_path / "rules.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_rules(path)


class TestRealize:
    def test_ng_prothesis(self, lexicon, rules):
        assert realize(["la", "üm"], lexicon, rules) == "langüm"

    def test_f_hardening(self, lexicon, rules):
        assert realize(["af", "üm"], lexicon, rules) == "apüm"

    def test_g_hardening(self, lexicon, rules):
        assert realize(["nag", "üm"], lexicon, rules) == "naküm"

    def test_exception_lexeme_keeps_stem(self, lexicon, rules):
        assert realize(["lleg", "üm"], lexicon, rules) == "llegüm"

    def test_category_scoped_exception(self, lexicon, rules):
        # the verb nag- 'go down' resists the hardening that the adverb
        # nag 'down' undergoes
        assert realize([("nag", "verb"), "üm"], lexicon, rules) == "nagüm"
        assert realize([("nag", "adverb"), "üm"], lexicon, rules) == "naküm"

    def test_plain_concatenation(self, lexicon, rules):
        assert realize(["küpa", "n"], lexicon, rules) == "küpan"

    def test_epenthesis_on_compound_members(self, lexicon, rules):
        seq = ["püna", ("tüku", "verb"), "le", "y"]
        assert realize(seq, lexicon, rules) == "pünantükuley"
        seq = ["tofkü", ("püra", "verb"), "m"]
        assert realize(seq, lexicon, rules) == "tofküñpüram"

    def test_suffix_tu_takes_no_epenthesis(self, lexicon, rules):
        assert realize(["are", "tu", "n"], lexicon, rules) == "aretun"
        assert realize(["watro", ("tu", "verb")], lexicon, rules) == "watrontu"

    def test_obligatory_fusions(self, lexicon, rules):
        fu = Piece("fu", "suffix", suffix_id="RI.fu")
        fi = Piece("fi", "suffix", suffix_id="AGR.fi")
        e = Piece("e", "suffix", suffix_id="AGR.e")
        assert realize(["yewe", Piece("ke", "suffix", suffix_id="HAB.ke"),
                        fu, fi, "n"], lexicon, rules) == "yewekefwin"
        assert realize(["aye", "nie", "a", fu, e, "y", "u"],
                       lexicon, rules) == "ayenieafeyu"

    def test_suffix_patterns_read_suffix_ids_only(self, lexicon, rules):
        # f-sandhi and ng-prothesis name CA.m; a suffix piece without an
        # id is not CA.m, whatever it spells, and NEG.la's la is not the
        # lexeme la
        assert realize(["af", Piece("üm", "suffix")], lexicon,
                       rules) == "afüm"
        assert realize(["küpa", Piece("la", "suffix", suffix_id="NEG.la"),
                        Piece("üm", "suffix", suffix_id="CA.m")],
                       lexicon, rules) == "küpalaüm"

    def test_a_lexeme_pattern_reads_no_suffix_spelling(self, lexicon,
                                                       tmp_path):
        # CA.l's l, reset to el, and its el allomorph spell one surface;
        # a rule on the lexeme l must not tell them apart, or the search,
        # which keys its dead states on CA.l alone, loses the reading
        table = one_table(
            tmp_path, "x\tsandhi\tV\tsuffix:CA.l\tright:set:el\t-",
            "y\tepenthesis\t=l\tany\tright:prefix:ng\t-",
            *data_path("rules.tsv").read_text(encoding="utf-8").splitlines())
        seq = ["küpa", Piece("el", "suffix", suffix_id="CA.l"),
               Piece("ün", "suffix", suffix_id="IND1SG.n")]
        assert realize(seq, lexicon, table) == "küpaelün"
        assert any(a.matches("küpa", "IV", ["CA.l", "IND1SG.n"])
                   for a in analyse("küpaelün", lexicon, table))

    def test_an_unknown_string_is_located(self, lexicon, rules):
        with pytest.raises(PhonologyError, match=r"^boundary 1: unknown "
                           "character 'ø'"):
            realize(["küpa", "ø", "n"], lexicon, rules)

    def test_determinism(self, lexicon, rules):
        seq = ["monge", "l", "ke"]
        assert realize(seq, lexicon, rules) == realize(seq, lexicon, rules)

    def test_rewritten_boundaries_analyse_back(self, lexicon, rules):
        """Every segmental rule's output analyses back to its first root."""
        cases = [
            (["la", "üm"], "la"),
            (["af", "üm"], "af"),
            (["nag", "üm"], "nag"),
            (["üta", ("tüku", "verb")], "üta"),
            (["watro", ("tu", "verb")], "watro"),
            (["tofkü", ("püra", "verb")], "tofkü"),
        ]
        for seq, root in cases:
            surface = realize(seq, lexicon, rules)
            firsts = {a.root_pieces[0].morph
                      for a in analyse(surface, lexicon, rules)}
            assert root in firsts, (seq, surface)

    def test_final_rewrite_skips_an_empty_left_part(self, lexicon, tmp_path):
        # IND.y is zero here, so the IND1SG.n boundary has no final
        # segment on its left; the rule does not apply and the next
        # candidate in table order does
        table = one_table(tmp_path, "x\tsandhi\ta\tsuffix:IND1SG.n\t"
                          "left:final:e\t-")
        seq = ["küpa", Piece("", "suffix", suffix_id="IND.y"),
               Piece("n", "suffix", suffix_id="IND1SG.n")]
        assert realize(seq, lexicon, table) == "küpan"
        table = one_table(tmp_path,
                          "x\tsandhi\ta\tsuffix:IND1SG.n\tleft:final:e\t-",
                          "y\tprothesis\tany\tsuffix:IND1SG.n\t"
                          "right:prefix:ü\t-")
        assert realize(seq, lexicon, table) == "küpaün"

    def test_final_rewrite_after_a_zero_allomorph(self, lexicon, tmp_path):
        table = one_table(tmp_path, "x\tsandhi\tany\tsuffix:DL.u\t"
                          "left:final:e\t-")
        seq = ["IND.y", "P3.ng", "DL.u"]
        word = generate("küpa", "IV", seq, lexicon, table)
        assert word == "küpayu"
        assert any(a.matches("küpa", "IV", seq)
                   for a in analyse(word, lexicon, table))

    def test_unknown_rule_kind_is_located(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# old kind\nx\tallomorph_selection\tV\t"
                        "suffix:CA.m\tright:set:m\t-\n", encoding="utf-8")
        with pytest.raises(PhonologyError, match=r"rules\.tsv:2: unknown "
                           "rule kind 'allomorph_selection'"):
            load_rules(path)

    @pytest.mark.parametrize("line, message", [
        ("f-sandhi\tsandhi\tf\tsuffix:CA.m\tleft:finl:p\t-",
         "unknown rewrite op 'left:finl:p'"),
        ("f-sandhi\tsandhi\tf\tsuffix:CA.m\tfuse:p\t-",
         "'fuse:p' on a sandhi rule"),
        ("f-sandhi\tsandhi\tf\tsufix:CA.m\tleft:final:p\t-",
         "unknown pattern 'sufix:CA.m'"),
        ("f-sandhi\tsandhi\tf\tsuffix:CA.m\tleft:final:p&left:final:k\t-",
         "second 'left:final:' op 'left:final:k'"),
        ("f-sandhi\tsandhi\tf\tsuffix:\tleft:final:p\t-",
         "empty suffix id in pattern 'suffix:'"),
        ("g-sandhi\tsandhi\t=\tsuffix:CA.m\tleft:final:k\t-",
         "empty form or category in pattern '='"),
        ("g-sandhi\tsandhi\t=:verb\tsuffix:CA.m\tleft:final:k\t-",
         "empty form or category in pattern '=:verb'"),
        ("g-sandhi\tsandhi\t=nag:\tsuffix:CA.m\tleft:final:k\t-",
         "empty form or category in pattern '=nag:'"),
        ("x\tprothesis\tV\tsuffix:CA.m\tright:prefix:h\t-",
         "target 'h' of 'right:prefix:h' is outside the alphabet"),
        ("x\tsandhi\tV\tsuffix:CA.m\tright:set:ü m\t-",
         "target 'ü m' of 'right:set:ü m' is outside the alphabet"),
        ("x\tfusion\tsuffix:RI.fu\tsuffix:AGR.fi\tfuse:X\t-",
         "target 'X' of 'fuse:X' is outside the alphabet"),
        ("x\tsandhi\t=Küpa\tsuffix:CA.m\tleft:final:e\t-",
         "form 'Küpa' in pattern '=Küpa' is outside the alphabet"),
        ("x\tsandhi\t=la:Verb\tsuffix:CA.m\tleft:final:e\t-",
         "unknown category 'Verb' in pattern '=la:Verb'"),
        ("g-sandhi\tsandhi\tg\tsuffix:CA.m\tleft:final:k\tlleg,Nag",
         "form 'Nag' in exception 'Nag' is outside the alphabet"),
        ("g-sandhi\tsandhi\tg\tsuffix:CA.m\tleft:final:k\tnag:Verb",
         "unknown category 'Verb' in exception 'nag:Verb'"),
        ("g-sandhi\tsandhi\tg\tsuffix:CA.m\tleft:final:k\tnag:",
         "empty form or category in exception 'nag:'"),
        ("g-sandhi\tsandhi\tg\tsuffix:CA.m\tleft:final:k\t:verb",
         "empty form or category in exception ':verb'"),
        ("f-sandhi\tsandhi\tf\tsuffix:CA.m\tleft:final:p",
         "expected 6 tab-separated columns, got 5"),
        ("f-sandhi\tsandhi\tf\tsuffix:CA.m\tleft:final:p\t \t",
         "expected 6 tab-separated columns, got 5"),
        ("x\tepenthesis\tany\tV\tright:prefix:y\t-",
         "right pattern 'V' is not any, =form[:category] or suffix:ID"),
        ("x\tepenthesis\tany\tC\tright:prefix:y\t-",
         "right pattern 'C' is not any, =form[:category] or suffix:ID"),
        ("f-sandhi\tsandhi\tany\tf\tleft:final:p\t-",
         "right pattern 'f' is not any, =form[:category] or suffix:ID"),
    ], ids=["unknown-op", "fuse-outside-fusion", "unknown-pattern",
            "repeated-op", "empty-suffix-id", "empty-form",
            "empty-form-with-category", "empty-category",
            "prefix-outside-alphabet", "set-outside-alphabet",
            "fuse-outside-alphabet", "lexeme-form-outside-alphabet",
            "lexeme-category-unknown", "exception-form-outside-alphabet",
            "exception-category-unknown", "exception-category-empty",
            "exception-form-empty", "five-columns",
            "trailing-whitespace-opens-no-column", "right-vowel",
            "right-consonant", "right-segment"])
    def test_malformed_rule_line_is_located(self, tmp_path, line, message):
        path = tmp_path / "rules.tsv"
        path.write_text(f"# f hardens\n{line}\n", encoding="utf-8")
        with pytest.raises(PhonologyError,
                           match=r"rules\.tsv:2: " + re.escape(message)):
            load_rules(path)

    def test_a_rule_is_checked_only_against_the_given_suffix_ids(
            self, lexicon, tmp_path):
        # one table serves any lexicon, so without ids it loads as it is
        path = tmp_path / "rules.tsv"
        path.write_text("x\tsandhi\tV\tsuffix:CA.x\tleft:final:e\t-\n",
                        encoding="utf-8")
        with pytest.raises(PhonologyError, match="^" + re.escape(
                f"{path}:1: pattern 'suffix:CA.x' names no suffix of the "
                "lexicon") + "$"):
            load_rules(path, lexicon.suffixes)
        assert [rule.id for rule in load_rules(path).rules] == ["x"]

    def test_a_left_consonant_pattern_reads_the_final_segment(
            self, lexicon, tmp_path):
        table = one_table(tmp_path, "x\tepenthesis\tC\tsuffix:IND1SG.n\t"
                          "right:prefix:ü\t-")
        assert generate("küpa", "IV", ["IND1SG.n"], lexicon, table) == "küpan"
        assert generate("kon", "IV", ["IND1SG.n"], lexicon, table) == "konüün"
        assert any(a.matches("kon", "IV", ["IND1SG.n"])
                   for a in analyse("konüün", lexicon, table))

    def test_empty_targets_and_fuseless_fusion_load(self, lexicon, tmp_path):
        fuseless = "x\tfusion\tV\tsuffix:IND1SG.n\t-\t-"
        empty_set = "y\tsandhi\tV\tsuffix:IND1SG.n\tright:set:\t-"
        # the fusion rule fires and rewrites nothing, so no later rule
        # applies at that boundary
        table = one_table(tmp_path, fuseless, empty_set)
        assert realize(["küpa", "n"], lexicon, table) == "küpan"
        table = one_table(tmp_path, empty_set, fuseless)
        assert realize(["küpa", "n"], lexicon, table) == "küpa"

    @pytest.mark.parametrize("first, second, seq, surfaces", [
        ("g\tepenthesis\tV\tany\tright:prefix:e\t-",
         "s\tepenthesis\tV\tsuffix:IND1SG.n\tright:prefix:ü\t-",
         ["küpa", Piece("n", "suffix", suffix_id="IND1SG.n")],
         ("küpaen", "küpaün")),
        ("f\tepenthesis\tV\t=tüku\tright:prefix:n\t-",
         "l\tepenthesis\tV\t=tüku:verb\tright:prefix:ñ\t-",
         ["püna", ("tüku", "verb"), Piece("le", "suffix", suffix_id="ST.le"),
          Piece("y", "suffix", suffix_id="IND.y"),
          Piece("", "suffix", suffix_id="P3.ng")],
         ("pünantükuley", "pünañtükuley")),
    ], ids=["generic-vs-suffix", "form-vs-lexeme"])
    def test_earliest_rule_fires_across_pattern_kinds(
            self, lexicon, tmp_path, first, second, seq, surfaces):
        morphs = tuple(item.suffix_id if isinstance(item, Piece)
                       else item if isinstance(item, str) else item[0]
                       for item in seq)
        for lines, surface in (((first, second), surfaces[0]),
                               ((second, first), surfaces[1])):
            table = one_table(tmp_path, *lines)
            assert realize(seq, lexicon, table) == surface
            found = {tuple(p.morph for p in a.pieces)
                     for a in analyse(surface, lexicon, table)}
            assert morphs in found, (lines, surface)

    def test_an_empty_sequence_raises(self, lexicon, rules):
        with pytest.raises(PhonologyError, match="^empty morph sequence$"):
            realize([], lexicon, rules)

    def test_must_start_with_root(self, lexicon, rules):
        with pytest.raises(PhonologyError):
            realize([Piece("nie", "suffix", suffix_id="PRPS.nie"), "y"],
                    lexicon, rules)


class TestSelectAllomorph:
    """Generation's allomorph choice, the grammar's trailers: after a
    final vowel, a final consonant or nothing, each suffix's first
    context-matching allomorph."""

    @staticmethod
    def trailer(lexicon, rules, sid, kind):
        grammar = _grammar(lexicon, rules)
        pid = grammar.trailers[kind][grammar.suffix_columns[sid]]
        return None if pid is None else grammar.pieces[pid].form

    def test_stative_after_consonant(self, lexicon, rules):
        assert self.trailer(lexicon, rules, "ST.le", "C") == "küle"
        assert generate("af", "IV", ["ST.le"], lexicon, rules) == "afküle"

    def test_stative_after_vowel(self, lexicon, rules):
        assert self.trailer(lexicon, rules, "ST.le", "V") == "le"

    def test_m_causative_after_vowel(self, lexicon, rules):
        assert self.trailer(lexicon, rules, "CA.m", "V") == "m"

    def test_first_allomorph_after_nothing(self, lexicon, rules):
        assert self.trailer(lexicon, rules, "ST.le", None) == "le"
        assert self.trailer(lexicon, rules, "PL.un", None) == "ün"

    def test_no_match_raises(self, lexicon):
        from mapumorph.lexicon import Allomorph, Lexicon, SuffixEntry
        only_c = SuffixEntry("X.t", 10, "NEG", "neutral", "any",
                             (Allomorph("t", "C"),))
        with_x = Lexicon(lexicon.roots, {**lexicon.suffixes, "X.t": only_c})
        rules = load_rules(data_path("rules.tsv"))
        assert self.trailer(with_x, rules, "X.t", "V") is None
        assert self.trailer(with_x, rules, "X.t", "C") == "t"
        with pytest.raises(PhonologyError,
                           match="^no allomorph of X.t fits after 'a'$"):
            generate("küpa", "IV", ["X.t", "IND1SG.n"], with_x, rules)
