import argparse
import gc
import io
import json
import pathlib
import re
import weakref

import pytest

from mapumorph import cli
from mapumorph.cli import run
from mapumorph.defaults import data_path
from mapumorph.lexicon import load_lexicon

from helpers import classifier_corpus, to_json_line


def invoke(argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestAnalyse:
    def test_gloss_text_line(self):
        code, out, err = invoke(["analyse"], "küpalün\n")
        assert code == 0
        assert "küpalün\tIV.come +CA +IND1SG" in out.splitlines()

    def test_a_blank_line_is_skipped(self):
        code, out, _ = invoke(["analyse"], "küpalün\n \t\n\nkkkk\n")
        assert (code, out) == invoke(["analyse"], "küpalün\nkkkk\n")[:2]
        assert out.endswith("\nkkkk\tNO-PARSE\n")

    def test_no_parse_keeps_exit_zero(self):
        code, out, _ = invoke(["analyse"], "kkkk\n")
        assert code == 0
        assert out.splitlines() == ["kkkk\tNO-PARSE"]

    def test_unknown_character_reported_on_stderr(self):
        code, out, err = invoke(["analyse"], "xyz\n")
        assert code == 0
        assert out.startswith("xyz\tERROR")
        assert "unknown character" in err

    def test_decomposed_input_is_read_in_nfc(self):
        argv = ["analyse", "--format", "json-lines"]
        assert invoke(argv, "ku\u0308pan\n") == invoke(argv, "küpan\n")
        assert invoke(["analyse"], "ku\u0308pan\n") == invoke(
            ["analyse"], "küpan\n")

    def test_uppercase_is_a_located_unknown_character(self):
        code, out, err = invoke(["analyse"], "Küpan\n")
        assert code == 0
        assert out == "Küpan\tERROR\tunknown character 'K' in 'Küpan'\n"
        assert err == "analyse: unknown character 'K' in 'Küpan'\n"

    def test_best_prints_single_line(self):
        code, out, _ = invoke(["analyse", "--best"], "küpalün\n")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_json_lines(self):
        code, out, _ = invoke(
            ["analyse", "--format", "json-lines", "--source", "kona"],
            "küpan\n")
        assert code == 0
        data = json.loads(out)
        assert data["word"] == "küpan"
        glosses = {a["gloss"] for a in data["analyses"]}
        assert "IV.come +IND1SG" in glosses
        assert all(a["source"] == "kona" for a in data["analyses"])

    def test_byte_identical_reruns(self):
        words = "küpalün\npifaleymün\nmongekefiñ\n"
        first = invoke(["analyse"], words)
        second = invoke(["analyse"], words)
        assert first == second

    def test_output_order_matches_input_order(self):
        _, out, _ = invoke(["analyse", "--best"], "watroy\nküpan\n")
        lines = out.splitlines()
        assert lines[0].startswith("watroy\t")
        assert lines[1].startswith("küpan\t")


    @pytest.mark.parametrize("command, line", [
        ("analyse", "küpalün\n"),
        ("generate", "küpa\tIV\tCA.m IND1SG.n\n"),
    ], ids=["analyse", "generate"])
    def test_runs_keep_at_most_one_loaded_lexicon(self, monkeypatch, command,
                                                  line):
        loaded = []

        def tracking_load(*args, **kwargs):
            lexicon = load_lexicon(*args, **kwargs)
            loaded.append(weakref.ref(lexicon))
            return lexicon

        monkeypatch.setattr(cli, "load_lexicon", tracking_load)
        for _ in range(3):
            code, _, _ = invoke(
                [command, "--lexicon", str(data_path("roots.tsv"))], line)
            assert code == 0
        gc.collect()
        assert len(loaded) == 3
        assert sum(ref() is not None for ref in loaded) <= 1


class TestGenerate:
    def test_surface_emitted(self):
        code, out, _ = invoke(["generate"], "püra\tIV\tCA.m IND1SG.n\n")
        assert code == 0
        assert out.splitlines() == ["püra\tIV\tCA.m IND1SG.n\tpüramün"]

    def test_violations_surface_verbatim(self):
        code, out, err = invoke(["generate"], "monge\tIV\t\n")
        assert code == 0
        assert "ERROR" in out and "missing_mood" in out
        assert "missing_mood" in err

    def test_a_category_picks_a_homograph(self):
        # nag is a verb and an adverb; a bare form means the verb, whose
        # g-sandhi exception keeps its g before the m-causative
        code, out, err = invoke(["generate"],
                                "nag:adverb\tIV\tCA.m IND1SG.n\n"
                                "nag\tIV\tCA.m IND1SG.n\n"
                                "nag:noun\tIV\tCA.m IND1SG.n\n")
        assert code == 0
        assert out.splitlines() == [
            "nag:adverb\tIV\tCA.m IND1SG.n\tnakümün",
            "nag\tIV\tCA.m IND1SG.n\tnagümün",
            "nag:noun\tIV\tCA.m IND1SG.n\tERROR\t\"unknown root 'nag:noun'\""]
        assert err == "generate: \"unknown root 'nag:noun'\"\n"

    def test_a_form_with_no_verb_entry_needs_its_category(self, tmp_path):
        path = tmp_path / "roots.tsv"
        path.write_text("kura\tnoun\tIV\tIV:stone\n"
                        "kura\tadjective\tIV\tIV:stony\n", encoding="utf-8")
        code, out, _ = invoke(["generate", "--lexicon", str(path)],
                              "kura\tIV\tCA.m IND1SG.n\n"
                              "kura:noun\tIV\tCA.m IND1SG.n\n")
        assert code == 0
        assert out.splitlines() == [
            "kura\tIV\tCA.m IND1SG.n\tERROR\t"
            "\"ambiguous root 'kura'; pass form:category\"",
            "kura:noun\tIV\tCA.m IND1SG.n\tkuramün"]

    def test_a_rule_target_outside_the_alphabet_fails_at_load(self,
                                                              tmp_path):
        # the surface küpahmün could never be analysed back
        path = tmp_path / "rules.tsv"
        path.write_text("x\tprothesis\tV\tsuffix:CA.m\tright:prefix:h\t-\n"
                        + data_path("rules.tsv").read_text(encoding="utf-8"),
                        encoding="utf-8")
        code, out, err = invoke(["generate", "--rules", str(path)],
                                "küpa\tIV\tCA.m IND1SG.n\n")
        assert (code, out) == (1, "")
        assert f"{path}:1: target 'h' of 'right:prefix:h'" in err

    def test_a_lexeme_no_root_can_be_fails_at_load(self, tmp_path):
        # a typo in a form or category would silently disable the rule:
        # küpamün would be printed with exit 0
        path = tmp_path / "rules.tsv"
        path.write_text("x\tsandhi\t=Küpa\tsuffix:CA.m\tleft:final:e\t"
                        "Küpa,la:Verb\n"
                        + data_path("rules.tsv").read_text(encoding="utf-8"),
                        encoding="utf-8")
        code, out, err = invoke(["generate", "--rules", str(path)],
                                "küpa\tIV\tCA.m IND1SG.n\n")
        assert (code, out) == (1, "")
        assert err == (f"error: {path}:1: form 'Küpa' in pattern '=Küpa' "
                       "is outside the alphabet\n")

    @pytest.mark.parametrize("header, left, right, line, sid", [
        ("", "V", "suffix:CA.x", 1, "CA.x"),
        ("# a comment\n\n", "suffix:RI.fux", "suffix:AGR.fi", 3, "RI.fux"),
        ("", "suffix:RI.fu", "suffix:AGR.x", 1, "AGR.x"),
    ], ids=["right", "left-after-comment", "right-after-a-known-left"])
    def test_a_rule_naming_no_suffix_of_the_lexicon_fails_at_load(
            self, tmp_path, header, left, right, line, sid):
        # the rule would never fire: küpamün would be printed with exit 0
        path = tmp_path / "rules.tsv"
        path.write_text(f"{header}x\tsandhi\t{left}\t{right}\t"
                        "left:final:e\t-\n"
                        + data_path("rules.tsv").read_text(encoding="utf-8"),
                        encoding="utf-8")
        code, out, err = invoke(["generate", "--rules", str(path)],
                                "küpa\tIV\tCA.m IND1SG.n\n")
        assert (code, out) == (1, "")
        assert err == (f"error: {path}:{line}: pattern 'suffix:{sid}' names "
                       "no suffix of the lexicon\n")

    def test_the_first_fault_of_a_rule_table_is_reported(self, tmp_path):
        # line 1 names no suffix of the lexicon and line 2 is malformed:
        # line 1 is reported, as for any other two faults of a table
        path = tmp_path / "rules.tsv"
        path.write_text("x\tsandhi\tV\tsuffix:CA.x\tleft:final:e\t-\n"
                        "malformed\n", encoding="utf-8")
        code, out, err = invoke(["generate", "--rules", str(path)],
                                "küpa\tIV\tCA.m IND1SG.n\n")
        assert (code, out) == (1, "")
        assert err == (f"error: {path}:1: pattern 'suffix:CA.x' names no "
                       "suffix of the lexicon\n")

    def test_a_rule_table_is_checked_against_the_given_suffixes(
            self, tmp_path):
        # the shipped rules name RI.fu, which this suffix inventory lacks;
        # only a rule table given on the command line is checked
        shipped = data_path("rules.tsv")
        suffixes = tmp_path / "suffixes.tsv"
        suffixes.write_text("".join(
            line for line in data_path("suffixes.tsv").read_text(
                encoding="utf-8").splitlines(keepends=True)
            if not line.startswith("RI.fu\t")), encoding="utf-8")
        code, out, _ = invoke(["generate", "--suffixes", str(suffixes)],
                              "küpa\tIV\tCA.m IND1SG.n\n")
        assert (code, out) == (0, "küpa\tIV\tCA.m IND1SG.n\tküpamün\n")
        code, out, err = invoke(["generate", "--suffixes", str(suffixes),
                                 "--rules", str(shipped)],
                                "küpa\tIV\tCA.m IND1SG.n\n")
        lineno = next(
            n for n, line in enumerate(shipped.read_text(
                encoding="utf-8").splitlines(), 1)
            if "suffix:RI.fu" in line)
        assert (code, out) == (1, "")
        assert err == (f"error: {shipped}:{lineno}: pattern 'suffix:RI.fu' "
                       "names no suffix of the lexicon\n")

    def test_an_empty_first_column_is_kept(self):
        code, out, err = invoke(["generate"], "\tIV\tIND1SG.n\r\n")
        assert code == 0
        assert out == "\tIV\tIND1SG.n\tERROR\t\"unknown root ''\"\n"
        assert err == "generate: \"unknown root ''\"\n"


class TestValidateLexicon:
    def test_clean_lexicon_exits_zero(self):
        code, out, _ = invoke(["validate-lexicon"])
        assert code == 0 and out == ""

    def test_labile_missing_sense_exits_two(self, tmp_path):
        path = tmp_path / "roots.tsv"
        path.write_text("aye\tverb\tlabile\tIV:laugh\n", encoding="utf-8")
        code, out, _ = invoke(["validate-lexicon", "--lexicon", str(path)])
        assert code == 2
        assert "labile_missing_sense\taye" in out

    def test_missing_file_is_config_error(self):
        code, _, err = invoke(["validate-lexicon", "--lexicon", "/nope.tsv"])
        assert code == 1
        assert err


class TestClassify:
    def test_classify_pipeline(self, lexicon, rules):
        corpus = classifier_corpus(lexicon, rules)
        lines = "\n".join(map(to_json_line, corpus)) + "\n"
        code, out, _ = invoke(["classify"], lines)
        assert code == 0
        rows = dict(line.split("\t")[:2] for line in out.splitlines())
        assert rows["monge"] == "labile"
        assert rows["püna"] == "labile"
        assert rows["maychü"] == "TV"

    def test_threshold_flag(self, lexicon, rules):
        corpus = classifier_corpus(lexicon, rules)
        lines = "\n".join(map(to_json_line, corpus)) + "\n"
        code, out, _ = invoke(["classify", "--threshold", "2"], lines)
        assert code == 0
        rows = dict(line.split("\t")[:2] for line in out.splitlines())
        # a single attestation no longer counts at threshold 2
        assert rows["maychü"] == "undetermined"
        # a threshold below 1 is refused before any input is read: on
        # empty input too, and ahead of a malformed line
        for text in (lines, "", lines + "{oops\n"):
            code, out, err = invoke(["classify", "--threshold", "0"], text)
            assert (code, out, err) == (
                1, "", "error: threshold must be >= 1\n")

    def test_accepts_analyse_json_output(self):
        _, analysed, _ = invoke(
            ["analyse", "--format", "json-lines", "--source", "kona",
             "--best"], "ayekafiñ\n")
        code, out, _ = invoke(["classify"], analysed)
        assert code == 0
        assert any(line.startswith("aye\t") for line in out.splitlines())

    def test_out_of_alphabet_word_keeps_json_lines_valid(self):
        words = ["küpan", "hello", "püramün"]
        argv = ["analyse", "--format", "json-lines", "--source", "kona"]
        _, analysed, err = invoke(argv, "\n".join(words) + "\n")
        line = json.loads(analysed.splitlines()[1])
        assert line == {"analyses": [], "error": "unknown character 'h' in "
                        "'hello'", "source": "kona", "word": "hello"}
        assert err == "analyse: unknown character 'h' in 'hello'\n"
        code, out, _ = invoke(["classify"], analysed)
        _, without, _ = invoke(argv, "küpan\npüramün\n")
        assert code == 0
        assert out == invoke(["classify"], without)[1]

    def test_analysis_without_pieces_is_located(self):
        code, out, err = invoke(["classify"], '{"word":"x"}\n')
        assert code == 1 and out == ""
        assert err == "<stdin>:1: analysis lacks 'pieces'\n"

    def test_malformed_json_names_its_stdin_line(self):
        _, analysed, _ = invoke(["analyse", "--format", "json-lines"],
                                "ayekafiñ\n")
        code, out, err = invoke(["classify"], analysed + "\n{oops\n")
        assert code == 1 and out == ""
        assert err.startswith("<stdin>:3: invalid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value, message", [
        ("source", 5, "source must be a string, not int"),
        ("morph", 7, "morph must be a string, not int"),
        ("tags", "CA", "tags must be a list of strings, not 'CA'"),
        ("trace", ["püna", 1],
         "trace step must be [morph, IV|TV|TV2], not ['püna', 1]"),
        ("trace", ["püna", "iv"],
         "trace step must be [morph, IV|TV|TV2], not ['püna', 'iv']"),
        ("trace", ["püna", "IV", "TV"],
         "trace step must be [morph, IV|TV|TV2], not ['püna', 'IV', 'TV']"),
        ("trace", "püna",
         "trace step must be [morph, IV|TV|TV2], not 'püna'"),
        ("span", "ab", "span must be a list of two ints, not 'ab'"),
        ("span", [0.5, None],
         "span must be a list of two ints, not [0.5, None]"),
        ("surface", 3, "surface must be a string, not int"),
        ("gloss", 1.5, "gloss must be a string or null, not float"),
        ("category", 7, "category must be a string or null, not int"),
        ("sense_context", ["IV"],
         "sense_context must be a string or null, not list"),
        ("effect", ["increase"], "effect must be a string or null, not list"),
        ("slot", "x", "slot must be an int or null, not str"),
        ("slot", True, "slot must be an int or null, not bool"),
        ("fused_with_prev", "yes", "fused_with_prev must be a bool, not str"),
        ("fused_with_prev", 0, "fused_with_prev must be a bool, not int"),
        ("stem_valency", 2, "stem_valency must be a string or null, not int"),
        ("pieces", {"span": "ab", "surface": 3},
         "surface must be a string, not int"),
        ("pieces", {"tags": "CA", "kind": 1},
         "kind must be a string, not int"),
        ("pieces", {"tags": "CA", "morph": 7},
         "morph must be a string, not int"),
        ("tags", ["CA", 1], "tags must be a list of strings, not ['CA', 1]"),
        ("span", [1, 2, 3],
         "span must be a list of two ints, not [1, 2, 3]"),
        ("trace", ["püna", "TV3"],
         "trace step must be [morph, IV|TV|TV2], not ['püna', 'TV3']"),
    ], ids=["source", "morph", "tags", "trace-state-int",
            "trace-state-lowercase", "trace-step-of-three", "trace-step-str",
            "span-str", "span-of-non-ints", "surface", "gloss", "category",
            "sense_context", "effect", "slot-str", "slot-bool",
            "fused_with_prev-str", "fused_with_prev-int", "stem_valency",
            "piece-wrong-twice-surface-first", "piece-wrong-twice-kind-first",
            "piece-wrong-twice-morph-first", "tags-holding-int",
            "span-of-three", "trace-state-unknown"])
    def test_field_of_wrong_type_is_located(self, field, value, message):
        # next to a well-formed line: pünamün, IV.stick +CA +IND1SG
        _, line, _ = invoke(["analyse", "--format", "json-lines", "--best"],
                            "pünamün\n")
        bad = json.loads(line)["analyses"][0]
        if field in ("source", "stem_valency"):
            bad[field] = value
        elif field == "trace":
            bad["trace"][0] = value            # the root's step
        elif field == "pieces":
            bad["pieces"][0].update(value)     # the root's, in two places
        elif field in ("morph", "span", "surface", "gloss", "category",
                       "sense_context"):
            bad["pieces"][0][field] = value    # the root's
        else:
            bad["pieces"][1][field] = value    # the causative's
        code, out, err = invoke(["classify"], line + json.dumps(bad) + "\n")
        assert code == 1 and out == ""
        assert err == f"<stdin>:2: malformed analysis: {message}\n"


    @pytest.mark.parametrize("line, message", [
        ("5", "analysis must be a JSON object, not int"),
        ('["x"]', "analysis must be a JSON object, not list"),
        ('{"analyses": 5}', "analyses must be a list of objects, not int"),
        ('{"analyses": [5]}',
         "analyses must be a list of objects, not a list holding int"),
        ('{"word": "x", "pieces": {"a": 1}}',
         "pieces must be a list of objects, not dict"),
        ('{"word": "x", "pieces": [null]}',
         "pieces must be a list of objects, not a list holding NoneType"),
        ('{"word": "x", "pieces": [{"span": "ab"}, 5]}',
         "span must be a list of two ints, not 'ab'"),
        ('{"word": "x", "pieces": [], "trace": "ab"}',
         "trace must be a list, not str"),
        ('{"word": "x", "pieces": [{"kind": "root", "morph": "x"}]}',
         "analysis lacks 'span'"),
        ('{"word": "x", "pieces": [{"span": "ab", "morph": "x"}]}',
         "span must be a list of two ints, not 'ab'"),
        ('{"word": "x", "pieces": [{"span": "ab"}], "trace": "ab"}',
         "span must be a list of two ints, not 'ab'"),
        ('{"word": "x", "pieces": [], "trace": [5], "stem_valency": 2}',
         "trace step must be [morph, IV|TV|TV2], not 5"),
        ('{"pieces": [], "stem_valency": 2}',
         "stem_valency must be a string or null, not int"),
    ], ids=["bare-int", "bare-list", "analyses-int", "analyses-of-int",
            "pieces-dict", "pieces-of-null", "piece-checked-before-next",
            "trace-str", "piece-without-span", "span-before-missing-kind",
            "piece-before-trace", "trace-before-stem_valency",
            "stem_valency-before-missing-word"])
    def test_json_of_wrong_shape_is_located(self, line, message):
        _, good, _ = invoke(["analyse", "--format", "json-lines"],
                            "pünamün\n")
        code, out, err = invoke(["classify"], good + line + "\n")
        assert code == 1 and out == ""
        if not message.startswith("analysis lacks "):
            message = f"malformed analysis: {message}"
        assert err == f"<stdin>:2: {message}\n"


def test_parser_is_built_once_per_process():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_slot_table_cross_check(tmp_path):
    bad = tmp_path / "slots.tsv"
    bad.write_text("CA.l\t12\n", encoding="utf-8")
    code, _, err = invoke(["analyse", "--slots", str(bad)], "küpan\n")
    assert code == 2
    assert "disagrees" in err


def test_a_slot_line_naming_no_suffix_is_located(tmp_path):
    bad = tmp_path / "slots.tsv"
    bad.write_text("CA.l\t34\nCA.x\t34\n", encoding="utf-8")
    code, out, err = invoke(["analyse", "--slots", str(bad)], "küpan\n")
    assert (code, out) == (2, "")
    assert err == (f"lexicon: {bad}:2: slot table names CA.x, which the "
                   "suffix inventory lacks\n")


def test_an_indented_slot_line_is_read_stripped(tmp_path):
    # leading whitespace opens no column, and an indented # is a comment
    bad = tmp_path / "slots.tsv"
    bad.write_text("  # note\n\tCA.l\t12 \n", encoding="utf-8")
    code, _, err = invoke(["analyse", "--slots", str(bad)], "küpan\n")
    assert code == 2
    assert err.startswith(f"lexicon: {bad}:2: slot table disagrees")


@pytest.mark.parametrize("text,line", [("CA.l\n", 1),
                                       ("# comment\nCA.l\tx\n", 2)])
def test_slot_table_line_errors_are_located(tmp_path, text, line):
    bad = tmp_path / "slots.tsv"
    bad.write_text(text, encoding="utf-8")
    code, out, err = invoke(["analyse", "--slots", str(bad)], "küpan\n")
    assert code == 1 and out == ""
    assert err == (f"error: {bad}:{line}: expected suffix-id<TAB>integer "
                   "slot\n")


def test_slot_table_file_is_closed(tmp_path, monkeypatch):
    # the slot table is read by lexicon.data_lines, through Path.open
    good = tmp_path / "slots.tsv"
    good.write_text("CA.l\t34\n", encoding="utf-8")
    opened, path_open = [], pathlib.Path.open

    def tracking_open(self, *args, **kwargs):
        file = path_open(self, *args, **kwargs)
        if self == good:
            opened.append(file)
        return file

    monkeypatch.setattr(pathlib.Path, "open", tracking_open)
    code, _, _ = invoke(["analyse", "--slots", str(good)], "küpan\n")
    assert code == 0
    assert len(opened) == 1 and opened[0].closed


def test_a_rule_table_is_read_once(tmp_path, monkeypatch):
    # the rule table is read by lexicon.data_lines, through Path.read_bytes
    table = tmp_path / "rules.tsv"
    table.write_bytes(data_path("rules.tsv").read_bytes())
    read, path_read_bytes = [], pathlib.Path.read_bytes

    def tracking_read_bytes(self):
        if self == table:
            read.append(self)
        return path_read_bytes(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", tracking_read_bytes)
    code, out, _ = invoke(["generate", "--rules", str(table)],
                          "küpa\tIV\tCA.m IND1SG.n\n")
    assert (code, out) == (0, "küpa\tIV\tCA.m IND1SG.n\tküpamün\n")
    assert len(read) == 1


UNKNOWN_SUFFIX_RULE = "x\tsandhi\tV\tsuffix:CA.x\tleft:final:e\t-\n"


@pytest.mark.parametrize("command", ["classify", "validate-lexicon"])
@pytest.mark.parametrize("bad", [False, True], ids=["shipped", "bad"])
def test_only_analyse_and_generate_take_rules(tmp_path, command, bad):
    # neither command reads a rule, so a rule table is a usage error,
    # whether or not it would load
    path = data_path("rules.tsv")
    if bad:
        path = tmp_path / "rules.tsv"
        path.write_text(UNKNOWN_SUFFIX_RULE, encoding="utf-8")
    code, out, err = invoke([command, "--rules", str(path)], "")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --rules" in err


def test_usage_errors_go_to_the_given_stderr(capsys):
    code, out, err = invoke(["classify", "--threshold", "abc"], "")
    assert (code, out) == (1, "")
    assert err.endswith("mapumorph classify: error: argument --threshold: "
                        "invalid int value: 'abc'\n")
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = invoke(["--help"], "")
    assert (code, err) == (0, "")
    assert out.startswith("usage: mapumorph ")
    assert capsys.readouterr() == ("", "")


NOT_UTF8 = b"x\tprothesis\tany\tany\t-\t-\ny\xff\tsandhi\tany\tany\t-\t-\n"


@pytest.mark.parametrize("command,flag", [
    ("analyse", "--rules"), ("analyse", "--lexicon"),
    ("analyse", "--suffixes"), ("analyse", "--slots"),
    ("validate-lexicon", "--lexicon"), ("validate-lexicon", "--suffixes")])
def test_a_table_that_is_not_utf8_is_located(tmp_path, command, flag):
    # the bad byte is on the second line, after a well-formed first one
    bad = tmp_path / "table.tsv"
    bad.write_bytes(NOT_UTF8)
    code, out, err = invoke([command, flag, str(bad)], "küpan\n")
    assert (code, out) == (1, "")
    assert err == (f"error: {bad}:2: not UTF-8: byte 0xff (invalid start "
                   "byte)\n")


def test_a_table_with_a_byte_order_mark_reads_as_its_plain_copy(tmp_path):
    # one UTF-8 byte order mark before the first line, a comment or data,
    # is dropped; the lines after it keep their numbers
    words = (pathlib.Path(__file__).resolve().parent / "data" / "golden"
             / "words.txt").read_text(encoding="utf-8").splitlines()[::10]
    stdin = "\n".join(words) + "\n"
    roots = data_path("roots.tsv").read_bytes()
    tables = [("--lexicon", roots),
              ("--lexicon", b"".join(line for line in roots.splitlines(True)
                                     if not line.startswith(b"#"))),
              ("--rules", data_path("rules.tsv").read_bytes()),
              ("--slots", data_path("slots.tsv").read_bytes())]
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    shipped = invoke(["analyse"], stdin)
    assert shipped[0] == 0 and shipped[1].count("\n") >= len(words)
    for flag, text in tables:
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert invoke(["analyse", flag, str(marked)], stdin) == shipped, flag
        if flag != "--rules":
            assert invoke(["validate-lexicon", flag, str(marked)]) == \
                invoke(["validate-lexicon", flag, str(plain)]) == (0, "", "")
    # an error's byte and line are those of the file after the mark
    marked.write_bytes(b"\xef\xbb\xbf" + NOT_UTF8)
    assert invoke(["analyse", "--rules", str(marked)], "küpan\n") == (
        1, "", f"error: {marked}:2: not UTF-8: byte 0xff (invalid start "
        "byte)\n")


@pytest.mark.parametrize("command",
                         ["analyse", "generate", "validate-lexicon",
                          "classify"])
def test_tables_are_checked_lexicon_then_rules_then_slots(tmp_path,
                                                          command):
    roots, rules, slots = (tmp_path / name for name in (
        "roots.tsv", "rules.tsv", "slots.tsv"))
    roots.write_text("bad-line-no-tabs\n", encoding="utf-8")
    rules.write_text(UNKNOWN_SUFFIX_RULE, encoding="utf-8")
    slots.write_text("CA.l\n", encoding="utf-8")
    bad = {
        "--lexicon": (roots, 2, f"lexicon: {roots}:1: expected at least 4 "
                      "tab-separated columns, got 1\n"),
        "--rules": (rules, 1, f"error: {rules}:1: pattern 'suffix:CA.x' "
                    "names no suffix of the lexicon\n"),
        "--slots": (slots, 1, f"error: {slots}:1: expected "
                    "suffix-id<TAB>integer slot\n"),
    }
    if command not in ("analyse", "generate"):
        del bad["--rules"]
    # each bad table, with the ones after it, reports itself; then it goes
    while bad:
        argv = [command]
        for flag, (path, _, _) in bad.items():
            argv += [flag, str(path)]
        flag, (_, code, err) = next(iter(bad.items()))
        assert invoke(argv, "") == (code, "", err), flag
        del bad[flag]


def test_the_readme_lists_each_subcommands_flags():
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    listed = {match[1]: set(re.findall(r"`(--[a-z-]+)`", match[2]))
              for match in re.finditer(r"^\| `([a-z-]+)` \|(.*)\|$", readme,
                                       re.MULTILINE)}
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert listed == {
        name: {flag for action in parser._actions
               for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for name, parser in sub.choices.items()}
