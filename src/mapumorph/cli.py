"""Command-line front end: analyse, generate, validate-lexicon, classify.

Data goes to stdout, diagnostics to stderr, never interleaved.  Exit
codes: 0 success (no-parse lines included), 1 configuration or I/O
error, 2 lexicon invariant failure.  Output is byte-identical across
runs on identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import unicodedata
from contextlib import redirect_stderr, redirect_stdout

from . import defaults
from .alphabet import AlphabetError
from .analyzer import (Analysis, GenerationError, analyse, generate,
                       gloss_render, json_objects)
from .classifier import classify_corpus, render_table
from .lexicon import LexiconError, data_lines, load_lexicon, validate_lexicon
from .phonology import load_rules

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2


def _add_data_flags(parser, rules=True):
    parser.add_argument("--lexicon", help="root inventory TSV")
    parser.add_argument("--suffixes", help="suffix inventory TSV")
    if rules:
        parser.add_argument("--rules", help="boundary rule TSV")
    parser.add_argument("--slots", help="slot table TSV (cross-check only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapumorph",
        description="Mapudüngun verb morphology: analyse, generate, classify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyse", help="segment and gloss words, one per line")
    _add_data_flags(p)
    p.add_argument("--format", choices=["gloss-text", "json-lines"],
                   default="gloss-text")
    p.add_argument("--best", action="store_true",
                   help="print only the top-ranked analysis per word")
    p.add_argument("--source", default=None,
                   help="corpus id recorded on JSON output")

    p = sub.add_parser("generate",
                       help="realize root<TAB>sense<TAB>suffix ids per line")
    _add_data_flags(p)

    p = sub.add_parser("validate-lexicon", help="report lexicon diagnostics")
    _add_data_flags(p, rules=False)

    p = sub.add_parser("classify",
                       help="valency table from JSON-lines analyses on stdin")
    _add_data_flags(p, rules=False)
    p.add_argument("--threshold", type=int, default=1,
                   help="diagnostic hits needed per class (>= 1)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`run` reads every command line with, built once."""
    return build_parser()


def _load_tables(args, strict=True):
    """The lexicon and the rule table that ``--rules`` names (None for the
    shipped one), each checked in that order, the rule table against the
    lexicon's suffix ids, then the slot table."""
    if args.lexicon or args.suffixes:
        root_path = args.lexicon or defaults.data_path("roots.tsv")
        suffix_path = args.suffixes or defaults.data_path("suffixes.tsv")
        lexicon = load_lexicon(root_path, suffix_path, strict=strict)
    else:
        lexicon = defaults.default_lexicon()
    rules = None
    if getattr(args, "rules", None):  # only analyse and generate take it
        rules = load_rules(args.rules, lexicon.suffixes)
    if args.slots:
        _cross_check_slots(args.slots, lexicon)
    return lexicon, rules


def _cross_check_slots(path, lexicon):
    for lineno, line in data_lines(path):
        cols = line.strip().split("\t")
        try:
            sid, slot = cols[0], int(cols[1])
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{lineno}: expected "
                             "suffix-id<TAB>integer slot") from None
        entry = lexicon.suffixes.get(sid)
        if entry is None:
            raise LexiconError(f"slot table names {sid}, which the suffix "
                               "inventory lacks", path, lineno)
        if entry.slot != slot:
            raise LexiconError(
                f"slot table disagrees with suffix inventory for {sid}",
                path, lineno)


def _cmd_analyse(args, stdin, stdout, stderr) -> int:
    lexicon, rules = _load_tables(args)
    for raw in stdin:
        word = unicodedata.normalize("NFC", raw.strip())
        if not word:
            continue
        error = None
        try:
            found = analyse(word, lexicon, rules)
        except AlphabetError as err:
            print(f"analyse: {err}", file=stderr)
            if args.format != "json-lines":
                print(f"{word}\tERROR\t{err}", file=stdout)
                continue
            found, error = [], str(err)
        if args.best:
            found = found[:1]
        if args.format == "json-lines":
            payload = {"word": word,
                       "analyses": [a.to_json() for a in found]}
            if error is not None:
                payload["error"] = error
            if args.source:
                payload["source"] = args.source
                for item in payload["analyses"]:
                    item["source"] = args.source
            print(json.dumps(payload, ensure_ascii=False, sort_keys=True),
                  file=stdout)
        else:
            if not found:
                print(f"{word}\tNO-PARSE", file=stdout)
            for analysis in found:
                print(f"{word}\t{gloss_render(analysis)}", file=stdout)
    return EXIT_OK


def violations_json(violations) -> str:
    """One JSON line for a violation list, a generate ERROR's payload."""
    return json.dumps([v.to_json() for v in violations], ensure_ascii=False)


def _cmd_generate(args, stdin, stdout, stderr) -> int:
    lexicon, rules = _load_tables(args)
    for raw in stdin:
        line = raw.rstrip()  # a leading tab opens an empty first column
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            print(f"{line}\tERROR\texpected root<TAB>sense[<TAB>suffixes]",
                  file=stdout)
            continue
        root, sense = cols[0], cols[1]
        suffix_ids = [s for s in cols[2].replace(",", " ").split()] \
            if len(cols) > 2 else []
        try:
            surface = generate(root, sense, suffix_ids, lexicon, rules)
        except GenerationError as err:
            print(f"{line}\tERROR\t{violations_json(err.violations)}",
                  file=stdout)
            print(f"generate: {err}", file=stderr)
            continue
        except (KeyError, ValueError) as err:
            print(f"{line}\tERROR\t{err}", file=stdout)
            print(f"generate: {err}", file=stderr)
            continue
        print(f"{line}\t{surface}", file=stdout)
    return EXIT_OK


def _cmd_validate(args, stdin, stdout, stderr) -> int:
    lexicon, _ = _load_tables(args, strict=False)
    diagnostics = validate_lexicon(lexicon)
    for diag in diagnostics:
        print(f"{diag.code}\t{diag.subject}\t{diag.message}", file=stdout)
    if any(d.invariant for d in diagnostics):
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_classify(args, stdin, stdout, stderr) -> int:
    if args.threshold < 1:  # refused before any input is read
        raise ValueError("threshold must be >= 1")
    lexicon, _ = _load_tables(args)
    corpus = []
    for lineno, raw in enumerate(stdin, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            # output of `analyse --format json-lines`
            if type(data) is dict and "analyses" in data:
                for item in json_objects(data["analyses"], "analyses"):
                    item.setdefault("source", data.get("source"))
                    corpus.append(Analysis.from_json(item))
            else:
                corpus.append(Analysis.from_json(data))
        except json.JSONDecodeError as err:
            problem = f"invalid JSON: {err.msg} at column {err.colno}"
        except KeyError as err:
            problem = f"analysis lacks {err}"
        except (AttributeError, IndexError, TypeError, ValueError) as err:
            problem = f"malformed analysis: {err}"
        else:
            continue
        print(f"<stdin>:{lineno}: {problem}", file=stderr)
        return EXIT_CONFIG
    table = classify_corpus(corpus, lexicon, threshold=args.threshold)
    stdout.write(render_table(table))
    return EXIT_OK


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "analyse": _cmd_analyse,
        "generate": _cmd_generate,
        "validate-lexicon": _cmd_validate,
        "classify": _cmd_classify,
    }
    try:
        return handlers[args.command](args, stdin, stdout, stderr)
    except LexiconError as err:
        print(f"lexicon: {err}", file=stderr)
        return EXIT_INVARIANT
    except OSError as err:
        print(f"io: {err}", file=stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"error: {err}", file=stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
