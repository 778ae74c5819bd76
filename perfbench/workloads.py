"""The three workloads: what one operation is, its inputs, and how its
output is checked against a reference that the timed code did not make.

Each workload class names the module its user imports first (``entry``);
each workload object offers ``stream()`` (inputs for the timed run, in
seeded order), ``warmup()``, ``traced_items()`` (the fixed input set of
the traced run), ``run(item, span)`` (one operation), ``units(item)``
(operations it counts for), ``check(item, out)`` and ``digest_line``.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json

import inputs

LABILE_FILE = ("tests", "data", "labile9.tsv")


def normalize_gloss(gloss):
    """Gloss comparison form: drop +/- member signs and -CR.* markers."""
    tokens = (t.lstrip("+-") for t in gloss.split())
    return " ".join(t for t in tokens if t not in ("CR.TV", "CR.IV"))


class Analyse:
    """``analyse(word)`` on the full lexicon, rendered as json-lines."""

    name = "analyse"
    entry = "mapumorph.analyzer"
    # The traced run uses the first words of each kind in the stream.
    TRACED = {"gloss": 4, "generated": 16, "probe": 4}

    def __init__(self, root, seed, lexicon, rules):
        self.root, self.seed = root, seed
        self.lexicon, self.rules = lexicon, rules
        self.analyzer = importlib.import_module("mapumorph.analyzer")

    def _source(self, seed):
        return inputs.analyse_stream(seed, self.root, self.lexicon, self.rules)

    def stream(self):
        # Each word is made just before it is analysed, outside the timed
        # call, so a faster analyser never runs out of distinct words and
        # memory does not grow with a prepared pool.
        return self._source(self.seed)

    def warmup(self):
        source = self._source(f"{self.seed}/warmup")
        return list(itertools.islice(
            (it for it in source if it["kind"] != "gloss"), 3))

    def traced_items(self):
        wanted = dict(self.TRACED)
        out = []
        for item in self._source(self.seed):
            if wanted[item["kind"]]:
                wanted[item["kind"]] -= 1
                out.append(item)
            if not any(wanted.values()):
                return out

    def run(self, item, span):
        word = item["word"]
        found = self.analyzer.analyse(word)
        with span("bench.render"):
            payload = {"word": word, "analyses": [a.to_json() for a in found]}
            line = json.dumps(payload, ensure_ascii=False, sort_keys=True)
        return payload, line

    def units(self, item):
        return 1

    def check(self, item, out):
        if isinstance(out, Exception):
            return False
        analyses = out[0]["analyses"]
        if item["kind"] == "gloss":
            target = normalize_gloss(item["gloss"])
            return any(normalize_gloss(a["gloss"]) == target
                       for a in analyses)
        if item["kind"] == "generated":
            return any(_matches(a, item) for a in analyses)
        return True  # a probe fails only by raising

    def digest_line(self, item, out):
        if isinstance(out, Exception):
            return f"{item['word']}\tERROR\t{type(out).__name__}: {out}"
        return out[1]

    def analyses(self, out):
        return 0 if isinstance(out, Exception) else len(out[0]["analyses"])


def _matches(analysis, item):
    pieces = analysis["pieces"]
    roots = [p for p in pieces if p["kind"] == "root"]
    suffixes = [p["morph"] for p in pieces if p["kind"] == "suffix"]
    return (len(roots) == 1 and roots[0]["morph"] == item["root"]
            and roots[0]["sense_context"] == item["sense"]
            and suffixes == item["suffixes"])


class Generate:
    """``generate(root, sense, suffix_ids)`` over seeded tuples."""

    name = "generate"
    entry = "mapumorph.analyzer"
    POOL = 4000
    TRACED = 500
    # The words of this many valid pool tuples are also analysed back, once
    # each, and must yield their tuple: a reference from the search path.
    ROUND_TRIPS = 40

    def __init__(self, root, seed, lexicon, rules):
        self.analyzer = importlib.import_module("mapumorph.analyzer")
        self.pool = inputs.generate_items(seed, lexicon, self.POOL)
        self.warm = inputs.generate_items(f"{seed}/warmup", lexicon, 200)
        valid = [i for i, item in enumerate(self.pool) if item["valid"]]
        self.round_trip = set(valid[:self.ROUND_TRIPS])

    def stream(self):
        return itertools.cycle(self.pool)

    def warmup(self):
        return self.warm

    def traced_items(self):
        return self.pool[:self.TRACED]

    def run(self, item, span):
        return self.analyzer.generate(item["root"], item["sense"],
                                      item["suffixes"])

    def units(self, item):
        return 1

    def check(self, item, out):
        if not item["valid"]:
            return isinstance(out, self.analyzer.GenerationError)
        if not (isinstance(out, str) and out):
            return False
        index = item["index"]
        if index in self.round_trip:
            self.round_trip.discard(index)
            return any(a.matches(item["root"].form, item["sense"], item["suffixes"])
                       for a in self.analyzer.analyse(out))
        return True

    def digest_line(self, item, out):
        head = f"{item['root'].form}\t{item['sense']}\t{' '.join(item['suffixes'])}"
        if isinstance(out, Exception):
            codes = " ".join(f"{v.code}@{v.at}"
                             for v in getattr(out, "violations", ()))
            return f"{head}\tERROR\t{type(out).__name__}\t{codes}"
        return f"{head}\t{out}"

    def analyses(self, out):
        return 0


class Classify:
    """``mapumorph classify`` in-process through ``cli.run``."""

    name = "classify"
    entry = "mapumorph.cli"
    CORPORA = 12
    TRACED = 4

    def __init__(self, root, seed, lexicon, rules):
        self.cli = importlib.import_module("mapumorph.cli")
        self.corpora = inputs.classify_corpora(seed, lexicon, self.CORPORA)
        self.labile = [r[0] for r in inputs.read_tsv(root.joinpath(*LABILE_FILE))]

    def stream(self):
        return itertools.cycle(self.corpora)

    def warmup(self):
        return self.corpora

    def traced_items(self):
        return self.corpora[:self.TRACED]

    def run(self, item, span):
        # stdin is the list of lines: the command reads it line by line, as
        # it reads a pipe, without a second whole-corpus buffer.
        stdout, stderr = io.StringIO(), io.StringIO()
        code = self.cli.run(["classify"], item[0], stdout, stderr)
        return code, stdout.getvalue()

    def units(self, item):
        return item[1]

    def check(self, item, out):
        if isinstance(out, Exception) or out[0] != 0:
            return False
        rows = {}
        for line in out[1].splitlines():
            root, label, iv, tv, _ = line.split("\t")
            rows[root] = (label, int(iv), int(tv))
        tally = item[2]
        if not set(tally) <= set(rows):
            return False
        for root, (label, iv, tv) in rows.items():
            if [iv, tv] != tally.get(root, [0, 0]):
                return False
        return all(rows.get(root, ("",))[0] == "labile" for root in self.labile)

    def digest_line(self, item, out):
        if isinstance(out, Exception):
            return f"ERROR\t{type(out).__name__}: {out}"
        return f"{out[0]}\n{out[1]}"

    def analyses(self, out):
        return 0


WORKLOADS = {w.name: w for w in (Analyse, Generate, Classify)}
