"""mapumorph benchmark: end-to-end metrics per workload, and a traced run
that breaks the time down by module.

    python3 perfbench/run.py --workload analyse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20      # every workload, both runs

Workloads (see workloads.py and inputs.py):

* ``analyse``: ``analyse(word)`` on the full lexicon, each result rendered
  as ``mapumorph analyse --format json-lines`` renders it.  Distinct words:
  the gloss corpus first, then generated words with 20% near-miss probes.
* ``generate``: ``generate(root, sense, suffix_ids)`` over a pool of 4000
  seeded tuples, 20% invalid by construction, cycled.
* ``classify``: ``mapumorph classify`` through ``cli.run`` on corpora of
  1000 JSON-lines analyses (sources smeets/kona/augusta, 10% repeated
  lines), built from seeded tuples and the tables, cycled over 12 corpora.

Every run is a closed loop with one caller.  ``--trace 0`` measures for
``--seconds`` seconds of operation CPU time and reports the end-to-end
metrics; an operation is one word analysed, one tuple generated or one
analysis classified.  Times are scaled to a reference host speed (see
REFERENCE_S).  For ``classify`` the latency percentiles are those of one
whole ``classify`` invocation.  ``--trace 1`` runs a fixed input
set alternately untraced and traced until ``--seconds`` have passed and
reports the per-layer metrics; counts come from the first traced pass,
times are medians over passes.  Spans of the last traced pass are written
to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
operation failed its check, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, thread_time

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SLICES = 20
SETUP_LAUNCHES = 10
LATENCY_SAMPLE = 50_000
LOAD_REPEATS = 5
MAX_REPORTED_FAILURES = 5

# Host-speed reference.  On a shared host the same pure-Python work runs
# up to 1.5 times slower in phases lasting seconds (a 2-core x86-64 VM
# did), which moves every timing alike.  A fixed loop of the benchmark's
# own (reference_work) is timed after every block of operations; each
# block's times are scaled by REFERENCE_S / (the reference time around the
# block), so the reported figures are those of a host on which the loop
# takes REFERENCE_S, a round figure within the 3.5-7 ms it took on that
# VM.  The loop does not touch the package, so a change to the package
# moves the figures in full.  Raw (unscaled) figures are in the notes.
REFERENCE_S = 0.0045
REFERENCE_WORDS = tuple(
    "kimün amulen rupan wirarün ngütramkan küdawün müley pengeleluwün "
    "kellun inaduamün dungun tripan akun rulpan feypin elun".split())
REFERENCE_REPEATS = 5
BLOCK_S = 0.5

SETUP_CODE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2])
from mapumorph import defaults
defaults.default_lexicon()
defaults.default_rules()
sys.stdout.write(f"ready {time.process_time()!r}\\n")
sys.stdout.flush()
"""


def reference_work():
    """Fixed interpreter work like the analyser's: slicing, dict and set
    lookups, calls and list building over short strings."""
    seen, counts, out = set(), {}, []
    for i in range(5000):
        word = REFERENCE_WORDS[i % len(REFERENCE_WORDS)]
        cut = i % (len(word) - 1) + 1
        head, tail = word[:cut], word[cut:]
        counts[head] = counts.get(head, 0) + 1
        if tail not in seen:
            seen.add(tail)
        out.append(f"{head}-{tail}".upper()[::-1])
    return len(out) + len(counts)


def reference_seconds():
    """CPU seconds the reference loop takes now: median of a few repeats."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = thread_time()
        reference_work()
        times.append(thread_time() - t0)
    return statistics.median(times)


def pin_to_one_cpu():
    """Run this process and the set-up launches it starts on one CPU, so
    the reference loop times the CPU the measured work runs on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: the scaling still applies


def launch_setup(module):
    """CPU seconds a fresh interpreter spends until the package is imported
    and the tables are loaded, so the first operation could start.  The
    child reports its own CPU time, so time this process is not scheduled
    does not count."""
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC), module],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, value = line.decode("ascii", "replace").partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up launch failed: "
                           + err.decode("utf-8", "replace")[-500:])
    return float(value)


class Reservoir:
    """Uniform fixed-size sample of latencies, so memory does not grow
    with the number of operations a faster program completes."""

    def __init__(self, size, seed):
        self.values = array("d")
        self.size = size
        self.seen = 0
        self.rng = random.Random(seed)

    def add(self, value):
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(value)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.values[j] = value


def call(workload, item, span):
    """One operation; an exception is its outcome, judged by the check."""
    t0 = thread_time()
    try:
        out = workload.run(item, span)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        out = exc
    return out, thread_time() - t0


class Tally:
    """Operations attempted and failed; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, workload, item, out):
        units = workload.units(item)
        self.attempted += units
        try:
            ok = workload.check(item, out)
        except Exception:  # noqa: BLE001 - an unreadable output fails
            ok = False
        if not ok:
            self.failed += units
            self.fail(workload.digest_line(item, out))
        return ok

    def fail(self, message):
        if self.reported < MAX_REPORTED_FAILURES:
            self.reported += 1
            message = message.replace("\n", " | ")
            print(f"FAIL {message[:300]}", file=sys.stderr)


def _p95(values):
    return statistics.quantiles(values, n=20)[18] if len(values) > 1 else values[0]


def timed_run(workload, seconds, seed):
    """End-to-end metrics.  The run is cut into SLICES equal spans of
    operation time, each made of equal blocks of about BLOCK_S; the
    reference loop is timed after every block and the block's times are
    scaled by the mean of the reference times before and after it.
    ``ops_per_s`` is the median of the per-slice rates, so a burst of
    interference moves it less; the latency percentiles are taken over a
    sample of all the run's scaled latencies.  SETUP_LAUNCHES set-up
    launches, each scaled by the reference times around it, follow every
    other slice, outside the timed operations, so the set-up samples are
    spread over the run too."""
    pin_to_one_cpu()
    for item in workload.warmup():
        call(workload, item, spans.null_span)
    tally = Tally()
    stream = iter(workload.stream())
    sample = Reservoir(LATENCY_SAMPLE, seed)
    rates, setups = [], []
    raw_rates, raw_setups, host = [], [], []
    slice_s = seconds / SLICES
    block_len = slice_s / max(1, round(slice_s / BLOCK_S))
    ref = reference_seconds()
    for k in range(SLICES):
        units, busy, scaled = 0, 0.0, 0.0
        while busy < slice_s:
            block, block_s = [], 0.0
            while block_s < block_len:
                item = next(stream)
                out, dt = call(workload, item, spans.null_span)
                block_s += dt
                units += workload.units(item)
                block.append(dt)
                tally.record(workload, item, out)
            ref_after = reference_seconds()
            factor = 2 * REFERENCE_S / (ref + ref_after)
            ref = ref_after
            host.append(factor)
            busy += block_s
            scaled += block_s * factor
            for dt in block:
                sample.add(dt * factor)
        if k % (SLICES // SETUP_LAUNCHES) == 0:
            setup = launch_setup(workload.entry)
            ref_after = reference_seconds()
            raw_setups.append(setup)
            setups.append(setup * 2 * REFERENCE_S / (ref + ref_after))
            ref = ref_after
        rates.append(units / scaled)
        raw_rates.append(units / busy)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(sample.values) * 1e3, "ms"),
        "latency_p95_ms": (_p95(sample.values) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = [f"setup_s: median of {len(setups)} interpreter launches, "
             f"raw {statistics.median(raw_setups):.4g} s",
             f"ops_per_s: median over {SLICES} slices; latency: "
             f"{len(sample.values)} of {sample.seen} operations; "
             f"{len(host)} blocks",
             f"host-speed factor median {statistics.median(host):.4g}, "
             f"range {min(host):.4g}-{max(host):.4g}",
             f"slice rates: {' '.join(f'{r:.4g}' for r in rates)}",
             f"raw slice rates: {' '.join(f'{r:.4g}' for r in raw_rates)}",
             f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
             f"({tally.failed}/{tally.attempted})"]
    return tally, metrics, notes


def _ratio(a, b):
    return a / b if b else 0.0


def _sum(agg, prefix, key):
    return sum(row[key] for name, row in agg.items() if name.startswith(prefix))


# name -> (unit, exact, span names it needs)
LAYER_METRICS = {
    "lexicon.load_ms": ("ms", False, ("lexicon.load_lexicon", "phonology.load_rules")),
    "alphabet.calls_per_word": ("count", True, ()),
    "phonology.extend_calls_per_word": ("count", True, ("phonology.extend_realization",)),
    "phonology.self_ms_per_word": ("ms", False, ()),
    "phonology.extend_us_per_call": ("us", False, ("phonology.extend_realization",)),
    "phonology.self_us_per_generate": ("us", False, ("analyzer.generate",)),
    "morphotactics.validate_plan_calls_per_word": ("count", True, ("morphotactics.validate_plan",)),
    "morphotactics.accept_ratio": ("ratio", True, ("morphotactics.validate_plan",)),
    "morphotactics.self_ms_per_word": ("ms", False, ()),
    "morphotactics.validate_sequence_us_per_call": ("us", False, ("morphotactics.validate_sequence",)),
    "analyzer.search_self_ms_per_word": ("ms", False, ("analyzer.analyse",)),
    "analyzer.yield_per_1k_extends": ("count", True, ("phonology.extend_realization",)),
    "analyzer.analyses_per_word": ("count", True, ()),
    "analyzer.parsed_ms_per_word": ("ms", False, ()),
    "analyzer.unparsed_ms_per_word": ("ms", False, ()),
    "analyzer.render_us_per_analysis": ("us", False, ()),
    "analyzer.generate_self_us": ("us", False, ("analyzer.generate",)),
    "analyzer.from_json_us_per_analysis": ("us", False, ("analyzer.from_json",)),
    "classifier.collect_evidence_calls": ("count", True, ("classifier.collect_evidence",)),
    "classifier.collect_evidence_self_ms": ("ms", False, ("classifier.collect_evidence",)),
    "classifier.classify_corpus_self_ms": ("ms", False, ("classifier.classify_corpus",)),
    "classifier.render_table_ms": ("ms", False, ("classifier.render_table",)),
    "cli.self_ms_per_1k_lines": ("ms", False, ("cli.run",)),
    "trace.overhead_ratio": ("ratio", False, ()),
}


def layer_values(agg, facts):
    """Per-layer values of one traced pass.  'Per word' is per operation
    of the workload; classifier figures are per classify invocation."""
    def row(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                              "useful": 0})

    ops, units, analyses = facts["ops"], facts["units"], facts["analyses"]
    ext = row("phonology.extend_realization")
    plan = row("morphotactics.validate_plan")
    gen = row("analyzer.generate")
    parsed, unparsed = facts["parsed_s"], facts["unparsed_s"]
    return {
        "lexicon.load_ms": facts["load_s"] * 1e3,
        "alphabet.calls_per_word": _ratio(_sum(agg, "alphabet.", "calls"), ops),
        "phonology.extend_calls_per_word": _ratio(ext["calls"], ops),
        "phonology.self_ms_per_word": _ratio(_sum(agg, "phonology.", "self_s"), ops) * 1e3,
        "phonology.extend_us_per_call": _ratio(ext["total_s"], ext["calls"]) * 1e6,
        "phonology.self_us_per_generate": _ratio(_sum(agg, "phonology.", "self_s"), gen["calls"]) * 1e6,
        "morphotactics.validate_plan_calls_per_word": _ratio(plan["calls"], ops),
        "morphotactics.accept_ratio": _ratio(plan["useful"], plan["calls"]),
        "morphotactics.self_ms_per_word": _ratio(_sum(agg, "morphotactics.", "self_s"), ops) * 1e3,
        "morphotactics.validate_sequence_us_per_call": _ratio(
            row("morphotactics.validate_sequence")["total_s"],
            row("morphotactics.validate_sequence")["calls"]) * 1e6,
        "analyzer.search_self_ms_per_word": _ratio(row("analyzer.analyse")["self_s"], ops) * 1e3,
        "analyzer.yield_per_1k_extends": _ratio(analyses, ext["calls"] / 1000),
        "analyzer.analyses_per_word": _ratio(analyses, ops),
        "analyzer.parsed_ms_per_word": _ratio(sum(parsed), len(parsed)) * 1e3,
        "analyzer.unparsed_ms_per_word": _ratio(sum(unparsed), len(unparsed)) * 1e3,
        "analyzer.render_us_per_analysis": _ratio(row("bench.render")["total_s"], analyses) * 1e6,
        "analyzer.generate_self_us": _ratio(gen["self_s"], gen["calls"]) * 1e6,
        "analyzer.from_json_us_per_analysis": _ratio(
            row("analyzer.from_json")["total_s"], row("analyzer.from_json")["calls"]) * 1e6,
        "classifier.collect_evidence_calls": _ratio(row("classifier.collect_evidence")["calls"], ops),
        "classifier.collect_evidence_self_ms": _ratio(row("classifier.collect_evidence")["self_s"], ops) * 1e3,
        "classifier.classify_corpus_self_ms": _ratio(row("classifier.classify_corpus")["self_s"], ops) * 1e3,
        "classifier.render_table_ms": _ratio(row("classifier.render_table")["total_s"], ops) * 1e3,
        "cli.self_ms_per_1k_lines": _ratio(row("cli.run")["self_s"], units) * 1e6,
        "trace.overhead_ratio": _ratio(facts["plain_s"], facts["traced_s"]),
    }


def reload_tables():
    """Load the shipped tables afresh; the tracer sees the loaders."""
    from mapumorph import defaults
    for loader in ("default_lexicon", "default_rules"):
        cached = getattr(defaults, loader, None)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
            cached()


def traced_pair(workload, items, tracer):
    """One untraced and one traced pass over the same items."""
    plain = [call(workload, item, spans.null_span) for item in items]
    tracer.install()
    try:
        for _ in range(LOAD_REPEATS):
            reload_tables()
        traced = []
        for k, item in enumerate(items):
            tracer.set_op(k)
            with tracer.span("bench.op"):
                traced.append(call(workload, item, tracer.span))
        tracer.set_op(-1)
    finally:
        tracer.uninstall()
    return plain, traced


def pass_facts(workload, items, plain, traced, tracer):
    """Inputs to layer_values besides the span aggregates."""
    found = [workload.analyses(out) for out, _ in traced]
    plain_s = [dt for _, dt in plain]
    loads = [a + b for a, b in zip(tracer.durations("lexicon.load_lexicon"),
                                   tracer.durations("phonology.load_rules"))]
    by_parse = workload.name == "analyse"
    return {
        "ops": len(items), "units": sum(workload.units(i) for i in items),
        "analyses": sum(found),
        "parsed_s": [dt for dt, n in zip(plain_s, found) if n and by_parse],
        "unparsed_s": [dt for dt, n in zip(plain_s, found) if not n and by_parse],
        "load_s": statistics.median(loads) if loads else 0.0,
        "plain_s": sum(plain_s),
        "traced_s": sum(dt for _, dt in traced),
    }


def traced_run(workload, seconds, seed):
    """Per-layer metrics from alternating untraced and traced passes."""
    items = workload.traced_items()
    for item in workload.warmup():
        call(workload, item, spans.null_span)
    tracer = spans.Tracer()
    tally = Tally()
    reference = None
    passes = []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < seconds:
        plain, traced = traced_pair(workload, items, tracer)
        lines = []
        for item, (out, _), (out2, _) in zip(items, plain, traced):
            tally.record(workload, item, out)
            tally.record(workload, item, out2)
            lines.append(workload.digest_line(item, out2))
            if workload.digest_line(item, out) != lines[-1]:
                tally.failed += workload.units(item)
                tally.fail(f"untraced and traced outputs differ: {lines[-1]}")
        if reference is None:
            reference = lines
        elif lines != reference:
            tally.failed += sum(workload.units(it) for it in items)
            tally.fail("outputs differ between passes")
        facts = pass_facts(workload, items, plain, traced, tracer)
        agg = tracer.aggregate()
        passes.append((layer_values(agg, facts), agg))

    first, first_agg = passes[0]
    digest = hashlib.sha256("\n".join(reference).encode("utf-8")).hexdigest()
    metrics = {}
    for name, (unit, exact, needs) in LAYER_METRICS.items():
        if any(n in tracer.absent for n in needs):
            continue
        value = first[name] if exact else statistics.median(p[0][name] for p in passes)
        metrics[name] = (value, unit)
    if any(p[0][n] != first[n] for p in passes
           for n, (_, exact, _) in LAYER_METRICS.items() if exact):
        print("note: counts differ between traced passes", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / workload.name
    tracer.write(stem.with_suffix(".spans.tsv.gz"))
    summary = {"workload": workload.name, "seed": seed, "passes": len(passes),
               "ops": len(items), "digest": digest,
               "absent": sorted(tracer.absent), "first_pass": first_agg,
               "metrics": {k: v[0] for k, v in metrics.items()}}
    stem.with_suffix(".summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
    notes = [f"traced set: {len(items)} operations, {len(passes)} passes",
             f"output digest {digest}",
             f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
             f"({tally.failed}/{tally.attempted})"]
    notes += [f"absent span: {n}" for n in sorted(tracer.absent)]
    notes += [f"{n}: absent" for n, (_, _, needs) in LAYER_METRICS.items()
              if any(x in tracer.absent for x in needs)]
    return tally, metrics, notes


def run_one(name, seed, seconds, trace):
    from mapumorph import defaults

    lexicon, rules = defaults.default_lexicon(), defaults.default_rules()
    workload = workloads.WORKLOADS[name](ROOT, seed, lexicon, rules)
    runner = traced_run if trace else timed_run
    tally, metrics, notes = runner(workload, seconds, seed)
    print(f"workload {name} seed {seed} seconds {seconds} trace {trace}")
    for note in notes:
        print(f"  {note}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} {value:.6g} {unit}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m: {"value": v, "unit": u}
                          for m, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                code = 1
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                summary["correct"] = False
                code = 1
                continue
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mapumorph" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mapumorph
    if SRC not in Path(mapumorph.__file__).resolve().parents:
        print(f"perfbench: mapumorph imported from {mapumorph.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
