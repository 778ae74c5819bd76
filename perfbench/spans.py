"""In-memory span recorder that wraps the package's public functions at
their call sites.

Each wrapped call records one span: name, parent span, operation id,
start and end.  Spans live in flat arrays until the traced pass ends;
self time is derived afterwards from the parent links.  The package
itself is not modified on disk: wrappers are installed by assignment and
removed by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter


def _no_violations(result):
    return not result


# (module holding the call site, attribute, span name, outcome judge).
# The module is where the caller looks the name up, so a patch there is
# seen by exactly the calls that cross into the wrapped layer.
CALL_SITES = [
    ("mapumorph.analyzer", "analyse", "analyzer.analyse", None),
    ("mapumorph.analyzer", "generate", "analyzer.generate", None),
    ("mapumorph.analyzer", "gloss_render", "analyzer.gloss_render", None),
    ("mapumorph.analyzer:Analysis", "to_json", "analyzer.to_json", None),
    ("mapumorph.analyzer:Analysis", "from_json", "analyzer.from_json", None),
    ("mapumorph.analyzer", "extend_realization",
     "phonology.extend_realization", None),
    ("mapumorph.analyzer", "select_allomorph", "phonology.select_allomorph",
     None),
    ("mapumorph.analyzer", "validate_plan", "morphotactics.validate_plan",
     _no_violations),
    ("mapumorph.analyzer", "validate_sequence",
     "morphotactics.validate_sequence", None),
    ("mapumorph.analyzer", "plan_trace", "morphotactics.plan_trace", None),
    ("mapumorph.classifier", "collect_evidence",
     "classifier.collect_evidence", None),
    ("mapumorph.cli", "classify_corpus", "classifier.classify_corpus", None),
    ("mapumorph.cli", "render_table", "classifier.render_table", None),
    ("mapumorph.cli", "run", "cli.run", None),
    ("mapumorph.defaults", "load_lexicon", "lexicon.load_lexicon", None),
    ("mapumorph.defaults", "load_rules", "phonology.load_rules", None),
]

# The alphabet is reached as ``alphabet.<fn>`` from these modules; each
# gets a stand-in module whose functions are wrapped, so calls inside the
# alphabet module itself stay unwrapped.
ALPHABET_CALLERS = ("mapumorph.analyzer", "mapumorph.phonology",
                    "mapumorph.lexicon")
ALPHABET_FUNCTIONS = ("segments", "final_kind", "final_segment", "is_vowel",
                      "is_valid")

_NULL = contextlib.nullcontext()


def null_span(name):
    """Span factory for untraced passes."""
    return _NULL


def _resolve(target):
    module_name, _, cls = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.absent: set[str] = set()
        self._patches: list = []
        self.reset()

    def reset(self):
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful: Counter = Counter()
        self._stack = [-1]
        self._op = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_op(self, op_id):
        self._op[0] = op_id

    def wrap(self, fn, name, judge=None):
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        stack, current_op, useful = self._stack, self._op, self.useful

        def wrapper(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(current_op[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if judge is not None and judge(result):
                useful[nid] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own, e.g. one operation.  Wrapped
        calls inline the same bookkeeping, since a context manager per call
        would multiply the tracing overhead."""
        idx = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self._op[0])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def install(self):
        """Wrap every call site that exists; note the names that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Wrappers close over the span arrays, so start from fresh ones.
        self.reset()
        for target, attr, name, judge in CALL_SITES:
            owner = _resolve(target)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.add(name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, judge))
            else:
                new = self.wrap(raw, name, judge)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))
        alphabet = _resolve("mapumorph.alphabet")
        if alphabet is None:
            self.absent.update(f"alphabet.{fn}" for fn in ALPHABET_FUNCTIONS)
            return
        proxy = types.ModuleType(alphabet.__name__)
        proxy.__dict__.update(vars(alphabet))
        for fn in ALPHABET_FUNCTIONS:
            if hasattr(alphabet, fn):
                setattr(proxy, fn, self.wrap(getattr(alphabet, fn),
                                             f"alphabet.{fn}"))
            else:
                self.absent.add(f"alphabet.{fn}")
        for caller in ALPHABET_CALLERS:
            module = _resolve(caller)
            if getattr(module, "alphabet", None) is alphabet:
                module.alphabet = proxy
                self._patches.append((module, "alphabet", alphabet))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def aggregate(self):
        """Per span name: calls, total seconds, self seconds and useful
        outcomes, over spans inside an operation (op id >= 0)."""
        n = len(self.end)
        start, end, parent, op = self.start, self.end, self.parent, self.op
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats: dict[str, list] = {}
        for i in range(n):
            if op[i] < 0:
                continue
            dur = end[i] - start[i]
            row = stats.setdefault(self.names[self.name[i]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        for nid, count in self.useful.items():
            name = self.names[nid]
            if name in stats:
                stats[name][3] = count
        return {name: {"calls": c, "total_s": t, "self_s": s, "useful": u}
                for name, (c, t, s, u) in stats.items()}

    def durations(self, name):
        """Durations of every span with this name, in record order."""
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.end))
                if self.name[i] == nid]

    def write(self, path):
        """Spans as gzip TSV: id, parent, op, name, start_us, end_us."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(self.end)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                          f"{self.names[self.name[i]]}\t"
                          f"{(self.start[i] - t0) * 1e6:.3f}\t"
                          f"{(self.end[i] - t0) * 1e6:.3f}\n")
