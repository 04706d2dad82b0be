"""In-memory spans and counts around the public entry points of each layer.

The benchmark wraps regmaps functions from outside; the package source is
not modified.  Callers import by ``from ... import``, so a function is
wrapped at every name any regmaps module binds it to (inside ``group``,
``regenerated`` reaches ``closure`` through the module global, which is one
of those names).  A span records its name, start, end and parent; the root
span of each job is ``cli``.  A layer's self time is its span durations
minus the part covered by child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from regmaps.errors import ResourceLimitExceeded

ROOT = "cli"

# (module, function, span name).  Methods are listed as "Class.method".
TARGETS = (
    ("regmaps.grammar", "parse_group_file", "grammar.parse"),
    ("regmaps.grammar", "realize_group_file", "grammar.realize"),
    ("regmaps.grammar", "matrix_group", "grammar.matrix_group"),
    ("regmaps.coset_enum", "todd_coxeter", "coset_enum.todd_coxeter"),
    ("regmaps.group", "closure", "group.closure"),
    ("regmaps.group", "regenerated", "group.regenerated"),
    ("regmaps.group", "hom_extend", "group.hom_extend"),
    ("regmaps.group", "sylow_p", "group.sylow_p"),
    ("regmaps.group", "o_p", "group.o_p"),
    ("regmaps.group", "normal_core", "group.normal_core"),
    ("regmaps.group", "quotient_group", "group.quotient_group"),
    ("regmaps.group", "is_solvable", "group.is_solvable"),
    ("regmaps.group", "coset_action", "group.coset_action"),
    ("regmaps.group", "is_primitive", "group.is_primitive"),
    ("regmaps.group", "isomorphism_search", "group.isomorphism_search"),
    ("regmaps.maps", "OrientedMap.report", "maps.report"),
    ("regmaps.maps", "FlaggedMap.report", "maps.report"),
    ("regmaps.maps", "quotient_map", "maps.quotient_map"),
    ("regmaps.classify", "classify", "classify.classify"),
    ("regmaps.classify", "certify_sylow_structure", "classify.certify"),
    ("regmaps.census", "enumerate_oriented", "census.enumerate"),
    ("regmaps.census", "enumerate_flagged", "census.enumerate"),
    ("regmaps.census", "census_classify", "census.classify"),
    ("regmaps.reporting", "group_summary", "reporting.group_summary"),
    ("regmaps.reporting", "ReportDocument.to_json", "reporting.to_json"),
    ("regmaps.verify", "verify_corpus", "verify.verify_corpus"),
)

# (module, function, count name): calls counted without a span, for a
# function too small and too frequent to time.  `_generates` tests whether
# one candidate tuple generates G, so its calls are the tuples the census
# scans; its time stays in the self time of census.enumerate.
COUNTED = (
    ("regmaps.census", "_generates", "census.candidates"),
)


class Recorder:
    """Spans as parallel lists indexed by span id, plus named counts."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self.stack.pop()

    @contextmanager
    def job(self):
        """The root span of one job; its regmaps calls nest inside it."""
        sid = self.open(ROOT)
        try:
            yield
        finally:
            self.close(sid)

    def self_times(self) -> list:
        self_s = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                self_s[parent] -= self.ends[sid] - self.starts[sid]
        return self_s

    def summary(self) -> dict:
        """Self seconds and span count per name, and the counts."""
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for name, s in zip(self.names, self.self_times()):
            self_s[name] += s
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(self.counts)}

    def per_root(self) -> list:
        """For each root span: its duration and self seconds per name."""
        roots: list = []
        root_of = [-1] * len(self.names)
        self_s = self.self_times()
        for sid, parent in enumerate(self.parents):
            if parent < 0:
                root_of[sid] = len(roots)
                roots.append((self.ends[sid] - self.starts[sid],
                              defaultdict(float)))
            else:
                root_of[sid] = root_of[parent]
            roots[root_of[sid]][1][self.names[sid]] += self_s[sid]
        return roots


# Counting hooks run inside the span, after the wrapped call returns or
# raises ResourceLimitExceeded: hook(recorder, span id, args, result, exc).

def _count_closure(rec, sid, args, result, exc):
    if result is not None:
        elements, degree = result.order, result.degree
    elif exc.limit_name == "max_order":
        elements, degree = exc.limit_value, args[0]
    else:
        return
    rec.counts["group.closure.elements"] += elements
    rec.counts["group.closure.cells"] += elements * degree


def _count_cosets(rec, sid, args, result, exc):
    if result is not None:
        rec.counts["coset_enum.cosets"] += result.n
    elif exc.limit_name == "max_cosets":
        rec.counts["coset_enum.cosets"] += exc.limit_value


def _count_hom(rec, sid, args, result, exc):
    if result is not None and result.is_bijective():
        rec.counts["group.hom_extend.bijective"] += 1


def _count_regenerated(rec, sid, args, result, exc):
    # A call that opened no child span (no closure) was served from cache.
    if result is not None and len(rec.names) == sid + 1:
        rec.counts["group.regenerated.cache_hits"] += 1


def _count_census(rec, sid, args, result, exc):
    if result is not None:
        rec.counts["census.classes"] += len(result)


HOOKS = {
    "group.closure": _count_closure,
    "coset_enum.todd_coxeter": _count_cosets,
    "group.hom_extend": _count_hom,
    "group.regenerated": _count_regenerated,
    "census.enumerate": _count_census,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except ResourceLimitExceeded as exc:
            if hook:
                hook(rec, sid, args, None, exc)
            raise
        else:
            if hook:
                hook(rec, sid, args, result, None)
            return result
        finally:
            rec.close(sid)
    return traced


def _count_calls(rec: Recorder, name: str, fn):
    counts = rec.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def _regmaps_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "regmaps" or n.startswith("regmaps.")]


@contextmanager
def installed(rec: Recorder):
    """Wrap every target at every binding; restore all of them on exit."""
    undo = []
    wrappers = ([(t, _wrap) for t in TARGETS]
                + [(t, _count_calls) for t in COUNTED])
    try:
        for (modname, attr, name), make in wrappers:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                homes = [owner]
            else:
                homes = _regmaps_modules()
            original = getattr(owner, attr)
            wrapper = make(rec, name, original)
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        undo.append((home, key, value))
                        setattr(home, key, wrapper)
        yield rec
    finally:
        for home, key, value in reversed(undo):
            setattr(home, key, value)
