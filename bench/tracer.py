"""Span tracing around kohmoto's layer boundaries, installed from outside.

Each traced function is rebound in every kohmoto namespace (module or
class) that holds it, so calls through `from .rootfind import ...` copies
are caught too.  Spans stay in memory; self time is a span's duration minus
the part its child spans cover, so the self times of all spans under the
benchmark's per-task root spans add up to the traced task time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, kind): "span" records a span, "count" only
# counts calls (sign_at runs too often for a span each), "gen" records a
# span around each step of a generator.
TARGETS = [
    ("kohmoto.rootfind", "isolate_roots", "rootfind.isolate_roots", "span"),
    ("kohmoto.rootfind", "separate", "rootfind.separate", "span"),
    ("kohmoto.rootfind", "compare_roots", "rootfind.compare_roots", "span"),
    ("kohmoto.rootfind", "sturm_chain", "rootfind.sturm_chain", "span"),
    ("kohmoto.rootfind", "RootEnclosure.refined", "rootfind.refined", "span"),
    ("kohmoto.rootfind", "sign_at", "rootfind.sign_at", "count"),
    ("kohmoto.polyring", "RP.__mul__", "polyring.RP.mul", "span"),
    ("kohmoto.polyring", "RP.eval", "polyring.RP.eval", "count"),
    ("kohmoto.spectra", "trace_poly_cf", "spectra.trace", "span"),
    ("kohmoto.spectra", "extension_traces", "spectra.trace", "gen"),
    ("kohmoto.spectra", "floquet_edges", "spectra.floquet", "span"),
    ("kohmoto.spectra", "floquet_zeros", "spectra.floquet", "span"),
    ("kohmoto.spectra", "spectrum_from_trace", "spectra.spectrum_from_trace", "span"),
    ("kohmoto.spectra", "spectrum_periodic", "spectra.spectrum_periodic", "span"),
    ("kohmoto.spectra", "defect_spectrum", "spectra.defect_spectrum", "span"),
    ("kohmoto.spectra", "Spectrum.to_json_obj", "spectra.to_json_obj", "span"),
    ("kohmoto.sets", "EnclosedSet.from_spectrum", "sets.from_spectrum", "span"),
    ("kohmoto.sets", "EnclosedSet.intersection", "sets.intersection", "span"),
    ("kohmoto.sets", "EnclosedSet.hausdorff", "sets.hausdorff", "span"),
    ("kohmoto.sets", "EnclosedSet.measure", "sets.measure", "span"),
    ("kohmoto.words", "sk_words", "words.sk_words", "span"),
    ("kohmoto.words", "period_word", "words.period_word", "span"),
    ("kohmoto.farey", "cf_forms", "farey.cf_forms", "span"),
    ("kohmoto.farey", "cf_eval", "farey.cf_eval", "span"),
    ("kohmoto.farey", "farey_distance", "farey.farey_distance", "span"),
    ("kohmoto.analysis", "optimality_certificate", "analysis.optimality_certificate", "span"),
    ("kohmoto.analysis", "OptimalityReport.to_json_obj", "analysis.to_json_obj", "span"),
    ("kohmoto.analysis", "butterfly", "analysis.butterfly", "span"),
    ("kohmoto.analysis", "_butterfly_row", "analysis.butterfly_row", "span"),
    ("kohmoto.analysis", "_fast_defects", "analysis.fast_defects", "span"),
    ("kohmoto.analysis", "ButterflyDataset.to_svg", "analysis.render", "span"),
    ("kohmoto.analysis", "ButterflyDataset.to_csv", "analysis.render", "span"),
]

_EXACT = (
    "rootfind.isolate_roots", "rootfind.separate", "rootfind.sturm_chain",
    "rootfind.RootEnclosure.refined", "rootfind.sign_at", "polyring.RP.__mul__", "polyring.RP.eval",
    "spectra.trace_poly_cf", "spectra.spectrum_from_trace",
    "spectra.spectrum_periodic", "spectra.floquet_edges", "words.period_word", "words.sk_words",
    "farey.cf_forms",
)
# Wrapped functions each workload's code path is known to call: a traced
# run that records no call of one of them has missed a binding.
# compare_roots is left out: band relations reach it only when two edge
# enclosures overlap, which none of these inputs produce.
EXPECTED_CALLS = {
    "bands_sweep": (*_EXACT, "spectra.Spectrum.to_json_obj"),
    "defect_optimality": (
        *_EXACT, "spectra.extension_traces", "spectra.defect_spectrum",
        "sets.EnclosedSet.from_spectrum", "sets.EnclosedSet.intersection",
        "sets.EnclosedSet.hausdorff", "sets.EnclosedSet.measure", "farey.cf_eval",
        "farey.farey_distance", "analysis.optimality_certificate",
        "analysis.OptimalityReport.to_json_obj",
    ),
    "butterfly_fast": (
        "spectra.floquet_edges", "spectra.floquet_zeros", "words.period_word", "words.sk_words",
        "farey.cf_forms", "analysis.butterfly", "analysis._butterfly_row", "analysis._fast_defects",
        "analysis.ButterflyDataset.to_svg", "analysis.ButterflyDataset.to_csv",
    ),
}

MODULES = ("rootfind", "polyring", "spectra", "sets", "words", "farey", "analysis", "bench")


class Tracer:
    def __init__(self):
        self.active = False  # wrappers pass straight through while False
        self.spans = []  # [name, start, end, parent index, task index]
        self.stack = []  # open frames: [name, start, child time, span index, saw spectrum_from_trace]
        self.task = -1
        self.calls = Counter()  # per wrapped function
        self.span_calls = Counter()  # per span name
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def enter(self, name: str) -> None:
        if name == "spectra.spectrum_from_trace":
            for frame in self.stack:
                frame[4] = True
            if any(frame[0] == "spectra.defect_spectrum" for frame in self.stack):
                self.counts["approximants"] += 1
        parent = self.stack[-1][3] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.task])
        self.stack.append([name, perf_counter(), 0.0, len(self.spans) - 1, False])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, index, saw_sft = self.stack.pop()
        dur = end - start
        self.spans[index][1:3] = start, end
        self.self_s[name] += dur - child
        self.span_calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if name in ("spectra.spectrum_periodic", "spectra.defect_spectrum"):
            self.counts["memo_calls"] += 1
            self.counts["memo_hits"] += not saw_sft
            if name == "spectra.defect_spectrum" and saw_sft:
                self.counts["defect_misses"] += 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span(tracer: Tracer, key: str, name: str, fn, hook=None):
    def wrapped(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.calls[key] += 1
        if hook is not None:
            hook(args)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapped


def _count(tracer: Tracer, key: str, name: str, fn):
    def wrapped(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.calls[key] += 1
        tracer.span_calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def _gen(tracer: Tracer, key: str, name: str, fn):
    def wrapped(*args, **kwargs):
        if not tracer.active:
            yield from fn(*args, **kwargs)
            return
        tracer.calls[key] += 1
        gen = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    return wrapped


def _namespaces():
    """Every module dict and class dict of the loaded kohmoto package."""
    mods = [m for n, m in list(sys.modules.items()) if n == "kohmoto" or n.startswith("kohmoto.")]
    out = []
    for mod in mods:
        out.append(mod)
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith("kohmoto"):
                out.append(val)
    return out


def install(tracer: Tracer):
    """Rebind every traced function everywhere it is bound; returns the
    undo list.  Raises if a target is bound nowhere."""
    undo = []
    spaces = _namespaces()
    for modname, attr, name, kind in TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            orig = getattr(owner, part)
            owner = orig
        key = modname.split(".")[1] + "." + attr
        if kind == "span":
            hook = None
            if name == "spectra.spectrum_from_trace":
                hook = lambda args: tracer.counts.update(degree_sum=args[0].degree())
            wrapped = _span(tracer, key, name, orig, hook)
        elif kind == "count":
            wrapped = _count(tracer, key, name, orig)
        else:
            wrapped = _gen(tracer, key, name, orig)
        bound = 0
        for space in spaces:
            for k, v in list(vars(space).items()):
                if v is orig:
                    new = wrapped
                elif isinstance(v, staticmethod) and v.__func__ is orig:
                    new = staticmethod(wrapped)
                else:
                    continue
                setattr(space, k, new)
                undo.append((space, k, v))
                bound += 1
        if not bound:
            raise RuntimeError(f"trace target {key} is bound nowhere")
    return undo


def uninstall(undo) -> None:
    for space, k, v in reversed(undo):
        setattr(space, k, v)


def missing_calls(tracer: Tracer, workload: str) -> list[str]:
    return [key for key in EXPECTED_CALLS[workload] if tracer.calls[key] == 0]


def layer_metrics(tracer: Tracer, rows: int, rows_failed: int) -> dict:
    """Per-layer metrics by name: (value, unit)."""
    s, c, n = tracer.self_s, tracer.span_calls, tracer.counts
    module_self = {m: 0.0 for m in MODULES}
    for name, v in s.items():
        module_self[name.split(".")[0]] += v
    out = {f"{m}.self_s": (module_self[m], "s") for m in MODULES}
    for name in ("rootfind.refined", "rootfind.compare_roots", "polyring.RP.mul",
                 "spectra.spectrum_from_trace", "sets.hausdorff"):
        out[f"{name}.calls"] = (c[name], "count")
        out[f"{name}.self_s"] = (s[name], "s")
    for name in ("rootfind.separate", "rootfind.isolate_roots", "spectra.trace",
                 "spectra.floquet", "sets.from_spectrum", "analysis.render"):
        out[f"{name}.self_s"] = (s[name], "s")
    for name in ("rootfind.sign_at", "rootfind.sturm_chain", "polyring.RP.eval",
                 "sets.intersection", "words.sk_words"):
        out[f"{name}.calls"] = (c[name], "count")
    out["spectra.isolated_degree_sum"] = (n["degree_sum"], "count")
    out["spectra.defect_spectrum.approximants"] = (
        n["approximants"] / n["defect_misses"] if n["defect_misses"] else 0.0, "count")
    out["spectra.memo_hit_ratio"] = (n["memo_hits"] / n["memo_calls"] if n["memo_calls"] else 0.0, "ratio")
    out["analysis.rows"] = (rows, "count")
    out["analysis.rows_failed"] = (rows_failed, "count")
    return out
