"""Spans around the public functions of each layer, recorded from the
benchmark's own files: nothing under ``src/`` knows it is traced.

A span has a name, a start, an end and a parent; a layer's self time is
its span's duration minus the time its child spans cover.  Timestamps
are process CPU nanoseconds, like every other timing of the benchmark.
The wrappers are installed only around traced rounds, so untraced rounds
of the same run give the tracing overhead.
"""

from __future__ import annotations

import ast
import builtins
import collections
import functools
import json
import time
from typing import Callable, Dict, List, Optional

#: Rules whose time is reported one by one (``analysis.rule.<ID>_s``).
#: A rule registered later still counts in ``analysis.rules_s``.
RULE_IDS = (
    "PDC101", "PDC102", "PDC201", "PDC202", "PDC203", "PDC204",
    "PDC205", "PDC206", "PDC207", "PDC208", "PDC209", "PDC210",
)

_ABSENT = object()


class Tracer:
    """In-memory spans and counters, harvested once per traced round."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent]
        self.stack: List[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.peaks: Dict[str, float] = {}
        self.events: List[dict] = []
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.process_time_ns(), 0, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.process_time_ns()

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    # -- wrapping ---------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        materialize: bool = False,
        after: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned, counted twin.

        ``materialize`` drains a generator inside the span; ``after``
        sees each result.  A builtin looked up through a module's
        globals (``compile``) is shadowed by a module attribute.
        """
        raw = vars(owner).get(attr, _ABSENT)
        target = raw
        if raw is _ABSENT:
            target = getattr(builtins, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else target

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            self.counts[name] += 1
            result = self.call(
                name, _drained if materialize else func, *args, **kwargs
            )
            if after is not None:
                after(result)
            return result

        def _drained(*args, **kwargs):
            return list(func(*args, **kwargs))

        setattr(owner, attr,
                classmethod(spanned) if is_classmethod else spanned)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- harvest ----------------------------------------------------------
    def harvest(self, scale: float = 1.0) -> Dict[str, float]:
        """Per-name inclusive and self seconds (times ``scale``, the
        round's speed factor) plus counters since the last harvest;
        keeps the spans as Chrome-trace events."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = collections.defaultdict(float)
        self.events = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.total_s"] += (end - start) / 1e9 * scale
            out[f"{name}.self_s"] += (end - start - child_ns[i]) / 1e9 * scale
            self.events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": i, "parent": parent, "end": end / 1e3},
            })
        for name, count in self.counts.items():
            out[f"{name}.calls"] += count
        for name, value in self.peaks.items():
            out[name] = value
        self.spans, self.stack = [], []
        self.counts.clear()
        self.peaks.clear()
        return dict(out)

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, fh)


# -- the layers ---------------------------------------------------------------
def install_analysis(tracer: Tracer) -> None:
    """``analysis``, ``analysis.ip`` and ``analysis.engine``."""
    from repro.analysis import analyzer
    from repro.analysis.engine import cache, cli, core, passes
    from repro.analysis.ip import cache as ip_cache
    from repro.analysis.ip import callgraph
    from repro.analysis.ip import engine as ip_engine
    from repro.analysis.rules import default_registry

    tracer.wrap(ast, "parse", "analysis.parse")
    tracer.wrap(analyzer.ModuleContext, "__init__", "analysis.index")
    for rule in default_registry().rules():
        tracer.wrap(type(rule), "check", f"analysis.rule.{rule.id}",
                    materialize=True)
    tracer.wrap(passes, "apply_suppressions", "analysis.suppress")
    for render in ("render_text", "render_json", "render_sarif"):
        tracer.wrap(cli, render, "analysis.render")
    tracer.wrap(ip_engine, "summarize_module", "ip.summarize")
    tracer.wrap(callgraph.ProgramIndex, "__init__", "ip.link")
    tracer.wrap(ip_engine, "analyze_cone", "ip.cone")
    tracer.wrap(passes.AnalyzerPass, "load", "engine.load")
    tracer.wrap(core, "content_digest", "engine.hash")
    tracer.wrap(ip_engine, "content_digest", "engine.hash")
    tracer.wrap(cache.FindingsCache, "get", "engine.cache.get")
    tracer.wrap(cache.FindingsCache, "put", "engine.cache.put")
    tracer.wrap(ip_cache.SummaryCache, "get_summary", "engine.cache.get")
    tracer.wrap(ip_cache.SummaryCache, "get_cone", "engine.cache.get")
    tracer.wrap(ip_cache.SummaryCache, "put_summary", "engine.cache.put")
    tracer.wrap(ip_cache.SummaryCache, "put_cone", "engine.cache.put")


def install_verify(tracer: Tracer) -> None:
    """``sanitizers`` and ``verify``."""
    from repro.sanitizers import runner
    from repro.verify import explorer
    from repro.verify.scheduler import ReplayScheduler

    def count_decisions(trace) -> None:
        tracer.counts["verify.decisions"] += len(trace.choices)

    tracer.wrap(runner, "instrument_source", "sanitizers.instrument")
    tracer.wrap(runner, "compile", "sanitizers.compile")
    tracer.wrap(explorer, "run_source", "sanitizers.run")
    tracer.wrap(ReplayScheduler, "run", "verify.schedule",
                after=count_decisions)


def install_core(tracer: Tracer) -> None:
    """``core.pipeline`` and ``core.batch``."""
    from repro.core import pipeline
    from repro.core.batch import SurveyAggregate

    tracer.wrap(pipeline, "synthesize_batch", "core.synthesize",
                after=lambda b: tracer.peak("core.batch_mb", b.nbytes / 1e6))
    tracer.wrap(SurveyAggregate, "from_batch", "core.reduce")
    tracer.wrap(SurveyAggregate, "merge", "core.merge")


def layer_metrics(h: Dict[str, float]) -> Dict[str, float]:
    """One traced round's harvest -> the per-layer metric values."""
    def total(name: str) -> float:
        return h.get(f"{name}.total_s", 0.0)

    def calls(name: str) -> float:
        return h.get(f"{name}.calls", 0)

    rules = {f"analysis.rule.{r}_s": total(f"analysis.rule.{r}")
             for r in RULE_IDS}
    decisions = calls("verify.decisions")
    return {
        "analysis.parse.calls": calls("analysis.parse"),
        "analysis.parse_s": total("analysis.parse"),
        "analysis.index.calls": calls("analysis.index"),
        "analysis.index_s": total("analysis.index"),
        "analysis.rules_s": sum(
            v for k, v in h.items()
            if k.startswith("analysis.rule.") and k.endswith(".total_s")
        ),
        **rules,
        "analysis.suppress_s": total("analysis.suppress"),
        "analysis.render_s": total("analysis.render"),
        "ip.summarize.calls": calls("ip.summarize"),
        "ip.summarize_s": h.get("ip.summarize.self_s", 0.0),
        "ip.link_s": total("ip.link"),
        "ip.cones.analyzed": calls("ip.cone"),
        "ip.cone_s": total("ip.cone"),
        "engine.load_s": total("engine.load"),
        "engine.hash_s": total("engine.hash"),
        "engine.cache.get.calls": calls("engine.cache.get"),
        "engine.cache.get_s": total("engine.cache.get"),
        "engine.cache.put.calls": calls("engine.cache.put"),
        "engine.cache.put_s": total("engine.cache.put"),
        "sanitizers.instrument.calls": calls("sanitizers.instrument"),
        "sanitizers.instrument_s": total("sanitizers.instrument"),
        "sanitizers.compile.calls": calls("sanitizers.compile"),
        "sanitizers.compile_s": total("sanitizers.compile"),
        "sanitizers.run.calls": calls("sanitizers.run"),
        "sanitizers.run_s": total("sanitizers.run"),
        "verify.decisions": decisions,
        "verify.decision_us": (
            total("verify.schedule") / decisions * 1e6 if decisions else 0.0
        ),
        "verify.explore_self_s": h.get("verify.explore.self_s", 0.0),
        "core.synthesize.calls": calls("core.synthesize"),
        "core.synthesize_s": total("core.synthesize"),
        "core.reduce_s": total("core.reduce"),
        "core.merge_s": total("core.merge"),
        "core.batch_mb": h.get("core.batch_mb", 0.0),
    }
