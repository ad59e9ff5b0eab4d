"""lint-session: whole-program PDC-Lint over a frozen tree, cold, then
through a seeded edit sequence, then warm.

One round: reset the tree and empty the on-disk caches; lint cold and
render; apply each edit and re-lint incrementally; re-lint once more
with nothing changed.  Every lint is a fresh engine over the same cache
directory, the way successive ``pdc-lint --whole-program`` runs are.
"""

from __future__ import annotations

import os
import shutil
import tarfile
from typing import Dict, List, Tuple

from bench import checks, common, planted
from bench.common import SpeedProbe, Tally
from bench.trace import Tracer, install_analysis

FORMATS = ("text", "json", "sarif")


class Session:
    def __init__(self, seed: int, tally: Tally, probe: SpeedProbe) -> None:
        self.seed = seed
        self.tally = tally
        self.probe = probe
        self.root = common.work_dir("lint")
        self.tree = os.path.join(self.root, "tree")
        shutil.rmtree(self.tree, ignore_errors=True)
        with tarfile.open(os.path.join(common.INPUTS, "tree.tar.gz")) as tar:
            tar.extractall(self.tree, filter="data")
        for rel, text in planted.planted_files(seed).items():
            self._write(rel, text)
        self.names = planted.names(seed)
        self.plan = planted.edit_plan(seed)
        self.toggle_files = {
            group: spec[0].format(n=self.names[group])
            for group, spec in planted.TOGGLES.items()
        }
        touched = list(planted.APPEND_TARGETS) + [
            f"{planted.PLANT_DIR}/{name}"
            for name in self.toggle_files.values()
        ]
        self.base = {rel: self._read(rel) for rel in touched}
        self.toggled: Dict[str, bool] = {}

    # -- tree -------------------------------------------------------------
    def _read(self, rel: str) -> str:
        with open(os.path.join(self.tree, rel), "r", encoding="utf-8") as fh:
            return fh.read()

    def _write(self, rel: str, text: str) -> None:
        path = os.path.join(self.tree, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def reset(self) -> None:
        for rel, text in self.base.items():
            self._write(rel, text)
        self.toggled = {}

    def apply(self, edit: Dict[str, object]) -> None:
        if edit["kind"] == "append":
            rel = edit["path"]
            self._write(rel, self._read(rel) + edit["text"])
            return
        group = edit["group"]
        _, line, base, toggled = planted.TOGGLES[group]
        rel = f"{planted.PLANT_DIR}/{self.toggle_files[group]}"
        stem = self.names[group]
        lines = self._read(rel).split("\n")
        now, then = base, toggled
        if self.toggled.get(group):
            now, then = toggled, base
        if lines[line - 1] != now.format(n=stem):
            raise common.BenchError(f"edit target {rel}:{line} moved")
        lines[line - 1] = then.format(n=stem)
        self._write(rel, "\n".join(lines))
        self.toggled[group] = not self.toggled.get(group)

    # -- one lint ---------------------------------------------------------
    def lint(self, cache_dir: str) -> Tuple[float, Dict[str, str], object]:
        """CPU seconds of one whole-program lint plus render, the three
        rendered reports, and the engine (for its stats)."""
        from repro.analysis.engine import FindingsCache, LintPass
        from repro.analysis.engine.cli import render_report
        from repro.analysis.ip import SummaryCache, WholeProgramEngine
        from repro.analysis.ip.analyzer import IP_VERSION

        def once():
            pass_ = LintPass()
            engine = WholeProgramEngine(
                pass_,
                cache=FindingsCache(cache_dir),
                summary_cache=SummaryCache(cache_dir, IP_VERSION),
                jobs=1,
            )
            report = engine.run_paths(["repro"])
            return report, engine, {
                fmt: render_report(pass_, fmt, report) for fmt in FORMATS
            }

        (report, engine, outputs), spent = self.probe.time(once)
        self._check(report, outputs)
        return spent, outputs, engine

    def _check(self, report, outputs: Dict[str, str]) -> None:
        tally = self.tally
        sites = checks.format_sites(outputs)
        tally.check(sites is not None, "text/JSON/SARIF finding sets differ")
        if sites is None:
            return
        tally.check(
            sites == sorted((f.rule, f.path, f.line) for f in report.findings),
            "rendered findings differ from the report",
        )
        expected = planted.expected(self.seed, self.toggled)
        tally.check(checks.findings_ok(sites, expected),
                    f"findings {sites[:8]} != expected {expected}")


def _cache_counts(engine) -> Tuple[int, int]:
    stats = engine.stats()
    hits = (stats.get("engine.cache.hits", 0)
            + stats.get("analysis.ip.summary.hits", 0)
            + stats.get("analysis.ip.scc.hits", 0))
    misses = (stats.get("engine.cache.misses", 0)
              + stats.get("analysis.ip.summary.misses", 0)
              + stats.get("analysis.ip.scc.analyzed", 0))
    return int(hits), int(misses)


def run(seed: int, seconds: float, traced: bool, tally: Tally,
        probe: SpeedProbe) -> Dict:
    session = Session(seed, tally, probe)
    cwd = os.getcwd()
    os.chdir(session.tree)
    tracer = Tracer()
    cache_dir = os.path.join(session.root, "cache")
    last: Dict[str, Dict[str, str]] = {}

    def one_round(index: int) -> Dict[str, object]:
        traced_round = traced and index % 2 == 1
        mark = len(probe.samples)
        session.reset()
        shutil.rmtree(cache_dir, ignore_errors=True)
        if traced_round:
            install_analysis(tracer)
        try:
            cold, _, engine = session.lint(cache_dir)
            cache_mb = common.dir_mb(cache_dir)
            counts = [_cache_counts(engine)]
            edits: List[float] = []
            for edit in session.plan:
                session.apply(edit)
                spent, _, engine = session.lint(cache_dir)
                edits.append(spent)
                counts.append(_cache_counts(engine))
            warm, last["outputs"], engine = session.lint(cache_dir)
            counts.append(_cache_counts(engine))
        finally:
            tracer.uninstall()
        tally.attempted += len(session.plan) + 2
        hits = sum(h for h, _ in counts)
        misses = sum(m for _, m in counts)
        out = {"ops": [cold] + edits + [warm], "cold": cold,
               "edit": sum(edits) / len(edits), "warm": warm,
               "traced": traced_round}
        if traced_round:
            out["layers"] = {**tracer.harvest(probe.factor(mark)),
                             "engine.cache.hits": hits,
                             "engine.cache.misses": misses,
                             "engine.cache_mb": cache_mb}
        return out

    try:
        rounds = common.run_rounds(seconds, one_round, probe,
                                   2 if traced else 1)
        peak_mb = common.peak_rss_mb()  # before the checks below
        # The incremental result must equal a cold lint of the edited tree.
        check_dir = os.path.join(session.root, "cache-check")
        shutil.rmtree(check_dir, ignore_errors=True)
        _, cold_outputs, _ = session.lint(check_dir)
        tally.check(cold_outputs == last["outputs"],
                    "incremental report differs from a cold re-lint")
    finally:
        if traced:
            tracer.write_chrome(os.path.join(
                common.work_dir(), f"trace-lint-session-{seed}.json"))
        os.chdir(cwd)
    return {"rounds": rounds, "peak_rss_mb": peak_mb,
            "phases": {"cold_s": "cold", "edit_s": "edit", "warm_s": "warm"}}
