"""verify-corpus: PDC-Verify over pinned programs, DPOR then DFS.

One round: DPOR verdicts on the ten corpus programs, DFS verdicts on the
same ten under a capped budget, then DPOR on the lost-wakeup pair.  The
pair counts as attempted operations and, while the runner's condition
variable cannot block, as failed ones; its time stays out of every
timing so that mending the runner moves only the failure count.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from bench import checks, common
from bench.common import SpeedProbe, Tally
from bench.trace import Tracer, install_verify

#: DFS explores at most this many schedules per program (the naive tree
#: of several corpus programs runs to thousands).
DFS_CAP = 120


def load_corpus() -> List[Dict[str, object]]:
    with open(os.path.join(common.INPUTS, "verify_corpus.json"),
              "r", encoding="utf-8") as fh:
        return json.load(fh)["programs"]


def explore(program: Dict[str, object], mode: str):
    from repro.verify import ExploreBudget, explore_source

    budget = program["budget"]
    if mode == "dfs":
        budget = min(budget, DFS_CAP)
    return explore_source(
        program["source"],
        path=program["path"],
        entry=program["entry"],
        entrypoints=program["entrypoints"],
        mode=mode,
        budget=ExploreBudget(max_schedules=budget,
                             max_steps_per_task=program["max_steps"]),
    )


def replay_findings(program: Dict[str, object]):
    from repro.verify import replay_source

    def replay(token: str):
        return replay_source(
            program["source"], token, path=program["path"],
            entry=program["entry"], entrypoints=program["entrypoints"],
        ).findings

    return replay


def run(seed: int, seconds: float, traced: bool, tally: Tally,
        probe: SpeedProbe) -> Dict:
    # The corpus is pinned: the seed changes nothing the checker sees.
    programs = load_corpus()
    corpus = [p for p in programs if p["role"] == "corpus"]
    pair = [p for p in programs if p["role"] == "lost-wakeup"]
    tracer = Tracer()

    def verdict(program, mode: str, tracing: bool, replays: bool,
                timed: bool = True):
        if tracing:
            result, spent = probe.time(tracer.call, "verify.explore", explore,
                                       program, mode)
        elif timed:
            result, spent = probe.time(explore, program, mode)
        else:
            result, spent = explore(program, mode), 0.0
        ok = checks.verdict_ok(result, program["expect_rules"],
                               program["complete"], mode, DFS_CAP)
        if ok and replays:
            ok = checks.replay_ok(result, replay_findings(program))
        return result, ok, spent

    def one_round(index: int) -> Dict[str, object]:
        tracing = traced and index % 2 == 1
        replays = index == 0  # token replay is a check: once per run
        mark = len(probe.samples)
        out: Dict[str, object] = {"traced": tracing}
        if tracing:
            install_verify(tracer)
        try:
            for mode in ("dpor", "dfs"):
                out[mode] = []
                for name in ("schedules", "pruned", "truncated"):
                    out[f"{mode}_{name}"] = 0
                for program in corpus:
                    result, ok, spent = verdict(program, mode, tracing,
                                                replays)
                    tally.attempted += 1
                    tally.check(ok, f"{mode} verdict on {program['name']}: "
                                f"{sorted(result.rules)} proved="
                                f"{result.proved}")
                    out[mode].append(spent)
                    out[f"{mode}_schedules"] += result.schedules_explored
                    out[f"{mode}_pruned"] += result.schedules_pruned
                    out[f"{mode}_truncated"] += result.truncated_runs
        finally:
            tracer.uninstall()
        if tracing:
            out["layers"] = {
                **tracer.harvest(probe.factor(mark)),
                "verify.pruned": out["dpor_pruned"] + out["dfs_pruned"],
                "verify.truncated": out["dpor_truncated"]
                + out["dfs_truncated"],
            }
        for program in pair:
            tally.attempted += 1
            _, ok, _ = verdict(program, "dpor", False, replays, timed=False)
            tally.failed += not ok
        out["ops"] = out["dpor"] + out["dfs"]
        out["dpor"] = sum(out["dpor"])
        out["dfs"] = sum(out["dfs"])
        return out

    rounds = common.run_rounds(seconds, one_round, probe,
                               2 if traced else 1)
    peak_mb = common.peak_rss_mb()
    if traced:
        tracer.write_chrome(os.path.join(
            common.work_dir(), f"trace-verify-corpus-{seed}.json"))
    return {"rounds": rounds, "peak_rss_mb": peak_mb,
            "phases": {"dpor_s": "dpor", "dfs_s": "dfs",
                       "schedules": "dpor_schedules"}}
