"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lint-session --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; it measures the program under
``src/``.  With ``--trace 0`` the result holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, whose
rounds alternate untraced and traced, and writes the spans as
Chrome-trace JSON under ``.perfbench-work/``.  The last line of standard
output is the result object; anything else goes to standard error.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench.trace import RULE_IDS  # noqa: E402  (stdlib-only module)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
    ("op_ms", "ms"),
)

PER_LAYER = (
    ("cold_s", "s"),
    ("edit_s", "s"),
    ("warm_s", "s"),
    ("dpor_s", "s"),
    ("dfs_s", "s"),
    ("schedules", "count"),
    ("programs_per_s", "programs/s"),
    ("trace.overhead_s", "s"),
    ("raw_round_s", "s"),
    ("probe.cold_us", "us"),
    ("probe.warm_us", "us"),
    ("probe.idle_us", "us"),
    ("setup.numpy_s", "s"),
    ("setup.networkx_s", "s"),
    ("setup.repro_s", "s"),
    ("analysis.parse.calls", "count"),
    ("analysis.parse_s", "s"),
    ("analysis.index.calls", "count"),
    ("analysis.index_s", "s"),
    ("analysis.rules_s", "s"),
    *((f"analysis.rule.{rule}_s", "s") for rule in RULE_IDS),
    ("analysis.suppress_s", "s"),
    ("analysis.render_s", "s"),
    ("ip.summarize.calls", "count"),
    ("ip.summarize_s", "s"),
    ("ip.link_s", "s"),
    ("ip.cones.analyzed", "count"),
    ("ip.cone_s", "s"),
    ("engine.load_s", "s"),
    ("engine.hash_s", "s"),
    ("engine.cache.get.calls", "count"),
    ("engine.cache.get_s", "s"),
    ("engine.cache.put.calls", "count"),
    ("engine.cache.put_s", "s"),
    ("engine.cache.hits", "count"),
    ("engine.cache.misses", "count"),
    ("engine.cache_mb", "MB"),
    ("sanitizers.instrument.calls", "count"),
    ("sanitizers.instrument_s", "s"),
    ("sanitizers.compile.calls", "count"),
    ("sanitizers.compile_s", "s"),
    ("sanitizers.run.calls", "count"),
    ("sanitizers.run_s", "s"),
    ("verify.decisions", "count"),
    ("verify.decision_us", "us"),
    ("verify.pruned", "count"),
    ("verify.truncated", "count"),
    ("verify.explore_self_s", "s"),
    ("core.synthesize.calls", "count"),
    ("core.synthesize_s", "s"),
    ("core.reduce_s", "s"),
    ("core.merge_s", "s"),
    ("core.batch_mb", "MB"),
)

WORKLOADS = ("lint-session", "verify-corpus", "survey-100k")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(result, setup_s: float):
    from bench.common import median

    rounds = result["rounds"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "round_s": median([sum(r["ops"]) for r in rounds]),
        # A round's operations differ in size, so a median over all of
        # them jumps between programs; their geometric mean does not.
        "op_ms": median([statistics.geometric_mean(r["ops"])
                         for r in rounds]) * 1e3,
    }


def per_layer(result, setup_layers):
    from bench.common import median
    from bench.trace import layer_metrics

    names = {name for name, _ in PER_LAYER}
    plain = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    samples = {}
    for r in traced:
        layers = layer_metrics(r["layers"])
        layers.update({k: v for k, v in r["layers"].items() if k in names})
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
    values = {name: median(v) for name, v in samples.items()}
    phases = dict(result["phases"], raw_round_s="raw")
    for name, key in phases.items():
        values[name] = median([r[key] for r in plain])
    for kind in ("cold", "warm", "idle"):
        values[f"probe.{kind}_us"] = median(
            [r[f"{kind}_ns"] for r in plain]) / 1e3
    values["trace.overhead_s"] = (median([sum(r["ops"]) for r in traced])
                                  - median([sum(r["ops"]) for r in plain]))
    values.update(setup_layers)
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash-ordered structures must iterate the same way in every run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    from bench import common

    common.pin_to_one_cpu()
    try:
        common.require_program()
        sys.path.insert(0, common.SRC)
        common.check_manifest()
        from bench import lint, survey, verify

        workload = {"lint-session": lint, "verify-corpus": verify,
                    "survey-100k": survey}[args.workload]
        entry = common.ENTRY_MODULES[args.workload]
        tally = common.Tally()
        started = time.perf_counter()
        if args.trace:
            setup_layers = common.import_self_times(entry)
        else:
            setup_s = common.measure_setup(entry)
        # Set-up counts against the run's seconds; the rounds get the rest.
        seconds = args.seconds - (time.perf_counter() - started)
        with common.SpeedProbe() as probe:
            result = workload.run(args.seed, seconds, bool(args.trace),
                                  tally, probe)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values = per_layer(result, setup_layers)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(result, setup_s)
        units = dict(END_TO_END)
    common.emit(tally, {name: (values[name], units[name]) for name in units})
    return 0


if __name__ == "__main__":
    sys.exit(main())
