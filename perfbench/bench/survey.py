"""survey-100k: the paper's §III survey at n = 100,000 programs.

One round: ``stream_survey`` sequentially with the default chunk size,
then ``to_analysis()`` (the Fig. 2 / Fig. 3 view).  After the timed
rounds, two chunks of the same grid are re-synthesized and reduced with
plain loops over their raw columns, and the sum of every chunk's own
reduction must equal the streamed total.
"""

from __future__ import annotations

import os
import random
from typing import Dict

from bench import checks, common
from bench.common import SpeedProbe, Tally
from bench.trace import Tracer, install_core

N = 100_000
CHUNK = 8192  # the pipeline's default chunk size, restated to rebuild its grid


def survey(seed: int):
    from repro.core.pipeline import stream_survey

    aggregate = stream_survey(N, seed=seed)
    return aggregate, aggregate.to_analysis()


def recheck(seed: int, aggregate, tally: Tally) -> None:
    """Recompute sampled chunks with loops; re-sum all chunks."""
    from repro.core.batch import SurveyAggregate
    from repro.core.pipeline import ChunkSpec, synthesize_batch
    from repro.core.taxonomy import CourseType

    types = list(CourseType)
    dedicated_type = types.index(CourseType.PARALLEL_PROGRAMMING)
    starts = list(range(0, N, CHUNK))
    sampled = {0, random.Random(f"perfbench-survey-{seed}").choice(starts[1:])}
    parts = []
    for start in starts:
        batch = synthesize_batch(ChunkSpec(start, min(CHUNK, N - start), seed))
        fields = checks.aggregate_fields(SurveyAggregate.from_batch(batch))
        parts.append(fields)
        if start in sampled:
            try:
                loops = checks.loop_aggregate(
                    batch.depth.tolist(), batch.program_offsets.tolist(),
                    batch.course_type.tolist(), batch.required.tolist(),
                    dedicated_type, len(types),
                )
            except ValueError as exc:
                tally.check(False, f"chunk {start}: {exc}")
                continue
            tally.check(loops == fields,
                        f"chunk {start}: reduction differs from plain loops")
    tally.check(checks.sum_fields(parts) == checks.aggregate_fields(aggregate),
                "streamed total differs from the sum of chunk reductions")


def run(seed: int, seconds: float, traced: bool, tally: Tally,
        probe: SpeedProbe) -> Dict:
    tracer = Tracer()
    last = {}

    def one_round(index: int) -> Dict[str, object]:
        tracing = traced and index % 2 == 1
        mark = len(probe.samples)
        if tracing:
            install_core(tracer)
        try:
            (aggregate, analysis), spent = probe.time(survey, seed)
        finally:
            tracer.uninstall()
        tally.attempted += 1
        tally.check(checks.survey_ok(checks.aggregate_fields(aggregate),
                                     analysis, N),
                    f"survey totals fail their bounds (round {index})")
        last["aggregate"] = aggregate
        out = {"ops": [spent], "programs_per_s": N / spent,
               "traced": tracing}
        if tracing:
            out["layers"] = tracer.harvest(probe.factor(mark))
        return out

    rounds = common.run_rounds(seconds, one_round, probe,
                               2 if traced else 1)
    peak_mb = common.peak_rss_mb()  # before the checks below
    recheck(seed, last["aggregate"], tally)
    if traced:
        tracer.write_chrome(os.path.join(
            common.work_dir(), f"trace-survey-100k-{seed}.json"))
    return {"rounds": rounds, "peak_rss_mb": peak_mb,
            "phases": {"programs_per_s": "programs_per_s"}}
