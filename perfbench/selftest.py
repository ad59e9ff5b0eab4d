"""Show that every output check of the benchmark rejects a corrupted
output (and accepts the real one).

    python3 perfbench/selftest.py

Exits 0 when every check accepted the real output and rejected each
corruption; prints one line per case.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench import checks, common, planted  # noqa: E402

sys.path.insert(0, common.SRC)

RESULTS = []


def expect(name: str, accepted: bool, corrupted: bool) -> None:
    """``accepted`` must be True for the real output and ``corrupted``
    False for the damaged one."""
    ok = accepted and not corrupted
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def lint_cases() -> None:
    from repro.analysis.engine import LintPass
    from repro.analysis.engine.cli import render_report
    from repro.analysis.ip import WholeProgramEngine

    with tempfile.TemporaryDirectory(dir=common.work_dir()) as tmp:
        for rel, text in planted.planted_files(0).items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            pass_ = LintPass()
            report = WholeProgramEngine(pass_).run_paths(["repro"])
            outputs = {f: render_report(pass_, f, report)
                       for f in ("text", "json", "sarif")}
        finally:
            os.chdir(cwd)
    sites = checks.format_sites(outputs)
    want = planted.expected(0, {})

    damaged = dict(outputs)
    damaged["sarif"] = outputs["sarif"].replace(
        '"startLine": 9', '"startLine": 8', 1)
    expect("lint: text/JSON/SARIF agree; a moved SARIF line is caught",
           sites is not None, checks.format_sites(damaged) is not None)

    damaged = dict(outputs)
    damaged["text"] = "\n".join(
        ln for ln in outputs["text"].splitlines() if "PDC102" not in ln)
    expect("lint: a finding missing from the text report is caught",
           sites is not None, checks.format_sites(damaged) is not None)

    ok = checks.findings_ok(sites, want)
    expect("lint: planted findings match; a dropped finding is caught",
           ok, checks.findings_ok(sites[1:], want))
    expect("lint: a duplicated planted finding is caught",
           ok, checks.findings_ok(sites + sites[:1], want))
    shifted = [(r, p, line + 1) for r, p, line in sites]
    expect("lint: a finding on the wrong line is caught",
           ok, checks.findings_ok(shifted, want))
    stray = sites + [("PDC101", "repro/core/batch.py", 40)]
    expect("lint: a finding outside the planted modules is caught",
           ok, checks.findings_ok(stray, want))
    toggled = planted.expected(0, {"racy": True})
    expect("lint: a finding that a lock toggle should clear is caught",
           ok, checks.findings_ok(sites, toggled))


def verify_cases() -> None:
    from bench import verify

    programs = {p["name"]: p for p in verify.load_corpus()}
    racy = programs["racy_counter_twin"]
    result = verify.explore(racy, "dpor")
    good = checks.verdict_ok(result, racy["expect_rules"], racy["complete"],
                             "dpor", verify.DFS_CAP)
    expect("verify: a verdict missing its finding is caught", good,
           checks.verdict_ok(dataclasses.replace(result, findings=[]),
                             racy["expect_rules"], racy["complete"], "dpor",
                             verify.DFS_CAP))
    expect("verify: a proof claimed on a bounded search is caught", good,
           checks.verdict_ok(dataclasses.replace(result, truncated_runs=1),
                             racy["expect_rules"], racy["complete"], "dpor",
                             verify.DFS_CAP))
    # A deadlock shows on few schedules (a race on every one), so the
    # replay check is exercised on the ABBA twin with a serial schedule.
    from repro.verify import decode_token, encode_token

    abba = programs["abba_deadlock_twin"]
    result = verify.explore(abba, "dpor")
    replay = verify.replay_findings(abba)
    serial = {rule: encode_token([0] * len(decode_token(token)))
              for rule, token in result.tokens.items()}

    def lenient(token):
        try:
            return replay(token)
        except Exception:  # noqa: BLE001 - a token that no longer replays
            return []

    expect("verify: a token that does not replay to its finding is caught",
           checks.replay_ok(result, replay),
           checks.replay_ok(dataclasses.replace(result, tokens=serial),
                            lenient))


def survey_cases() -> None:
    from repro.core.batch import SurveyAggregate
    from repro.core.pipeline import ChunkSpec, stream_survey, synthesize_batch
    from repro.core.taxonomy import CourseType

    types = list(CourseType)
    dedicated = types.index(CourseType.PARALLEL_PROGRAMMING)
    batch = synthesize_batch(ChunkSpec(0, 300, 7))
    fields = checks.aggregate_fields(SurveyAggregate.from_batch(batch))

    def loops(depth):
        return checks.loop_aggregate(
            depth, batch.program_offsets.tolist(), batch.course_type.tolist(),
            batch.required.tolist(), dedicated, len(types))

    depth = batch.depth.tolist()
    bumped = copy.deepcopy(depth)
    row = next(i for i, r in enumerate(bumped) if r[0] == 1)
    bumped[row][0] = 2
    expect("survey: loop recomputation matches; a changed depth is caught",
           loops(depth) == fields, loops(bumped) == fields)
    bad = copy.deepcopy(depth)
    bad[0][0] = 7
    try:
        loops(bad)
        rejected = False
    except ValueError:
        rejected = True
    expect("survey: a depth outside 0..3 is caught", True, not rejected)

    n = 3000
    aggregate = stream_survey(n, seed=7, chunk_size=1024)
    analysis = aggregate.to_analysis()
    real = checks.aggregate_fields(aggregate)
    ok = checks.survey_ok(real, analysis, n)
    expect("survey: a wrong program count is caught", ok,
           checks.survey_ok(dict(real, num_programs=n - 1), analysis, n))
    weights = list(real["topic_weights"])
    weights[3] += 1.0
    expect("survey: Fig. 2 weights that disagree with the view are caught",
           ok, checks.survey_ok(dict(real, topic_weights=weights),
                                analysis, n))
    skewed = dataclasses.replace(
        analysis, course_percentages={
            k: v + 1.0 for k, v in analysis.course_percentages.items()})
    expect("survey: Fig. 3 shares that disagree with the counts are caught",
           ok, checks.survey_ok(real, skewed, n))
    parts = [checks.aggregate_fields(SurveyAggregate.from_batch(
        synthesize_batch(ChunkSpec(s, min(1024, n - s), 7))))
        for s in range(0, n, 1024)]
    short = parts[:-1]
    expect("survey: chunk sums equal the stream; a lost chunk is caught",
           checks.sum_fields(parts) == real,
           checks.sum_fields(short) == real)


def main() -> int:
    lint_cases()
    verify_cases()
    survey_cases()
    print(f"{sum(RESULTS)}/{len(RESULTS)} cases passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
