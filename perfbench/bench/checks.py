"""Output checks written apart from the program.

Each check reads the program's *outputs* (rendered reports, verdicts,
aggregates) and judges them against expectations kept in the benchmark,
recomputing what it needs with plain Python.  ``selftest.py`` feeds each
one a deliberately corrupted output and requires a rejection.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

Site = Tuple[str, str, int]  # (rule, path, line)

_TEXT_FINDING = re.compile(r"^(\S+):(\d+):(\d+): (PDC\d+) ")


# -- lint ---------------------------------------------------------------------
def text_sites(text: str) -> List[Site]:
    out = []
    for line in text.splitlines():
        m = _TEXT_FINDING.match(line)
        if m:
            out.append((m.group(4), m.group(1), int(m.group(2))))
    return sorted(out)


def json_sites(text: str) -> List[Site]:
    return sorted(
        (f["rule"], f["path"], int(f["line"]))
        for f in json.loads(text)["findings"]
    )


def sarif_sites(text: str) -> List[Site]:
    out = []
    for run in json.loads(text)["runs"]:
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            out.append((result["ruleId"], loc["artifactLocation"]["uri"],
                        int(loc["region"]["startLine"])))
    return sorted(out)


def format_sites(outputs: Dict[str, str]) -> Optional[List[Site]]:
    """The finding set the text, JSON and SARIF reports agree on, or
    ``None`` when they disagree."""
    sets = [text_sites(outputs["text"]), json_sites(outputs["json"]),
            sarif_sites(outputs["sarif"])]
    return sets[0] if sets[0] == sets[1] == sets[2] else None


def findings_ok(sites: Sequence[Site], expected: Sequence[Site]) -> bool:
    """The findings equal the hand-written list of planted findings
    exactly: the frozen snapshot itself gives none, and a duplicate
    counts as a difference."""
    return sorted(sites) == sorted(expected)


# -- verify -------------------------------------------------------------------
def verdict_ok(result, expect_rules: Sequence[str], complete: bool,
               mode: str, cap: int) -> bool:
    """A checker verdict against transcribed ground truth.

    DPOR must reach exactly the expected rules and prove iff the
    fixture is marked complete.  DFS runs under a capped budget: it must
    reach the same rules, stay within the cap, and may only claim a
    proof where one exists.
    """
    rules = sorted({f.rule for f in result.findings})
    if rules != sorted(expect_rules) or result.errors:
        return False
    proved = result.complete and result.truncated_runs == 0
    if mode == "dpor":
        return proved == complete
    return result.schedules_explored <= cap and (complete or not proved)


def replay_ok(result, replay) -> bool:
    """Every rule's reported token re-executes to the same finding.

    ``replay(token)`` runs the schedule and returns its findings.
    """
    for rule, token in sorted(result.tokens.items()):
        wanted = {(f.rule, f.path, f.line, f.symbol)
                  for f in result.findings if f.rule == rule}
        got = {(f.rule, f.path, f.line, f.symbol)
               for f in replay(token) if f.rule == rule}
        if not got or not got <= wanted:
            return False
    return bool(result.tokens) or not result.findings


# -- survey -------------------------------------------------------------------
def loop_aggregate(depth, offsets, course_type, required,
                   dedicated_type: int, n_types: int) -> Dict[str, object]:
    """Fig. 2 and Fig. 3 partial sums of one batch with plain loops over
    its raw columns (lists)."""
    n_topics = len(depth[0]) if depth else 0
    weights = [0.0] * n_topics
    counts = [0] * n_topics
    type_counts = [0] * n_types
    dedicated = 0
    for p in range(len(offsets) - 1):
        covered = [False] * n_topics
        has_dedicated = False
        for c in range(offsets[p], offsets[p + 1]):
            if not required[c]:
                continue
            row = depth[c]
            pdc = False
            for t in range(n_topics):
                if row[t] < 0 or row[t] > 3:
                    raise ValueError(f"depth {row[t]} out of range")
                if row[t] > 0:
                    weights[t] += row[t]
                    covered[t] = True
                    pdc = True
            if pdc:
                type_counts[course_type[c]] += 1
            if course_type[c] == dedicated_type:
                has_dedicated = True
        for t in range(n_topics):
            if covered[t]:
                counts[t] += 1
        dedicated += has_dedicated
    return {
        "num_programs": len(offsets) - 1,
        "dedicated_programs": dedicated,
        "topic_weights": weights,
        "topic_counts": counts,
        "course_type_counts": type_counts,
    }


def aggregate_fields(agg) -> Dict[str, object]:
    return {
        "num_programs": int(agg.num_programs),
        "dedicated_programs": int(agg.dedicated_programs),
        "topic_weights": [float(x) for x in agg.topic_weights],
        "topic_counts": [int(x) for x in agg.topic_counts],
        "course_type_counts": [int(x) for x in agg.course_type_counts],
    }


def sum_fields(parts: Sequence[Dict[str, object]]) -> Dict[str, object]:
    total = dict(parts[0])
    for part in parts[1:]:
        for key, value in part.items():
            if isinstance(value, list):
                total[key] = [a + b for a, b in zip(total[key], value)]
            else:
                total[key] = total[key] + value
    return total


def survey_ok(fields: Dict[str, object], analysis, n: int) -> bool:
    """The survey's totals: program count, bounds, and that the Fig. 2 /
    Fig. 3 view agrees with the sums it was made from."""
    counts = fields["topic_counts"]
    types = fields["course_type_counts"]
    total = sum(types)
    if fields["num_programs"] != n or analysis.num_programs != n:
        return False
    if not all(0 <= c <= n for c in counts) or min(types) < 0:
        return False
    if not 0 <= fields["dedicated_programs"] <= n:
        return False
    if any(w < c for w, c in zip(fields["topic_weights"], counts)):
        return False  # every covering program adds depth >= 1
    if [analysis.topic_counts[t] for t in analysis.topic_counts] != counts:
        return False
    if [analysis.topic_weights[t] for t in analysis.topic_weights] != \
            fields["topic_weights"]:
        return False
    shares = sorted(analysis.course_percentages.values())
    expected = sorted(100.0 * c / total for c in types if c)
    return len(shares) == len(expected) and all(
        abs(a - b) < 1e-9 for a, b in zip(shares, expected)
    )
