"""Seeded parts of the lint-session input: planted modules and edits.

The planted modules are written into ``repro/planted/`` of the frozen
tree.  The seed renames them (so no two seeds lint the same module
names) and orders the edit sequence; it never changes their shape, so
the expected findings, their lines and the amount of work per round are
the same for every seed.

``EXPECTED`` is written by hand from what each pair is built to show,
not captured from a lint run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from bench.common import sha256_files

PLANT_DIR = "repro/planted"

#: Name stems the seed draws the five planted groups' names from.
STEMS = (
    "abacus", "beacon", "cobalt", "dynamo", "ember", "falcon", "garnet",
    "harbor", "indigo", "jasper", "kestrel", "lantern", "meadow", "nimbus",
    "orchid", "pebble", "quartz", "raven", "saffron", "tundra", "umber",
    "vertex", "willow", "xenon", "yarrow", "zephyr",
)

#: One group per planted pattern: ``{n}`` is the group's seeded stem.
TEMPLATES: Dict[str, Dict[str, str]] = {
    # Cross-module racy pair: the write in state.deposit is unlocked and
    # reached from two spawned workers -> PDC101 at the write.
    "racy": {
        "{n}_state.py": (
            "import threading\n"
            "\n"
            "balance = 0\n"
            "guard = threading.Lock()\n"
            "\n"
            "\n"
            "def deposit():\n"
            "    global balance\n"
            "    balance += 1\n"
            "\n"
            "\n"
            "def audit():\n"
            "    return balance\n"
        ),
        "{n}_worker.py": (
            "import {n}_state\n"
            "\n"
            "\n"
            "def run():\n"
            "    for _ in range(3):\n"
            "        {n}_state.deposit()\n"
        ),
        "{n}_main.py": (
            "import threading\n"
            "\n"
            "import {n}_state\n"
            "import {n}_worker\n"
            "\n"
            "\n"
            "def main():\n"
            "    threads = [threading.Thread(target={n}_worker.run)"
            " for _ in range(2)]\n"
            "    for t in threads:\n"
            "        t.start()\n"
            "    for t in threads:\n"
            "        t.join()\n"
            "    return {n}_state.audit()\n"
        ),
    },
    # Its fork/join handoff twin: one spawned writer, joined before the
    # spawner writes -> no finding.
    "handoff": {
        "{n}_state.py": (
            "total = 0\n"
            "\n"
            "\n"
            "def bump():\n"
            "    global total\n"
            "    total += 5\n"
            "\n"
            "\n"
            "def scale():\n"
            "    global total\n"
            "    total *= 3\n"
        ),
        "{n}_main.py": (
            "import threading\n"
            "\n"
            "import {n}_state\n"
            "\n"
            "\n"
            "def main():\n"
            "    first = threading.Thread(target={n}_state.bump)\n"
            "    first.start()\n"
            "    first.join()\n"
            "    {n}_state.scale()\n"
            "    return {n}_state.total\n"
        ),
    },
    # Cross-module ABBA: fwd nests first->second, bwd second->first, app
    # links both -> PDC102 at bwd's inner acquisition.
    "abba": {
        "{n}_locks.py": (
            "import threading\n"
            "\n"
            "first = threading.Lock()\n"
            "second = threading.Lock()\n"
        ),
        "{n}_fwd.py": (
            "import {n}_locks\n"
            "\n"
            "\n"
            "def forward():\n"
            "    with {n}_locks.first:\n"
            "        with {n}_locks.second:\n"
            "            pass\n"
        ),
        "{n}_bwd.py": (
            "import {n}_locks\n"
            "\n"
            "\n"
            "def backward():\n"
            "    with {n}_locks.second:\n"
            "        with {n}_locks.first:\n"
            "            pass\n"
        ),
        "{n}_app.py": (
            "import {n}_bwd\n"
            "import {n}_fwd\n"
            "\n"
            "\n"
            "def main():\n"
            "    {n}_fwd.forward()\n"
            "    {n}_bwd.backward()\n"
        ),
    },
    # Its ordered twin: both sides nest first->second -> no finding.
    "ordered": {
        "{n}_locks.py": (
            "import threading\n"
            "\n"
            "first = threading.Lock()\n"
            "second = threading.Lock()\n"
        ),
        "{n}_fwd.py": (
            "import {n}_locks\n"
            "\n"
            "\n"
            "def forward():\n"
            "    with {n}_locks.first:\n"
            "        with {n}_locks.second:\n"
            "            pass\n"
        ),
        "{n}_bwd.py": (
            "import {n}_locks\n"
            "\n"
            "\n"
            "def backward():\n"
            "    with {n}_locks.first:\n"
            "        with {n}_locks.second:\n"
            "            pass\n"
        ),
        "{n}_app.py": (
            "import {n}_bwd\n"
            "import {n}_fwd\n"
            "\n"
            "\n"
            "def main():\n"
            "    {n}_fwd.forward()\n"
            "    {n}_bwd.backward()\n"
        ),
    },
    # A call under a lock whose callee blocks one module away -> PDC209
    # at the call site.
    "blocking": {
        "{n}_helper.py": (
            "def fetch():\n"
            "    return input()\n"
        ),
        "{n}_app.py": (
            "import threading\n"
            "\n"
            "import {n}_helper\n"
            "\n"
            "gate = threading.Lock()\n"
            "\n"
            "\n"
            "def tick():\n"
            "    with gate: {n}_helper.fetch()\n"
        ),
    },
}

#: Findings on planted modules in the base state: (rule, file, line).
EXPECTED = {
    "racy": [("PDC101", "{n}_state.py", 9)],
    "handoff": [],
    "abba": [("PDC102", "{n}_bwd.py", 6)],
    "ordered": [],
    "blocking": [("PDC209", "{n}_app.py", 9)],
}

#: Lock toggles, group -> (file, line, base text, toggled text).
#: Restoring the racy pair's planted lock clears its PDC101; removing the
#: blocking call's lock clears its PDC209.  The line number never moves.
TOGGLES = {
    "racy": ("{n}_state.py", 9, "    balance += 1",
             "    with guard: balance += 1"),
    "blocking": ("{n}_app.py", 9, "    with gate: {n}_helper.fetch()",
                 "    {n}_helper.fetch()"),
}

#: Snapshot modules the append edits touch, chosen for spread of fan-in:
#: an edit re-links the cones of the module's dependents (2 to 35 here).
APPEND_TARGETS = (
    "repro/smp/interleave.py",
    "repro/smp/locks.py",
    "repro/core/coverage.py",
    "repro/smp/pool.py",
    "repro/core/abet.py",
    "repro/db/transaction.py",
    "repro/core/taxonomy.py",
    "repro/analysis/report.py",
)

#: Each lock is toggled this many times per round (so a round ends in
#: the base lock state).
TOGGLES_PER_GROUP = 2


def names(seed: int) -> Dict[str, str]:
    """Group -> the seed's name stem for it."""
    stems = random.Random(f"perfbench-planted-{seed}").sample(
        STEMS, len(TEMPLATES)
    )
    return dict(zip(sorted(TEMPLATES), stems))


def planted_files(seed: int) -> Dict[str, str]:
    """Relative path (under the tree root) -> source, base state."""
    out = {f"{PLANT_DIR}/__init__.py": ""}
    for group, stem in names(seed).items():
        for name, text in TEMPLATES[group].items():
            out[f"{PLANT_DIR}/{name.format(n=stem)}"] = text.format(n=stem)
    return out


def expected(seed: int,
             toggled: Dict[str, bool]) -> List[Tuple[str, str, int]]:
    """Expected planted findings given which locks are toggled."""
    out = []
    for group, stem in names(seed).items():
        if toggled.get(group):
            continue  # each toggle removes exactly its group's finding
        for rule, name, line in EXPECTED[group]:
            out.append((rule, f"{PLANT_DIR}/{name.format(n=stem)}", line))
    return sorted(out)


def edit_plan(seed: int) -> List[Dict[str, object]]:
    """The seeded edit sequence of one round.

    Every seed gets the same multiset of edits (one append per target,
    two toggles per lock); the seed orders them and picks the appended
    values.
    """
    rng = random.Random(f"perfbench-edits-{seed}")
    edits: List[Dict[str, object]] = [
        {"kind": "append", "path": path,
         "text": f"_perfbench_touch_{i} = {rng.randrange(10**6)}\n"}
        for i, path in enumerate(APPEND_TARGETS)
    ]
    edits += [{"kind": "toggle", "group": group}
              for group in sorted(TOGGLES) for _ in range(TOGGLES_PER_GROUP)]
    rng.shuffle(edits)
    return edits


def seeded_parts(seed: int) -> Dict[str, str]:
    """Everything the seed decides, as files (what ``regen.py`` writes)."""
    import json

    parts = dict(planted_files(seed))
    parts["edits.json"] = json.dumps(edit_plan(seed), indent=1) + "\n"
    return parts


def seeded_digest(seed: int) -> str:
    return sha256_files(seeded_parts(seed))
