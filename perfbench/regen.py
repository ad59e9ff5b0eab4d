"""Regenerate the benchmark's inputs.

    python3 perfbench/regen.py --seed N

writes everything the workload seed decides (the planted lint modules
and the edit sequence) to ``.perfbench-work/regen-N`` and prints its
digest.  ``run.py`` regenerates the same parts in memory.

    python3 perfbench/regen.py --freeze

re-takes the frozen inputs from the program as it stands (the snapshot
of ``src/repro`` and the ten runnable corpus twins of
``repro.smp.fixtures``, with the lost-wakeup pair from
``inputs/lost_wakeup/``) and rewrites ``inputs/MANIFEST.json``.  Runs
stop when an input no longer matches the manifest, so freezing again
starts a new baseline.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench import common, planted  # noqa: E402

#: Seeds whose generated parts the manifest pins.
REFERENCE_SEEDS = (0, 1)

#: The lost-wakeup pair: (file, what the checker must conclude).
PAIR = (
    ("one_condition_queue.py", ["PDC302"]),
    ("two_condition_queue.py", []),
)


def write_seeded(seed: int, out: str) -> str:
    for rel, text in planted.seeded_parts(seed).items():
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return planted.seeded_digest(seed)


def snapshot_tree(dest: str) -> None:
    """``src/repro`` as a byte-reproducible tar.gz (sorted members, zero
    times and owners), so its digest depends on content alone."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        base = os.path.join(common.SRC, "repro")
        for root, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                info = tarfile.TarInfo(
                    os.path.relpath(path, common.SRC).replace(os.sep, "/"))
                info.size, info.mode, info.mtime = len(data), 0o644, 0
                tar.addfile(info, io.BytesIO(data))
    with open(dest, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(buf.getvalue())


def corpus() -> list:
    from repro.smp.fixtures import all_fixtures
    from repro.verify.explorer import DEFAULT_MAX_SCHEDULES, DEFAULT_MAX_STEPS

    programs = []
    for fix in all_fixtures():
        if not (fix.dynamic_entry or fix.entrypoints):
            continue
        programs.append({
            "name": fix.name,
            "role": "corpus",
            "path": f"<fixture:{fix.name}>",
            "source": fix.source,
            "entry": fix.dynamic_entry,
            "entrypoints": [] if fix.dynamic_entry else list(fix.entrypoints),
            "budget": fix.verify_budget or DEFAULT_MAX_SCHEDULES,
            "max_steps": fix.verify_max_steps or DEFAULT_MAX_STEPS,
            "expect_rules": sorted(fix.checker_expect),
            "complete": fix.verify_complete,
        })
    for name, expect in PAIR:
        with open(os.path.join(common.INPUTS, "lost_wakeup", name),
                  "r", encoding="utf-8") as fh:
            source = fh.read()
        programs.append({
            "name": name[:-3],
            "role": "lost-wakeup",
            "path": f"<perfbench:{name[:-3]}>",
            "source": source,
            "entry": "main",
            "entrypoints": [],
            "budget": DEFAULT_MAX_SCHEDULES,
            "max_steps": 60,
            "expect_rules": expect,
            # Once waits block, both programs have finite schedule trees.
            "complete": True,
        })
    return programs


def freeze() -> None:
    sys.path.insert(0, common.SRC)
    snapshot_tree(os.path.join(common.INPUTS, "tree.tar.gz"))
    with open(os.path.join(common.INPUTS, "verify_corpus.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"programs": corpus()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    files = {}
    for rel in ("inputs/tree.tar.gz", "inputs/verify_corpus.json"):
        files[rel] = common.sha256_file(os.path.join(HERE, rel))
    manifest = {
        "files": files,
        "seeded": {str(s): planted.seeded_digest(s) for s in REFERENCE_SEEDS},
    }
    with open(common.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(manifest, indent=1, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args()
    if args.freeze:
        freeze()
        return 0
    if args.seed is None:
        parser.error("give --seed N or --freeze")
    out = os.path.join(common.WORK, f"regen-{args.seed}")
    print(f"{write_seeded(args.seed, out)}  {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
