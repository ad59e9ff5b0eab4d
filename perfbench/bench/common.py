"""Plumbing every workload shares: paths, the input manifest, set-up
probes, the timed round loop and the result line.

All timings are process CPU seconds (``time.process_time``) rescaled to
a reference speed of the host by :class:`SpeedProbe`: the work is
in-process and single-threaded, and on a host whose cores are shared
with other tenants neither wall time nor raw CPU time holds still.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
WORK = os.path.join(ROOT, ".perfbench-work")
MANIFEST = os.path.join(INPUTS, "MANIFEST.json")

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_REPS = 9

#: The module each workload's user-facing entry point imports first.
ENTRY_MODULES = {
    "lint-session": "repro.analysis.__main__",
    "verify-corpus": "repro.verify.__main__",
    "survey-100k": "repro.core.pipeline",
}


#: CPU seconds between speed probes, and the probe duration that defines
#: the reference speed (about the fast phase of the host the bounds were
#: set on).
PROBE_INTERVAL_S = 0.002
REFERENCE_PROBE_NS = 20_000

#: How strongly set-up time follows the probe.  Between the host's slow
#: and fast phases the probe's duration changes 1.54x but a fresh
#: interpreter's import CPU only 1.27x (its unmarshalling, allocation and
#: system calls slow less than a tight interpreter loop), so full
#: rescaling over-corrects; scaling by the square root left the least
#: spread over 80 children per entry module (2-6% against 5-11%).
SETUP_SPEED_EXPONENT = 0.5

#: Probes taken back to back right after an operation, outside it: the
#: idle speed that the in-operation probes are compared with.
IDLE_PROBES = 10

_PROBE_TABLE = {i: i for i in range(32)}


class BenchError(Exception):
    """A precondition failed: the run stops without a result line."""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _probe() -> int:
    """Fixed interpreter work that allocates nothing the collector tracks,
    so its duration depends on the host's speed, not the program's heap."""
    table = _PROBE_TABLE
    acc = 0
    for i in range(256):
        k = i & 31
        acc += table[k]
        table[k] = k
    return acc


def _probe_pair() -> Tuple[int, int]:
    """The probe run twice: the first, *cold* run pays to bring the
    probe's code and table back into the caches the program evicted; the
    second, *warm* run does not.  Returns both durations."""
    started = time.perf_counter_ns()
    _probe()
    mid = time.perf_counter_ns()
    _probe()
    return mid - started, time.perf_counter_ns() - mid


class SpeedProbe:
    """Rescales CPU time to a fixed reference speed of the host.

    A core shared with other tenants runs the same code at speeds that
    drift by up to 1.7x over seconds, which no number of repetitions
    averages away within one run.  While active, a SIGPROF handler times
    :func:`_probe_pair` every :data:`PROBE_INTERVAL_S` of process CPU
    time; its sample is the geometric mean of the cold and warm
    durations.  An operation's CPU time, minus the probes run inside it,
    times ``REFERENCE_PROBE_NS / median sample`` during the operation, is
    its time at the reference speed.

    The cold run follows the host's contention for the caches, which
    slows the program's cache-missing work too, but also the program's
    own working set (inside ``stream_survey`` it reads 1.36x the warm
    run, inside DPOR 1.15x); the warm run follows neither.  Their
    geometric mean halves the working-set dependence and left the least
    spread.  Every timed operation is logged with its raw CPU seconds,
    its median cold and warm durations, and the median warm duration of
    :data:`IDLE_PROBES` probes taken right after it, so a traced run
    shows how far the rescaling leans on the working set.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cold: List[int] = []
        self.warm: List[int] = []
        self.cost_ns = 0
        self.log: List[Tuple[float, float, float, float]] = []
        self._previous = None

    def sample(self, *_: object) -> None:
        cold, warm = _probe_pair()
        self.cold.append(cold)
        self.warm.append(warm)
        self.samples.append((cold * warm) ** 0.5)
        self.cost_ns += cold + warm

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def factor(self, since: int) -> float:
        """Reference speed over the speed seen since sample ``since``
        (probing on the spot when too few samples fell in)."""
        while len(self.samples) - since < 9:
            self.sample()
        return REFERENCE_PROBE_NS / statistics.median(self.samples[since:])

    def time(self, fn: Callable, *args, **kwargs) -> Tuple[object, float]:
        """``fn(*args, **kwargs)`` and its seconds at the reference speed."""
        mark, cost = len(self.samples), self.cost_ns
        started = time.process_time()
        result = fn(*args, **kwargs)
        spent = time.process_time() - started - (self.cost_ns - cost) / 1e9
        factor = self.factor(mark)
        idle = statistics.median(_probe_pair()[1] for _ in range(IDLE_PROBES))
        self.log.append((spent, statistics.median(self.cold[mark:]),
                         statistics.median(self.warm[mark:]), idle))
        return result, spent * factor


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def sha256_files(files: Dict[str, str]) -> str:
    """Digest of a name -> text mapping, independent of dict order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("utf-8") + b"\0")
        h.update(files[name].encode("utf-8") + b"\0")
    return h.hexdigest()


def load_manifest() -> Dict[str, object]:
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest() -> None:
    """Stop the run when a frozen input differs from its recorded digest,
    or when the seeded generator no longer reproduces its reference
    output (drifted inputs would make runs incomparable)."""
    from bench import planted

    manifest = load_manifest()
    for rel, digest in sorted(manifest["files"].items()):
        path = os.path.join(HERE, rel)
        if not os.path.isfile(path):
            raise BenchError(f"input {rel} is missing")
        if sha256_file(path) != digest:
            raise BenchError(f"input {rel} drifted from MANIFEST.json")
    for seed, digest in sorted(manifest["seeded"].items()):
        if planted.seeded_digest(int(seed)) != digest:
            raise BenchError(
                f"seeded inputs for seed {seed} drifted from MANIFEST.json"
            )


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")


def pin_to_one_cpu() -> None:
    """Keep this process, the threads it starts and its set-up children
    on one CPU.  PDC-Verify hands a baton between OS threads; spread over
    two vCPUs every hand-off wakes the other vCPU, which costs CPU time
    that depends on what else that vCPU runs: unpinned, DPOR on five
    corpus programs took 25% more CPU (rescaled) than pinned to either
    vCPU, and varied by 10% per operation against 7%."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# -- set-up -----------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Users import from compiled bytecode; so does the probe.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _child_script(module: str) -> str:
    """Import ``module`` while the warm run of :func:`_probe_pair` is
    timed every :data:`PROBE_INTERVAL_S` of CPU, then print the CPU seconds
    spent since the interpreter started (less the probes) and the probe
    durations, nine more taken right after the import included.  Only
    builtin modules are imported before ``module``."""
    return (
        "import _signal, time\n"
        "_PROBE_TABLE = {i: i for i in range(32)}\n"
        f"{inspect.getsource(_probe)}"
        "samples, cost = [], [0]\n"
        "def sample(*_):\n"
        "    started = time.perf_counter_ns()\n"
        "    _probe()\n"
        "    mid = time.perf_counter_ns()\n"
        "    _probe()\n"
        "    done = time.perf_counter_ns()\n"
        "    samples.append(done - mid)\n"
        "    cost[0] += done - started\n"
        "_signal.signal(_signal.SIGPROF, sample)\n"
        f"_signal.setitimer(_signal.ITIMER_PROF, {PROBE_INTERVAL_S}, "
        f"{PROBE_INTERVAL_S})\n"
        f"import {module}\n"
        "_signal.setitimer(_signal.ITIMER_PROF, 0, 0)\n"
        "spent = time.process_time() - cost[0] / 1e9\n"
        "for _ in range(9):\n"
        "    sample()\n"
        "print(spent, *samples)\n"
    )


def _spawn(argv: List[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"{argv[-1]!r} failed:\n{proc.stderr[-2000:]}")
    return proc


def measure_setup(module: str) -> float:
    """Median of :data:`SETUP_REPS` fresh interpreters' CPU seconds from
    start to ``module`` imported, rescaled towards the reference speed by
    :data:`SETUP_SPEED_EXPONENT` (probed by each child during and right
    after its import), after one unmeasured import that leaves the
    bytecode cache warm."""
    script = _child_script(module)
    _spawn([sys.executable, "-c", script])
    samples = []
    for _ in range(SETUP_REPS):
        fields = _spawn([sys.executable, "-c", script]).stdout.split()
        probes = [int(x) for x in fields[1:]]
        speed = REFERENCE_PROBE_NS / statistics.median(probes)
        samples.append(float(fields[0]) * speed ** SETUP_SPEED_EXPONENT)
    return median(samples)


def import_self_times(module: str) -> Dict[str, float]:
    """Self seconds of numpy, networkx and repro in ``-X importtime``,
    median over :data:`SETUP_REPS` fresh interpreters."""
    groups = ("numpy", "networkx", "repro")
    samples: Dict[str, List[float]] = {g: [] for g in groups}
    for _ in range(SETUP_REPS):
        table = _spawn([sys.executable, "-X", "importtime", "-c",
                        f"import {module}"]).stderr
        totals = dict.fromkeys(groups, 0.0)
        for line in table.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue  # the header row
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(fields[0]) / 1e6
        for g in groups:
            samples[g].append(totals[g])
    return {f"setup.{g}_s": median(samples[g]) for g in groups}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_mb(path: str) -> float:
    total = 0
    for root, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
    return total / 1e6


# -- the run ----------------------------------------------------------------
class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


def run_rounds(seconds: float, one_round: Callable[[int], Dict],
               probe: SpeedProbe, min_rounds: int = 1) -> List[Dict]:
    """Whole rounds until ``seconds`` of wall time have passed (and at
    least ``min_rounds``), so every run attempts the same operations in
    the same mix.  Round 0 is a checked but unmeasured warm-up: the first
    round in a process pays for lazy imports and heap growth (a cold
    lint 5-15% slower than later ones).  Each measured round also gets
    the raw CPU seconds and the in-operation and idle probe medians of
    the operations it timed."""
    rounds = []
    started = time.perf_counter()
    one_round(0)
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        mark = len(probe.log)
        result = one_round(len(rounds) + 1)
        logged = probe.log[mark:]
        result["raw"] = sum(entry[0] for entry in logged)
        for i, key in enumerate(("cold_ns", "warm_ns", "idle_ns"), 1):
            result[key] = median([entry[i] for entry in logged])
        rounds.append(result)
    return rounds


def emit(tally: Tally, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Problems to stderr, then the result object as the last stdout line."""
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
