"""Shared plumbing: locations, hermetic environment, run config, recorders.

Importing this module changes nothing; :func:`make_hermetic` (called by
``run.py`` before ``repro`` is imported) is what clears the environment.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from stats import percentile

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(SUITE_DIR, "out")

#: Load is sized for a 2-core shared box: one generator process and at
#: most two connections, so generator and server each get a core.
CONNS = min(2, os.cpu_count() or 1)

PIPELINE_WINDOW = 32

#: Statements per OLTP "pass" (pass_p50_ms): ~460 reads + ~50 writes, and
#: in embedded_write exactly one checkpoint (checkpoint_interval=512), so
#: every pass carries its share of checkpoint work.
OLTP_PASS = 512

#: One statement in this many is kept for the decomposed replay.
SAMPLE_EVERY = 50

#: Traced runs switch tracing on and off in this pattern, about this often.
ABBA = (False, True, True, False)
TRACE_PHASE_SECONDS = 0.25

now = time.perf_counter


def make_hermetic() -> List[str]:
    """Drop every REPRO_* switch so neither we nor the server inherit one."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return cleared


def server_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly (no parent lookup)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


@dataclass
class Config:
    """Everything one workload run depends on besides the code under test."""

    seed: int
    seconds: float
    trace: bool
    workdir: str
    warmup: float = 2.0
    setup_repeats: int = 3
    scale_factor: float = 0.5
    buffer_pages: int = 128
    kv_rows: int = 20_000
    oltp_pass: int = OLTP_PASS
    conns: int = CONNS

    def phases(self) -> List[Tuple[float, bool]]:
        """``(seconds, traced)`` windows of an OLTP run.

        The traced run alternates short untraced/traced windows A-B-B-A...
        so that a growing table or a noisy neighbour slows both kinds
        alike and cancels out of ``trace_overhead_ratio``.
        """
        if not self.trace:
            return [(self.seconds, False)]
        count = 4 * max(2, round(self.seconds / (4 * TRACE_PHASE_SECONDS)))
        return [(self.seconds / count, ABBA[i % 4]) for i in range(count)]

    def metadata(self) -> Dict[str, Any]:
        return {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(),
            "seed": self.seed,
            "conns": self.conns,
            "generator_processes": 1,
            "loop": "closed",
            "window_s": self.seconds,
            "warmup_s": self.warmup,
            "setup_repeats": self.setup_repeats,
            "flush_policy": 'durability="fsync" (file-backed default)',
            "scale_factor": self.scale_factor,
            "buffer_pages": self.buffer_pages,
            "kv_rows": self.kv_rows,
        }


@dataclass
class Recorder:
    """What one set of windows (traced or not) observed."""

    latencies: List[float] = field(default_factory=list)
    passes: List[float] = field(default_factory=list)
    #: Operations per second of each stretch (wire phase or pass) on its own.
    rates: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    ok: int = 0


@dataclass
class Outcome:
    """Result of one workload run, before it is printed."""

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def median_setup(build: Callable[[int], Any], discard: Callable[[Any], None], repeats: int):
    """Build the fixture ``repeats`` times; median seconds + the last one.

    Set-up is cheap next to a window, so one run can afford several and
    report a median that a single slow fsync or fork does not move.
    """
    times, fixture = [], None
    for attempt in range(repeats):
        if fixture is not None:
            discard(fixture)
        started = now()
        fixture = build(attempt)
        times.append(now() - started)
    return statistics.median(times), fixture


def summarize(cfg: Config, outcome: Outcome, setup_s: float, rec: Recorder) -> None:
    """Fill in the five gated metrics and the ungated tail from the
    untraced recorder.  A traced run reports the tail only: end-to-end
    numbers never come from a run that traced."""
    ordered = sorted(rec.latencies)
    if not cfg.trace:
        outcome.end_to_end = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (rec.ok / rec.elapsed, "1/s"),
            "p50_ms": (percentile(ordered, 0.50, 0) * 1e3, "ms"),
            "p95_ms": (percentile(ordered, 0.95, 0) * 1e3, "ms"),
            "pass_p50_ms": (percentile(sorted(rec.passes), 0.50, 0) * 1e3, "ms"),
        }
    # p99 / p99.9 only where the sample supports them (>= 10 beyond).
    outcome.detail.update(n=len(ordered), passes=len(rec.passes))
    for label, q in (("p99_ms", 0.99), ("p99.9_ms", 0.999)):
        value = percentile(ordered, q)
        outcome.detail[label] = None if value is None else value * 1e3
    outcome.detail["max_ms"] = ordered[-1] * 1e3
