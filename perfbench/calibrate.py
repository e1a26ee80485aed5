"""A fixed pure-Python kernel that measures how fast the machine runs right now.

On a shared virtual machine the same work can take 1.4 times as long from
one stretch of seconds or minutes to the next. The benchmark times this
kernel while it times its own work and divides the work's wall time by the
kernel's slowdown against `REFERENCE_CHUNK_S` (README "Steadiness"). The
kernel does what the placement loop spends most of its time on: frozen,
slotted dataclass points built and validated one by one, attribute reads,
float arithmetic, and all-pairs nearest-neighbour and point-to-rectangle
scans. It shares no code with the program, so no change to the program can
change the kernel's own work.

Garbage collection is off while the kernel runs, so the size of the heap the
program leaves behind cannot slow the kernel down. `Sampler` times a chunk
only after a first one has run and `chunk_time` takes the median of at least
three, so caches the program left cold cannot either.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass

# Median chunk time on the 2-core x86-64 VM the README's reference figures
# were taken on, over 1197 samples taken between placements. Only ratios to
# it matter: it turns a measured slowdown into seconds at that machine's
# usual speed.
REFERENCE_CHUNK_S = 0.0021
# `chunk_time`: kernel time after a piece of work, as a share of its time.
SHARE = 0.1
MIN_CHUNKS = 3
# Seconds between two samples of `Sampler`; each costs about two chunks.
SAMPLE_INTERVAL_S = 0.1
POINTS = 24


@dataclass(frozen=True, slots=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        fx, fy = float(self.x), float(self.y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise ValueError("non-finite point")
        object.__setattr__(self, "x", fx)
        object.__setattr__(self, "y", fy)

    def __sub__(self, other: "_Point") -> "_Point":
        return _Point(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True, slots=True)
class _Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float


def _clearance(p: _Point, r: _Box) -> float:
    dx = max(r.x_min - p.x, p.x - r.x_max)
    dy = max(r.y_min - p.y, p.y - r.y_max)
    if dx <= 0.0 and dy <= 0.0:
        return max(dx, dy)
    return math.hypot(max(dx, 0.0), max(dy, 0.0))


_rng = random.Random("perfbench/calibrate")
_COORDS = [(_rng.uniform(0.0, 250.0), _rng.uniform(0.0, 150.0)) for _ in range(POINTS)]


def _chunk() -> float:
    """One fixed unit of work; returns a value so that none of it is idle."""
    points = [_Point(x, y) for x, y in _COORDS]
    boxes = [_Box(p.x - 6.0, p.y + 9.0, p.x + 6.0, p.y + 13.0) for p in points]
    total = 0.0
    for i, p in enumerate(points):
        best = math.inf
        for j, q in enumerate(points):
            if i != j:
                d = (p - q).norm()
                if d < best:
                    best = d
        total += best
        for k, box in enumerate(boxes):
            if k != i and _clearance(p, box) < 0.2:
                total += 1.0
    return total


def chunk_time(work_s: float) -> float:
    """Run chunks for SHARE of `work_s` seconds, at least MIN_CHUNKS of
    them, and return the median chunk time in seconds."""
    times: list[float] = []
    spent = 0.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        while len(times) < MIN_CHUNKS or spent < SHARE * work_s:
            t0 = time.perf_counter()
            _chunk()
            dt = time.perf_counter() - t0
            times.append(dt)
            spent += dt
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Times one warm chunk every SAMPLE_INTERVAL_S seconds of wall time,
    from a SIGALRM handler, while the work to be scaled runs.

    The samples are spread evenly over time, so their mean is the mean
    slowdown over the sampled stretch however the machine's speed changes
    inside it, also during one long call. `busy_s` is the wall time the
    handler itself has taken, to be subtracted from the work's wall time.
    Only the main thread may use it; it replaces any SIGALRM handler until
    `stop`.
    """

    def __init__(self) -> None:
        self.chunk_s: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _chunk()
            t1 = time.perf_counter()
            _chunk()
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.chunk_s.append(t2 - t1)
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean sampled chunk time over REFERENCE_CHUNK_S; one taken now if
        the stretch was too short to hold a sample."""
        if not self.chunk_s:
            return chunk_time(0.0) / REFERENCE_CHUNK_S
        return statistics.fmean(self.chunk_s) / REFERENCE_CHUNK_S
