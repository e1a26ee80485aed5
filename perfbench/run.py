"""Seeded placement benchmark for leaderlabels.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 40 --trace 0

Builds the workload's scene documents from the seed (perfbench/scenes.py),
then places every scene with `optimizer.run` in rounds. The first round
always runs; another starts only if, at the mean round length so far, it
would end within --seconds. So every run attempts whole rounds of the same
placements and measures at most --seconds or one round, whichever is longer.
Each placement is checked by perfbench/checker.py, which shares no code with
the program. With --trace 0 the calibration kernel of perfbench/calibrate.py
runs beside the placements and after every set-up probe, and the times
reported are scaled by the machine speed it measured (README "Steadiness").

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics. With --trace 1 the timing wrappers of perfbench/tracing.py
are installed and the result carries the per-layer metrics instead. The line
before it starts with "env" and records the thread settings and the load.
Results and spans also go to perfbench/out/.

BLAS and OpenMP are pinned to one thread below, before numpy is imported,
and the whole load runs in this single process.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import calibrate
import checker
import scenes
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(docs: list[dict]) -> tuple[float, float]:
    """Medians over fresh processes of import-plus-parse time, scaled to the
    reference machine speed and as measured."""
    payload = json.dumps(docs)
    times = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=payload,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["module"]).resolve().parent.parent != SRC:
            fail(f"setup probe imported leaderlabels from {probe['module']}, not {SRC}")
        times.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * calibrate.REFERENCE_CHUNK_S / probe["chunk_s"])
    return statistics.median(scaled), statistics.median(times)


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import leaderlabels
        from leaderlabels import optimizer, scenefile
    except ImportError as exc:
        fail(f"cannot import leaderlabels from {SRC}: {exc}")
    if Path(leaderlabels.__file__).resolve().parent.parent != SRC:
        fail(f"imported leaderlabels from {leaderlabels.__file__}, not {SRC}")
    return optimizer, scenefile


@dataclass
class Scene:
    spec: checker.SceneSpec
    feature_ids: list[str]
    features: list
    cfg: object
    initial: np.ndarray
    initial_conflicts: int


@dataclass
class Placement:
    # Wall time of the placement, without the time the sampler took.
    seconds: float
    failed: bool
    # Untraced runs only: `seconds` at the reference machine speed.
    scaled_seconds: float = 0.0
    conflicts_resolved: int = 0
    deviation_deg: float = 0.0
    report: object = None
    # Traced runs only: the conflicts left when the beam loops ended, and of
    # those the ones handed to repair (None when repair did not run).
    before_repair: float | None = None
    repair_in: float | None = None


def place_and_check(
    optimizer, scene: Scene, tracer: tracing.Tracer | None, sampler: calibrate.Sampler | None
) -> Placement:
    span_mark = len(tracer.spans) if tracer else 0
    busy0 = sampler.busy_s if sampler else 0.0

    def elapsed() -> float:
        return time.perf_counter() - t0 - ((sampler.busy_s - busy0) if sampler else 0.0)

    t0 = time.perf_counter()
    try:
        if tracer:
            idx = tracer.open(tracing.RUN_SPAN)
            try:
                labels, report = optimizer.run(scene.features, scene.cfg)
            finally:
                tracer.close(idx)
        else:
            labels, report = optimizer.run(scene.features, scene.cfg)
    except Exception:  # a placement that raises is a failed operation; keep measuring
        traceback.print_exc(file=sys.stderr)
        return Placement(elapsed(), failed=True)
    seconds = elapsed()

    rects = np.array([[l.rect.x_min, l.rect.y_min, l.rect.x_max, l.rect.y_max] for l in labels])
    conns = np.array([[l.conn.x, l.conn.y] for l in labels])
    fonts = np.array([l.font_size for l in labels])
    deleted = np.array([l.deleted for l in labels], dtype=bool)
    view = checker.ReportView(
        label_conflicts=report.label_conflicts,
        feature_conflicts=report.feature_conflicts,
        infeasible=report.infeasible,
        loops=tuple(
            checker.LoopRecord(s.steps, s.max_iterations, s.final_max_force) for s in report.loops
        ),
    )
    problems = checker.check_placement(
        scene.spec, scene.feature_ids, [l.feature_id for l in labels],
        rects, conns, fonts, deleted, view,
    )
    if problems:
        print("perfbench: check failed: " + "; ".join(problems), file=sys.stderr)
        return Placement(seconds, failed=True, report=report)
    final = sum(checker.count_conflicts(rects, deleted, scene.spec, scene.spec.d_min))
    placement = Placement(
        seconds,
        failed=False,
        conflicts_resolved=scene.initial_conflicts - final,
        deviation_deg=checker.direction_deviation(scene.spec, scene.initial, rects, deleted),
        report=report,
    )
    if tracer:
        # run() counts conflicts once more after the beam loops and hands
        # them to repair only if some remain.
        last_count = None
        for span in tracer.spans[span_mark:]:
            if span.name == "metrics.count_conflicts":
                last_count = span.value
            elif span.name == "repair.greedy":
                placement.repair_in = last_count
        placement.before_repair = (
            report.label_conflicts + report.feature_conflicts
            if placement.repair_in is None
            else placement.repair_in
        )
    return placement


def end_to_end(rounds: list[list[Placement]], setup_s: float) -> dict:
    ok = [[p for p in r if not p.failed] for r in rounds]
    return {
        "setup_s": (setup_s, "s"),
        "place_s": (statistics.median(sum(p.scaled_seconds for p in r) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "conflicts_resolved": (
            statistics.median(sum(p.conflicts_resolved for p in r) for r in ok), "count"
        ),
        "direction_deviation_deg": (
            statistics.median(
                statistics.fmean(p.deviation_deg for p in r) if r else 0.0 for r in ok
            ),
            "deg",
        ),
    }


def layer_metrics(
    spans: list[tracing.Span], self_s: list[float], placements: list[Placement],
    initial_conflicts: list[int], missing: int,
) -> dict:
    """Per-layer figures of one round from its spans, their self times and
    the round's reports."""
    by_name: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_s):
        agg = by_name.setdefault(s.name, {"self": 0.0, "total": 0.0, "calls": 0, "value": 0.0})
        agg["self"] += own
        agg["total"] += s.end - s.start
        agg["calls"] += 1
        agg["value"] += s.value or 0.0

    def get(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0.0)

    def layer_self(prefix: str) -> float:
        return sum(v["self"] for k, v in by_name.items() if k.startswith(prefix + "."))

    reports = [p.report for p in placements if p.report is not None]
    nodes = [s.value for s in spans if s.name == "beams.solve" and s.value is not None]
    repaired = [p for p in placements if p.repair_in is not None]
    conflicts_in = sum(p.repair_in for p in repaired)
    moves = get("repair.greedy", "value")
    place_s = sum(p.seconds for p in placements)
    layers = ("scene", "proximity", "forces", "beams", "metrics", "repair")
    # Without optimizer.self_s: a wrapped name that disappears moves its time
    # into optimizer.self_s, and this share drops.
    in_layers = sum(layer_self(layer) for layer in layers)
    return {
        "scene.initial_layout_s": (get("scene.initial_layout", "self"), "s"),
        "proximity.nn_distance_s": (get("proximity.nn_distance", "self"), "s"),
        "proximity.nn_distance_calls": (get("proximity.nn_distance", "calls"), "count"),
        "proximity.delaunay_s": (get("proximity.delaunay", "self"), "s"),
        "proximity.prune_s": (get("proximity.prune", "self"), "s"),
        "proximity.graph_edges": (get("proximity.prune", "value"), "count"),
        "proximity.partition_s": (get("proximity.partition", "self"), "s"),
        "proximity.self_s": (layer_self("proximity"), "s"),
        "forces.assemble_s": (get("forces.assemble", "self"), "s"),
        "forces.label_pairs_s": (get("forces.label_pairs", "self"), "s"),
        "forces.label_pairs_calls": (get("forces.label_pairs", "calls"), "count"),
        "forces.feature_pairs_s": (get("forces.feature_pairs", "self"), "s"),
        "forces.feature_pairs_calls": (get("forces.feature_pairs", "calls"), "count"),
        "forces.self_s": (layer_self("forces"), "s"),
        "beams.solve_s": (get("beams.solve", "self"), "s"),
        "beams.solves": (get("beams.solve", "calls"), "count"),
        "beams.dofs": (sum(3 * n for n in nodes), "count"),
        "beams.cholesky_gflop": (sum((3 * n) ** 3 / 3.0 for n in nodes) / 1e9, "GFLOP"),
        "optimizer.self_s": (get(tracing.RUN_SPAN, "self"), "s"),
        "optimizer.steps": (sum(r.total_steps for r in reports), "count"),
        "optimizer.loops": (sum(len(r.loops) for r in reports), "count"),
        "optimizer.cap_exits": (
            sum(1 for r in reports for s in r.loops if s.exit_reason == "max_iterations"), "count"
        ),
        "optimizer.conflicts_resolved": (
            sum(
                c - p.before_repair
                for c, p in zip(initial_conflicts, placements)
                if p.before_repair is not None
            ),
            "count",
        ),
        "repair.s": (get("repair.greedy", "self"), "s"),
        "repair.moves": (moves, "count"),
        "repair.conflicts_in": (conflicts_in, "count"),
        "repair.conflicts_out": (
            sum(p.report.label_conflicts + p.report.feature_conflicts for p in repaired),
            "count",
        ),
        "repair.moves_per_conflict": (moves / conflicts_in if conflicts_in else 0.0, "ratio"),
        "metrics.count_conflicts_s": (get("metrics.count_conflicts", "total"), "s"),
        "metrics.count_conflicts_calls": (get("metrics.count_conflicts", "calls"), "count"),
        "metrics.deviation_s": (get("metrics.deviation", "self"), "s"),
        "metrics.self_s": (layer_self("metrics"), "s"),
        "trace.place_s": (place_s, "s"),
        "trace.coverage": (in_layers / place_s if place_s else 0.0, "ratio"),
        "trace.missing": (missing, "count"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args: argparse.Namespace, rounds: int, load_start: tuple) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    docs = scenes.workload_scenes(args.workload, args.seed)
    setup_s, setup_wall_s = measure_setup(docs)
    optimizer, scenefile = import_program()
    tracer = tracing.Tracer() if args.trace else None

    parsed = []
    for doc in docs:
        idx = tracer.open(tracing.PARSE_SPAN) if tracer else -1
        parsed.append(scenefile.parse_scene(doc))
        if tracer:
            tracer.close(idx)
    scene_list = []
    for doc, (features, cfg) in zip(docs, parsed):
        spec = checker.scene_spec(doc)
        initial = checker.initial_rects(spec)
        no_deletions = np.zeros(len(initial), dtype=bool)
        scene_list.append(
            Scene(
                spec=spec,
                feature_ids=[f["id"] for f in doc["features"]],
                features=features,
                cfg=cfg,
                initial=initial,
                initial_conflicts=sum(checker.count_conflicts(initial, no_deletions, spec, spec.d_min)),
            )
        )

    if tracer:
        tracer.install()
    rounds: list[list[Placement]] = []
    round_spans: list[tuple[int, int]] = []
    t_begin = time.perf_counter()
    try:
        while True:
            mark = len(tracer.spans) if tracer else 0
            # One scale for the whole round: the sampler's mean slowdown over it.
            sampler = None if tracer else calibrate.Sampler()
            if sampler:
                sampler.start()
            try:
                placements = [place_and_check(optimizer, sc, tracer, sampler) for sc in scene_list]
            finally:
                if sampler:
                    sampler.stop()
            if sampler:
                slowdown = sampler.slowdown()
                for p in placements:
                    p.scaled_seconds = p.seconds / slowdown
            rounds.append(placements)
            round_spans.append((mark, len(tracer.spans) if tracer else 0))
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        self_s = tracing.self_times(tracer.spans)
        initial_conflicts = [sc.initial_conflicts for sc in scene_list]
        per_round = [
            layer_metrics(
                tracer.spans[lo:hi], self_s[lo:hi], placements, initial_conflicts,
                len(tracer.missing),
            )
            for (lo, hi), placements in zip(round_spans, rounds)
        ]
        # Parsing happens once per run, before the rounds.
        parse_s = sum(t for span, t in zip(tracer.spans, self_s) if span.name == tracing.PARSE_SPAN)
        metrics = {"scenefile.parse_s": (parse_s, "s")}
        for name, (_, unit) in per_round[0].items():
            metrics[name] = (statistics.median(r[name][0] for r in per_round), unit)
    else:
        metrics = end_to_end(rounds, setup_s)

    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for p in r if p.failed)
    result = {
        # No workload has a placement that is expected to fail, so one that
        # raised is as wrong as one that failed its check.
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(args, len(rounds), load_start)
    if not tracer:
        env["setup_wall_s"] = setup_wall_s
        env["place_wall_s"] = statistics.median(sum(p.seconds for p in r) for r in rounds)
    if tracer and tracer.missing:
        env["missing"] = tracer.missing
    env["scenes"] = [
        {
            "labels": len(sc.features),
            "t_num": sc.cfg.t_num,
            "seconds": p.seconds,
            "scaled_seconds": p.scaled_seconds,
            "failed": p.failed,
            "infeasible": p.report.infeasible if p.report else None,
            "steps": p.report.total_steps if p.report else None,
            "repair_moves": p.report.repair_moves if p.report else None,
            "conflicts_resolved": p.conflicts_resolved,
            "deviation_deg": p.deviation_deg,
        }
        for sc, p in zip(scene_list, rounds[0])
    ]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result}, fh, indent=2)
        fh.write("\n")
    if tracer:
        tracer.write_jsonl(str(OUT / f"{stem}.spans.jsonl"))
    print("env " + json.dumps({k: v for k, v in env.items() if k != "scenes"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
