"""Command-line surface: place, gen, eval, bench.

Exit codes: 0 success (including infeasible scenes, which are reported in
the output rather than failed), 1 usage error, 2 scene or placement
validation error (beam parameters whose stiffness system cannot be solved
among them), 3 I/O error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import click

from . import baselines, optimizer
from .beams import SingularSystemError
from .forces import LabelLargerThanScreenError, conflict_pairs, scene_arrays
from .metrics import build_report
from .scene import GraphKind, Label, LayoutConfig, LeaderType, PointFeature, label_rects, live_slots
from .scenefile import (
    SceneValidationError,
    generate_synthetic,
    json_text,
    load_placement,
    load_scene,
    parse_scene,
    save_placement,
    write_json,
)
from .svgrender import write_svg


@click.group()
def cli() -> None:
    """Optimize the placement of leader-line point labels."""


def _apply_overrides(
    cfg: LayoutConfig,
    leader_type: int | None,
    graph: str | None,
    tnum: int | None,
    iterations: int | None,
) -> LayoutConfig:
    changes: dict = {}
    if leader_type is not None:
        changes["leader"] = dataclasses.replace(cfg.leader, kind=LeaderType(leader_type))
    if graph is not None:
        changes["graph_kind"] = GraphKind(graph)
    if tnum is not None:
        changes["t_num"] = None if tnum <= 0 else tnum
    if iterations is not None:
        changes["t_s_override"] = iterations
    return dataclasses.replace(cfg, **changes) if changes else cfg


# The report fields that `place` prints by default, and its `metrics` block.
_METRIC_KEYS = (
    "label_conflicts",
    "feature_conflicts",
    "total_displacement_cm",
    "mean_direction_deviation_deg",
    "elapsed_s",
)


def _measure(
    labels: list[Label], features: list[PointFeature], cfg: LayoutConfig, elapsed_s: float = 0.0
) -> tuple[dict, bool]:
    """The metrics of a placement the optimizer did not make, against the
    starting layout and its reference graph, and whether conflicts are left."""
    initial = optimizer.starting_layout(features, cfg)
    graph = optimizer.reference_graph(label_rects(initial), live_slots(initial), features, cfg)
    metrics = build_report(initial, labels, features, cfg.d_min, graph, elapsed_s=elapsed_s).as_dict()
    return metrics, metrics["label_conflicts"] + metrics["feature_conflicts"] > 0


@cli.command()
@click.argument("scene", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["beams", "localp", "nop"]), default="beams")
@click.option("--leader-type", type=click.IntRange(1, 4), default=None, help="Override the leader type.")
@click.option("--graph", type=click.Choice(["dt", "mst"]), default=None, help="Proximity graph kind.")
@click.option(
    "--tnum",
    type=int,
    default=None,
    help=(
        "Max subgroup size; 0 disables clustering. The subgroups' loops step together,"
        " each against only its own labels and symbols, and each stops on its own."
    ),
)
@click.option(
    "--seed-iterations",
    type=click.IntRange(min=1),
    default=None,
    help="Override the iteration cap (default: label count clamped to [20, 100]).",
)
@click.option("--out-json", type=click.Path(dir_okay=False), default=None)
@click.option("--out-svg", type=click.Path(dir_okay=False), default=None)
@click.option("--svg-graph", is_flag=True, help="Overlay the proximity graph in the SVG.")
@click.option("--metrics", "show_metrics", is_flag=True, help="Print the full metrics report.")
def place(
    scene: str,
    method: str,
    leader_type: int | None,
    graph: str | None,
    tnum: int | None,
    seed_iterations: int | None,
    out_json: str | None,
    out_svg: str | None,
    svg_graph: bool,
    show_metrics: bool,
) -> None:
    """Run a placement method on SCENE and report the outcome."""
    features, cfg = load_scene(scene)
    cfg = _apply_overrides(cfg, leader_type, graph, tnum, seed_iterations)

    t0 = time.perf_counter()
    if method == "beams":
        # run() has measured the final layout against its own reference
        # layout and graph; its report is the metrics block.
        labels, run_report = optimizer.run(features, cfg)
        report = run_report.as_dict()
        metrics = {key: report[key] for key in _METRIC_KEYS}
    else:
        labels = (baselines.localp if method == "localp" else baselines.nop)(features, cfg)
        elapsed_s = time.perf_counter() - t0
        metrics, infeasible = _measure(labels, features, cfg, elapsed_s)
        report = {"method": method, "elapsed_s": elapsed_s, "infeasible": infeasible}
    report["metrics"] = metrics

    if out_json:
        save_placement(labels, out_json, report)
    if out_svg:
        rects, arrays = label_rects(labels), scene_arrays(labels, features)
        pairs = conflict_pairs(rects, arrays, cfg.d_min)
        write_svg(
            out_svg,
            labels,
            features,
            cfg.screen,
            graph=optimizer.reference_graph(rects, arrays.live, features, cfg) if svg_graph else None,
            label_conflicts=pairs.labels,
            feature_conflicts=pairs.features,
        )
    payload = report if show_metrics else {
        "method": method,
        "infeasible": report["infeasible"],
        **{key: metrics[key] for key in _METRIC_KEYS},
    }
    click.echo(json_text(payload), nl=False)


@cli.command()
@click.option("--n", type=click.IntRange(min=1), required=True, help="Number of features.")
@click.option("--seed", type=int, default=0)
@click.option("--width-mm", type=float, default=250.0)
@click.option("--height-mm", type=float, default=150.0)
@click.option("--profile", type=click.Choice(["uniform", "clustered"]), default="uniform")
@click.option("--charset", type=click.Choice(["ascii", "cjk"]), default="ascii")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write here instead of stdout.")
def gen(n: int, seed: int, width_mm: float, height_mm: float, profile: str, charset: str, out: str | None) -> None:
    """Generate a deterministic synthetic scene."""
    try:
        data = generate_synthetic(n, seed, (width_mm, height_mm), profile, charset)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out:
        write_json(data, out)
    else:
        click.echo(json_text(data), nl=False)


@cli.command("eval")
@click.argument("scene", type=click.Path(exists=True, dir_okay=False))
@click.argument("placement", type=click.Path(exists=True, dir_okay=False))
def eval_cmd(scene: str, placement: str) -> None:
    """Metrics for a stored placement, relative to the scene's initial layout."""
    features, cfg = load_scene(scene)
    labels = load_placement(placement)
    if len(labels) != len(features):
        raise SceneValidationError(
            f"{placement}: {len(labels)} labels for {len(features)} features"
        )
    # Label slot k holds feature k's label, as `place` writes them: the
    # metrics measure by slot and leave out of a label's symbol conflicts
    # the feature its id names.
    for pos, (label, feature) in enumerate(zip(labels, features)):
        if label.feature_id != feature.id:
            raise SceneValidationError(
                f"{placement}.labels[{pos}].feature_id: expected {feature.id!r}, "
                f"got {label.feature_id!r}"
            )
    metrics, infeasible = _measure(labels, features, cfg)
    click.echo(json_text({**metrics, "infeasible": infeasible}), nl=False)


@cli.command()
@click.option("--sizes", default="10,30,60,120,200", help="Comma-separated label counts.")
@click.option("--seed", type=int, default=0)
@click.option("--width-mm", type=float, default=250.0)
@click.option("--height-mm", type=float, default=150.0)
def bench(sizes: str, seed: int, width_mm: float, height_mm: float) -> None:
    """Sweep scene sizes and report steps, time, and residual conflicts."""
    # All scenes first: a bad size or screen fails before any row is printed.
    try:
        counts = [int(s) for s in sizes.split(",") if s.strip()]
        scenes = [generate_synthetic(n, seed, (width_mm, height_mm)) for n in counts]
    except ValueError as exc:
        raise click.UsageError(f"no scenes for these --sizes and screen: {exc}")
    for n, data in zip(counts, scenes):
        _, report = optimizer.run(*parse_scene(data))
        row = {
            "n": n,
            "steps": report.total_steps,
            "elapsed_s": report.elapsed_s,
            "label_conflicts": report.label_conflicts,
            "feature_conflicts": report.feature_conflicts,
            "infeasible": report.infeasible,
        }
        click.echo(json.dumps(row, sort_keys=True, allow_nan=False))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except (SceneValidationError, LabelLargerThanScreenError, SingularSystemError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
