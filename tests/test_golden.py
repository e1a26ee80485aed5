"""Golden digests of placements on small fixed corpora.

GOLDEN_DIGEST covers `optimizer.run` on the paper's scene sizes.
REPAIR_DIGEST covers the greedy repair search: two `optimizer.run` scenes
whose finishing pass reaches the diagonal ring search and makes a ring
move, and two `baselines.localp` scenes driven by the axis search alone.
LEADER_DIGEST covers the leader types and directions the other two leave
out (both use type 4 at 90 degrees): types 1 at 90 and 135 degrees, 2 and 3
at 90 degrees, and 4 at 60 degrees, on `synthetic_scene(40, seed)`.
REPAIR_LEADER_DIGEST covers the repair search under every leader type:
`localp` and the finishing pass's `greedy_repair(..., diagonal=True,
max_axis_retries=5)` on small overfull scenes under type 1 (axis steps
along +-u only, no rings), types 2 and 3, and type 4 at 30 and 270 degrees
(both branches of the attachment test), plus one scene that uses up a small
candidate budget. It hashes the moves and every budget's `left` too.

A refactor or speed-up of the placement loop or of repair must reproduce
these layouts and reports bit for bit. Every float is hashed through
`float.hex`, so a change in the last bit of any coordinate changes the
digest. Only `elapsed_s` is left out of the report.

The dense Cholesky factor of the beam solve changes in its last bits with
the number of BLAS threads, so the digest is taken in a child process with
BLAS and OpenMP pinned to one thread, as the benchmark runs them.

If a change is meant to alter placements, say so in CHANGES.md and
replace the digest with the value this test prints. `python
tests/test_golden.py` prints GOLDEN_DIGEST's, REPAIR_DIGEST's,
LEADER_DIGEST's and REPAIR_LEADER_DIGEST's values, one a line, when run with the thread variables
below set to 1.
"""

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import leaderlabels
from leaderlabels import repair
from leaderlabels.baselines import localp
from leaderlabels.optimizer import run
from leaderlabels.repair import greedy_repair
from leaderlabels.scene import LeaderSpec, LeaderType, initial_layout
from leaderlabels.scenefile import synthetic_scene

GOLDEN_DIGEST = "24aec505fbb21a8ae66105da8d79f412137d70f92b544272820283e694bacd92"
REPAIR_DIGEST = "503b48a527886347de032ac5fd1f9f6c3276afd37198993dd9bea7b290245c28"
LEADER_DIGEST = "d0200d0829cbe2395b6bcb7153f18f685b5ffff0e187ef4b12d0edbcf5611e2c"
REPAIR_LEADER_DIGEST = "43835bc19c01bc80414955ecc8acda6d4696e6f1173399cdcfe7add02f525d85"

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _corpus():
    for seed in (0, 1, 2):
        yield synthetic_scene(47, seed)
    features, cfg = synthetic_scene(40, 3)
    yield features, dataclasses.replace(cfg, t_num=10)


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _hash_labels(h, labels) -> None:
    for lbl in labels:
        r = lbl.rect
        h.update(
            json.dumps(
                _hexed([lbl.feature_id, r.x_min, r.y_min, r.x_max, r.y_max,
                        lbl.conn.x, lbl.conn.y, lbl.deleted])
            ).encode()
        )


def _hash_report(h, report) -> None:
    summary = report.as_dict()
    del summary["elapsed_s"]
    h.update(json.dumps(_hexed(summary), sort_keys=True).encode())


def placement_digest() -> str:
    h = hashlib.sha256()
    for features, cfg in _corpus():
        labels, report = run(features, cfg)
        _hash_labels(h, labels)
        _hash_report(h, report)
    return h.hexdigest()


def repair_digest() -> str:
    h = hashlib.sha256()
    for n, seed, screen in ((40, 3, (120.0, 75.0)), (30, 7, (100.0, 60.0))):
        labels, report = run(*synthetic_scene(n, seed, screen=screen))
        _hash_labels(h, labels)
        _hash_report(h, report)
    for n, seed, screen in ((25, 4, (150.0, 100.0)), (30, 7, (100.0, 60.0))):
        _hash_labels(h, localp(*synthetic_scene(n, seed, screen=screen)))
    return h.hexdigest()


def leader_digest() -> str:
    h = hashlib.sha256()
    for kind, direction in ((1, 90.0), (1, 135.0), (2, 90.0), (3, 90.0), (4, 60.0)):
        for seed in (0, 1, 2):
            features, cfg = synthetic_scene(40, seed)
            leader = LeaderSpec(cfg.leader.length, direction, LeaderType(kind))
            labels, report = run(features, dataclasses.replace(cfg, leader=leader))
            _hash_labels(h, labels)
            _hash_report(h, report)
    return h.hexdigest()


def repair_leader_digest() -> str:
    h = hashlib.sha256()
    budgets = []

    class RecordedBudget(repair._Budget):
        def __init__(self, amount: int) -> None:
            super().__init__(amount)
            budgets.append(self)

    def hash_repair(features, cfg) -> None:
        _hash_labels(h, localp(features, cfg))
        labels, moves = greedy_repair(
            initial_layout(features, cfg), features, cfg, diagonal=True, max_axis_retries=5
        )
        _hash_labels(h, labels)
        h.update(json.dumps([moves] + [b.left for b in budgets]).encode())
        budgets.clear()

    saved = repair._Budget, repair.CANDIDATE_BUDGET
    repair._Budget = RecordedBudget
    try:
        for kind, direction in ((1, 90.0), (1, 135.0), (2, 90.0), (3, 90.0), (4, 30.0), (4, 270.0)):
            for n, seed, screen in (
                (12, 0, (60.0, 40.0)), (15, 2, (80.0, 50.0)), (10, 5, (50.0, 35.0))
            ):
                features, cfg = synthetic_scene(n, seed, screen=screen)
                leader = LeaderSpec(cfg.leader.length, direction, LeaderType(kind))
                hash_repair(features, dataclasses.replace(cfg, leader=leader))
        repair.CANDIDATE_BUDGET = 2_501
        hash_repair(*synthetic_scene(60, 0, screen=(60.0, 40.0)))
    finally:
        repair._Budget, repair.CANDIDATE_BUDGET = saved
    return h.hexdigest()


@functools.lru_cache(maxsize=1)
def _child_digests() -> tuple[str, ...]:
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    package_root = str(Path(leaderlabels.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return tuple(child.stdout.split())


def test_placements_match_golden_digest():
    digest = _child_digests()[0]
    assert digest == GOLDEN_DIGEST, f"placement digest changed: {digest}"


def test_repair_matches_golden_digest():
    digest = _child_digests()[1]
    assert digest == REPAIR_DIGEST, f"repair digest changed: {digest}"


def test_leader_types_match_golden_digest():
    digest = _child_digests()[2]
    assert digest == LEADER_DIGEST, f"leader digest changed: {digest}"


def test_repair_under_leader_types_matches_golden_digest():
    digest = _child_digests()[3]
    assert digest == REPAIR_LEADER_DIGEST, f"repair leader digest changed: {digest}"


if __name__ == "__main__":
    print(placement_digest())
    print(repair_digest())
    print(leader_digest())
    print(repair_leader_digest())
