"""Golden digest of `optimizer.run` placements on a small fixed corpus.

A refactor or speed-up of the placement loop must reproduce these layouts
and reports bit for bit. Every float is hashed through `float.hex`, so a
change in the last bit of any coordinate changes the digest. Only
`elapsed_s` is left out of the report.

The dense Cholesky factor of the beam solve changes in its last bits with
the number of BLAS threads, so the digest is taken in a child process with
BLAS and OpenMP pinned to one thread, as the benchmark runs them.

If a change is meant to alter placements, say so in CHANGES.md and
replace GOLDEN_DIGEST with the value this test prints. `python
tests/test_golden.py` prints it too, when run with the thread variables
below set to 1.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import leaderlabels
from leaderlabels.optimizer import run
from leaderlabels.scenefile import synthetic_scene

GOLDEN_DIGEST = "24aec505fbb21a8ae66105da8d79f412137d70f92b544272820283e694bacd92"

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


def placement_digest() -> str:
    h = hashlib.sha256()
    for features, cfg in _corpus():
        labels, report = run(features, cfg)
        for lbl in labels:
            r = lbl.rect
            h.update(
                json.dumps(
                    _hexed([lbl.feature_id, r.x_min, r.y_min, r.x_max, r.y_max,
                            lbl.conn.x, lbl.conn.y, lbl.deleted])
                ).encode()
            )
        summary = report.as_dict()
        del summary["elapsed_s"]
        h.update(json.dumps(_hexed(summary), sort_keys=True).encode())
    return h.hexdigest()


def test_placements_match_golden_digest():
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    package_root = str(Path(leaderlabels.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    digest = child.stdout.strip()
    assert digest == GOLDEN_DIGEST, f"placement digest changed: {digest}"


if __name__ == "__main__":
    print(placement_digest())
