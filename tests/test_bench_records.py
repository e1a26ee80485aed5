"""Every `BENCH_*.json` at the repository root is a complete before/after
record of a performance change.

A record gives, for every workload and every end-to-end metric that
BENCHMARK.json declares, the median and quartiles of the parent's runs and
of the change's runs, together with the thread settings and the load
average the runs saw.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_every_end_to_end_metric(path):
    record = json.loads(path.read_text())
    threads = record["threads"]
    assert threads and all(isinstance(v, str) for v in threads.values())
    load = record["load_average"]
    assert 0.0 <= load["min"] <= load["max"]
    for workload in BENCHMARK["workloads"]:
        metrics = record["workloads"][workload["name"]]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            entry = metrics[metric["name"]]
            assert entry["unit"] == metric["unit"]
            for side in ("parent", "change"):
                q1, median, q3 = (entry[side][k] for k in ("q1", "median", "q3"))
                assert all(math.isfinite(v) for v in (q1, median, q3))
                assert q1 <= median <= q3
