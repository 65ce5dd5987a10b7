"""Tests of the benchmark's own helpers (no program run needed).

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, all_job_keys, job_key, make_jobs, serialize  # noqa: E402
from run import (  # noqa: E402
    END_TO_END_UNITS,
    SETUP_SAMPLES,
    end_to_end,
    schedule,
)
from stats import (  # noqa: E402
    MIN_BEYOND,
    TooFewSamples,
    aliased_pairs,
    percentile,
    samples_beyond,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_jobs(workload):
    assert serialize(make_jobs(workload, 7)) == serialize(make_jobs(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_gives_another_list(workload):
    assert serialize(make_jobs(workload, 7)) != serialize(make_jobs(workload, 8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_classes_do_not_depend_on_the_seed(workload):
    def profile(seed):
        return sorted(job["cls"] for job in make_jobs(workload, seed))

    assert profile(1) == profile(2) == profile(99)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_list_leaves_ten_jobs_beyond_its_p90(workload):
    n = len(make_jobs(workload, 3))
    assert samples_beyond(n, 90) >= MIN_BEYOND


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_drawable_job_has_a_golden_output(workload):
    golden = json.loads((HERE / "golden.json").read_text())[workload]
    assert set(all_job_keys(workload)) == set(golden)
    for seed in range(25):
        for job in make_jobs(workload, seed):
            assert job_key(workload, job) in golden


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    assert percentile(list(range(1, 101)), 90) == 90
    assert samples_beyond(100, 90) == 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    random.Random(0).shuffle(values)
    assert percentile(values, 50) == 100
    assert percentile(values, 90) == 180


def test_aliased_pairs_finds_equal_metrics():
    runs = [{"a": 1.0, "b": 1.0, "c": 2.0}, {"a": 3.0, "b": 3.0, "c": 2.5}]
    assert aliased_pairs(runs) == [("a", "b")]
    runs[1]["b"] = 3.5
    assert aliased_pairs(runs) == []


#: Distinct keys for the 120 synthetic jobs.
KEYS = [f"job{i}" for i in range(120)]


def _synthetic_records(seed: int, n_jobs: int = 120, repeats: int = 3):
    rng = random.Random(seed)
    base = [rng.choice((0.01, 0.05)) * rng.uniform(0.9, 1.1)
            for _ in range(n_jobs)]
    records = []
    for i in range(repeats):
        lat = [b * rng.uniform(1.0, 1.2) for b in base]
        records.append({
            "wall_s": sum(lat),
            "pass_wall_s": [sum(lat)],
            "latencies_s": [lat],
            "ok": [True] * n_jobs,
            "peak_rss_mb": 90 + rng.random(),
            "clients": 1,
            **({"extras": {"sim_algbw_gbps": 20.5, "plan_tbs_per_rank": 13.0}}
               if i == repeats - 1 else {}),
        })
    return records


def test_end_to_end_reports_every_metric_and_no_aliases():
    runs = [end_to_end(_synthetic_records(seed), [0.5 + seed / 10, 0.6],
                       KEYS)
            for seed in range(4)]
    assert all(set(run) == set(END_TO_END_UNITS) for run in runs)
    assert aliased_pairs(runs) == []


def test_coalesced_replies_are_left_out_of_the_best():
    records = _synthetic_records(1)
    for record in records:
        record["clients"] = 2
    records[0]["latencies_s"][0][5] = None
    records[1]["latencies_s"][0][5] = 1e-6
    metrics = end_to_end(records, [0.5], KEYS)
    per_job = [min(t for t in times if t is not None)
               for times in zip(*(r["latencies_s"][0] for r in records))]
    assert min(per_job) == 1e-6
    assert metrics["jobs_per_s"] == pytest.approx(2 * 120 / sum(per_job))


def test_best_latency_is_taken_per_job():
    records = _synthetic_records(0)
    metrics = end_to_end(records, [0.7, 0.5, 0.6], KEYS)
    assert metrics["setup_s"] == 0.5
    best = sorted(min(t) for t in zip(*(r["latencies_s"][0] for r in records)))
    assert metrics["job_p50_ms"] == pytest.approx(
        (best[59] + best[60]) / 2 * 1e3)
    assert metrics["job_p90_ms"] == pytest.approx(best[107] * 1e3)
    assert metrics["jobs_per_s"] == pytest.approx(120 / sum(best))


def test_jobs_of_one_key_share_the_best_over_all_their_repeats():
    records = _synthetic_records(2)
    keys = [f"key{i // 2}" for i in range(120)]
    metrics = end_to_end(records, [0.5], keys)
    passes = [times for r in records for times in r["latencies_s"]]
    best = [min(p[j] for p in passes for j in (i, i ^ 1)) for i in range(120)]
    assert metrics["jobs_per_s"] == pytest.approx(120 / sum(best))
    assert metrics["job_p90_ms"] == pytest.approx(sorted(best)[107] * 1e3)


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 12])
def test_schedule_runs_every_process_once(n):
    order = schedule(n)
    assert sorted(index for index, _ in order) == list(range(len(order)))
    assert len(order) == max(n, SETUP_SAMPLES)
    assert [index for index, only in order if not only] == list(range(n))
    assert all(only == (index >= n) for index, only in order)
