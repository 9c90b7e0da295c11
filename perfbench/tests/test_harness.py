"""The first-pull setup stamp, run checks and failure accounting."""

import json
import time

from perfbench import child, run
from perfbench.layers import PER_LAYER


class _Source:
    def blocks(self):
        yield [1, 2]
        yield [3]


def test_first_pull_is_stamped_at_the_first_next_not_at_the_call():
    saved = _Source.__dict__["blocks"]
    try:
        stamp = child._FirstPull()
        stamp.wrap(_Source, "blocks")
        iterator = _Source().blocks()
        assert stamp.at is None
        time.sleep(0.01)
        before = time.perf_counter()
        assert next(iterator) == [1, 2]
        first = stamp.at
        assert first is not None and before <= first <= time.perf_counter()
        assert list(iterator) == [[3]]
        assert stamp.at == first
    finally:
        _Source.blocks = saved


def _record(digest="ref", ok=True, started=0.0):
    return {
        "ok": ok,
        "digest": digest,
        "started": started,
        "first_pull": started + 1.0,
        "done": started + 3.0,
        "rows": 1000,
        "cpu_s": 2.5,
        "self_maxrss_mb": 60.0,
        "children_maxrss_mb": 0.0,
    }


def test_run_metrics_measure_from_the_spawn():
    metrics = run.run_metrics(_record(started=10.0))
    assert metrics == {
        "wall_s": 3.0,
        "setup_s": 1.0,
        "records_per_s": 500.0,
        "cpu_s": 2.5,
        "peak_rss_mb": 60.0,
    }


def test_a_digest_mismatch_fails_the_run():
    record = run.check(_record(digest="other"), {"digest": "ref"})
    assert record["ok"] is False and record["error"] == "DigestMismatch"
    assert run.check(_record(), {"digest": "ref"})["ok"] is True


def _harness(records):
    harness = run.Harness("trace_reanalyze", seed=1, seconds=1, trace=False)
    harness.runs = [dict(record, mode="run", sample=i) for i, record in enumerate(records)]
    return harness


def test_raised_and_mismatched_runs_count_in_failed_frac():
    raised = {"ok": False, "error": "ValueError", "started": 0.0}
    mismatched = run.check(_record(digest="other"), {"digest": "ref"})
    result = _harness([_record(), raised, mismatched]).result()
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
    assert result["metrics"]["ok_frac"]["value"] == 1 - 2 / 3
    assert result["metrics"]["wall_s"]["value"] == 3.0


def test_clean_runs_are_correct():
    result = _harness([_record(), _record()]).result()
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 0, True)
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_tracing_overhead_pairs_each_traced_run_with_the_untraced_run_of_its_input():
    harness = run.Harness("trace_reanalyze", seed=1, seconds=1, trace=True)
    layers = {name: 1.0 for name in PER_LAYER}
    for sample, (plain, traced) in enumerate([(2.0, 3.0), (10.0, 11.0), (4.0, 9.0)]):
        for mode, wall in (("run", plain), ("traced", traced)):
            record = dict(_record(), mode=mode, sample=sample, layers=layers)
            record["done"] = record["started"] + wall
            harness.runs.append(record)
    metrics = harness.result()["metrics"]
    assert metrics["bench.tracing_overhead_s"]["value"] == 1.0
    assert metrics["cdn.sharded_speedup"]["value"] == 0.0
    assert metrics["core.dtw_s"]["value"] == 1.0


def test_a_run_that_raises_in_the_child_is_recorded_with_its_type(tmp_path):
    spec = {
        "workload": "no_such_workload",
        "seed": 1,
        "mode": "run",
        "index": 0,
        "workdir": str(tmp_path),
        "out": str(tmp_path / "run-0.json"),
    }
    record = run.check(run.spawn(spec, run.child_env(tmp_path)), {"digest": "ref"})
    assert record["ok"] is False
    assert record["error"] == "ValueError"


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)


def test_predictions_name_only_known_layers_metrics_and_workloads():
    predictions = json.loads((run.BENCH / "predictions.json").read_text())
    listed = [name for names in predictions["layers"].values() for name in names]
    assert sorted(listed) == sorted(PER_LAYER)
    assert set(predictions["moves"]) == set(child.WORKLOADS)
    for moves in predictions["moves"].values():
        assert set(moves) <= set(predictions["layers"])
        assert {metric for metrics in moves.values() for metric in metrics} <= set(run.END_TO_END)
