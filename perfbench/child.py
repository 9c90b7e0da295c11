"""One fresh-process run of a benchmark workload, or its reference.

The harness (``perfbench/run.py``) starts this script once per measured
run with a JSON spec as its only argument and reads back the JSON record
it writes to ``spec["out"]``.  Times are ``time.perf_counter`` readings
(CLOCK_MONOTONIC, shared by every process on the host), so the harness
can measure from the moment it started this process.

Modes:

* ``run`` -- the workload as a user runs it, tracing off;
* ``traced`` -- the same run with span wrappers installed
  (:mod:`perfbench.spans`), plus the per-layer metrics;
* ``reference`` -- the workload's reference output at the seed, through
  a different path whose output the repo's contracts say is identical
  (sequential for sharded, unbudgeted for spilled, storeless for eager).
"""

import dataclasses
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

#: One scale for every workload; the paper-sized presets take tens of
#: seconds per run, too long for the benchmark's time budget.
SCALE = "tiny"

WORKLOADS = ("study_inproc", "generate_sharded", "trace_reanalyze")


class _FirstPull:
    """When the plan's source iterator was first pulled (``setup_s``)."""

    def __init__(self) -> None:
        self.at: float | None = None

    def wrap(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        stamp = self

        def stamped(*args, **kwargs):
            # A generator: this body first runs at the first next().
            if stamp.at is None:
                stamp.at = perf_counter()
            yield from original(*args, **kwargs)

        setattr(owner, attr, stamped)


def resolve_config(workload: str, seed: int, mode: str, budget: int | None = None):
    """The workload's ``RunConfig``, resolved with an empty environment."""
    from repro.dataflow import RunConfig

    cli: dict = {"seed": seed, "scale": SCALE, "run_clustering": True}
    reference = mode == "reference"
    if workload == "study_inproc":
        cli.update(keep_store=False, sim_workers=1, memory_budget=None if reference else budget)
    elif workload == "generate_sharded":
        cli.update(keep_store=False, sim_workers=1 if reference else 2)
    elif workload == "trace_reanalyze":
        cli.update(keep_store=not reference)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return RunConfig.resolve(cli=cli, env={})


def report_digest(report) -> str:
    payload = json.dumps(report.to_summary_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _config_record(config) -> dict:
    record = dataclasses.asdict(config)
    record["scale"] = config.scale if isinstance(config.scale, str) else repr(config.scale)
    return record


def _counters(result) -> dict:
    """The program's own counters for one plan run, as plain dicts."""
    record: dict = {
        "stages": [dataclasses.asdict(stage) for stage in result.stage_stats],
        "sim_stats": None,
        "cache_stats": None,
        "ingest_stats": None,
        "dtw_stats": [],
    }
    if result.sim_stats is not None:
        record["sim_stats"] = dataclasses.asdict(result.sim_stats)
    if result.simulator is not None:
        record["cache_stats"] = dataclasses.asdict(result.simulator.cache_stats())
    if result.dataset is not None and result.dataset.ingest_stats is not None:
        stats = dataclasses.asdict(result.dataset.ingest_stats)
        stats.pop("resident_series", None)
        record["ingest_stats"] = stats
    if result.report is not None:
        record["dtw_stats"] = [
            dataclasses.asdict(clustering.dtw_stats)
            for _, clustering in sorted(result.report.clustering.items())
            if clustering.dtw_stats is not None
        ]
    return record


def _stage_seconds(result, name: str) -> float:
    return next((stage.wall_seconds for stage in result.stage_stats if stage.name == name), 0.0)


def run_workload(spec: dict) -> dict:
    """Run the workload once; the harness times it from process start."""
    from repro.dataflow import Plan
    from repro.trace.reader import TraceReader
    from repro.workload.generator import WorkloadGenerator

    first_pull = _FirstPull()
    tracer = None
    if spec["mode"] == "traced":
        from perfbench.spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    # Stamped after the span wrappers so the stamp sits outermost.
    first_pull.wrap(WorkloadGenerator, "merged_request_batches")
    first_pull.wrap(TraceReader, "iter_batches")

    workload = spec["workload"]
    config = resolve_config(workload, spec["seed"], spec["mode"], spec.get("budget"))
    workdir = Path(spec["workdir"])
    plan = Plan(config)
    if workload == "study_inproc":
        plan.generate().simulate().ingest().analyze()
    elif workload == "generate_sharded":
        plan.generate().simulate().write_trace(workdir / f"trace-{spec['index']}.csv")
    else:
        plan.read_trace(spec["trace_path"]).ingest().analyze()
    result = plan.run()
    done = perf_counter()
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)

    if workload == "generate_sharded":
        digest = file_digest(result.trace_path)
        bytes_written = result.trace_path.stat().st_size
        result.trace_path.unlink()
    else:
        digest = report_digest(result.report)
        bytes_written = 0
    record = {
        "ok": True,
        "first_pull": first_pull.at,
        "done": done,
        "cpu_s": self_usage.ru_utime + self_usage.ru_stime + child_usage.ru_utime + child_usage.ru_stime,
        # Linux reports ru_maxrss in KiB.
        "self_maxrss_mb": self_usage.ru_maxrss / 1024.0,
        "children_maxrss_mb": child_usage.ru_maxrss / 1024.0,
        "rows": result.total_rows,
        "digest": digest,
        "bytes_written": bytes_written,
        "budget": config.memory_budget,
        "simulate_s": _stage_seconds(result, "simulate"),
        "config": _config_record(config),
        **_counters(result),
    }
    if tracer is not None:
        from perfbench.layers import layer_metrics
        from perfbench.spans import summarize

        tracer.disable()
        tracer.save(workdir / f"spans-{spec['index']}.npz")
        record["spans"] = summarize(tracer)
        record["layers"] = layer_metrics(record["spans"], tracer.counts, record)
    return record


def run_reference(spec: dict) -> dict:
    """The reference output of the workload at the seed."""
    import numpy

    from repro.core.dtw_backends import kernel_name
    from repro.dataflow import Plan
    from repro.pipeline import generate_trace_plan

    workload = spec["workload"]
    config = resolve_config(workload, spec["seed"], "reference")
    workdir = Path(spec["workdir"])
    record: dict = {
        "ok": True,
        "numpy": numpy.__version__,
        # Resolving the kernel builds the C tier before any timed run.
        "dtw_kernel": kernel_name(),
        "config": _config_record(config),
    }
    if workload == "study_inproc":
        result = Plan(config).generate().simulate().ingest().analyze().run()
        record["digest"] = report_digest(result.report)
        record["ingest_peak_resident_bytes"] = result.dataset.ingest_stats.peak_resident_bytes
    elif workload == "generate_sharded":
        path = workdir / "reference.csv"
        result = Plan(config).generate().simulate().write_trace(path).run()
        record["digest"] = file_digest(path)
        record["simulate_s"] = _stage_seconds(result, "simulate")
        path.unlink()
    else:
        path = workdir / "trace.csv"
        written = generate_trace_plan(path, seed=config.seed, scale=config.scale, sim_workers=1)
        with open(path, "rb") as handle:
            lines = sum(1 for _ in handle)
        if lines - 1 != written.rows_written:
            raise RuntimeError(
                f"trace has {lines - 1} data rows, the writer reported {written.rows_written}"
            )
        record["trace_path"] = str(path)
        record["trace_rows"] = written.rows_written
        record["trace_sha256"] = file_digest(path)
        result = Plan(config).read_trace(path).ingest().analyze().run()
        record["digest"] = report_digest(result.report)
    return record


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    out = Path(spec["out"])
    try:
        record = run_reference(spec) if spec["mode"] == "reference" else run_workload(spec)
    except Exception as exc:  # the harness counts the run as failed
        out.write_text(json.dumps({"ok": False, "error": type(exc).__name__, "message": str(exc)}))
        return 1
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
