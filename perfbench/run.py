"""The repo benchmark: three user-path workloads of the ``repro`` pipeline.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload study_inproc --seed 1 --seconds 30 --trace 0

Each measured run is a fresh ``python3 perfbench/child.py`` process that
runs the workload once through the public ``repro`` API, the way
``repro analyze`` / ``repro generate`` run it.  Before the runs of each
input, one more fresh process computes the workload's reference output
at that input's seed through a path the repo's contracts declare
identical (the first one also builds the DTW C kernel into
``perfbench/out/dtw``, so no compile lands in a timed run).  Every
measured run's output digest is checked against its reference.

``--trace 0`` runs the workload untraced until ``--seconds`` have passed
(at least three runs) and reports the end-to-end metrics as medians over
the runs.  ``--trace 1`` makes an untraced and a traced run of each input
over the same window and reports the per-layer metrics as medians over
the traced runs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, resolved config, every run's counters) is written to
``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

sys.path.insert(0, str(ROOT))

from perfbench.child import WORKLOADS, file_digest  # noqa: E402
from perfbench.layers import FROM_HARNESS, PER_LAYER  # noqa: E402

#: End-to-end metrics with their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 90.0
#: No new run starts once the invocation could no longer end by this
#: many seconds after it began.
HARD_STOP_S = 165.0


def child_env(tmpdir: Path) -> dict[str, str]:
    """The environment every child runs in: no ``REPRO_*`` knobs leak in,
    and temporary files (spill segments, compiler output) stay in ``tmpdir``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_DTW_BUILD_DIR"] = str(OUT / "dtw")
    env["TMPDIR"] = str(tmpdir)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, env: dict[str, str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``child.py`` once; returns its record plus the spawn time."""
    out = Path(spec["out"])
    out.unlink(missing_ok=True)
    log = out.with_suffix(".err")
    with open(log, "w") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": "TimeoutExpired", "started": started}
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    try:
        record = json.loads(out.read_text())
    except (OSError, ValueError):
        tail = log.read_text()[-400:] if log.exists() else ""
        record = {"ok": False, "error": f"exit {process.returncode}", "message": tail}
    record["started"] = started
    return record


def run_metrics(record: dict) -> dict[str, float]:
    """End-to-end metrics of one successful run."""
    wall = record["done"] - record["started"]
    setup = record["first_pull"] - record["started"]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "records_per_s": record["rows"] / (wall - setup),
        "cpu_s": record["cpu_s"],
        "peak_rss_mb": record["self_maxrss_mb"] + record["children_maxrss_mb"],
    }


def check(record: dict, reference: dict) -> dict:
    """Mark a run failed when it raised or its output differs from the reference."""
    if record.get("ok") and record.get("first_pull") is None:
        record.update(ok=False, error="NoSourcePull")
    elif record.get("ok") and record["digest"] != reference["digest"]:
        record.update(ok=False, error="DigestMismatch")
    return record


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def workload_seed(seed: int, sample: int) -> int:
    """The workload seed of one sample of an invocation run with ``--seed``."""
    return 1000 * seed + sample


class Harness:
    """One benchmark invocation: samples of (reference, measured runs), result line.

    Inputs differ between seeds in ways that change the cost of a run by
    half or more (one seed in ten draws a popular many-chunk video, and
    the simulator's chunk lookups grow fivefold), so each sample uses its
    own workload seed derived from ``--seed`` and gets its own reference.
    The median over samples is then a median over inputs as well as over
    runs.  ``trace_reanalyze`` reads one trace for the whole invocation:
    its reference costs five of its runs, and its cost barely depends on
    the seed.
    """

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.began = time.perf_counter()
        self.workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env(self.workdir / "tmp")
        self.runs: list[dict] = []
        self.references: list[dict] = []
        self.environment: dict = {}

    def spec(self, mode: str, seed: int, **extra) -> dict:
        index = len(self.runs) if mode != "reference" else len(self.references)
        return {
            "workload": self.workload,
            "seed": seed,
            "mode": mode,
            "index": index,
            "workdir": str(self.workdir),
            "out": str(self.workdir / f"{mode}-{index}.json"),
            **extra,
        }

    def reference_for(self, sample: int) -> dict:
        if self.references and self.workload == "trace_reanalyze":
            return self.references[0]
        reference = spawn(self.spec("reference", workload_seed(self.seed, sample)), self.env, self.timeout())
        if not reference.get("ok"):
            raise RuntimeError(
                f"reference run failed: {reference.get('error')}: {reference.get('message', '')}"
            )
        self.references.append(reference)
        if not self.environment:
            self.print_environment(reference)
        return reference

    def measure(self, mode: str, sample: int, reference: dict) -> dict:
        extra = {}
        if self.workload == "study_inproc":
            # Half the unbudgeted ingest peak, so timeline-pack spill fires.
            extra["budget"] = max(1, reference["ingest_peak_resident_bytes"] // 2)
        if self.workload == "trace_reanalyze":
            extra["trace_path"] = reference["trace_path"]
        seed = reference["config"]["seed"]
        record = check(spawn(self.spec(mode, seed, **extra), self.env, self.timeout()), reference)
        record.update(mode=mode, sample=sample, reference_simulate_s=reference.get("simulate_s"))
        self.runs.append(record)
        if record["ok"] and len(self.runs) == 1:
            print("  config " + " ".join(f"{key}={value}" for key, value in record["config"].items()))
        if record["ok"]:
            values = run_metrics(record)
            print(
                f"  run {len(self.runs):2d} {mode:6s} seed {seed} "
                f"wall {values['wall_s']:7.3f}s setup {values['setup_s']:6.3f}s "
                f"{values['records_per_s']:9.0f} rec/s cpu {values['cpu_s']:7.3f}s "
                f"rss {values['peak_rss_mb']:6.1f}MB ok"
            )
        else:
            print(f"  run {len(self.runs):2d} {mode:6s} FAILED {record.get('error')}: {record.get('message', '')}")
        return record

    def timeout(self) -> float:
        """A child may run until the invocation's hard stop, and at most
        ``CHILD_TIMEOUT_S``."""
        return max(1.0, min(CHILD_TIMEOUT_S, self.began + HARD_STOP_S - time.perf_counter()))

    def keep_going(self, window_start: float, samples: int, sample_seconds: float) -> bool:
        now = time.perf_counter()
        if samples and now - self.began + 1.5 * sample_seconds > HARD_STOP_S:
            return False
        minimum = 1 if self.trace else MIN_RUNS
        return samples < minimum or now - window_start < self.seconds

    def run(self) -> dict:
        (self.workdir / "tmp").mkdir(parents=True, exist_ok=True)
        try:
            window = time.perf_counter()
            sample, sample_seconds = 0, 0.0
            while self.keep_going(window, sample, sample_seconds):
                started = time.perf_counter()
                reference = self.reference_for(sample)
                self.measure("run", sample, reference)
                if self.trace:
                    self.measure("traced", sample, reference)
                sample += 1
                sample_seconds = max(sample_seconds, time.perf_counter() - started)
            if self.workload == "trace_reanalyze":
                reference = self.references[0]
                if file_digest(Path(reference["trace_path"])) != reference["trace_sha256"]:
                    raise RuntimeError("the trace file changed while it was being re-analysed")
            result = self.result()
            self.save(result)
            return result
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def print_environment(self, reference: dict) -> None:
        self.environment = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": reference["numpy"],
            "dtw_kernel": reference["dtw_kernel"],
            "git_revision": git_revision(),
        }
        print(f"perfbench {self.workload} seed={self.seed} seconds={self.seconds} trace={int(self.trace)}")
        print("  env " + " ".join(f"{key}={value}" for key, value in self.environment.items()))

    def result(self) -> dict:
        good = [r for r in self.runs if r["ok"]]
        untraced = [r for r in good if r["mode"] == "run"]
        traced = [r for r in good if r["mode"] == "traced"]
        attempted = len(self.runs)
        failed = attempted - len(good)
        correct = failed == 0 and bool(untraced)
        if self.trace:
            correct = correct and bool(traced)
            metrics = self.layer_medians(untraced, traced)
            units = PER_LAYER
        else:
            values = [run_metrics(r) for r in untraced]
            metrics = {name: statistics.median(v[name] for v in values) for name in values[0]} if values else {}
            metrics["ok_frac"] = 1.0 - failed / attempted
            units = END_TO_END
        print(f"  {self.workload}: {attempted} runs, {failed} failed (failed_frac {failed / attempted:.3f})")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:16.6f} {units[name]}")
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
        }

    def layer_medians(self, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
        """Per-layer medians over traced runs, plus the two that need a pair of runs."""
        if not traced or not untraced:
            return {}
        names = [name for name in PER_LAYER if name not in FROM_HARNESS]
        metrics = {name: statistics.median(record["layers"][name] for record in traced) for name in names}
        plain = {record["sample"]: record for record in untraced}
        pairs = [(plain[r["sample"]], r) for r in traced if r["sample"] in plain]
        metrics["bench.tracing_overhead_s"] = statistics.median(
            run_metrics(t)["wall_s"] - run_metrics(u)["wall_s"] for u, t in pairs
        )
        metrics["cdn.sharded_speedup"] = 0.0
        if self.workload == "generate_sharded":
            # Sequential simulate self time (the reference run) over the
            # sharded one, on the same input.
            metrics["cdn.sharded_speedup"] = statistics.median(
                u["reference_simulate_s"] / u["simulate_s"] for u in untraced
            )
        return {name: metrics[name] for name in PER_LAYER}

    def save(self, result: dict) -> None:
        """Write the full record (environment, config, every run) next to the spans."""
        spans = sorted(self.workdir.glob("spans-*.npz"))
        if spans:
            shutil.move(str(spans[-1]), OUT / f"spans-{self.workload}.npz")
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": self.environment,
            "references": self.references,
            "runs": self.runs,
            "result": result,
        }
        (OUT / f"{self.workload}-trace{int(self.trace)}.json").write_text(json.dumps(payload, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        result = Harness(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
