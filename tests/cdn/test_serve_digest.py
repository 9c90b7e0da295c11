"""Frozen simulator output: sha256 digests of whole tiny-scale runs.

The shard-parallel suite proves that every execution path agrees with
the sequential one, and the golden report freezes the analysis of a
fixed trace; neither notices when the serve path itself starts emitting
different bytes.  These digests do: the tiny-scale trace CSV at two
workload seeds, for the sequential and the two-worker simulator, and
the report summary of one in-process study (generate, simulate,
storeless ingest, full battery with clustering).

A digest here changes only with an *intended* change to what the
simulator or the analyses compute; a speed-up must leave all of them
exactly as they are.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dataflow import Plan, RunConfig
from repro.pipeline import generate_trace_plan
from repro.workload.scale import ScaleConfig

#: Workload seed -> (data rows, sha256 of the CSV written by ``generate``).
TRACE_DIGESTS = {
    1000: (21992, "c2ce996e6b062f1c34fb33c37daafe03cf0560e36ecbb6a059915cce344e02d1"),
    1609: (22086, "1d4bf2f6cd791c2590a2c58bc876767ee581c8d307248614541dff6b265cc969"),
}

STUDY_SEED = 1000
#: sha256 of the compact, key-sorted JSON of ``StudyReport.to_summary_dict()``.
STUDY_DIGEST = "7412ea45f64bc99490c4ae83f5643062eefda06beac6855481c8240000f7d7bf"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("sim_workers", [1, 2])
@pytest.mark.parametrize("seed", sorted(TRACE_DIGESTS))
def test_trace_csv_digest(tmp_path, seed, sim_workers):
    path = tmp_path / "trace.csv"
    result = generate_trace_plan(path, seed=seed, scale=ScaleConfig.tiny(), sim_workers=sim_workers)
    rows, digest = TRACE_DIGESTS[seed]
    assert result.total_rows == rows
    assert _sha256(path.read_bytes()) == digest


def test_study_summary_digest():
    config = RunConfig.resolve(
        cli={
            "seed": STUDY_SEED,
            "scale": "tiny",
            "keep_store": False,
            "sim_workers": 1,
            "run_clustering": True,
        },
        env={},
    )
    result = Plan(config).generate().simulate().ingest().analyze().run()
    payload = json.dumps(result.report.to_summary_dict(), sort_keys=True, separators=(",", ":"))
    assert _sha256(payload.encode()) == STUDY_DIGEST
