"""Measurement core: the paper's analysis pipeline.

Everything in Section IV/V of the paper is implemented here, figure by
figure: aggregate analyses (content/traffic composition, temporal access
patterns, device mix), content dynamics (sizes, popularity, aging, DTW
trend clustering with medoids), user dynamics (inter-arrival times,
sessions, repeated access / addiction) and caching implications (hit
ratios, response codes).  :class:`~repro.core.report.Study` runs the whole
battery over one trace.
"""

from repro.core.aggregate import (
    ContentCompositionPass,
    DeviceCompositionPass,
    HourlyVolumePass,
    TrafficCompositionPass,
    content_composition,
    device_composition,
    hourly_volume,
    traffic_composition,
)
from repro.core.caching import ResponseCodePass, hit_ratio_analysis, response_code_analysis
from repro.core.clustering import TrendClusteringResult, cluster_popularity_trends
from repro.core.comparison import ComparisonResult, compare_to_baseline, render_comparison
from repro.core.content import content_age_survival, popularity_distribution, size_cdf
from repro.core.dataset import ObjectStats, TraceDataset
from repro.core.dtw import DtwStats, dtw_distance, pairwise_dtw
from repro.core.hierarchy import AgglomerativeClustering, Dendrogram
from repro.core.passes import DEFAULT_CHUNK_ROWS, AnalysisPass, run_passes
from repro.core.report import Study, StudyReport
from repro.core.users import (
    addiction_cdf,
    interarrival_times,
    repeated_access_scatter,
    session_lengths,
    sessionize,
)

__all__ = [
    "AgglomerativeClustering",
    "AnalysisPass",
    "ComparisonResult",
    "ContentCompositionPass",
    "DEFAULT_CHUNK_ROWS",
    "Dendrogram",
    "DeviceCompositionPass",
    "DtwStats",
    "HourlyVolumePass",
    "ObjectStats",
    "ResponseCodePass",
    "Study",
    "StudyReport",
    "TraceDataset",
    "TrafficCompositionPass",
    "TrendClusteringResult",
    "addiction_cdf",
    "cluster_popularity_trends",
    "compare_to_baseline",
    "content_age_survival",
    "content_composition",
    "device_composition",
    "dtw_distance",
    "hit_ratio_analysis",
    "hourly_volume",
    "interarrival_times",
    "pairwise_dtw",
    "popularity_distribution",
    "render_comparison",
    "repeated_access_scatter",
    "response_code_analysis",
    "run_passes",
    "session_lengths",
    "sessionize",
    "size_cdf",
    "traffic_composition",
]
