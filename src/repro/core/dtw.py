"""Dynamic Time Warping, implemented from scratch.

The paper measures shape similarity between per-object request-count time
series with DTW (Section IV-B, citing Müller): a dynamic-programming
alignment that warps the time axes of two series to minimise the total
point-wise cost.  We implement the classic O(N·M) recurrence with an
optional Sakoe–Chiba band constraint (limiting warp to ±``window`` steps),
which both speeds up the computation and prevents pathological alignments
between day-scale patterns.

The study needs one thing from this module: the exact pairwise matrix
behind the Figs. 8–10 clustering (at most 60 equal-length series, so at
most 1,770 pairs).  Three kernels compute the same banded DP, applying
``abs(a_i - b_j) + min(up, diag, left)`` in the same order, so every
distance is **bit-identical** whichever kernel produced it:

* :func:`_dtw_band_scalar` — the pure-Python reference kernel;
* :func:`_dtw_band_batch` — the numpy kernel, vectorised across pairs
  (the time recurrence stays sequential);
* the C kernel of :mod:`repro.core.dtw_backends`, compiled on first use
  and selected by ``REPRO_DTW_KERNEL`` (falling back to numpy when no
  compiler is available).

:func:`pairwise_dtw` validates the series, stacks them once, runs every
upper-triangle pair through the resolved kernel in ``_CHUNK_PAIRS``
chunks, and mirrors the result.  :class:`DtwStats` records the pair
count, wall time and kernel tier of each matrix.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.dtw_backends import KERNEL_ENV, CKernel, kernel_name, resolve_kernel
from repro.errors import AnalysisError

__all__ = [
    "DtwStats",
    "KERNEL_ENV",
    "dtw_distance",
    "dtw_path",
    "kernel_name",
    "pairwise_dtw",
]

_CHUNK_PAIRS = 4096  # pairs per kernel call (bounds the numpy kernel's memory)


# ---------------------------------------------------------------------------
# Instrumentation


@dataclass
class DtwStats:
    """How one pairwise DTW matrix was computed.

    Every upper-triangle pair runs the full DP, so ``full_dp`` equals
    ``pairs_total``.  ``pruned_lb_kim``, ``pruned_lb_keogh``,
    ``pruned_lb_improved`` and ``abandoned`` always read 0; they stay
    because run telemetry reads every field by name.  ``kernel`` names
    the tier that ran the DPs (``"c"`` or ``"numpy"``).
    """

    pairs_total: int = 0
    pruned_lb_kim: int = 0
    pruned_lb_keogh: int = 0
    pruned_lb_improved: int = 0
    abandoned: int = 0
    full_dp: int = 0
    wall_seconds: float = 0.0
    kernel: str = "numpy"

    def as_dict(self) -> dict[str, float | str]:
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"pairs={self.pairs_total} full-dp={self.full_dp} "
            f"[{self.wall_seconds:.3f}s, kernel={self.kernel}]"
        )


# ---------------------------------------------------------------------------
# Validation shared by every entry point


def _as_series(values: Sequence[float] | np.ndarray, index: int) -> np.ndarray:
    """One DTW input as a float array; unusable input names its index."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise AnalysisError(f"DTW series {index} is not one-dimensional")
    if array.size == 0:
        raise AnalysisError(f"DTW series {index} is empty")
    if not np.isfinite(array).all():
        raise AnalysisError(f"DTW series {index} contains non-finite values")
    return array


def _validate_pair(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    return _as_series(series_a, 0), _as_series(series_b, 1)


def _effective_band(n: int, m: int, window: int | None) -> int:
    """Sakoe–Chiba half-width actually used by the DP.

    ``None`` means unconstrained; otherwise the band is widened to at least
    ``|n - m|`` so an alignment always exists.
    """
    if window is None:
        return max(n, m)
    if window < 0:
        raise AnalysisError(f"window must be non-negative, got {window}")
    return max(window, abs(n - m))


# ---------------------------------------------------------------------------
# Kernels


def _dtw_band_scalar(a_list: list[float], b_list: list[float], band: int) -> float:
    """Banded DP over two pre-converted Python lists (the reference kernel).

    Plain Python lists beat numpy here: the recurrence is inherently
    sequential in j, and scalar indexing into ndarrays costs several times
    more than list indexing.  ``band >= |n - m|`` guarantees a finite result.
    """
    n, m = len(a_list), len(b_list)
    inf = math.inf
    previous = [inf] * (m + 1)
    previous[0] = 0.0
    current = [inf] * (m + 1)
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        ai = a_list[i - 1]
        current[j_low - 1] = inf
        left = inf  # current[j - 1]
        prev_diag = previous[j_low - 1]  # previous[j - 1]
        for j in range(j_low, j_high + 1):
            prev_here = previous[j]
            best = prev_here
            if prev_diag < best:
                best = prev_diag
            if left < best:
                best = left
            diff = ai - b_list[j - 1]
            left = (diff if diff >= 0 else -diff) + best
            current[j] = left
            prev_diag = prev_here
        if j_high < m:
            current[j_high + 1] = inf
        previous, current = current, previous
    return previous[m]


def _dtw_band_batch(stack_a: np.ndarray, stack_b: np.ndarray, band: int) -> np.ndarray:
    """Banded DP for P independent (a, b) pairs, vectorised across pairs.

    ``stack_a`` is (P, N), ``stack_b`` is (P, M).  Every cell applies the
    same IEEE-754 operations in the same order as the scalar kernel —
    ``abs(a_i - b_j) + min(up, diag, left)`` — so results are bit-identical
    to P scalar calls.
    """
    pairs, n = stack_a.shape
    m = stack_b.shape[1]
    inf = np.inf
    previous = np.full((pairs, m + 1), inf)
    previous[:, 0] = 0.0
    current = np.full((pairs, m + 1), inf)
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        # band >= |n - m| guarantees a non-empty row for every i.
        ai = stack_a[:, i - 1]
        current[:, j_low - 1] = inf
        left = np.full(pairs, inf)
        prev_diag = previous[:, j_low - 1]
        for j in range(j_low, j_high + 1):
            prev_here = previous[:, j]
            best = np.minimum(prev_here, prev_diag)
            np.minimum(best, left, out=best)
            left = np.abs(ai - stack_b[:, j - 1]) + best
            current[:, j] = left
            prev_diag = prev_here
        if j_high < m:
            current[:, j_high + 1] = inf
        previous, current = current, previous
    return previous[:, m].copy()


def _compiled_pairs(
    kernel: CKernel,
    arrays: list[np.ndarray],
    window: int | None,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Run (row, col) index pairs of ``arrays`` through the C kernel."""
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    arena = np.concatenate(arrays)
    # The C driver widens the band per pair to >= |n - m|; a band of the
    # longest length is unconstrained for every pair.
    band = int(lengths.max()) if window is None else window
    return lambda rows, cols: kernel.pairs(arena, offsets, lengths, rows, cols, band)


def _numpy_pairs(
    arrays: list[np.ndarray],
    window: int | None,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Run (row, col) index pairs of ``arrays`` through the numpy tier.

    Equal-length series (the clustering case) go through the batched
    kernel; ragged ones through the scalar kernel, pair by pair.
    """
    if len({a.size for a in arrays}) == 1:
        stacked = np.stack(arrays)
        band = _effective_band(stacked.shape[1], stacked.shape[1], window)
        return lambda rows, cols: _dtw_band_batch(stacked[rows], stacked[cols], band)
    lists = [a.tolist() for a in arrays]

    def scalar(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.array(
            [
                _dtw_band_scalar(lists[i], lists[j], _effective_band(len(lists[i]), len(lists[j]), window))
                for i, j in zip(rows.tolist(), cols.tolist())
            ]
        )

    return scalar


# ---------------------------------------------------------------------------
# Entry points


def dtw_distance(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> float:
    """DTW distance between two series under absolute point-wise cost.

    Parameters
    ----------
    series_a, series_b:
        The two time series (need not have equal length; every value must
        be finite).
    window:
        Sakoe–Chiba band half-width; ``None`` means unconstrained.  The
        band is automatically widened to at least ``|N - M|`` so an
        alignment always exists.

    Returns
    -------
    float
        Total cost of the optimal warping path (the paper's "DTW
        distance").

    Notes
    -----
    Cost between aligned points is ``|a_i - b_j|``; the total cost of a
    path is the sum along it — the "area between the time-warped series"
    the paper describes.  Identity: ``dtw(x, x) == 0``.  Symmetry holds
    because the cost is symmetric.
    """
    a, b = _validate_pair(series_a, series_b)
    band = _effective_band(a.size, b.size, window)
    kernel = resolve_kernel()
    if kernel is None:
        return _dtw_band_scalar(a.tolist(), b.tolist(), band)
    return float(_compiled_pairs(kernel, [a, b], band)(np.array([0]), np.array([1]))[0])


def dtw_path(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the optimal warping path (index pairs).

    The path starts at ``(0, 0)`` and ends at ``(N-1, M-1)``, moving by
    steps of (1,0), (0,1) or (1,1) — the standard step pattern.
    """
    a, b = _validate_pair(series_a, series_b)
    n, m = a.size, b.size
    band = _effective_band(n, m, window)
    dp = np.full((n + 1, m + 1), math.inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        for j in range(j_low, j_high + 1):
            cost = abs(a[i - 1] - b[j - 1])
            dp[i, j] = cost + min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    path: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        step = int(np.argmin((dp[i - 1, j - 1], dp[i - 1, j], dp[i, j - 1])))
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(dp[n, m]), path


def pairwise_dtw(
    series: Sequence[np.ndarray],
    window: int | None = 24,
    return_stats: bool = False,
    kernel: str | None = None,
) -> np.ndarray | tuple[np.ndarray, DtwStats]:
    """Symmetric pairwise DTW distance matrix over a list of series.

    This is the similarity matrix the paper feeds to agglomerative
    clustering.  ``window`` defaults to 24 (one day on an hourly grid) —
    shapes may shift by up to a day and still be considered similar.

    The matrix is **exact**: every entry equals what per-pair
    :func:`dtw_distance` calls would produce, bit for bit, on every kernel
    tier.  ``kernel`` overrides the ``REPRO_DTW_KERNEL`` selection
    (``auto`` | ``c`` | ``numpy``).  With ``return_stats=True`` the matrix
    comes back with the :class:`DtwStats` of the computation.
    """
    if len(series) == 0:
        raise AnalysisError("pairwise_dtw needs at least one series")
    start = time.perf_counter()
    arrays = [_as_series(values, index) for index, values in enumerate(series)]
    if window is not None and window < 0:
        raise AnalysisError(f"window must be non-negative, got {window}")
    compiled = resolve_kernel(kernel)
    run = _numpy_pairs(arrays, window) if compiled is None else _compiled_pairs(compiled, arrays, window)

    count = len(arrays)
    rows, cols = np.triu_indices(count, k=1)
    distances = np.empty(rows.size)
    for offset in range(0, rows.size, _CHUNK_PAIRS):
        chunk = slice(offset, offset + _CHUNK_PAIRS)
        distances[chunk] = run(rows[chunk], cols[chunk])
    matrix = np.zeros((count, count))
    matrix[rows, cols] = distances
    matrix[cols, rows] = distances
    if not return_stats:
        return matrix
    stats = DtwStats(
        pairs_total=rows.size,
        full_dp=rows.size,
        wall_seconds=time.perf_counter() - start,
        kernel="numpy" if compiled is None else compiled.name,
    )
    return matrix, stats
