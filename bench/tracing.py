"""Spans for the staged traced run.

The traced run replays each pipeline from the benchmark's own files, one
public call per layer, and accumulates busy time and work counts per span
name.  Nothing inside spectile is instrumented; a layer a workload never
calls reports the cost of an empty span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# the workload and end-to-end metric each per-layer metric should move;
# the names and units themselves are declared in BENCHMARK.json
MOVES = {
    "cyclotomic.cyclotomic_poly.cold_s": "setup_s; cli-jobs op_p50_ms",
    "cyclotomic.root_sum_is_zero.busy_s": "spectral-checks op_p50_ms",
    "cyclotomic.root_sum_is_zero.calls": "spectral-checks op_p50_ms",
    "cyclotomic.root_sum_is_zero.vanishing_ratio": "spectral-checks op_p50_ms",
    "spectra.admissible_differences.busy_s": "utc-sweep wall_s",
    "spectra.admissible_differences.count": "utc-sweep wall_s",
    "spectra.enumerate_spectra.busy_s": "utc-sweep wall_s, peak_rss_mb",
    "spectra.enumerate_spectra.spectra": "utc-sweep wall_s, peak_rss_mb",
    "spectra.enumerate_spectra.peak_alloc_mb": "utc-sweep peak_rss_mb",
    "spectra.is_spectrum.busy_s": "spectral-checks op_p50_ms",
    "spectra.is_spectrum.calls": "spectral-checks op_p50_ms",
    "spectra.is_spectrum.true_ratio": "spectral-checks op_p50_ms",
    "spectra.exponential_sum_vanishes.busy_s": "spectral-checks op_p50_ms",
    "tilings.find_common_complement.busy_s": "utc-sweep wall_s",
    "tilings.find_common_complement.period": "utc-sweep wall_s",
    "tilings.find_common_complement.periods_tried": "utc-sweep wall_s",
    "tilings.is_tiling_of_Z.busy_s": "utc-sweep wall_s",
    "tilings.is_tiling_of_Z.calls": "utc-sweep wall_s",
    "tilings.find_complements.busy_s": "cli-jobs op_p90_ms",
    "tilings.find_complements.solutions": "cli-jobs op_p90_ms",
    "intervals.fibers.busy_s": "roundtrip-wide wall_s",
    "intervals.fibers.cells": "roundtrip-wide wall_s",
    "intervals.fibers.distinct": "roundtrip-wide wall_s",
    "intervals.build_omega.busy_s": "roundtrip-wide wall_s",
    "intervals.spectral_verdict.busy_s": "roundtrip-wide wall_s",
    "intervals.assemble_tiling.busy_s": "roundtrip-wide wall_s",
    "intervals.gram_matrix.busy_s": "spectral-checks wall_s, op_p90_ms",
    "intervals.gram_matrix.entries": "spectral-checks wall_s, op_p90_ms",
    "utc.utc_verify.busy_s": "utc-sweep wall_s",
    "utc.roundtrip.busy_s": "roundtrip-wide wall_s",
    "utc.unaccounted_s": "roundtrip-wide wall_s",
    "cli.run.busy_s": "cli-jobs op_p50_ms, op_p90_ms",
    "cli.process_overhead_s": "cli-jobs op_p50_ms, op_p90_ms",
    "cli.cert_bytes": "cli-jobs wall_s",
    "trace.overhead_s": "every workload",
}


class Tracer:
    """Accumulates span busy time and counts by metric name."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, layer: str, calls: int = 1):
        """Time the block as `calls` calls into `layer`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values[layer + ".busy_s"] += time.perf_counter() - start
            self.values[layer + ".calls"] += calls

    def add(self, metric: str, amount: float) -> None:
        self.values[metric] += amount

    def ratio(self, metric: str, hits: str, layer: str) -> None:
        calls = self.values.get(layer + ".calls", 0)
        self.values[metric] = self.values.get(hits, 0) / calls if calls else 0.0

    def metrics(self, units: dict[str, str]) -> dict[str, float]:
        """Every metric in units (name -> unit); a busy time with no span
        gets the cost of one empty span."""
        for name, unit in units.items():
            if unit == "s" and name not in self.values:
                start = time.perf_counter()
                self.values[name] += time.perf_counter() - start
        return {name: float(self.values.get(name, 0.0)) for name in units}
