"""Observability: structured tracing, metric aggregation, cut-bit
accounting, and lightweight profiling for the CONGEST simulator, the
two-party protocols, and the exact solvers.

Three layers:

- :mod:`repro.obs.trace` — the event stream.  ``CongestSimulator``
  emits :class:`TraceEvent` records (round boundaries, every message
  with sender/receiver/bits, halts, bandwidth-check outcomes) into any
  :class:`Tracer`; :class:`NullTracer` makes the disabled path free.
- :mod:`repro.obs.binary` — the compact binary trace format
  (:class:`BinaryTracer` writer, mmap-backed streaming reader,
  jsonl↔binary converter); :func:`iter_trace`/:func:`read_trace`
  auto-detect either format by magic bytes.
- :mod:`repro.obs.metrics` — aggregation.  :class:`Metrics` builds
  per-round and per-edge histograms; :class:`CutBitCounter` counts the
  bits crossing an Alice/Bob bipartition, the Theorem 1.1 quantity.
- :mod:`repro.obs.profile` — wall-clock/call-count hooks on the exact
  solvers, surfaced through ``ExperimentRecord.measured``.

``repro report trace <trace>`` renders a trace into a round-by-round
summary; ``repro report fuzz`` renders fuzz artifacts (see
:mod:`repro.obs.report`).
"""

from repro.obs.trace import (
    JsonlTracer,
    MultiTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    Tracer,
    TracerBase,
    default_tracer,
    iter_trace,
    open_tracer,
    read_trace,
    trace_to_directory,
)
from repro.obs.binary import (
    BinaryTracer,
    TraceFormatError,
    convert_trace,
    iter_binary_trace,
    sniff_format,
)
from repro.obs.metrics import (
    CutBitCounter,
    EdgeStats,
    Metrics,
    RoundStats,
    cut_bits_from_events,
)
from repro.obs.profile import (
    ProfileStat,
    diff_profile,
    format_profile,
    profile_block,
    profile_stats,
    profiled,
    reset_profile_stats,
    warm_pool_stats,
    top_profile,
)
from repro.obs.report import (
    render_fuzz_report,
    render_report,
    select_run,
)

__all__ = [
    "TraceEvent",
    "Tracer",
    "TracerBase",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "BinaryTracer",
    "MultiTracer",
    "TraceFormatError",
    "default_tracer",
    "open_tracer",
    "iter_trace",
    "iter_binary_trace",
    "read_trace",
    "convert_trace",
    "sniff_format",
    "trace_to_directory",
    "Metrics",
    "RoundStats",
    "EdgeStats",
    "CutBitCounter",
    "cut_bits_from_events",
    "ProfileStat",
    "profiled",
    "profile_block",
    "profile_stats",
    "reset_profile_stats",
    "diff_profile",
    "top_profile",
    "format_profile",
    "warm_pool_stats",
    "render_report",
    "select_run",
    "render_fuzz_report",
]
