"""The ``repro report`` studio: one view module per artifact kind.

- :mod:`repro.obs.report.trace_view` — round-by-round summary of a
  simulator trace (JSONL or compact binary), streaming.
- :mod:`repro.obs.report.fuzz_view` — summary of a
  ``repro check --report-dir`` artifact directory.
"""

from repro.obs.report.fuzz_view import load_fuzz_report, render_fuzz_report
from repro.obs.report.trace_view import read_trace, render_report, select_run

__all__ = [
    "render_report",
    "select_run",
    "read_trace",
    "load_fuzz_report",
    "render_fuzz_report",
]
