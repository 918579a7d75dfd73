"""The ``repro report`` studio: one view module per artifact kind.

- :mod:`repro.obs.report.trace_view` — round-by-round summary of a
  ``.rtb`` simulator trace, streaming.
- :mod:`repro.obs.report.fuzz_view` — summary of a
  ``repro check --report-dir`` artifact directory.
"""

from repro.obs.report.fuzz_view import load_fuzz_report, render_fuzz_report
from repro.obs.report.trace_view import render_report, select_run

__all__ = [
    "render_report",
    "select_run",
    "load_fuzz_report",
    "render_fuzz_report",
]
