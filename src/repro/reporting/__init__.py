"""Reporting: render tables, extract figure series, export CSV/JSON.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output consistent across benches, examples, and tests.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.reporting.tables": ("render_skill_table", "render_table3", "render_table6"),
    "repro.reporting.figures": ("FigureSeries", "figure_series"),
    "repro.reporting.export": ("export_csv", "export_json"),
})
