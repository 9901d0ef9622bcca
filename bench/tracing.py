"""Spans and counters recorded from outside the program.

:class:`Tracer` replaces public functions of the ``basketflex`` modules with
wrappers while it is active and puts the originals back on exit; nothing in
``src/`` knows about it. Names rebound by ``from ... import`` (for example
``analysis.monthly_inflation``) are patched where the caller looks them up.
Hot per-item calls (``PriceRelativeSeries.at``, ``Month.of_date``, weight
vector construction) are counted, not spanned, to keep the overhead low.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter

# The four *_rows functions share the span name ``analysis.rows``.
ROW_FUNCTIONS = ("inflation_rows", "weight_rows", "contribution_rows", "bias_rows")
CORE_FUNCTIONS = ("monthly_inflation", "adjusted_weights", "exclude_items", "chain_annual",
                  "weighting_bias", "fixed_base_annual")


class Tracer:
    """Records (name, start, end, parent, invocation) spans and named counts.

    Every span also counts its calls as ``<name>.calls``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None,
                      self._stack[-1] if self._stack else None, self.invocation]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn, *args):
        """Run one whole CLI invocation as the root span ``cli.main``."""
        self.invocation += 1
        self.counts["cli.invocations"] += 1
        return self.spanned("cli.main", fn)(*args)

    # --- patching ---------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        from basketflex import analysis, cli, core, crosswalk, ingest, periods, synth

        def add(key):
            return lambda args, result: self.counts.update({key: os.path.getsize(args[0])})

        def span(owner, attr, name, after=None):
            self._patch(owner, attr, lambda f: self.spanned(name, f, after))

        def records(args, result):
            self.counts["ingest.records"] += len(result)
            add("ingest.bytes_read")(args, result)

        def cells(args, panel):
            self.counts["ingest.cells"] += len(panel.months) * len(panel.categories)

        def relatives(args, out):
            self.counts["crosswalk.relatives"] += sum(len(v.relatives) for v in out.values())

        span(ingest, "load_expenditures", "ingest.load_expenditures", records)
        span(ingest, "aggregate_daily", "ingest.aggregate_daily", cells)
        span(ingest, "load_prices", "ingest.load_prices", add("ingest.bytes_read"))
        span(ingest, "load_weights", "ingest.load_weights", add("ingest.bytes_read"))
        span(ingest, "base_period", "ingest.base_period")
        span(crosswalk, "load_spec", "crosswalk.load_spec")
        span(crosswalk, "validate", "crosswalk.validate")
        span(crosswalk, "apply", "crosswalk.apply", relatives)
        for fn in CORE_FUNCTIONS:
            span(core, fn, f"core.{fn}")
            if fn in vars(analysis):
                span(analysis, fn, f"core.{fn}")
        for fn in ("run_scenario", "result_to_dict", "result_from_dict", "compare_countries"):
            span(analysis, fn, f"analysis.{fn}")
        for fn in ROW_FUNCTIONS:
            span(analysis, fn, "analysis.rows")
        for command in ("cmd_run", "cmd_validate", "cmd_compare"):
            span(vars(cli)[command], "callback", f"cli.{command}")
        span(cli, "_csv_text", "cli._csv_text")
        span(cli, "_write_atomic", "cli._write_atomic", add("cli.bytes_written"))
        span(synth, "generate", "synth.generate")
        self._patch(synth, "monthly_spend",
                    lambda f: self.counted("synth.monthly_spend.calls", f))
        self._patch(periods.Month, "of_date",
                    lambda m: classmethod(self.counted("periods.of_date.calls", m.__func__)))
        self._patch(core.PriceRelativeSeries, "at",
                    lambda f: self.counted("core.price_lookups", f))
        self._patch(core.WeightVector, "__init__",
                    lambda f: self.counted("core.weight_vectors", f))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed per name."""
        self_s: Counter[str] = Counter()
        for name, start, end, parent, _ in self.spans:
            self_s[name] += end - start
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        return dict(self_s)

    def dump(self) -> list[dict]:
        return [dict(zip(("name", "start", "end", "parent", "invocation"), s)) for s in self.spans]
