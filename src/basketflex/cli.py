"""Command-line front end composing the pipeline.

Batch-oriented: every command reads files, writes files and exits. Exit
codes are 0 on success, 2 on a usage error or an input or validation problem
(with a machine-readable JSON error report as the last line of stderr) and 3
on internal errors. Output files are written atomically (temp file, then
rename) and are byte-identical across runs for identical inputs. Set
``BASKETFLEX_LOG`` to ``debug``, ``info``, ``warning``, ``error`` or
``critical`` (any case; anything else means ``warning``) to control verbosity.

Arguments are parsed with :mod:`argparse`; only ``generate`` imports ``synth``,
and only ``run`` and ``validate`` import ``ingest`` and ``crosswalk``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import logging
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import analysis
from .analysis import RESULT_JSON, ScenarioConfig
from .errors import (
    BOOL,
    DATE_PAIR,
    MONTH,
    STRING,
    STRINGS,
    BasketflexError,
    ConfigError,
    SpecInvalidError,
    UsageError,
    check_shape,
    only,
    shape_error,
)
from .periods import Month

log = logging.getLogger("basketflex")


@contextlib.contextmanager
def _replaced_together(paths: list[Path]):
    """Open a temp file beside each of ``paths``; rename them over ``paths``
    once the block has written them all.

    On any exception before the renames every temp file is removed and every
    path is left as it was; an ``OSError`` (a directory is a file, a path is a
    directory, no permission, no space) becomes a ``BasketflexError`` carrying
    the path it concerns, or, while the block writes several files, their
    directory.
    """
    temps = []
    where = None
    try:
        try:
            for where in paths:
                where.parent.mkdir(parents=True, exist_ok=True)
                if where.is_dir():  # its rename would fail after the others were done
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                # "x" never opens an existing file; a new one gets 0o666 less the umask
                tmp = where.parent / f".tmp-{os.urandom(8).hex()}"
                temps.append((tmp, open(tmp, "x", encoding="utf-8", newline="")))
            where = paths[0] if len(paths) == 1 else paths[0].parent
            yield [fh for _, fh in temps]
            for _, fh in temps:
                fh.close()
            for where, (tmp, _) in zip(paths, temps):
                os.replace(tmp, where)
        except BaseException:
            for tmp, fh in temps:
                with contextlib.suppress(OSError):
                    fh.close()
                if os.path.exists(tmp):
                    os.unlink(tmp)
            raise
    except OSError as exc:
        err = BasketflexError(f"cannot write {where}: {exc.strerror or exc}")
        err.path = str(where)
        raise err from exc


def _write_atomic(path: Path, data: str) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename."""
    with _replaced_together([path]) as (fh,):
        fh.write(data)


def _echo(*lines: str) -> None:
    """Print ``lines`` to stdout, each character its encoding lacks as a
    backslash escape, so that printing never fails."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    for line in lines:
        print(line.encode(encoding, "backslashreplace").decode(encoding))


def _csv_text(rows: list[list[str]]) -> str:
    """What ``csv.writer`` with ``lineterminator="\\n"`` writes for ``rows`` of 2+ fields."""
    return "".join("".join(map(analysis._csv_field, row))[:-1] + "\n" for row in rows)


@contextlib.contextmanager
def _about(path: Path, errors: type = BasketflexError):
    """Tag ``errors`` raised in the block with the file they concern."""
    try:
        yield
    except errors as exc:
        exc.path = str(path)
        raise


def _load(loader, path: Path):
    """Run a loader on the regular file ``path``, tagging raised errors with it;
    an ``OSError`` (a name too long, no permission) becomes a ``BasketflexError``."""
    with _about(path):
        try:
            if not path.is_file():
                raise BasketflexError(
                    f"{'not a file' if path.exists() else 'file not found'}: {path}")
            return loader(path)
        except OSError as exc:
            raise BasketflexError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _windows(text: str) -> list[list[str]]:
    """The [start, end] pairs of 'START:END,...' text, blanks around ',' and ':' dropped."""
    return [[date.strip() for date in window.split(":")] for window in _comma_list(text)]


class _Kind(NamedTuple):
    shape: object  # the JSON shape of its value, which errors.check_shape reads for a run
    argparse: dict  # the arguments of its flag that turn flag text into such a value


# compare kinds with ``is``: _PATH and _TEXT are equal
_PATH = _Kind(STRING, {})
_COMMA_LIST = _Kind(STRINGS, {"type": _comma_list})
_MONTHS = _Kind([MONTH], {"type": _comma_list})
_MONTH = _Kind(("a month as YYYY-MM, or empty", lambda v: None if v == "" else Month.parse(v)), {})
_DATE_PAIRS = _Kind([DATE_PAIR], {"type": _windows})
_BOOL = _Kind(BOOL, {"action": "store_true"})
_TEXT = _Kind(STRING, {})
# the shape of a flag that may not be empty: a path or month flag does not
# fall back to the manifest, and --out not to the working directory
_GIVEN = ("a non-empty string", only(bool))


class _Field(NamedTuple):
    key: str  # in the manifest
    flag: str
    kind: _Kind
    to: str  # "input" (a file), "option" (of the run) or the ScenarioConfig argument
    help: str
    default: object = None  # as read, when neither flag nor manifest gives one
    argparse: dict = {}  # more arguments of its flag


# run's flags in this order
_FIELDS = (
    _Field("weights", "--weights", _PATH, "input", "weights.csv path."),
    _Field("prices", "--prices", _PATH, "input", "prices.csv path."),
    _Field("expenditures", "--expenditures", _PATH, "input",
           "expenditures.csv path (daily records)."),
    _Field("crosswalk", "--crosswalk", _PATH, "input", "Crosswalk spec YAML path."),
    _Field("base_months", "--base-months", _MONTHS, "base_months",
           "Comma-separated base months, e.g. 2020-01,2020-02.", default=()),
    _Field("allow_negative_amounts", "--allow-negative-amounts", _BOOL, "option",
           "Accept negative daily amounts (refunds/chargebacks).", default=False),
    _Field("core_exclude", "--core-exclude", _COMMA_LIST, "core_exclusions",
           "Comma-separated items excluded from the core index."),
    _Field("fixed_weight_month", "--fixed-weight-month", _MONTH, "fixed_weight_month",
           "Freeze adjusted weights at this month (robustness variant)."),
    _Field("lockdowns", "--lockdowns", _DATE_PAIRS, "lockdown_windows",
           "Lockdown windows as START:END dates, comma separated (annotation only)."),
    _Field("country_label", "--country", _TEXT, "country_label",
           "Label used in comparisons and outputs.", argparse={"metavar": "COUNTRY"}),
    _Field("annual_method", "--annual-method", _TEXT, "annual_method",
           "How 12-month rates are built (default: chained).",
           argparse={"choices": analysis.ANNUAL_METHODS}),
    _Field("per_day_base", "--per-day-base", _BOOL, "per_day_base",
           "Normalize month totals by day count before ratios."),
    _Field("out", "--out", _PATH, "option", "Output directory."),
)

# JSON shape of a manifest; null counts as absent.
_MANIFEST_SHAPE = {f"{f.key}?": f.kind.shape for f in _FIELDS}


def _read_manifest(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # decode errors, unconvertible numbers
            raise BasketflexError(f"{path}: not valid JSON: {exc}")
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if v is not None}
        if isinstance(doc.get("lockdowns"), str):  # the flag's form
            doc["lockdowns"] = _windows(doc["lockdowns"])
    return check_shape(doc, _MANIFEST_SHAPE, ConfigError)


def _read_result(path: Path) -> analysis.ScenarioResult:
    """The result file at ``path``, read a chunk at a time, with its bias rows kept."""
    with open(path, encoding="utf-8") as fh:
        try:
            return analysis.read_result(fh, keep=("bias",))
        except (KeyError, TypeError, ValueError) as exc:
            err = BasketflexError(f"{path}: not a scenario result file ({exc})")
            err.field = getattr(exc, "field", None)
            raise err


def _manifest_from(manifest_path: Path | None, **flags) -> SimpleNamespace:
    """Read each field of ``_FIELDS`` from its flag, else from the manifest file, if any.

    ``inputs`` maps each input file's field to its path (None when none is
    given), ``config`` is the ``ScenarioConfig`` and each run option is an
    attribute.

    An explicit flag wins even when empty, but an empty path or month flag is
    a ``ConfigError``. Relative paths in the file resolve against its
    directory, an empty input path gives no file and an empty month none. A
    bad value names its field, and the manifest if it came from there.
    """
    doc: dict = {}
    root = Path()
    if manifest_path is not None:
        doc = _load(_read_manifest, manifest_path)
        root = manifest_path.resolve().parent
    inputs: dict = {}
    config: dict = {}
    options: dict = {}
    for f in _FIELDS:
        flagged = flags.get(f.key) not in (None, False)  # argparse's values for no flag
        if not flagged:
            raw = doc.get(f.key, f.default)
        else:
            if f.kind is _PATH or f.kind is _MONTH:
                check_shape(flags[f.key], _GIVEN, ConfigError, f.key)
            raw = check_shape(flags[f.key], f.kind.shape, ConfigError, f.key)  # as in a manifest
        value = raw
        if f.kind is _PATH and raw is not None:
            value = (Path() if flagged else root) / raw
        if f.to == "input":
            inputs[f.key] = value if raw else None
        elif f.to == "option":
            options[f.key] = value
        elif value is not None:
            config[f.to] = value
    return SimpleNamespace(inputs=inputs, config=ScenarioConfig(**config), **options)


def _load_inputs(m: SimpleNamespace):
    from . import crosswalk, ingest  # not imported by compare or generate

    for name, path in m.inputs.items():
        if path is None:
            raise shape_error(ConfigError, name,
                              f"is missing: no {name} file given (flag or manifest)")
    weights = _load(ingest.load_weights, m.inputs["weights"])
    prices = _load(ingest.load_prices, m.inputs["prices"])
    panel = _load(
        lambda p: ingest.read_expenditure_panel(p, allow_negative=m.allow_negative_amounts),
        m.inputs["expenditures"],
    )
    spec = _load(crosswalk.load_spec, m.inputs["crosswalk"])
    return weights, prices, panel, spec


def _option(*names: str, **kwargs):
    return names, kwargs


def _command(name: str, *options):
    """Turn a function into a subcommand record with these argparse options.

    ``dispatch`` looks ``callback`` up on the record each time the command
    runs, so a wrapper assigned to it (a tracer, say) takes effect.
    """
    def register(callback) -> SimpleNamespace:
        return SimpleNamespace(name=name, callback=callback, options=options,
                               help=callback.__doc__)
    return register


_MANIFEST_OPTION = _option("--manifest", type=Path,
                           help="JSON manifest carrying any of the other options.")


def _flag(f: _Field):
    return _option(f.flag, dest=f.key, help=f.help, **f.kind.argparse, **f.argparse)


@_command("run", _MANIFEST_OPTION, *map(_flag, _FIELDS))
def cmd_run(manifest, **flags) -> None:
    """Run a scenario and write result files into --out."""
    from . import crosswalk

    m = _manifest_from(manifest, **flags)
    config = m.config
    if m.out is None:
        raise shape_error(ConfigError, "out",
                          "is missing: no output directory given (flag or manifest)")
    # the panel and spec are freed before pricing, the other inputs before writing
    weights, prices, panel, spec = _load_inputs(m)
    with _about(m.inputs["crosswalk"], SpecInvalidError):
        checked = analysis.check_scenario(config, weights, prices, panel, spec)
        relatives = crosswalk.apply(spec, panel, checked.base, config.per_day_base,
                                    checked.axis)
    del panel, spec
    result = analysis.price_scenario(config, weights, checked, relatives)
    del weights, prices, checked, relatives

    written = [RESULT_JSON, *analysis.CSV_FILES]
    with _replaced_together([m.out / name for name in written]) as files:
        analysis.write_result(result, {name: fh.write for name, fh in zip(written, files)})

    _echo(f"scenario {result.config.variant}: {result.periods[0]}..{result.periods[-1]}",
          *(f"wrote {m.out / name}" for name in written))


@_command("validate", _MANIFEST_OPTION, *(_flag(f) for f in _FIELDS if f.key != "out"))
def cmd_validate(manifest, **flags) -> None:
    """Check inputs and crosswalk coverage without running anything."""
    from . import crosswalk

    m = _manifest_from(manifest, **flags)
    config = m.config
    weights, prices, panel, spec = _load_inputs(m)
    try:
        with _about(m.inputs["crosswalk"], SpecInvalidError):
            checked = analysis.check_scenario(config, weights, prices, panel, spec)
        # run's last check, NonPositiveRelativeError, is only made by computing the relatives
        crosswalk._relatives(spec, panel, checked.base, config.per_day_base, checked.axis)
    except SpecInvalidError as exc:
        _echo(*map(str, exc.findings))
        raise
    _echo(
        f"ok: {len(weights.shares)} items, {len(panel.categories)} categories, "
        f"{len(panel.months)} panel months, {len(prices)} price series"
    )


@_command(
    "generate",
    _option("--economy", required=True, type=Path,
            help="Synthetic economy spec (JSON)."),
    _option("--out", required=True, help="Output directory."),
)
def cmd_generate(economy, out) -> None:
    """Generate synthetic weights/prices/expenditures CSV files."""
    from . import synth  # the only command that needs it

    check_shape(out, _GIVEN, ConfigError, "out")
    files = _load(lambda path: synth.generate(synth.load_economy(path)), economy)
    texts = {"weights.csv": files.weights_csv, "prices.csv": files.prices_csv,
             "expenditures.csv": files.expenditures_csv}
    paths = [Path(out) / name for name in texts]
    with _replaced_together(paths) as handles:
        for fh, text in zip(handles, texts.values()):
            fh.write(text)
    _echo(*(f"wrote {path}" for path in paths))


@_command(
    "compare",
    _option("results", nargs="+", type=Path, metavar="RESULT",
            help="scenario_result.json files, compared in this order."),
    _option("--period", required=True, help="Month to compare, e.g. 2020-05."),
    _option("--out", help="Write the comparison table as CSV here."),
)
def cmd_compare(results, period, out) -> None:
    """Compare the weighting bias of several scenario_result.json files."""
    month = check_shape(period, MONTH, ConfigError, "period")
    if out is not None:
        check_shape(out, _GIVEN, ConfigError, "out")

    def read(path: Path) -> analysis.ScenarioResult:
        result = _read_result(path)
        # checked here as well as in compare_countries (a scan of the bias
        # rows) so that a result that does not cover the period names its file
        result.bias_at(month)
        return result

    # read lazily, one result at a time; the first problem in argument order wins
    loaded = (_load(read, path) for path in results)
    table = analysis.compare_countries(loaded, month)
    rows = analysis.comparison_rows(table)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    _echo(*("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows))
    if out is not None:
        _write_atomic(Path(out), _csv_text(rows))
        _echo(f"wrote {out}")


COMMANDS = (cmd_run, cmd_validate, cmd_generate, cmd_compare)


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """Rejects option prefixes; a usage error prints the usage and raises."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def dispatch(argv: list[str]) -> None:
    """Parse ``argv`` (no program name) and run its command; errors propagate."""
    parser = _Parser(prog="basketflex",
                     description="Inflation under expenditure-adjusted basket weights.")
    subparsers = parser.add_subparsers(title="commands", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help, description=command.help)
        for names, kwargs in command.options:
            sub.add_argument(*names, **kwargs)
        if argv and argv[0] == command.name:
            # intermixed, so that options may come between compare's result paths
            return command.callback(**vars(sub.parse_intermixed_args(argv[1:])))
    parser.parse_args(argv)  # no command first: exits after --help, else raises UsageError
    parser.error("the command must come first")


def _emit_error(exc: BaseException, internal: bool = False) -> None:
    report = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("path", "line", "column", "field", "item", "category", "period", "month"):
        value = getattr(exc, attr, None)
        if value is not None:
            report[attr] = str(value)
    if getattr(exc, "findings", None):
        report["findings"] = [str(f) for f in exc.findings]
    if internal:
        report["internal"] = True
    print(json.dumps(report, sort_keys=True), file=sys.stderr)


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def main(argv: list[str] | None = None) -> None:
    """Run ``argv`` (default ``sys.argv[1:]``); on failure report it and exit 2 or 3."""
    level = os.environ.get("BASKETFLEX_LOG", "warning").upper()
    logging.basicConfig(level=level if level in _LOG_LEVELS else "WARNING")
    try:
        dispatch(sys.argv[1:] if argv is None else argv)
    except BasketflexError as exc:
        _emit_error(exc)
        sys.exit(2)
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc, internal=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
