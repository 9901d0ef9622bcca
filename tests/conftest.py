import datetime as dt
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from basketflex import analysis, crosswalk, ingest
from basketflex.periods import Month

PKG_DATA = Path(__file__).resolve().parents[1] / "src" / "basketflex" / "data"
EXAMPLE_DIR = PKG_DATA / "example"


@pytest.fixture(scope="session")
def example_dir() -> Path:
    return EXAMPLE_DIR


@pytest.fixture(scope="session")
def israel_spec():
    return crosswalk.load_spec(PKG_DATA / "israel_crosswalk.yaml")


@pytest.fixture(scope="session")
def example_inputs(israel_spec):
    weights = ingest.load_weights(EXAMPLE_DIR / "weights.csv")
    prices = ingest.load_prices(EXAMPLE_DIR / "prices.csv")
    panel = ingest.read_expenditure_panel(EXAMPLE_DIR / "expenditures.csv")
    return weights, prices, panel, israel_spec


@pytest.fixture(scope="session")
def example_config() -> analysis.ScenarioConfig:
    manifest = json.loads((EXAMPLE_DIR / "manifest.json").read_text())
    return analysis.ScenarioConfig(
        base_months=tuple(Month.parse(m) for m in manifest["base_months"]),
        core_exclusions=frozenset(manifest["core_exclude"]),
        lockdown_windows=tuple(
            (dt.date.fromisoformat(a), dt.date.fromisoformat(b))
            for a, b in manifest["lockdowns"]
        ),
        country_label=manifest["country_label"],
    )


@pytest.fixture(scope="session")
def dynamic_result(example_config, example_inputs):
    weights, prices, panel, spec = example_inputs
    return analysis.run_scenario(example_config, weights, prices, panel, spec)


@pytest.fixture(scope="session")
def fixed_april_result(example_config, example_inputs):
    import dataclasses

    weights, prices, panel, spec = example_inputs
    config = dataclasses.replace(example_config, fixed_weight_month=Month(2020, 4))
    return analysis.run_scenario(config, weights, prices, panel, spec)


def panel_of(totals: dict) -> ingest.ExpenditurePanel:
    """The panel of ``{(category, month): total}``, read from a ledger with one
    record per cell, on the month's first day; negative amounts are allowed."""
    text = "date,category,amount\n" + "".join(
        f"{month.first_day()},{category},{total}\n" for (category, month), total in totals.items()
    )
    return ingest.read_expenditure_panel(io.StringIO(text), allow_negative=True)


def run_cli(*args: str, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Invoke the CLI exactly as the console script would, in a subprocess."""
    code = (
        "import sys; "
        f"sys.argv = {['basketflex', *args]!r}; "
        "from basketflex.cli import main; main()"
    )
    full_env = None
    if env is not None:
        full_env = dict(os.environ)
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=full_env,
    )
