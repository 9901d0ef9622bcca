"""Consumer-price inflation under expenditure-adjusted basket weights."""

from importlib import resources
from pathlib import Path

from .analysis import (
    CountryBias,
    ScenarioConfig,
    ScenarioResult,
    compare_countries,
    run_scenario,
)
from .core import (
    BiasPoint,
    ExpenditureRelativeVector,
    InflationPoint,
    PriceRelativeSeries,
    WeightVector,
    adjusted_weights,
    chain_annual,
    exclude_items,
    fixed_base_annual,
    monthly_inflation,
    normalize_weights,
    weighting_bias,
)
from .crosswalk import CrosswalkSpec, Reassignment, Rule, identity_spec
from .ingest import (
    DailyExpenditureRecord,
    ExpenditurePanel,
    aggregate_daily,
    base_period,
    load_expenditures,
    load_prices,
    load_weights,
    read_expenditure_panel,
)
from .periods import Month, month_range
from .synth import (
    GeneratedFiles,
    ShockWindow,
    SyntheticEconomySpec,
    SyntheticItem,
    generate,
    oracle_adjusted_weights,
)

__version__ = "0.1.0"


def data_path(*parts: str) -> Path:
    """Path to a bundled data file, e.g. ``data_path('example', 'manifest.json')``."""
    return Path(str(resources.files(__package__))) / "data" / Path(*parts)


def default_crosswalk_path() -> Path:
    """The bundled Israel-style crosswalk configuration."""
    return data_path("israel_crosswalk.yaml")


def example_manifest_path() -> Path:
    """Manifest of the bundled synthetic lockdown scenario."""
    return data_path("example", "manifest.json")


__all__ = [
    "BiasPoint",
    "CountryBias",
    "CrosswalkSpec",
    "DailyExpenditureRecord",
    "ExpenditurePanel",
    "ExpenditureRelativeVector",
    "GeneratedFiles",
    "InflationPoint",
    "Month",
    "PriceRelativeSeries",
    "Reassignment",
    "Rule",
    "ScenarioConfig",
    "ScenarioResult",
    "ShockWindow",
    "SyntheticEconomySpec",
    "SyntheticItem",
    "WeightVector",
    "adjusted_weights",
    "aggregate_daily",
    "base_period",
    "chain_annual",
    "compare_countries",
    "data_path",
    "default_crosswalk_path",
    "example_manifest_path",
    "exclude_items",
    "fixed_base_annual",
    "generate",
    "identity_spec",
    "load_expenditures",
    "load_prices",
    "load_weights",
    "month_range",
    "monthly_inflation",
    "normalize_weights",
    "oracle_adjusted_weights",
    "read_expenditure_panel",
    "run_scenario",
    "weighting_bias",
]
