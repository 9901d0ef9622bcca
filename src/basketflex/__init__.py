"""Consumer-price inflation under expenditure-adjusted basket weights.

Public names and submodules load on first access (PEP 562).
"""

import importlib
from pathlib import Path

__version__ = "0.1.0"

_SUBMODULES = ("analysis", "cli", "core", "crosswalk", "errors", "ingest", "periods", "synth")

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": "CountryBias ScenarioConfig ScenarioResult compare_countries run_scenario",
        "core": "BiasPoint ExpenditureRelativeVector InflationPoint PriceRelativeSeries "
                "WeightVector adjusted_weights chain_annual exclude_items fixed_base_annual "
                "monthly_inflation normalize_weights weighting_bias",
        "crosswalk": "CrosswalkSpec Reassignment Rule identity_spec",
        "ingest": "ExpenditurePanel aggregate_daily base_period load_expenditures load_prices "
                  "load_weights read_expenditure_panel",
        "periods": "Month month_range",
        "synth": "GeneratedFiles ShockWindow SyntheticEconomySpec SyntheticItem generate "
                 "oracle_adjusted_weights",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def data_path(*parts: str) -> Path:
    """Path to a bundled data file, e.g. ``data_path('example', 'manifest.json')``."""
    from importlib import resources

    return Path(str(resources.files(__package__))) / "data" / Path(*parts)


def default_crosswalk_path() -> Path:
    """The bundled Israel-style crosswalk configuration."""
    return data_path("israel_crosswalk.yaml")


def example_manifest_path() -> Path:
    """Manifest of the bundled synthetic lockdown scenario."""
    return data_path("example", "manifest.json")


__all__ = sorted([*_EXPORTS, "data_path", "default_crosswalk_path", "example_manifest_path"])
