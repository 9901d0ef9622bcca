import datetime as dt

import pytest

from basketflex import analysis
from basketflex.errors import (
    DATE_PAIR,
    MONTH,
    NUMBER,
    STRING,
    STRINGS,
    ConfigError,
    ResultFieldError,
    check_shape,
)
from basketflex.periods import Month


def test_an_object_reads_as_a_dict_of_the_members_its_shape_names():
    shape = {"label": STRING, "note?": STRING, "rate?": NUMBER}
    doc = {"label": "x", "rate": 0.0, "unknown": [1, 2]}
    read = check_shape(doc, shape, ConfigError)
    assert read == {"label": "x", "rate": 0.0}
    assert read is not doc and "unknown" in doc


def test_a_list_reads_as_a_tuple():
    assert check_shape([], STRINGS, ConfigError) == ()
    assert check_shape(["a", "b"], STRINGS, ConfigError) == ("a", "b")
    assert type(check_shape([["a"]], [STRINGS], ConfigError)[0]) is tuple


def test_a_leaf_reads_as_its_read_gives_it():
    read = check_shape({"months": ["2020-01"], "window": ["2020-03-01", "2020-05-31"]},
                       {"months": [MONTH], "window": DATE_PAIR}, ConfigError)
    assert read == {"months": (Month(2020, 1),),
                    "window": (dt.date(2020, 3, 1), dt.date(2020, 5, 31))}
    assert check_shape("2020-12", MONTH, ConfigError) == Month(2020, 12)
    # a value that tests false still reads as itself
    assert check_shape(0, NUMBER, ConfigError) == 0
    assert check_shape("", STRING, ConfigError) == ""


@pytest.mark.parametrize("value, shape, field", [
    ({"m": [" 2020-01 "]}, {"m": [MONTH]}, "m[0]"),
    ({"m": ["2020-01", 202001]}, {"m": [MONTH]}, "m[1]"),
    ({"w": [["2020-03-01", "2020-05-31", "2020-06-01"]]}, {"w": [DATE_PAIR]}, "w[0]"),
    ({"w": ["2020-03-01"]}, {"w": DATE_PAIR}, "w"),
    ({"n": True}, {"n": NUMBER}, "n"),
    ({"s": ["food", 5]}, {"s": STRINGS}, "s[1]"),
    ({}, {"s": STRING}, "s"),
    ([], {"s": STRING}, None),
])
def test_a_value_its_shape_refuses_is_named(value, shape, field):
    with pytest.raises(ConfigError) as exc:
        check_shape(value, shape, ConfigError)
    assert exc.value.field == field


def test_a_result_keeps_its_own_number_objects():
    # each value is tested, none by its truth: 0.0 reads
    shares = {"food": 0.0, "energy": 1.0}
    read = check_shape({"period": "2020-01", "shares": shares}, analysis._VECTOR,
                       ResultFieldError)
    assert read["shares"] is shares


def test_core_exclusions_read_as_a_frozenset():
    config = analysis.ScenarioConfig(base_months=(Month(2020, 1),),
                                     core_exclusions=("food", "energy", "food"))
    assert config.core_exclusions == frozenset({"food", "energy"})
    assert type(config.core_exclusions) is frozenset
