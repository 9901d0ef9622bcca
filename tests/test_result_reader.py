"""``analysis.read_result``: a result file read a chunk at a time, checked as a whole."""

import copy
import io
import json
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketflex import analysis, cli, synth
from basketflex.errors import BasketflexError, ResultFieldError


@pytest.fixture(scope="module")
def result_text(dynamic_result) -> str:
    """The JSON text ``run`` writes for the bundled scenario."""
    chunks: list[str] = []
    analysis.write_result(dynamic_result, {**dict.fromkeys(analysis.CSV_FILES, len),
                                           analysis.RESULT_JSON: chunks.append})
    return "".join(chunks)


@pytest.fixture(scope="module")
def result_paths(result_text) -> list:
    """Every path of keys and indices into the document, the document's own excluded."""
    def paths(value, path=()):
        yield path
        if isinstance(value, (dict, list)):
            for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
                yield from paths(sub, (*path, key))

    return list(paths(json.loads(result_text)))[1:]


class _Trickle:
    """A text file whose ``read(n)`` returns at most ``most`` characters."""

    def __init__(self, data: bytes, most: int):
        self.fh, self.most = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), most

    def read(self, n: int = -1) -> str:
        return self.fh.read(self.most if n < 0 else min(n, self.most))


def _outcome(read):
    """What ``read()`` returns, or the class, ``field`` and JSON-ness of what it raises."""
    try:
        return read()
    except (BasketflexError, ValueError) as exc:
        return type(exc), getattr(exc, "field", None), "not valid JSON" in str(exc)


def _expected(data: bytes):
    """``result_from_dict`` of the parsed text, or what a text that is not JSON raises."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return BasketflexError, None, True
    return _outcome(lambda: analysis.result_from_dict(doc))


_VALUES = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats()
    | st.sampled_from(["", "x", "2020-13", " 2020-05", "2020-05", "basketflex.scenario_result/1"])
    | st.lists(st.integers(0, 1), max_size=2)
    | st.dictionaries(st.sampled_from(["food", "energy", ""]), st.floats(-1, 1), max_size=2)
)


def _dump(value, rnd, reorder: bool, duplicate: float, nl: str | None, level: int = 1) -> str:
    """JSON text of ``value``: members shuffled when ``reorder``, a member of an
    object repeated with a value of another type with probability ``duplicate``,
    on one line when ``nl`` is None, else indented with ``nl`` as line break."""
    pad, end = ("", "") if nl is None else (nl + "  " * level, nl + "  " * (level - 1))
    if isinstance(value, dict):
        items = list(value.items())
        if reorder:
            rnd.shuffle(items)
        if items and rnd.random() < duplicate:
            items.insert(rnd.randrange(len(items) + 1), (rnd.choice(items)[0], rnd.random()))
        members = [f"{pad}{json.dumps(k)}: {_dump(v, rnd, reorder, duplicate, nl, level + 1)}"
                   for k, v in items]
        return "{" + ",".join(members) + end + "}" if members else "{}"
    if isinstance(value, list):
        members = [pad + _dump(v, rnd, reorder, duplicate, nl, level + 1) for v in value]
        return "[" + ",".join(members) + end + "]" if members else "[]"
    return json.dumps(value)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_read_result_equals_the_whole_document_read(result_text, result_paths, data):
    """Mutated result texts, read 1, 7 or 4096 characters at a time, give what
    checking the parsed document gives: the same result, or the same error."""
    doc = json.loads(result_text)
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        *path, key = data.draw(st.sampled_from(result_paths), label="path")
        try:
            parent = doc
            for step in path:
                parent = parent[step]
            if data.draw(st.booleans(), label="drop"):
                del parent[key]
            else:
                parent[key] = data.draw(_VALUES, label="value")
        except (KeyError, IndexError, TypeError):  # an earlier edit removed the path
            pass
    layout = data.draw(st.sampled_from([None, "\n", "\r\n"]), label="line break")
    text = _dump(doc, data.draw(st.randoms(use_true_random=False)),
                 data.draw(st.booleans(), label="reorder"),
                 data.draw(st.sampled_from([0, 0.05, 0.5]), label="duplicate"), layout)
    raw = text.encode()
    if data.draw(st.booleans(), label="cut"):
        raw = raw[:data.draw(st.integers(0, len(raw)), label="cut at")]
    if data.draw(st.booleans(), label="bad byte"):
        at = data.draw(st.integers(0, len(raw)), label="bad byte at")
        raw = raw[:at] + b"\xff" + raw[at:]

    expected = _expected(raw)
    for most in (1, 7, 4096):
        assert _outcome(lambda: analysis.read_result(_Trickle(raw, most))) == expected, most
    bias_only = _outcome(lambda: analysis.read_result(_Trickle(raw, 4096), keep=("bias",)))
    if isinstance(expected, analysis.ScenarioResult):
        dropped = set(expected._fields) - {"config", "periods", "bias"}
        expected = expected._replace(**dict.fromkeys(dropped, ()))
    assert bias_only == expected


@pytest.mark.parametrize("change, field", [
    (lambda doc: doc.update(schema="other/1"), "schema"),
    (lambda doc: doc["config"].update(base_months="2020-01"), "config.base_months"),
])
def test_an_earlier_field_is_named_before_a_bad_bias_row_read_first(result_text, tmp_path,
                                                                     change, field):
    doc = json.loads(result_text)
    doc["bias"][0]["monthly_pp"] = "-0.1"
    change(doc)
    text = json.dumps(doc, indent=2)
    assert text.index('"bias"') < text.index('"config"') < text.index('"schema"')
    with pytest.raises(ResultFieldError) as caught:
        analysis.read_result(io.StringIO(text))
    assert caught.value.field == field
    path = tmp_path / "result.json"
    path.write_text(text)
    with pytest.raises(BasketflexError, match="not a scenario result file") as caught:
        cli._read_result(path)
    assert caught.value.field == field


def test_a_shape_error_is_named_before_an_earlier_value_type_error(result_text):
    doc = json.loads(result_text)
    first = doc["weights"]["official"][0]
    first["shares"] = {item: 2 * share for item, share in first["shares"].items()}
    doc["weights"]["adjusted"][1]["period"] = "2020-13"
    with pytest.raises(ResultFieldError) as caught:
        analysis.read_result(io.StringIO(json.dumps(doc)))
    assert caught.value.field == "weights.adjusted[1].period"
    del doc["weights"]["adjusted"][1]  # now only the sum of the first vector is wrong
    with pytest.raises(ValueError, match="sums to"):
        analysis.read_result(io.StringIO(json.dumps(doc)))


def test_a_syntax_error_after_a_bad_field_is_not_valid_json(result_text):
    doc = json.loads(result_text)
    doc["schema"] = "other/1"
    text = json.dumps(doc)
    with pytest.raises(BasketflexError, match="not valid JSON") as caught:
        analysis.read_result(io.StringIO(text[:-1]))
    assert not isinstance(caught.value, ResultFieldError)


@pytest.mark.parametrize("cut", [1, 2, -4, -3, -2, -1, 0])
@pytest.mark.parametrize("member", ["note", "monthly_pp"])
def test_a_number_cut_by_the_end_of_a_chunk_is_read_whole(result_text, tmp_path, member, cut):
    """A file whose first chunk ends ``cut`` characters into a number (counted from
    its end if negative, 0: just after it): the value of an unknown member of the
    document, decoded alone, or a number in a bias row, decoded with its row."""
    doc = json.loads(result_text)
    number = json.dumps(doc["bias"][0]["monthly_pp"])
    assert len(number) > 6 and "e-" in number
    text = json.dumps({"note": doc["bias"][0]["monthly_pp"], **doc}, separators=(",", ":"))
    start = text.index(f'"{member}":') + len(member) + 3
    assert text.startswith(number, start)
    at = cut % len(number) or len(number)
    text = text[:start] + " " * (analysis._CHUNK - start - at) + text[start:]
    path = tmp_path / "result.json"
    path.write_text(text)
    with open(path, encoding="utf-8") as fh:
        assert fh.read(analysis._CHUNK).endswith(number[:at])
        fh.seek(0)
        assert analysis.read_result(fh) == analysis.result_from_dict(json.loads(text))


def test_a_list_not_kept_is_still_checked(result_text):
    doc = json.loads(result_text)
    doc["series"]["core_adjusted"][2]["monthly_pct"] = "1.0"
    with pytest.raises(ResultFieldError) as caught:
        analysis.read_result(io.StringIO(json.dumps(doc)), keep=("bias",))
    assert caught.value.field == "series.core_adjusted[2].monthly_pct"
    doc = json.loads(result_text)
    doc["weights"]["adjusted"][0]["shares"] = {}
    with pytest.raises(BasketflexError, match="no items"):
        analysis.read_result(io.StringIO(json.dumps(doc)), keep=("bias",))


def test_reading_a_large_result_holds_a_fraction_of_its_text(tmp_path):
    """A 100-item, 72-month result: the reader holds a chunk and the bias rows."""
    economy = synth.SyntheticEconomySpec(
        items=tuple(synth.SyntheticItem(f"i{k:03d}") for k in range(100)), months=72,
        base_drifts={f"i{k:03d}": Decimal(1000 + k % 7) / 1000 for k in range(100)},
        max_records_per_month=1, seed=3)
    files = synth.generate(economy)
    for name in ("weights", "prices", "expenditures"):
        (tmp_path / f"{name}.csv").write_text(getattr(files, f"{name}_csv"))
    rules = "".join(f"  - {{target: i{k:03d}, kind: direct, source: i{k:03d}}}\n"
                    for k in range(100))
    (tmp_path / "crosswalk.yaml").write_text("rules:\n" + rules)
    cli.dispatch(["run", *(f"--{name}={tmp_path / name}.csv"
                           for name in ("weights", "prices", "expenditures")),
                  f"--crosswalk={tmp_path / 'crosswalk.yaml'}", "--base-months=2020-01,2020-02",
                  f"--out={tmp_path / 'run'}"])
    path = tmp_path / "run" / analysis.RESULT_JSON
    size = path.stat().st_size
    assert size >= 1_500_000
    cli._read_result(path)  # first-use allocations
    tracemalloc.start()
    try:
        result = cli._read_result(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.bias) == 71 and result.official == ()
    assert peak < size / 3, (peak, size)


def test_result_from_dict_reads_the_text_of_its_document(result_text):
    doc = json.loads(result_text)
    result = analysis.result_from_dict(copy.deepcopy(doc))
    assert result == analysis.read_result(io.StringIO(result_text))
    assert analysis.result_to_dict(result) == doc
