"""Exact JSON encodings: no floats, lossless round trips, stable digests."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vclab import (
    Box,
    ParseError,
    PointSet,
    boxes,
    canonical_dumps,
    carve,
    cubes,
    digest,
    format_mask,
    load_point_set,
    loads_exact,
    make_report,
    origin_anchored,
    parse_mask,
    point_set_from_json,
    point_set_to_json,
    save_point_set,
)
from vclab import serialize as serialize_module
from vclab.scalars import NEG_INF, POS_INF
from vclab.serialize import (
    SCHEMA_VERSION,
    box_from_json,
    box_to_json,
    concept_from_json,
    concept_to_json,
    descriptor_from_json,
    descriptor_to_json,
    extended_from_json,
    extended_to_json,
    mask_indices,
    pretty_dumps,
    scalar_from_json,
    scalar_to_json,
    witness_to_json,
)

from conftest import point_sets

rationals = st.fractions(min_value=-99, max_value=99, max_denominator=16)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


@given(rationals)
def test_scalar_json_round_trip(x):
    assert scalar_from_json(scalar_to_json(x)) == x


def test_scalar_json_forms():
    assert scalar_to_json(3) == 3
    assert scalar_to_json(Fraction(1, 2)) == "1/2"
    assert scalar_from_json("−3".replace("−", "-")) == -3
    with pytest.raises(ParseError):
        scalar_from_json(True)
    with pytest.raises(ParseError):
        scalar_from_json(1.5)
    with pytest.raises(ParseError):
        scalar_from_json("0.5")


def test_extended_json_infinities():
    assert extended_to_json(POS_INF) == "inf"
    assert extended_to_json(NEG_INF) == "-inf"
    assert extended_from_json("inf") is POS_INF
    assert extended_from_json("+inf") is POS_INF
    assert extended_from_json("-inf") is NEG_INF
    assert extended_from_json("7/2") == Fraction(7, 2)


def test_loads_exact_rejects_floats():
    assert loads_exact('{"a": 3}') == {"a": 3}
    with pytest.raises(ParseError):
        loads_exact('{"a": 0.5}')
    with pytest.raises(ParseError):
        loads_exact("[1e3]")
    with pytest.raises(ParseError):
        loads_exact("[NaN]")


# ---------------------------------------------------------------------------
# point sets and files
# ---------------------------------------------------------------------------


@given(point_sets(max_dim=3, max_n=5))
def test_point_set_json_round_trip(ps):
    assert point_set_from_json(point_set_to_json(ps)) == ps


def test_point_set_file_round_trip(tmp_path):
    ps = PointSet.of([(Fraction(1, 3), -2), (5, Fraction(-7, 2))])
    path = tmp_path / "pts.json"
    save_point_set(str(path), ps)
    assert load_point_set(str(path)) == ps
    text = path.read_text()
    assert "0.3" not in text and "1/3" in text


def test_point_set_file_is_json_dump_with_two_space_indent(tmp_path):
    ps = PointSet.of([(Fraction(1, 3), -2), (5, Fraction(-7, 2)), (0, 0)])
    path = tmp_path / "pts.json"
    save_point_set(str(path), ps)
    want = json.dumps(point_set_to_json(ps), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_point_set_json_infers_dim():
    ps = point_set_from_json({"points": [[1, 2], [3, 4]]})
    assert ps.dim == 2
    with pytest.raises(ParseError):
        point_set_from_json({"dim": 3, "points": [[1, 2]]})
    with pytest.raises(ParseError):
        point_set_from_json({"points": []})
    with pytest.raises(ParseError):
        point_set_from_json({"dim": True, "points": [[0], [1]]})


def test_point_set_json_reports_only_refusals_as_parse_errors(monkeypatch):
    # a duplicate point is a file-content error; a fault inside PointSet is not
    with pytest.raises(ParseError, match="duplicate points rejected"):
        point_set_from_json({"points": [[1, 2], [1, 2]]})

    def faulty(dim, points):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(serialize_module, "PointSet", faulty)
    with pytest.raises(RuntimeError, match="internal fault"):
        point_set_from_json({"points": [[1, 2], [3, 4]]})


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=10), st.data())
def test_mask_round_trip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert parse_mask(format_mask(mask, n), n) == mask
    assert parse_mask(mask_indices(mask, n), n) == mask


def test_mask_is_little_endian():
    assert format_mask(0b011, 3) == "110"  # bit i rendered at string position i
    assert parse_mask("110", 3) == 0b011
    assert parse_mask("001", 3) == 0b100


def test_mask_accepts_index_lists():
    assert parse_mask("[0, 2]", 3) == 0b101
    assert parse_mask("{1}", 3) == 0b010
    assert parse_mask("0 2", 3) == 0b101
    assert parse_mask([], 3) == 0


def test_mask_errors():
    with pytest.raises(ParseError):
        parse_mask("1011", 3)  # wrong width
    with pytest.raises(ParseError):
        parse_mask("[3]", 3)  # index out of range
    with pytest.raises(ParseError):
        parse_mask("abc", 3)


# ---------------------------------------------------------------------------
# concepts, witnesses, descriptors
# ---------------------------------------------------------------------------


def test_box_json_round_trip():
    b = Box.from_bounds([NEG_INF, Fraction(1, 2)], [3, POS_INF])
    again = box_from_json(box_to_json(b))
    assert [(iv.lo, iv.hi) for iv in again.intervals] == [
        (iv.lo, iv.hi) for iv in b.intervals
    ]


def test_concept_json_round_trip_all_kinds():
    ps = PointSet.of([(0, 0), (3, 0)])
    for desc in (boxes(2), cubes(2), origin_anchored(2)):
        w = carve(ps, 0b01, desc)
        assert w is not None
        encoded = concept_to_json(w.concept)
        decoded = concept_from_json(encoded)
        for p in [(0, 0), (3, 0), (1, 1)]:
            assert decoded.contains(p) == w.concept.contains(p)


def test_descriptor_json_round_trip():
    for desc in (boxes(3), boxes(2, nondegenerate=True), cubes(1), origin_anchored(2)):
        again = descriptor_from_json(descriptor_to_json(desc))
        assert again == desc


@pytest.mark.parametrize(
    "data",
    [
        {"type": "box"},
        {"type": "box", "intervals": 5},
        {"type": "cube", "radius": 1},
        {"type": "cube", "center": 0, "radius": 1},
        {"type": "cube", "center": [0]},
        {"type": "cut", "threshold": 0},
        {"type": "cut", "axis": "0", "threshold": 0},
        {"type": "cut", "axis": True, "threshold": 0},
    ],
)
def test_concept_json_missing_or_ill_typed_field_is_a_parse_error(data):
    with pytest.raises(ParseError):
        concept_from_json(data)


def test_descriptor_json_rejects_missing_or_boolean_dim():
    with pytest.raises(ParseError):
        descriptor_from_json({"kind": "boxes"})
    with pytest.raises(ParseError):
        descriptor_from_json({"kind": "boxes", "dim": True})


def test_witness_json_embeds_mask_both_ways():
    ps = PointSet.of([(0,), (1,)])
    w = carve(ps, 0b10, boxes(1))
    data = witness_to_json(w, 2)
    assert data["mask"] == format_mask(0b10, 2)
    assert data["mask_indices"] == [1]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b
    assert digest({"b": 1, "a": [1, 2]}) == digest({"a": [1, 2], "b": 1})
    assert digest({}).startswith("sha256:")


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


def _indented(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@given(json_values)
def test_pretty_dumps_is_json_dumps_with_two_space_indent(obj):
    assert pretty_dumps(obj) == _indented(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, []], "d": [[[]], {"e": {}}]},
        (1, (2, ()), [3, ("x",)]),
        {"t": True, "one": 1, "list": [True, 1, False, 0, None]},
        1.5,
        {"wall_time": 0.1 + 0.2, "big": 1e300, "small": -2.5e-08},
        'quote " newline \n accent \u00e9 space \u00a0 tab \t',
        {'k"\n\u00e9\u00a0': ['"', "\n", "\u00e9", "\u00a0"]},
        {"b": 2, "a": 1, "B": 3, "": 0},
    ],
)
def test_pretty_dumps_edge_shapes(obj):
    assert pretty_dumps(obj) == _indented(obj)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 3), {1, 2}, {1: "int key"}, {"a": [Fraction(1, 2)]}, {"a": {"b": {2}}}],
)
def test_pretty_dumps_refuses_values_outside_json(obj):
    with pytest.raises(TypeError):
        pretty_dumps(obj)


def test_make_report_envelope():
    rep = make_report(
        "carve",
        {"feasible": True},
        descriptor=boxes(2),
        inputs={"x": 1},
        seed=7,
        wall_time=0.25,
    )
    assert rep["schema_version"] == SCHEMA_VERSION == 1
    assert rep["tool"] == "vclab"
    assert rep["command"] == "carve"
    assert rep["result"] == {"feasible": True}
    assert rep["seed"] == 7
    assert rep["inputs_digest"].startswith("sha256:")
    assert "wall_time" not in rep["result"]
    assert rep["class"]["kind"] == "boxes"
