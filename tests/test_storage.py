"""Text serialization of structures and groupoid tables."""

import json
import random
import sys

import numpy as np
import pytest

from wka import (
    WeakKac,
    catalog,
    cube_family,
    cyclic_groupoid,
    disjoint_union,
    pair_groupoid,
    storage,
    verify_weak_kac,
)
from wka.errors import IndexOutOfRange, ParseError
from wka.storage import (
    WkaFile,
    deserialize,
    format_groupoid,
    load_wka,
    parse_groupoid,
    save_wka,
    serialize,
)

from conftest import dense_coproduct, get_example, mult_tensor


# ---------------------------------------------------------------------------
# structure files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fun_k2", "cube2", "elem_12", "group_z3", "twist_11"])
def test_round_trip_is_bit_identical(name):
    w = get_example(name)
    text = serialize(w).to_text()
    again = serialize(deserialize(WkaFile.from_text(text))).to_text()
    assert text == again


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_catalog_round_trip_is_exact(entry, tmp_path):
    w = entry.build()
    first, second = tmp_path / "first.wka", tmp_path / "second.wka"
    save_wka(w, first)
    w2 = load_wka(first)
    for name in ("coproduct", "antipode", "counit"):
        assert np.array_equal(getattr(w2, name), getattr(w, name)), name
    save_wka(w2, second)
    assert second.read_text() == first.read_text()


def test_file_holds_no_algebra_tables_and_one_entry_row_per_line():
    text = serialize(get_example("cube2")).to_text()
    obj = json.loads(text)
    assert obj["format_version"] == 2
    assert set(obj) == {
        "format_version", "block_shape", "basis", "coproduct", "antipode", "counit", "metadata"
    }
    entries = sum(len(obj[k]) for k in ("coproduct", "antipode", "counit"))
    rows = [json.loads(line.rstrip(",")) for line in text.splitlines() if line.startswith("  [")]
    assert len(rows) == entries
    assert rows == obj["coproduct"] + obj["antipode"] + obj["counit"]


def _table_rows(arr):
    """Entry rows of an array, written without the codec."""
    return [
        [*map(int, idx), float(arr[tuple(idx)].real), float(arr[tuple(idx)].imag)]
        for idx in np.argwhere(arr != 0)
    ]


def test_entry_rows_match_a_per_entry_loop():
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    arr[rng.random(arr.shape) < 0.5] = 0.0
    arr[0, 0, 0], arr[1, 2, 3], arr[3, 1, 4] = -0.0, complex(-0.0, 2.5), complex(1.5, -0.0)
    rows = storage._sparse(arr)
    # json text tells -0.0 from 0.0, which == does not
    assert json.dumps(rows) == json.dumps(_table_rows(arr))
    assert [type(x) for x in rows[0]] == [int, int, int, float, float]
    dense = storage._dense(rows, arr.shape, "t")
    assert np.array_equal(dense, arr)
    assert json.dumps(storage._sparse(dense)) == json.dumps(rows)


def _dense_by_loop(rows, shape, what):
    """Reference for storage._dense: each row checked and written in turn."""
    if not isinstance(rows, list):
        raise ParseError(f"{what} must be a list of entry rows")
    ndim = len(shape)
    out = np.zeros(shape, dtype=complex)
    seen = set()
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ndim + 2:
            raise ParseError(f"{what} entry {r}: expected {ndim} indices plus re, im, got {row!r}")
        idx, (re, im) = row[:ndim], row[ndim:]
        for axis, i in enumerate(idx):
            if not isinstance(i, int) or not 0 <= i < shape[axis]:
                raise IndexOutOfRange(f"{what} entry {r}: index {i} out of range [0, {shape[axis]})")
        if not all(isinstance(x, (int, float)) for x in (re, im)):
            raise ParseError(f"{what} entry {r}: re/im must be numbers")
        if not (abs(re) <= sys.float_info.max and abs(im) <= sys.float_info.max):
            raise ParseError(f"{what} entry {r}: re/im must be finite, got {re!r}, {im!r}")
        if tuple(idx) in seen:
            raise ParseError(f"{what} entry {r}: index {idx} is listed twice")
        seen.add(tuple(idx))
        out[tuple(int(i) for i in idx)] = complex(re, im)
    return out


def _outcome(f, rows, shape):
    try:
        return "ok", f(rows, shape, "t").tobytes()
    except (ParseError, IndexOutOfRange) as exc:
        return type(exc).__name__, str(exc)


def test_entry_tables_are_read_as_by_a_per_entry_loop():
    """Accepted tables give bit-identical arrays, rejected ones the same
    error for the same first bad row, over tables with hostile cells."""
    rng = random.Random(3)
    hostile = [-1, 7, True, False, 1.0, -0.0, float("nan"), float("inf"), 10**400, 10**30,
               "a", None, [1], {}]
    outcomes = set()
    for _ in range(400):
        shape = rng.choice([(3,), (3, 4), (2, 3, 2)])
        rows = []
        for _ in range(rng.randint(0, 5)):
            row = [rng.randrange(d) for d in shape] + [rng.uniform(-2, 2), rng.choice([0.0, -0.0, 0.5])]
            if rng.random() < 0.3:
                row[rng.randrange(len(row))] = rng.choice(hostile)
            if rng.random() < 0.05:
                row = rng.choice([row[:-1], row + [0.0], 5, "abcde", None])
            rows.append(row)
        expected = _outcome(_dense_by_loop, rows, shape)
        assert _outcome(storage._dense, rows, shape) == expected, rows
        message = "" if expected[0] == "ok" else expected[1]
        kinds = ("twice", "expected", "index", "numbers", "finite")
        outcomes.add(next((k for k in kinds if k in message), "ok"))
    assert len(outcomes) == 6, outcomes  # accepted, and each of the five row errors


def _version_1(w) -> dict:
    """A version 1 file: the version 2 fields plus the canonical tables."""
    obj = json.loads(serialize(w).to_text())
    obj["format_version"] = 1
    obj["mult"] = _table_rows(mult_tensor(w.algebra))
    obj["star"] = _table_rows(w.algebra.star_matrix)
    return obj


@pytest.mark.parametrize("name", ["fun_k2", "cube2", "group_z3", "twist_11"])
def test_version_1_file_loads_to_identical_arrays(name):
    w = get_example(name)
    w1 = deserialize(WkaFile.from_text(json.dumps(_version_1(w), indent=1)))
    for key in ("coproduct", "antipode", "counit"):
        assert np.array_equal(getattr(w1, key), getattr(w, key)), key
    assert serialize(w1).to_text() == serialize(w).to_text()


def test_version_1_file_needs_its_tables():
    obj = _version_1(get_example("fun_z2"))
    del obj["star"]
    with pytest.raises(ParseError, match="missing fields: star"):
        WkaFile.from_text(json.dumps(obj))


def test_round_trip_preserves_structure(tmp_path):
    w = get_example("cube2")
    path = tmp_path / "c2.wka"
    save_wka(w, path)
    w2 = load_wka(path)
    assert np.abs(dense_coproduct(w2) - dense_coproduct(w)).max() == 0.0
    assert np.abs(w2.antipode - w.antipode).max() == 0.0
    assert np.abs(w2.counit - w.counit).max() == 0.0
    assert tuple(w2.algebra.block_shape) == tuple(w.algebra.block_shape)
    assert verify_weak_kac(w2).passed


def test_cube2_coproduct_has_16_nonzeros():
    f = serialize(cube_family(2))
    assert len(f.coproduct) == 16
    # each row is [c, a, b, re, im] with exact entries
    for row in f.coproduct:
        assert len(row) == 5
        assert row[3] == 1.0 and row[4] == 0.0


def test_counit_free_round_trip():
    w = get_example("cube2")
    gen = WeakKac(w.algebra, w.coproduct, w.antipode, None, {"name": "stripped"})
    text = serialize(gen).to_text()
    w2 = deserialize(WkaFile.from_text(text))
    assert w2.counit is None
    assert np.abs(dense_coproduct(w2) - dense_coproduct(w)).max() == 0.0


def test_reject_bad_json():
    with pytest.raises(ParseError, match="line"):
        WkaFile.from_text("{not json]")


def test_reject_missing_fields():
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    del obj["antipode"]
    with pytest.raises(ParseError, match="missing fields: antipode"):
        WkaFile.from_text(json.dumps(obj))


def test_reject_unknown_version():
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    obj["format_version"] = 99
    with pytest.raises(ParseError, match="format_version"):
        WkaFile.from_text(json.dumps(obj))


def test_reject_wrong_row_length():
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    obj["coproduct"][0] = obj["coproduct"][0][:-1]
    with pytest.raises(ParseError):
        deserialize(WkaFile.from_text(json.dumps(obj)))


def test_reject_out_of_range_index():
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    obj["coproduct"][0][0] = 99
    with pytest.raises(IndexOutOfRange):
        deserialize(WkaFile.from_text(json.dumps(obj)))


def test_reject_tampered_mult_table():
    obj = _version_1(get_example("fun_z2"))
    obj["mult"][0][-2] = 2.0
    with pytest.raises(ParseError, match="mult does not match"):
        deserialize(WkaFile.from_text(json.dumps(obj)))


V1_TABLE_EDITS = {  # each edit of the rows of a table, given a position where it is 0
    "reordered": lambda rows, zero: rows[::-1],
    "signed_zero_imag": lambda rows, zero: [[*r[:-1], -0.0] for r in rows],
    "explicit_zero": lambda rows, zero: rows + [[*zero, 0.0, -0.0]],
    "dropped": lambda rows, zero: rows[1:],
    "extra_one": lambda rows, zero: rows + [[*zero, 1.0, 0.0]],
    "imaginary_part": lambda rows, zero: [[*rows[0][:-1], 1e-300]] + rows[1:],
}


@pytest.mark.parametrize("edit", V1_TABLE_EDITS)
@pytest.mark.parametrize("key", ["mult", "star"])
def test_version_1_tables_are_compared_as_dense_tables(key, edit):
    """The reader compares the entries of a version 1 table with the
    canonical nonzeros; it accepts exactly the tables whose dense array is
    the canonical one."""
    w = get_example("cube2")
    alg, obj = w.algebra, _version_1(w)
    canonical = mult_tensor(alg) if key == "mult" else alg.star_matrix
    zero = [int(i) for i in np.argwhere(canonical == 0)[0]]
    obj[key] = V1_TABLE_EDITS[edit](obj[key], zero)
    dense = np.zeros(canonical.shape, dtype=complex)
    for *index, re, im in obj[key]:
        dense[tuple(index)] = complex(re, im)
    if np.array_equal(dense, canonical):
        assert WkaFile.from_text(json.dumps(obj)).block_shape == alg.block_shape
    else:
        with pytest.raises(ParseError, match=f"{key} does not match"):
            WkaFile.from_text(json.dumps(obj))


def test_reject_tampered_star_table():
    obj = _version_1(get_example("cube2"))
    obj["star"][1][-1] = 1.0
    with pytest.raises(ParseError, match="star does not match"):
        WkaFile.from_text(json.dumps(obj))


@pytest.mark.parametrize(
    "tensor, value",
    [("coproduct", float("nan")), ("antipode", -float("inf")), ("counit", 10**400)],
)
def test_reject_non_finite_entry(tensor, value):
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    obj[tensor][0][-2] = value
    with pytest.raises(ParseError, match=f"{tensor} entry 0: re/im must be finite"):
        deserialize(WkaFile.from_text(json.dumps(obj)))


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("tensor", ["coproduct", "antipode", "counit"])
def test_reject_repeated_entry(version, tensor):
    """An index listed twice fails with the row of the repeat, whichever
    value it carries; files written by save_wka list each index once."""
    w = get_example("fun_k2")
    obj = _version_1(w) if version == 1 else json.loads(serialize(w).to_text())
    first = obj[tensor][0]
    obj[tensor].insert(2, first[:-2] + [first[-2] + 1.0, 0.0])
    pattern = rf"{tensor} entry 2: index \[.*\] is listed twice"
    with pytest.raises(ParseError, match=pattern):
        deserialize(WkaFile.from_text(json.dumps(obj)))


def test_reject_entry_table_that_is_not_a_list():
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    obj["antipode"] = 3
    with pytest.raises(ParseError, match="antipode must be a list"):
        deserialize(WkaFile.from_text(json.dumps(obj)))


def test_reject_bad_block_shape():
    obj = json.loads(serialize(get_example("fun_z2")).to_text())
    obj["block_shape"] = [0]
    with pytest.raises(ParseError, match="block_shape"):
        WkaFile.from_text(json.dumps(obj))


# ---------------------------------------------------------------------------
# groupoid tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gpd",
    [
        pair_groupoid(2),
        pair_groupoid(3),
        cyclic_groupoid(4),
        disjoint_union(cyclic_groupoid(2), pair_groupoid(2)),
    ],
)
def test_groupoid_table_round_trip(gpd):
    text = format_groupoid(gpd)
    g2 = parse_groupoid(text)
    assert (g2.compose == gpd.compose).all()
    assert g2.units == gpd.units
    assert g2.labels == gpd.labels


def test_groupoid_table_with_comments():
    text = "\n".join(
        [
            "# the group Z/2",
            "morphisms: e g",
            "units: e",
            "",
            "compose: e e -> e",
            "compose: e g -> g  # redundant but allowed",
            "compose: g e -> g",
            "compose: g g -> e",
        ]
    )
    g = parse_groupoid(text)
    assert g.is_group()
    assert g.size == 2


def test_groupoid_parse_errors():
    with pytest.raises(ParseError, match="morphisms"):
        parse_groupoid("units: e")
    with pytest.raises(ParseError, match="unknown keyword"):
        parse_groupoid("morphisms: e\nunits: e\nfrobnicate: e")
    with pytest.raises(ParseError, match="unknown morphism"):
        parse_groupoid("morphisms: e\nunits: e\ncompose: e x -> e")
    with pytest.raises(ParseError, match="conflicting"):
        parse_groupoid(
            "morphisms: e g\nunits: e\n"
            "compose: e e -> e\ncompose: e g -> g\ncompose: g e -> g\n"
            "compose: g g -> e\ncompose: g g -> g"
        )
    with pytest.raises(ParseError, match="distinct"):
        parse_groupoid("morphisms: e e\nunits: e")
    with pytest.raises(ParseError, match="inverse"):
        parse_groupoid(
            "morphisms: e g\nunits: e\n"
            "compose: e e -> e\ncompose: e g -> g\ncompose: g e -> g\n"
            "compose: g g -> e\ninverse: g -> e"
        )
