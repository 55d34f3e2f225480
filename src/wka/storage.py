"""Text serialization for weak Kac algebras and groupoid tables.

Structure files (format version 2) are JSON objects with the fields
format_version, block_shape, basis, coproduct, antipode, counit (null for
generalized data) and metadata.  Each tensor is a sparse table of rows
[indices..., re, im], one row per line, in lexicographic index order with
exact zeros omitted, so files are diffable and round-trip bit-identically.
A file that lists an index twice is rejected.  The coproduct table is read
into, and written from, the nonzeros that WeakKac stores, with no dense
d^3 array in between.
The block shape alone fixes the algebra's product and involution.  Version
1 files also stored them as mult and star tables; such files are still
read, and their tables must equal the canonical ones.  Loading performs
structural validation only (shapes, index ranges, finite values) and never
checks the weak Kac axioms, which is `verify`'s job.

Groupoid tables use a line-oriented format:

    morphisms: f g h
    units: f
    compose: f f -> f
    compose: g h -> f
    inverse: g -> h

Unlisted compositions are undefined; inverse lines are optional and
validated against the derived inverses when present.
"""

import itertools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import make_algebra
from .constructors import Groupoid
from .errors import IndexOutOfRange, ParseError
from .weakkac import WeakKac, _coalesce

__all__ = [
    "WkaFile",
    "serialize",
    "deserialize",
    "save_wka",
    "load_wka",
    "format_groupoid",
    "parse_groupoid",
]

FORMAT_VERSION = 2

_JSON_SAFE = (str, int, float, bool)


def _sparse(arr) -> list:
    """Rows [indices..., re, im] of the nonzero entries of an array, or of
    the entries (i, j, k, v) of a Coproduct, in index order."""
    *index, values = arr if isinstance(arr, tuple) else (*np.nonzero(arr), arr[np.nonzero(arr)])
    return np.stack([*index, values.real, values.imag], axis=1, dtype=object).tolist()


def _entries(rows, shape, what: str) -> tuple:
    """COO (index arrays, values) of an entry table, validated in one numpy
    pass over its cells; an error names the first bad or repeated entry."""
    if not isinstance(rows, list):
        raise ParseError(f"{what} must be a list of entry rows")
    ndim, width = len(shape), len(shape) + 2
    # the cells of the rows before the first one of the wrong form
    n = next((r for r, row in enumerate(rows) if not isinstance(row, list) or len(row) != width),
             len(rows))
    cells = np.fromiter(itertools.chain.from_iterable(rows[:n]), object, n * width)
    cells = cells.reshape(n, width)
    kind = np.frompyfunc(type, 1, 1)(cells)
    is_int = (kind == int) | (kind == bool)
    is_num = (is_int | (kind == float))[:, ndim:]
    idx = np.where(is_int[:, :ndim], cells[:, :ndim], -1)
    idx_ok = (idx >= 0) & (idx < np.array(shape))
    values = np.where(is_num, cells[:, ndim:], 0)
    # unlike math.isfinite, this also rejects ints too large for a float
    with np.errstate(invalid="ignore"):  # and NaN, which compares false
        finite = np.abs(values) <= sys.float_info.max
    bad = ~(idx_ok.all(axis=1) & is_num.all(axis=1) & finite.all(axis=1))
    # no row before the first bad one may repeat the indices of an earlier row
    stop = int(np.argmax(bad)) if bad.any() else n
    index = tuple(idx[:stop].astype(np.int64).T)
    _, first = np.unique(np.ravel_multi_index(index, shape), return_index=True)
    if first.size < stop:
        r = int(np.setdiff1d(np.arange(stop), first)[0])
        raise ParseError(f"{what} entry {r}: index {list(cells[r, :ndim])} is listed twice")
    if bad.any():
        r = stop
        if not idx_ok[r].all():
            axis = int(np.argmin(idx_ok[r]))
            raise IndexOutOfRange(
                f"{what} entry {r}: index {cells[r, axis]} out of range [0, {shape[axis]})"
            )
        if not is_num[r].all():
            raise ParseError(f"{what} entry {r}: re/im must be numbers")
        re, im = cells[r, ndim:]
        raise ParseError(f"{what} entry {r}: re/im must be finite, got {re!r}, {im!r}")
    if n < len(rows):
        raise ParseError(f"{what} entry {n}: expected {ndim} indices plus re, im, got {rows[n]!r}")
    # (re, im) pairs of float64 are complex128 values, signed zeros included
    return (*index, values.astype(float).view(complex)[:, 0])


def _dense(rows, shape, what: str) -> np.ndarray:
    """Dense array of an entry table (see _entries)."""
    *index, values = _entries(rows, shape, what)
    out = np.zeros(shape, dtype=complex)
    out[tuple(index)] = values
    return out


def _rows_text(rows) -> str:
    """JSON of an entry table with one row per line."""
    text = json.dumps(rows)
    return text if not rows else "[\n  " + text[1:-1].replace("], [", "],\n  [") + "\n ]"


@dataclass
class WkaFile:
    """Parsed structure file: block shape, basis labels and sparse tensors."""

    block_shape: tuple
    basis: list
    coproduct: list
    antipode: list
    counit: object  # list of rows, or None for generalized data
    metadata: dict = field(default_factory=dict)

    def to_text(self) -> str:
        fields = {
            "format_version": json.dumps(FORMAT_VERSION),
            "block_shape": json.dumps(list(self.block_shape)),
            "basis": json.dumps(list(self.basis)),
            **{k: _rows_text(getattr(self, k)) for k in ("coproduct", "antipode", "counit")},
            "metadata": json.dumps(self.metadata),
        }
        return "{\n" + ",\n".join(f' "{k}": {v}' for k, v in fields.items()) + "\n}\n"

    @classmethod
    def from_text(cls, text: str) -> "WkaFile":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ParseError("top level must be an object")
        required = ["format_version", "block_shape", "coproduct", "antipode"]
        if obj.get("format_version") == 1:
            required += ["mult", "star"]
        missing = [k for k in required if k not in obj]
        if missing:
            raise ParseError(f"missing fields: {', '.join(missing)}")
        if obj["format_version"] not in (1, FORMAT_VERSION):
            raise ParseError(f"unsupported format_version {obj['format_version']!r}")
        shape = obj["block_shape"]
        if (
            not isinstance(shape, list)
            or not shape
            or not all(isinstance(d, int) and d >= 1 for d in shape)
        ):
            raise ParseError("block_shape must be a nonempty list of positive integers")
        if obj["format_version"] == 1:  # its mult and star tables must be canonical
            alg = make_algebra(shape)  # 1 at each product triple and each (*a, a), else 0
            for key, ones in (("mult", alg.products), ("star", (alg.star_index, range(alg.dim)))):
                dims = (alg.dim,) * len(ones)
                *index, values = _entries(obj[key], dims, key)
                keys, values = _coalesce(np.ravel_multi_index(index, dims), values)
                canonical = np.sort(np.ravel_multi_index(ones, dims))
                if not np.array_equal(keys, canonical) or np.any(values != 1):
                    raise ParseError(f"{key} does not match the canonical algebra of block_shape")
        return cls(
            block_shape=tuple(shape),
            basis=obj.get("basis", []),
            coproduct=obj["coproduct"],
            antipode=obj["antipode"],
            counit=obj.get("counit"),
            metadata=obj.get("metadata", {}) or {},
        )


def serialize(w: WeakKac) -> WkaFile:
    """Sparse text form of a weak Kac algebra (or generalized: counit None)."""
    alg = w.algebra
    meta = {
        k: v
        for k, v in w.meta.items()
        if isinstance(v, _JSON_SAFE)
        or (isinstance(v, (list, tuple)) and all(isinstance(x, _JSON_SAFE) for x in v))
    }
    return WkaFile(
        block_shape=tuple(int(d) for d in alg.block_shape),
        basis=list(alg.labels),
        coproduct=_sparse(w.coproduct),
        antipode=_sparse(w.antipode),
        counit=None if w.counit is None else _sparse(w.counit),
        metadata=meta,
    )


def deserialize(f: WkaFile) -> WeakKac:
    """Rebuild the WeakKac from a parsed file, with structural validation.

    Checks the basis labels, index ranges and finiteness of every entry;
    does not verify the weak Kac axioms.
    """
    alg = make_algebra(f.block_shape)
    dim = alg.dim
    if f.basis and (len(f.basis) != dim or not all(isinstance(x, str) for x in f.basis)):
        raise ParseError(f"basis must list {dim} labels")
    coproduct = _entries(f.coproduct, (dim, dim, dim), "coproduct")
    antipode = _dense(f.antipode, (dim, dim), "antipode")
    counit = None if f.counit is None else _dense(f.counit, (dim,), "counit")
    return WeakKac(alg, coproduct, antipode, counit, dict(f.metadata))


def save_wka(w: WeakKac, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(w).to_text())


def load_wka(path) -> WeakKac:
    with open(path) as fh:
        return deserialize(WkaFile.from_text(fh.read()))


# ---------------------------------------------------------------------------
# groupoid tables
# ---------------------------------------------------------------------------


def format_groupoid(gpd: Groupoid) -> str:
    lines = [
        "morphisms: " + " ".join(gpd.labels),
        "units: " + " ".join(gpd.labels[u] for u in gpd.units),
    ]
    for g in range(gpd.size):
        for h in range(gpd.size):
            k = gpd.compose[g, h]
            if k >= 0:
                lines.append(f"compose: {gpd.labels[g]} {gpd.labels[h]} -> {gpd.labels[k]}")
    for g in range(gpd.size):
        lines.append(f"inverse: {gpd.labels[g]} -> {gpd.labels[gpd.inverse[g]]}")
    return "\n".join(lines) + "\n"


def parse_groupoid(text: str) -> Groupoid:
    """Parse the line-oriented groupoid table format (see module docstring)."""
    labels = None
    units = None
    compose_lines = []
    inverse_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {ln}: expected 'keyword: ...', got {raw!r}")
        key, rest = (part.strip() for part in line.split(":", 1))
        if key == "morphisms":
            labels = rest.split()
            if len(set(labels)) != len(labels) or not labels:
                raise ParseError(f"line {ln}: morphism labels must be distinct and nonempty")
        elif key == "units":
            units = rest.split()
        elif key == "compose":
            parts = rest.split("->")
            lhs = parts[0].split() if parts else []
            if len(parts) != 2 or len(lhs) != 2 or len(parts[1].split()) != 1:
                raise ParseError(f"line {ln}: expected 'compose: x y -> z'")
            compose_lines.append((ln, lhs[0], lhs[1], parts[1].split()[0]))
        elif key == "inverse":
            parts = rest.split("->")
            if len(parts) != 2 or len(parts[0].split()) != 1 or len(parts[1].split()) != 1:
                raise ParseError(f"line {ln}: expected 'inverse: x -> y'")
            inverse_lines.append((ln, parts[0].split()[0], parts[1].split()[0]))
        else:
            raise ParseError(f"line {ln}: unknown keyword {key!r}")
    if labels is None:
        raise ParseError("missing 'morphisms:' header")
    if units is None:
        raise ParseError("missing 'units:' header")
    index = {lab: i for i, lab in enumerate(labels)}

    def look(ln, lab):
        if lab not in index:
            raise ParseError(f"line {ln}: unknown morphism {lab!r}")
        return index[lab]

    for u in units:
        if u not in index:
            raise ParseError(f"unknown unit {u!r}")
    n = len(labels)
    comp = np.full((n, n), -1, dtype=int)
    for ln, x, y, z in compose_lines:
        g, h, k = look(ln, x), look(ln, y), look(ln, z)
        if comp[g, h] not in (-1, k):
            raise ParseError(f"line {ln}: conflicting composition for {x} {y}")
        comp[g, h] = k
    gpd = Groupoid(comp, [index[u] for u in units], labels=labels)
    for ln, x, y in inverse_lines:
        g, h = look(ln, x), look(ln, y)
        if gpd.inverse[g] != h:
            raise ParseError(
                f"line {ln}: inverse of {x} is {labels[gpd.inverse[g]]}, not {y}"
            )
    return gpd
