"""Named constructor registry and the standard example catalog.

The catalog is the fixed family of weak Kac algebras the test suite and
the report tooling exercise: group and function algebras of five small
groupoids, the elementary algebras M(A) and their duals for five
multimatrix shapes, the cube family at n = 2, 3, 4, crossed products by
cyclic shifts, duals of all of the above, and five random cocycle
twists.  Entries are lazy so expensive duals are only built on demand.
"""

from dataclasses import dataclass

from .constructors import (
    crossed_product,
    cube_family,
    cyclic_groupoid,
    cyclic_shift_action,
    disjoint_union,
    dual_elementary,
    elementary,
    elementary_twist,
    groupoid_algebra,
    groupoid_function_algebra,
    pair_groupoid,
    random_cocycle,
)
from .weakkac import WeakKac

__all__ = [
    "CatalogEntry",
    "GROUPOIDS",
    "ELEMENTARY_SHAPES",
    "TWIST_SPECS",
    "catalog",
    "named_groupoid",
    "build_named",
    "CONSTRUCTOR_NAMES",
]

# the five standard groupoids: two cyclic groups, two principal
# groupoids, and a disconnected one with two units
GROUPOIDS = {
    "z2": lambda: cyclic_groupoid(2),
    "z3": lambda: cyclic_groupoid(3),
    "k2": lambda: pair_groupoid(2),
    "k3": lambda: pair_groupoid(3),
    "disc": lambda: disjoint_union(cyclic_groupoid(2), cyclic_groupoid(1)),
}

# multimatrix shapes A for the elementary algebras M(A) and their duals
ELEMENTARY_SHAPES = ((1,), (1, 1), (1, 1, 1), (1, 2), (2,))

# five random twists: (shape of A, cocycle seed); shapes need >= 2
# Cartan blocks for a nontrivial cocycle
TWIST_SPECS = (
    ((1, 1), 101),
    ((1, 2), 102),
    ((1, 1, 1), 103),
    ((1, 1), 104),
    ((1, 1, 2), 105),
)


@dataclass
class CatalogEntry:
    name: str
    build: object  # () -> WeakKac


def _shape_tag(shape) -> str:
    return ",".join(str(d) for d in shape)


def _dual_of(entry: CatalogEntry) -> CatalogEntry:
    from .duality import dual

    return CatalogEntry(f"dual({entry.name})", lambda e=entry: dual(e.build()))


def catalog(include_duals: bool = True, include_twists: bool = True) -> list:
    """The standard catalog as a list of lazy CatalogEntry items."""
    entries = []
    for gname, gbuild in GROUPOIDS.items():
        entries.append(
            CatalogEntry(f"group-algebra[{gname}]", lambda b=gbuild: groupoid_algebra(b()))
        )
        entries.append(
            CatalogEntry(
                f"function-algebra[{gname}]", lambda b=gbuild: groupoid_function_algebra(b())
            )
        )
    for shape in ELEMENTARY_SHAPES:
        entries.append(
            CatalogEntry(f"elementary[{_shape_tag(shape)}]", lambda s=shape: elementary(s))
        )
    for shape in ELEMENTARY_SHAPES:
        entries.append(
            CatalogEntry(
                f"dual-elementary[{_shape_tag(shape)}]", lambda s=shape: dual_elementary(s)
            )
        )
    for n in (2, 3, 4):
        entries.append(CatalogEntry(f"cube-family[{n}]", lambda m=n: cube_family(m)))
    for n in (2, 3):
        entries.append(
            CatalogEntry(f"crossed[{n}]", lambda m=n: crossed_product(*cyclic_shift_action(m)))
        )
    if include_duals:
        entries = entries + [_dual_of(e) for e in entries]
    if include_twists:
        for shape, seed in TWIST_SPECS:
            entries.append(
                CatalogEntry(
                    f"twist[{_shape_tag(shape)};seed={seed}]",
                    lambda s=shape, z=seed: elementary_twist(
                        elementary(s), random_cocycle(len(s), seed=z)
                    ),
                )
            )
    return entries


def named_groupoid(token: str):
    """Resolve a groupoid name from the registry, or None if unknown."""
    builder = GROUPOIDS.get(token.lower())
    return builder() if builder is not None else None


def _parse_shape(token: str):
    try:
        shape = tuple(int(p) for p in token.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {token!r}") from None
    if not shape or any(d < 1 for d in shape):
        raise ValueError(f"shape entries must be positive, got {token!r}")
    return shape


def _groupoid_from_token(token: str):
    gpd = named_groupoid(token)
    if gpd is not None:
        return gpd
    from pathlib import Path

    from .storage import parse_groupoid

    path = Path(token)
    if path.exists():
        return parse_groupoid(path.read_text())
    known = ", ".join(sorted(GROUPOIDS))
    raise ValueError(f"unknown groupoid {token!r}: expected one of {known} or a table file")


def build_named(constructor: str, params: list) -> WeakKac:
    """Build a catalog algebra from a constructor name and string params.

    Raises ValueError on unknown constructors or malformed params.
    """
    name = constructor.lower()

    def arity(k):
        if len(params) != k:
            raise ValueError(f"{constructor} takes {k} parameter(s), got {len(params)}")

    if name in ("group-algebra", "function-algebra"):
        arity(1)
        gpd = _groupoid_from_token(params[0])
        build = groupoid_algebra if name == "group-algebra" else groupoid_function_algebra
        return build(gpd)
    if name in ("elementary", "dual-elementary"):
        arity(1)
        shape = _parse_shape(params[0])
        return elementary(shape) if name == "elementary" else dual_elementary(shape)
    if name == "cube-family":
        arity(1)
        return cube_family(int(params[0]))
    if name == "crossed":
        arity(1)
        return crossed_product(*cyclic_shift_action(int(params[0])))
    if name == "twist":
        if len(params) not in (1, 2):
            raise ValueError("twist takes a shape and an optional seed")
        shape = _parse_shape(params[0])
        seed = int(params[1]) if len(params) == 2 else 0
        return elementary_twist(elementary(shape), random_cocycle(len(shape), seed=seed))
    known = ", ".join(CONSTRUCTOR_NAMES)
    raise ValueError(f"unknown constructor {constructor!r}: expected one of {known}")


CONSTRUCTOR_NAMES = (
    "group-algebra",
    "function-algebra",
    "elementary",
    "dual-elementary",
    "cube-family",
    "crossed",
    "twist",
)
