"""Finite-dimensional quantum groupoids (weak Kac algebras) by structure constants."""

from types import ModuleType as _ModuleType

from .tensorkit import Tolerance, rank_factorization, solve_affine_space
from .report import CheckResult, VerificationReport
from .algebra import (
    AlgElement,
    FdAlgebra,
    Functional,
    StarAlgebraData,
    SubalgebraBasis,
    WedderburnRealization,
    block_trace,
    center,
    check_conditional_expectation,
    commutant,
    make_algebra,
    minimal_central_projections,
    regular_trace,
    wedderburn_realize,
)
from .weakkac import (
    CartanPair,
    WeakKac,
    cartan_subalgebras,
    check_kac_bimodule,
    check_morphism,
    counital_maps,
    decompose_if_split,
    hyper_center,
    restrict_to_blocks,
    verify_weak_kac,
)
from .constructors import (
    Group,
    GroupAction,
    Groupoid,
    crossed_product,
    cube_family,
    cyclic_groupoid,
    cyclic_shift_action,
    direct_sum,
    disjoint_union,
    dual_elementary,
    elementary,
    elementary_twist,
    groupoid_algebra,
    groupoid_function_algebra,
    pair_groupoid,
    random_cocycle,
    untwist_isomorphism,
)
from .haar import (
    check_generalized_kac,
    check_haar_projection,
    check_normalized_haar_trace,
    haar_conditional_expectations,
    haar_projection,
    haar_trace_cone,
    normalized_haar_trace,
)
from .duality import (
    biduality_isomorphism,
    check_pairing,
    convolution_unit,
    counit_from_haar,
    dual,
    dual_element,
    dual_functional,
    generalized_to_weak,
    groupoid_dual_isomorphisms,
)
from .fusion import (
    CounitalRepresentation,
    FusionRing,
    counital_quotient,
    counital_representation,
    dual_fusion_consistency,
    fusion_ring,
)
from .catalog import CatalogEntry, build_named, catalog
from .storage import (
    WkaFile,
    deserialize,
    format_groupoid,
    load_wka,
    parse_groupoid,
    save_wka,
    serialize,
)

# the public names are those imported above, not the submodules
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
