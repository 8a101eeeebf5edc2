"""Finite pseudo-ordered sets, trellises and their triangular norms."""

from . import errors, fixtures, reproduction
from .bruteforce import bruteforce_candidate_count, bruteforce_tnorms
from .fileformat import (
    PsosetDocument,
    document_psoset,
    document_trellis,
    export_dot,
    make_document,
)
from .elements import (
    ALPHAS,
    ElementClassification,
    classify,
    iterated_join,
    iterated_meet,
    right_transitive_set,
    subset,
)
from .enumeration import (
    EnumerationResult,
    enumerate_tnorms,
    greatest_tnorm,
    is_maximal_tnorm,
    order_diagram,
)
from .generators import random_bounded_psoset, random_pseudo_chain, random_trellis
from .interior import (
    InteriorReport,
    UnaryMap,
    interior_from_subset,
    interior_range,
    validate_interior,
)
from .relation import (
    HasseDiagram,
    Psoset,
    co_atoms,
    down_set,
    hasse,
    is_cycle,
    is_pseudo_chain,
    maximal_cycles,
    reachable,
    restricted_reachable,
    up_set,
    validate_psoset,
)
from .tnorms import (
    BinaryOpTable,
    TnormReport,
    check,
    join_cover_condition,
    join_cover_witness,
    join_op,
    make_op,
    meet_op,
    pointwise_leq,
    restrict,
    scaled_meet,
    t_coatom,
    t_drastic,
    t_join_cover,
    tnorm_via_interior,
    tnorm_via_subset,
)
from .trellis import (
    AxiomReport,
    StructureKind,
    Trellis,
    build_trellis,
    check_skala_axioms,
    induced_order,
    infimum,
    is_meet_sub_trellis,
    is_join_sub_trellis,
    is_modular,
    is_sub_lattice,
    is_sub_trellis,
    modular_implication_check,
    modular_violation,
    structure_kind,
    supremum,
    trellis_from_tables,
)

__version__ = "0.1.0"
