"""Jorgensen numbers of two-generator Kleinian groups.

The library computes J(X, Y) = |tr^2 X - 4| + |tr [X, Y] - 2| for pairs
in SL(2, C), builds the parabolic representations of two-bridge knot and
link groups from their integer representation polynomials, screens pairs
for the arithmetic J = 1 conditions, and ships the tables of known
Jorgensen groups together with verification suites that recompute every
tabulated value. The `jnum` console script exposes the same operations.
"""

from .arith import (
    ELLIPTIC_ORDERS,
    ConditionReport,
    EllipticCandidate,
    QuadImagField,
    delta_discriminant,
    elliptic_j_value,
    elliptic_type_check,
    hilbert_real_ramified,
    invariant_trace_field_generators,
    is_algebraic_unit,
    recognize_invariant_field,
    recognize_quad_imaginary,
    trace_field_generators,
    unit_multiple_check,
)
from .catalog import (
    BIANCHI_DS,
    CatalogEntry,
    FamilyMatch,
    GtkFamilyRow,
    GtkParams,
    IdentityCheck,
    KnotTableRow,
    RelationReport,
    arithcomp_table,
    bianchi_alpha,
    bianchi_generators,
    bianchi_relations,
    family_match,
    geodesic_defect_bound,
    gtk_families,
    gtk_generators,
    knot_table,
    losid_identity_suite,
    sigma_lambda_generators,
    unit_j_pairs,
    verify_relations,
)
from .intpoly import IntPoly
from .linalg import (
    IDENT,
    INF,
    JReport,
    Mat2,
    MobiusClass,
    classify,
    commutator,
    cx_eq,
    fixed_points,
    is_nonelementary,
    jorgensen_pair,
    proj_dist,
)
from .riley import (
    RILEY_A,
    BridgeReport,
    GeometricRootError,
    LinkPoly,
    RootChoice,
    RootSet,
    TwoBridge,
    knot_jreport,
    knot_poly,
    link_jreport,
    link_poly,
    riley_b,
    select_geometric_root,
    solve_roots,
    subset_oracle_poly,
    word_matrix,
)
from .words import (
    GeneratorSet,
    SearchError,
    SweepReport,
    Word,
    ball_levels,
    evaluate,
    first_violation,
    inequality_sweep,
    min_c_entry,
    min_loxodromic_defect,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "IDENT", "INF", "JReport", "Mat2", "MobiusClass", "classify",
    "commutator", "cx_eq", "fixed_points", "is_nonelementary",
    "jorgensen_pair", "proj_dist",
    # integer polynomials
    "IntPoly",
    # words and sweeps
    "GeneratorSet", "SearchError", "SweepReport", "Word", "ball_levels",
    "evaluate", "first_violation", "inequality_sweep", "min_c_entry",
    "min_loxodromic_defect",
    # two-bridge representations
    "RILEY_A", "BridgeReport", "GeometricRootError", "LinkPoly",
    "RootChoice", "RootSet", "TwoBridge", "knot_jreport", "knot_poly",
    "link_jreport", "link_poly", "riley_b", "select_geometric_root",
    "solve_roots", "subset_oracle_poly", "word_matrix",
    # arithmetic invariants
    "ELLIPTIC_ORDERS", "ConditionReport", "EllipticCandidate",
    "QuadImagField", "delta_discriminant", "elliptic_j_value",
    "elliptic_type_check", "hilbert_real_ramified",
    "invariant_trace_field_generators", "is_algebraic_unit",
    "recognize_invariant_field", "recognize_quad_imaginary",
    "trace_field_generators", "unit_multiple_check",
    # catalog
    "BIANCHI_DS", "CatalogEntry", "FamilyMatch", "GtkFamilyRow",
    "GtkParams", "IdentityCheck", "KnotTableRow", "RelationReport",
    "arithcomp_table", "bianchi_alpha", "bianchi_generators",
    "bianchi_relations", "family_match", "geodesic_defect_bound",
    "gtk_families", "gtk_generators", "knot_table",
    "losid_identity_suite", "sigma_lambda_generators", "unit_j_pairs",
    "verify_relations",
]
