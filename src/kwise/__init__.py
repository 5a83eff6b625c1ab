"""Maximal k-wise intersecting families: construction, verification, search.

A family of subsets of {1, .., n} is k-wise intersecting when any k of its
members (repetition allowed) share a common element, and maximal when no
strict superfamily still is. All machinery works in the complement picture,
where the k-wise property becomes "no k members union to the full set" and
cover queries over the subset lattice decide everything.
"""

from .construction import (
    BlockPartition,
    BuiltFamily,
    ConstructionParams,
    build_f1,
    build_f2,
    build_family,
    expected_size,
    make_partition,
)
from .familyio import format_set_line, parse_set_line, read_family, write_family
from .search import (
    CubeReport,
    OracleResult,
    cube_distance,
    enumerate_downsets,
    greedy_saturate,
    minimize_cube_distance,
    oracle_min_size,
    size_table,
)
from .setcore import (
    CoverSearcher,
    CoverTable,
    Family,
    SetMask,
    Universe,
    build_cover_table,
    complement_family,
    cover_table_from_indicator,
    downset_closure,
    elements_of,
    is_downset,
    make_star,
    mask_of,
    maximal_elements,
    submasks,
)
from .verifier import (
    CoverWitness,
    GapWitness,
    Verdict,
    check_kwise,
    check_saturated,
    is_maximal_kwise,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "BuiltFamily",
    "ConstructionParams",
    "CoverSearcher",
    "CoverTable",
    "CoverWitness",
    "CubeReport",
    "Family",
    "GapWitness",
    "OracleResult",
    "SetMask",
    "Universe",
    "Verdict",
    "build_cover_table",
    "build_f1",
    "build_f2",
    "build_family",
    "check_kwise",
    "check_saturated",
    "complement_family",
    "cover_table_from_indicator",
    "cube_distance",
    "downset_closure",
    "elements_of",
    "enumerate_downsets",
    "expected_size",
    "format_set_line",
    "greedy_saturate",
    "is_downset",
    "is_maximal_kwise",
    "make_partition",
    "make_star",
    "mask_of",
    "maximal_elements",
    "minimize_cube_distance",
    "oracle_min_size",
    "parse_set_line",
    "read_family",
    "size_table",
    "submasks",
    "verify_witness",
    "write_family",
]
