"""Exact-arithmetic discriminantal arrangements.

Read B(n,k,A) off a generic arrangement A over an exact field, detect
the coincidence patterns that make A non-very-generic (4-set, five
triple, and good-partition conditions), walk the intersection lattice,
and classify 6-element arrangements by the type their detected pattern
set induces on the labeled complete graph K_6.
"""

from .exactfield import (
    Cyclotomic,
    DivisionByZero,
    FieldDescriptor,
    FieldElement,
    FieldMismatch,
    Galois,
    ParseError,
    Prime,
    Quadratic,
    Rational,
    descriptor_from_json,
    descriptor_to_json,
    embed,
    format_element,
    parse_element,
)
from .arrangement import (
    Arrangement,
    IndexFamily,
    NotGeneric,
    arrangement_from_json,
    arrangement_to_json,
    is_generic,
    projective_map_through,
    translate_solver,
)
from .discriminantal import (
    Flat,
    Lattice,
    discriminantal_normal,
    intersection_lattice,
    is_very_generic,
    nvg_flats,
)
from .detectors import (
    FourSet,
    Good6Partition,
    QuintFamily,
    find_involutions,
    good6_closure_checks,
    good6_condition,
    good6_points,
    pappus_closure_check,
    quadral_points,
    quint_closure_checks,
    quintuple_points,
)
from .permtype import (
    ClosureViolation,
    PartitionType,
    TYPE_ORDER,
    TypeReport,
    VertexPartition,
    arrangement_type,
    induced_edges,
    matching_to_edge,
    partition_from_edges,
    upper_bound_check,
)
from .gallery import (
    DODECAHEDRAL_DEPENDENCIES,
    WitnessSpec,
    build_gallery,
    crapo,
    dependency_residual,
    dodecahedral,
    f4_arrangement,
    f5_arrangement,
    gallery_names,
    is_parameter_generic,
    octahedral,
    parametrized,
    predicted_polygon_sets,
    quadral_lower_bound,
    quint_lower_bound,
    regular_polygon,
    witness_spec,
)

__version__ = "0.1.0"
