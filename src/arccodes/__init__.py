"""Near-MDS codes of dimension 3 from maximal arcs in PG(2,q)."""

from .field import GF, make_field, field_from_order, parse_descriptor
from .opoly import (
    OPolynomial,
    make_family_opoly,
    make_custom_opoly,
    parse_opoly_descriptor,
    is_o_polynomial,
    is_two_to_one_with_linear,
    applicable_families,
)
from .geometry import (
    all_points,
    line_intersection_profile,
    is_arc,
    is_n3_arc,
    hyperoval_from_opoly,
    standard_oval,
)
from .codes import (
    GeneratorMatrix,
    WeightDistribution,
    BudgetExceededError,
    weight_distribution,
    dual_weight_distribution,
    classify,
    CodeProfile,
    nmds_closed_form,
    min_weight_supports,
)
from .construct import (
    valid_v_set,
    valid_w_set,
    build_even_matrix,
    build_odd_matrix,
    even_closed_form,
    odd_closed_form,
    solution_count_census,
)
from .lrc import (
    locality_report,
    bound_verdict,
    lrc_report,
    CodeReport,
    code_report,
)
from .arcsearch import extend_to_n3_arc

__version__ = "0.1.0"
