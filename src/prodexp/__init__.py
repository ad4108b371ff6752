"""Product codes over GF(2^m): expansion, robust and agreement testability."""

from .codes import (
    CyclicCode,
    DistanceBound,
    bounded_distance_decode,
    decode_lines,
    delta_to_code,
    full_code,
    min_distance,
    nearest_lines,
    repetition,
    rs_primitive,
)
from .expansion import (
    Decomposition,
    ExpansionCertificate,
    certify_upper_bound,
    counterexample_word,
    line_disjoint_support,
    min_decomposition,
    rho_exact,
    rho_upper_sampled,
    verify_certificate,
)
from .gf_poly import GF2m, field_make
from .tensor import (
    CodeFamily,
    Flat,
    TensorWord,
    enumerate_flats,
    line_weight,
    nearest_in_direction,
    product_contains,
    restrict,
    sum_contains,
)
from .testability import (
    CheckReport,
    FlatTest,
    check_composition,
    check_lemmas,
    check_pair_proximity,
    derived_constants,
    line_test,
    rho_a_exact,
    rho_r_exact,
    rho_r_sampled_upper,
    test_expectation,
)

__version__ = "0.1.0"
