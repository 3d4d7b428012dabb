"""Exact-arithmetic construction and verification of finite Siegel-type
Lagrangian geometry over quadratic extensions of small prime fields."""

from .errors import (
    ConsistencyError,
    NotIsotropicError,
    ParameterError,
    RankDeficientError,
    ResourceLimitError,
    ShapeError,
    VerificationFailure,
)
from .field import EScalar, FieldParams, epsilon_f, hilbert90, make_fields, tau_f
from .linalg import Mat, block, column_echelon_canonical, solve
from .symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    GroupElement,
    SpaceParams,
    enumerate_symplectic,
    generators,
    group_element,
    group_order,
    h_0,
    h_e,
    is_member,
    make_space,
    omega,
    permutation_embed,
)
from .lagrangian import (
    Lagrangian,
    PointTable,
    StratumLabel,
    conjugate_pair_dims,
    enumerate_lagrangians,
    from_basis,
    l_minus,
    l_plus,
    lagrangian_count,
    siegel,
    strata,
    witnesses,
)
from .orbits import (
    OrbitRecord,
    PartitionReport,
    act,
    orbit,
    partition,
    stabilizer_elements,
    stabilizer_order,
)
from .cayley import (
    CayleyData,
    cayley,
    map_strata,
    partial_cayley,
    stabilizer_structure,
    v_k,
    verify_conjugation,
)
from .involutions import (
    anti_involutions,
    classify_involutions,
    correspondence_report,
    eigenspace_model,
    eigenspace_report,
    involution_form,
    scaled_involutions,
)

__version__ = "0.1.0"
