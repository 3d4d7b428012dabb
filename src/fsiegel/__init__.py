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
from .field import EScalar, FieldParams, epsilon_f, tau_f
from .linalg import Mat, block, solve
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
    is_member,
    make_space,
)
from .lagrangian import (
    Lagrangian,
    PointTable,
    StratumLabel,
    enumerate_lagrangians,
    from_basis,
    l_plus,
    lagrangian_count,
    siegel,
    witnesses,
)
from .orbits import (
    PartitionReport,
    act,
    partition,
    stabilizer_elements,
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
    scaled_involutions,
)

__version__ = "0.1.0"
