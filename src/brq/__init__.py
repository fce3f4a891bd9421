"""brq: exact Brauer-group obstructions for quotients by finite groups.

Computes Bogomolov multipliers, scalar-defect classes of projective matrix
actions, and unramified Brauer groups of linear, projective, Grassmannian,
flag, and toric quotient constructions, all in exact arithmetic.
"""

from . import _fastlinalg  # noqa: F401  (loaded for bench/layers.py)
from .brauer import (
    CorrelationAction,
    ProjectiveAction,
    ToricAction,
    bogomolov_multiplier,
    br_nr_flag,
    br_nr_grassmannian,
    br_nr_linear,
    br_nr_projective,
    br_nr_toric,
    br_stack_fixed_point,
    br_stack_quotient,
    correlation_action,
    gamma_from_projective_action,
    plucker_beta,
)
from .cohomology import (
    CohomologyGroup,
    GModule,
    connecting_bockstein,
    corestrict_qz_class,
    h1,
    h2,
    h2_qz,
    restrict_qz_class,
    small_complex_h,
)
from .cyclotomic import CycloMatrix, CycloNumber, exterior_power, hodge_star, is_root_of_unity
from .errors import BrqError, ContainmentError, DomainError, SizeLimitError, ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_structure,
    bicyclic_subgroups,
    central_extension_from_cocycle,
    cyclic_group,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    semidirect_product,
)
from .linalg import (
    AbelianStructure,
    IntMatrix,
    ModMatrix,
    howell_form,
    smith_normal_form,
    solve,
    subquotient_structure,
)
from .reports import BrauerReport

__version__ = "0.1.0"
