"""Switching classes of +1/-1 graph matrices, their permutation groups,
extensible graph constructions, exact spectra, and equiangular line systems.
"""

from .graphs import (
    SeidelGraph,
    apply_switching,
    complement,
    conjugate,
    from_graph6,
    graph_from_json,
    graph_to_json,
    is_switching_equivalent,
    localization_vector,
    localize,
    neighborhood,
    to_graph6,
    triple_sign,
)
from .groups import (
    DegreeCapError,
    PermGroup,
    automorphism_group,
    find_isomorphism,
    two_graph_group,
)
from .extensibility import (
    ExtParams,
    complement_params,
    extend,
    extensible_params,
    srg_params,
)
from .fields import (
    FieldCtx,
    field_ctx,
    quad_residue_counts,
    shifted_square_failure,
)
from .constructions import (
    T1Structure,
    T1StructureError,
    construct,
    paley_graph,
    paley_projective,
    paley_verify,
    pentagon,
    sl2_orbit_check,
    t1_graph,
    triangle,
    verify_t1_structure,
)
from .spectra import (
    Eigenvalue,
    LineSystem,
    SeidelSpectrum,
    char_poly,
    chi_polynomial,
    embed_lines,
    parse_eigenvalue,
    spectrum,
    two_eigenvalue_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
