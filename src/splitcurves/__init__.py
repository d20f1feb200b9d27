"""Exact certification of splitting types for nodal curves with contact conics.

The package decides, in exact rational arithmetic, how a nodal plane curve
pulls back under the double cover branched along a smooth conic, certifies
the outcome (a verified polynomial identity for a split, failed necessary
conditions for a non-split), and implements the correspondence between
nodal quartic surfaces and sextics with an even contact conic.
"""

from .arith import (
    BinForm,
    NFElem,
    NumberField,
    UPoly,
    binary_form_sqrt,
    upoly_factor,
)
from .conics import (
    ConicParam,
    ContactProfile,
    classify_conic,
    contact_profile,
    delta2,
    delta2_param,
    normalize_conic,
    parametrize_conic,
    restrict_to_conic,
)
from .cover import involution_biform, pullback_curve, ram_form
from .curves import (
    NodeReport,
    check_claim,
    irreducibility_sextic,
    singular_locus_complete,
    singular_points,
    verify_node,
)
from .forms import (
    BiForm,
    Form,
    ProjPoint,
    biform_to_str,
    form_to_str,
    parse_form,
    parse_univariate,
    point,
    substitute_form,
)
from .linsys import (
    FormSpace,
    LinSysReport,
    cond_divisible_on_conic,
    cond_point,
    system_solve,
)
from .quartics import (
    QuarticSurface,
    alpha1_map,
    alpha2_map,
    check_surface_claim,
    detect_33_configuration,
    general_position_p3,
    project_quartic,
    quartic_from_sextic,
    surface_singular_locus_complete,
    syzygetic_test,
)
from .registry import example_ids, load_example
from .reports import run_verify_example, zariski_triple_outcomes
from .splitting import (
    PullbackFactor,
    SplitCertificate,
    SplittingReport,
    alpha_of,
    criterion_24_7nodal,
    factor_pullback,
    linear_route,
    necessary_dim_check,
    node_bound_filter,
    splitting_type,
    verify_certificate,
)

__version__ = "0.1.0"
