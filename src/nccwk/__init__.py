"""Exact K-theory calculator for 1-dimensional NCCW complexes.

The package computes K-groups, compact-ideal extensions, induced maps,
inductive limits, coefficient groups, and order data for complexes given
by their multiplicity matrices, entirely in exact integer arithmetic.
"""

from .fgab.intmat import IntMatrix, SmithDecomposition, kernel, smith_normal_form, solve
from .fgab.groups import (
    FgGroup,
    GroupHom,
    ShortExactSeq,
    check_ladder,
    cokernel,
    hom_is_well_defined,
    is_exact,
    is_pure,
    tensor_zn,
    tor_zn,
)
from .nccw import (
    CompactIdealSpec,
    KData,
    NccwComplex,
    classify_block,
    ideal_complex,
    inclusion_k_maps,
    k_theory,
    make_ideal_spec,
    quotient_complex,
    quotient_k_maps,
)
from .homind import (
    AtInterior,
    AtPoint,
    ComplexFamily,
    FullPath,
    IndSystem,
    LimitElement,
    MapDescription,
    divisible_in_limit,
    identify_localized_limit,
    induced_k0,
    induced_k1,
    limit_equal,
    limit_ses_purity,
    maps_equal_on_k,
    truncate,
)
from .coeff import ModNKData, beta_map, kappa_maps, mod_n, rho_map
from .order import (
    GradedElement,
    check_unperforated,
    eventual_dominates,
    stage_dominates,
    verify_perforation_witness,
)

__version__ = "0.1.0"
