"""Exact integer linear algebra and finitely generated abelian groups."""

from .intmat import (
    IntMatrix,
    SmithDecomposition,
    det,
    kernel,
    lattice_preimage,
    smith_normal_form,
    solve,
    solve_matrix,
    spans,
)
from .groups import (
    FgGroup,
    GroupHom,
    ShortExactSeq,
    check_ladder,
    cokernel,
    exact_at,
    hom_is_well_defined,
    is_exact,
    is_pure,
    tensor_zn,
    tor_zn,
    tor_zn_embedding,
)
