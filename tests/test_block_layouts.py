"""Byte pin for every matrix assembled from blocks.

``tests/data/block_layouts.txt`` holds ``pin_block_layouts()`` as generated
before the hand-written block layouts in ``fgab.groups``, ``nccw``, ``coeff``
and ``homind`` were replaced by ``IntMatrix.block_diag``: the coefficient
maps rho, beta and kappa with their source and target presentations, the
relations of direct sums of groups, the endpoint matrices of the tailed and
recursion stage complexes, and the basis and diagonal that limit
identification finds on conjugated diagonal bondings.  Run this module as a
script to print that text.
"""

import sys
from pathlib import Path

from nccwk.coeff import beta_map, kappa_maps, mod_n, rho_map
from nccwk.fgab.groups import FgGroup, cokernel
from nccwk.fgab.intmat import IntMatrix
from nccwk.harness.scenarios import (
    matrix_tail_sizes,
    recursion_stage_complex,
    tailed_stage_complex,
    uhf_tail_sizes,
)
from nccwk.homind import IndSystem, identify_localized_limit

from oracles import invert_unimodular

DATA = Path(__file__).resolve().parent / "data"


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def _show(M):
    return f"{M.rows}x{M.cols} {M}"


def _hom_lines(label, hom):
    return [f"{label}: {_show(hom.matrix)}",
            f"  source relations {_show(hom.source.relations)}",
            f"  target relations {_show(hom.target.relations)}"]


# (K_0, K_1, m, n) with torsion on both sides; the last pair is presented
# off the diagonal, so the Tor summands sit on non-standard generators
COEFF_INPUTS = (
    (FgGroup.from_cyclic([0, 4]), FgGroup.from_cyclic([6]), 2, 3),
    (FgGroup.from_cyclic([2, 8]), FgGroup.from_cyclic([0, 9, 3]), 3, 2),
    (FgGroup.from_cyclic([0, 0, 12]), FgGroup.from_cyclic([4, 10]), 2, 2),
    (cokernel(M([[2, 1], [0, 4]])), cokernel(M([[6], [4]])), 2, 4),
)

DIRECT_SUMS = (
    (FgGroup.free(1), FgGroup.from_cyclic([2, 0, 3])),
    (FgGroup.trivial(), cokernel(M([[2, 1], [0, 4]])), FgGroup.free(2)),
    (FgGroup.from_cyclic([5]), FgGroup.trivial(), cokernel(M([[6], [4]])), FgGroup.from_cyclic([0, 4])),
    (),
)


def _unimodular(r):
    """A fixed unimodular r x r matrix: lower times upper unitriangular."""
    L = M([[1 if i == j else ((i + 2 * j) % 3 - 1 if j < i else 0) for j in range(r)]
           for i in range(r)])
    U = M([[1 if i == j else ((i * j + 1) % 3 - 1 if j > i else 0) for j in range(r)]
           for i in range(r)])
    return L @ U


# diagonals of the conjugated bondings, one per rank 3..8, with repeats
DIAGONALS = ((2, 3, 5), (3, 2, 2, 7), (5, 3, 2, 3, 1), (2, 3, 5, 7, 2, 3),
             (7, 5, 3, 2, 1, 2, 3), (2, 2, 3, 3, 5, 5, 7, 7))


def pin_block_layouts() -> str:
    lines = []
    for k0, k1, m, n in COEFF_INPUTS:
        lines.append(f"# coeff K_0 = {k0}, K_1 = {k1}, m = {m}, n = {n}")
        for q in (m, n, m * n):
            data = mod_n(k0, k1, q)
            for degree in (0, 1):
                lines += _hom_lines(f"rho q={q} degree={degree}", rho_map(data, degree))
                lines += _hom_lines(f"beta q={q} degree={degree}", beta_map(data, degree))
        kappa = kappa_maps(k0, k1, m, n)
        for degree in (0, 1):
            lines += _hom_lines(f"kappa to_mn degree={degree}", kappa.to_mn[degree])
            lines += _hom_lines(f"kappa from_mn degree={degree}", kappa.from_mn[degree])
    for parts in DIRECT_SUMS:
        G = FgGroup.direct_sum(*parts)
        lines.append(f"# direct sum of {[str(p) for p in parts]}: {G.generators} generators "
                     f"{_show(G.relations)}")
    stages = [(f"tailed matrix n={n}", tailed_stage_complex(n, matrix_tail_sizes)) for n in range(3)]
    stages += [(f"tailed uhf n={n}", tailed_stage_complex(n, uhf_tail_sizes)) for n in range(3)]
    stages += [(f"recursion n={n}", recursion_stage_complex(n)) for n in (1, 2)]
    for label, A in stages:
        lines.append(f"# {label}: k={list(A.k)} h={list(A.h)} unital={A.unital}")
        lines.append(f"  alpha {_show(A.alpha)}")
        lines.append(f"  beta {_show(A.beta)}")
    for diag in DIAGONALS:
        r = len(diag)
        P = _unimodular(r)
        bonding = P @ M([[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]) \
            @ invert_unimodular(P)
        ident = identify_localized_limit(IndSystem.from_matrix(bonding))
        lines.append(f"# identify {_show(bonding)}")
        if ident is None:
            lines.append("  unidentified")
        else:
            lines.append(f"  diagonal {ident.diagonal} basis {_show(ident.basis)}")
    return "\n".join(lines) + "\n"


def test_block_layout_bytes():
    assert pin_block_layouts() == (DATA / "block_layouts.txt").read_text()


if __name__ == "__main__":
    sys.stdout.write(pin_block_layouts())
