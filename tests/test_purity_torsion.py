"""Splitness verdicts on torsion-rich extensions with known answers,
including presentations padded with redundant generators."""

import random

from hypothesis import given, settings, strategies as st

from nccwk.fgab.intmat import IntMatrix
from nccwk.fgab.groups import (
    FgGroup,
    GroupHom,
    ShortExactSeq,
    _splits,
    is_exact,
    is_pure,
)

from oracles import purity_bruteforce


def cyclic_extension(p_order, mid_order, image_multiplier, proj_matrix=1):
    """0 -> Z_p -> Z_mid -> coker -> 0 with the stated inclusion."""
    K = FgGroup.from_cyclic([p_order])
    G = FgGroup.from_cyclic([mid_order])
    inj = GroupHom(K, G, IntMatrix.from_rows([[image_multiplier]]))
    H = FgGroup.from_cyclic([mid_order // (mid_order // image_multiplier)
                             if image_multiplier else mid_order])
    return K, G, inj


class TestKnownTorsionExtensions:
    def test_z2_in_z8_nonsplit(self):
        # 0 -> Z_2 --x4--> Z_8 -> Z_4 -> 0 does not split
        Z2 = FgGroup.from_cyclic([2])
        Z8 = FgGroup.from_cyclic([8])
        Z4 = FgGroup.from_cyclic([4])
        s = ShortExactSeq(GroupHom(Z2, Z8, IntMatrix.from_rows([[4]])),
                          GroupHom(Z8, Z4, IntMatrix.from_rows([[1]])))
        assert is_exact(s) and not is_pure(s)

    def test_z2_in_z2_plus_z4_split(self):
        Z2 = FgGroup.from_cyclic([2])
        mid = FgGroup.from_cyclic([2, 4])
        Z4 = FgGroup.from_cyclic([4])
        s = ShortExactSeq(GroupHom(Z2, mid, IntMatrix.from_columns([(1, 0)], rows=2)),
                          GroupHom(mid, Z4, IntMatrix.from_rows([[0, 1]])))
        assert is_exact(s) and is_pure(s)

    def test_diagonal_torsion_inclusion(self):
        # 0 -> Z_2 --(1,1)--> Z_2 (+) Z_4 -> Z_4 -> 0: the section y -> (y, y)
        # composed checks; the quotient by the antidiagonal is cyclic of order 4
        Z2 = FgGroup.from_cyclic([2])
        mid = FgGroup.from_cyclic([2, 4])
        Z4 = FgGroup.from_cyclic([4])
        inj = GroupHom(Z2, mid, IntMatrix.from_columns([(1, 2)], rows=2))
        surj = GroupHom(mid, Z4, IntMatrix.from_rows([[2, 1]]))
        s = ShortExactSeq(inj, surj)
        assert is_exact(s)
        # brute force on the finite data decides the verdict independently
        brute = purity_bruteforce([[1], [2]], [2], [2, 4], 4)
        assert is_pure(s) == brute

    def test_mixed_free_torsion_nonsplit(self):
        # 0 -> Z --(2,1)--> Z (+) Z_4 -> Z_8 -> 0 via (x,t) -> x + 2t ... built
        # instead as the standard pullback 0 -> Z -> Z (+) Z_2 with twist
        Z = FgGroup.free(1)
        mid = FgGroup(2, IntMatrix.from_columns([(0, 4)], rows=2))  # Z (+) Z_4
        inj = GroupHom(Z, mid, IntMatrix.from_columns([(2, 1)], rows=2))
        quot = FgGroup.from_cyclic([8])
        surj = GroupHom(mid, quot, IntMatrix.from_rows([[1, 6]]))
        s = ShortExactSeq(inj, surj)
        if is_exact(s):
            # independent check through the raw divisibility definition
            brute = purity_bruteforce([[2], [1]], [0], [0, 4], 8)
            assert is_pure(s) == brute


class TestPaddedPresentations:
    def pad(self, G):
        """The same group with two junk generators of order one."""
        return FgGroup.direct_sum(FgGroup.from_cyclic([1, 1]), G)

    def test_padded_multiplication_sequence(self):
        Z = FgGroup.free(1)
        padZ = self.pad(Z)
        padZ2 = self.pad(FgGroup.from_cyclic([2]))
        inj_cols = [tuple(2 if i == 2 else 0 for i in range(3))]
        inj = GroupHom(padZ, padZ, IntMatrix.from_columns(
            [(0, 0, 0), (0, 0, 0), (0, 0, 2)], rows=3))
        surj = GroupHom(padZ, padZ2, IntMatrix.from_rows(
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
        s = ShortExactSeq(inj, surj)
        assert not is_exact(s) or not is_pure(s)

    def test_padded_split_control(self):
        mid = self.pad(FgGroup.free(2))
        Z = FgGroup.free(1)
        inj = GroupHom(Z, mid, IntMatrix.from_columns([(0, 0, 1, 0)], rows=4))
        surj = GroupHom(mid, Z, IntMatrix.from_rows([[0, 0, 0, 1]]))
        s = ShortExactSeq(inj, surj)
        assert is_exact(s) and is_pure(s)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_random_finite_extensions_match_bruteforce(e1, e2, seed):
    """Random inclusions of Z_{2^e1} into Z_{2^e1} (+) Z_{2^e2} and the
    resulting quotients: splitness equals the literal purity definition."""
    from nccwk.fgab.groups import hom_is_well_defined

    rng = random.Random(seed)
    d1, d2 = 2 ** e1, 2 ** e2
    K = FgGroup.from_cyclic([d1])
    G = FgGroup.from_cyclic([d1, d2])
    # an injective hom K -> G: the image must have order exactly d1
    while True:
        a = rng.randrange(d1)
        b = rng.randrange(d2)
        M = IntMatrix.from_columns([(a, b)], rows=2)
        if not hom_is_well_defined(K, G, M):
            continue
        cand = GroupHom(K, G, M)
        if cand.is_injective():
            inj = cand
            break
    # quotient presentation: G generators with the image as an extra relator
    quot = FgGroup(2, G.relations.hstack(IntMatrix.from_columns([(a, b)], rows=2)))
    surj = GroupHom(G, quot, IntMatrix.identity(2))
    s = ShortExactSeq(inj, surj)
    assert is_exact(s)
    n_max = max(d1, d2)
    brute = purity_bruteforce([[a], [b]], [d1], [d1, d2], n_max)
    assert is_pure(s) == brute
    assert _splits(s) == brute
