import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nccwk.fgab.intmat import IntMatrix
from nccwk.fgab.groups import FgGroup, cokernel, hom_is_well_defined
from nccwk.coeff import (
    beta_map,
    bockstein_segment_exact,
    kappa_maps,
    mod_n,
    rho_map,
)


Z = FgGroup.free(1)
Z2 = FgGroup.from_cyclic([2])
Z4 = FgGroup.from_cyclic([4])


class TestModN:
    def test_free_pair(self):
        d = mod_n(FgGroup.free(2), Z, 2)
        assert d.k0n.iso_class() == (0, (2, 2))
        assert d.k1n.iso_class() == (0, (2,))

    def test_torsion_in_k1(self):
        d = mod_n(Z, Z2, 2)
        assert d.k0n.iso_class() == (0, (2, 2))   # tensor Z2 plus Tor(Z2, Z2)
        assert d.k1n.iso_class() == (0, (2,))

    def test_modulus_one_kills_everything(self):
        d = mod_n(Z, Z2, 1)
        assert d.k0n.iso_class() == (0, ()) and d.k1n.iso_class() == (0, ())

    def test_modulus_zero_is_identity(self):
        d = mod_n(Z, Z2, 0)
        assert d.k0n.iso_class() == Z.iso_class()
        assert d.k1n.iso_class() == Z2.iso_class()

    def test_order_formula(self):
        # |K_i(;Z_n)| = |K_i (x) Z_n| * |Tor(K_{i+1}, Z_n)| for finite parts
        d = mod_n(Z4, FgGroup.from_cyclic([6]), 4)
        assert d.k0n.free_rank == 0 and math.prod(d.k0n.torsion_orders) == 4 * 2
        assert d.k1n.free_rank == 0 and math.prod(d.k1n.torsion_orders) == 2 * 4


class TestRhoBeta:
    def test_rho_surjective_beta_zero_for_free_data(self):
        d = mod_n(Z, Z, 2)
        assert rho_map(d, 0).is_surjective()
        assert beta_map(d, 0).is_zero_hom()

    def test_beta_hits_two_torsion(self):
        d = mod_n(Z, Z2, 2)
        b = beta_map(d, 0)
        assert b.is_surjective()

    def test_beta_vanishes_for_coprime_modulus(self):
        d = mod_n(Z, FgGroup.from_cyclic([9]), 2)
        # gcd(9, 2) = 1: Tor part is trivial, free K_0 gives nothing either
        assert beta_map(d, 0).is_zero_hom()

    def test_beta_after_rho_is_zero(self):
        for k0, k1 in ((Z, Z2), (Z4, Z), (FgGroup.free(2), Z4)):
            for n in (2, 3, 4, 6):
                d = mod_n(k0, k1, n)
                for degree in (0, 1):
                    assert beta_map(d, degree).compose(rho_map(d, degree)).is_zero_hom()

    def test_five_term_exactness_for_presented_data(self):
        k1 = cokernel(IntMatrix.from_rows([[2, -2, 0], [1, -1, 0]]))
        assert bockstein_segment_exact(FgGroup.free(2), k1, 2, 0)
        assert bockstein_segment_exact(FgGroup.free(2), k1, 2, 1)


class TestKappa:
    def test_cyclic_raise(self):
        km = kappa_maps(Z, FgGroup.free(0), 2, 2)
        # K_0(;Z_2) = Z_2 -> K_0(;Z_4) = Z_4 is multiplication by two
        assert km.to_mn[0].matrix == IntMatrix.from_rows([[2]])

    def test_round_trip_annihilates(self):
        km = kappa_maps(Z, FgGroup.free(0), 2, 2)
        assert km.from_mn[0].compose(km.to_mn[0]).is_zero_hom()

    def test_cross_composites_on_free_data(self):
        km = kappa_maps(FgGroup.free(2), Z, 2, 3)
        for degree in (0, 1):
            comp = km.from_mn[degree].compose(km.to_mn[degree])
            assert comp.is_zero_hom()

    def test_torsion_blocks_are_well_defined(self):
        km = kappa_maps(Z4, FgGroup.from_cyclic([8]), 2, 4)
        for degree in (0, 1):
            for h in (km.to_mn[degree], km.from_mn[degree]):
                assert hom_is_well_defined(h.source, h.target, h.matrix)


def test_bockstein_exactness_random_instances():
    rng = random.Random(11)
    for _ in range(200):
        f0, f1 = rng.randint(0, 2), rng.randint(0, 2)
        t0 = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(0, 2))]
        t1 = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(0, 2))]
        k0 = FgGroup.from_cyclic([0] * f0 + t0)
        k1 = FgGroup.from_cyclic([0] * f1 + t1)
        n = rng.randint(1, 12)
        for degree in (0, 1):
            assert bockstein_segment_exact(k0, k1, n, degree), (k0, k1, n, degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.lists(st.sampled_from([2, 3, 4, 9]), max_size=2),
       st.integers(0, 8))
def test_coefficient_sizes_depend_only_on_iso_class(free, torsion, n):
    """Presentations with redundant generators give the same coefficient data."""
    plain = FgGroup.from_cyclic([0] * free + torsion)
    padded = FgGroup.direct_sum(FgGroup.from_cyclic([1, 1]), plain)
    a = mod_n(plain, plain, n)
    b = mod_n(padded, padded, n)
    assert a.k0n.iso_class() == b.k0n.iso_class()
    assert a.k1n.iso_class() == b.k1n.iso_class()
