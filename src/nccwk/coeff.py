"""Mod-n coefficient groups and Bockstein-piece maps on f.g. K-data.

For finitely generated K-groups the coefficient group splits (after a
choice) as K_i(;Z_n) = K_i (x) Z_n  (+)  Tor(K_{i+1}, Z_n), and the three
natural transformations have closed forms on the summands:

  rho   : K_i -> K_i(;Z_n)            reduction onto the tensor summand,
  beta  : K_i(;Z_n) -> K_{i+1}        inclusion of Tor as the n-torsion,
  kappa : coefficient changes Z_m -> Z_mn and Z_mn ->> Z_n.

The splitting is chosen, not natural, so induced maps on coefficient
groups are only ever computed from summand-respecting data.
"""

from __future__ import annotations

from math import gcd

from .fgab.intmat import Frozen, IntMatrix
from .fgab.groups import (
    FgGroup,
    GroupHom,
    exact_at,
    tensor_zn,
    tor_zn,
    tor_zn_embedding,
)


class ModNKData(Frozen):
    """K_*(;Z_n) with the chosen summand decomposition retained."""

    __slots__ = ("n", "k0", "k1", "k0_tensor", "k0_tor", "k1_tensor", "k1_tor")

    def __init__(self, n: int, k0: FgGroup, k1: FgGroup, k0_tensor: FgGroup, k0_tor: FgGroup,
                 k1_tensor: FgGroup, k1_tor: FgGroup):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k0_tensor", k0_tensor)  # K_0 (x) Z_n, presented on K_0's generators
        object.__setattr__(self, "k0_tor", k0_tor)        # Tor(K_1, Z_n)
        object.__setattr__(self, "k1_tensor", k1_tensor)
        object.__setattr__(self, "k1_tor", k1_tor)

    @property
    def k0n(self) -> FgGroup:
        return FgGroup.direct_sum(self.k0_tensor, self.k0_tor)

    @property
    def k1n(self) -> FgGroup:
        return FgGroup.direct_sum(self.k1_tensor, self.k1_tor)

    def coefficient_group(self, degree: int) -> FgGroup:
        return self.k0n if degree % 2 == 0 else self.k1n


def mod_n(k0: FgGroup, k1: FgGroup, n: int) -> ModNKData:
    """Coefficient K-data; n = 0 reproduces the input, n = 1 kills it."""
    if n < 0:
        raise ValueError("modulus must be nonnegative")
    return ModNKData(
        n, k0, k1,
        k0_tensor=tensor_zn(k0, n), k0_tor=tor_zn(k1, n),
        k1_tensor=tensor_zn(k1, n), k1_tor=tor_zn(k0, n))


def rho_map(data: ModNKData, degree: int) -> GroupHom:
    """K_i -> K_i(;Z_n): identity onto the tensor summand, zero into Tor."""
    if data.n < 1:
        raise ValueError("rho needs a positive modulus")
    src = data.k0 if degree % 2 == 0 else data.k1
    tor = data.k0_tor if degree % 2 == 0 else data.k1_tor
    return GroupHom(src, data.coefficient_group(degree), IntMatrix.block_diag(
        IntMatrix.identity(src.generators), IntMatrix.zero(tor.generators, 0)))


def beta_map(data: ModNKData, degree: int) -> GroupHom:
    """K_i(;Z_n) -> K_{i+1}: zero on the tensor summand, and on Tor the
    inclusion of Tor(K_{i+1}, Z_n) as the n-torsion subgroup of K_{i+1}."""
    if data.n < 1:
        raise ValueError("beta needs a positive modulus")
    nxt = data.k1 if degree % 2 == 0 else data.k0
    tensor = data.k0_tensor if degree % 2 == 0 else data.k1_tensor
    emb = tor_zn_embedding(nxt, data.n).matrix
    return GroupHom(data.coefficient_group(degree), nxt, IntMatrix.block_diag(
        IntMatrix.zero(0, tensor.generators), emb))


def bockstein_segment(k0: FgGroup, k1: FgGroup, n: int, degree: int):
    """The five-term sequence
    K_i --n--> K_i --rho--> K_i(;Z_n) --beta--> K_{i+1} --n--> K_{i+1}."""
    data = mod_n(k0, k1, n)
    ki = k0 if degree % 2 == 0 else k1
    knext = k1 if degree % 2 == 0 else k0
    return (GroupHom.multiplication(ki, n),
            rho_map(data, degree),
            beta_map(data, degree),
            GroupHom.multiplication(knext, n))


def bockstein_segment_exact(k0: FgGroup, k1: FgGroup, n: int, degree: int) -> bool:
    mul_i, rho, beta, mul_next = bockstein_segment(k0, k1, n, degree)
    return (exact_at(mul_i, rho)
            and exact_at(rho, beta)
            and exact_at(beta, mul_next))


class KappaMaps(Frozen):
    """kappa_{mn,m}: K_i(;Z_m) -> K_i(;Z_mn) and kappa_{n,mn}: K_i(;Z_mn) -> K_i(;Z_n),
    one pair per degree."""

    __slots__ = ("to_mn", "from_mn")

    def __init__(self, to_mn: tuple, from_mn: tuple):
        object.__setattr__(self, "to_mn", to_mn)  # (degree 0 hom, degree 1 hom)
        object.__setattr__(self, "from_mn", from_mn)


def _tor_diagonal(entries) -> IntMatrix:
    """A map between Tor(G, -) summands, diagonal on their generators (one
    per torsion order d of G, in the order of G.torsion_orders)."""
    return IntMatrix.block_diag(*(IntMatrix(1, 1, ((e,),)) for e in entries))


def kappa_maps(k0: FgGroup, k1: FgGroup, m: int, n: int) -> KappaMaps:
    """The two coefficient transformations for the pair (m, n), per degree."""
    if m < 1 or n < 1:
        raise ValueError("moduli must be positive")
    data_m = mod_n(k0, k1, m)
    data_mn = mod_n(k0, k1, m * n)
    data_n = mod_n(k0, k1, n)
    to_mn = []
    from_mn = []
    for degree in (0, 1):
        ki = k0 if degree == 0 else k1
        tor = (k1 if degree == 0 else k0).torsion_orders
        # Z_m >--n--> Z_mn is multiplication by n on the tensor part and the
        # inclusion G[m] <= G[mn] on Tor(G, -), G = K_{i+1}: gcd(d, mn) / gcd(d, m)
        up = IntMatrix.block_diag(IntMatrix.identity(ki.generators).scale(n),
                                  _tor_diagonal(gcd(d, m * n) // gcd(d, m) for d in tor))
        to_mn.append(GroupHom(data_m.coefficient_group(degree),
                              data_mn.coefficient_group(degree), up))
        # Z_mn ->> Z_n is the identity on the tensor part and multiplication
        # by m on the torsion subgroups: m * gcd(d, n) / gcd(d, mn)
        down = IntMatrix.block_diag(IntMatrix.identity(ki.generators),
                                    _tor_diagonal(m * gcd(d, n) // gcd(d, m * n) for d in tor))
        from_mn.append(GroupHom(data_mn.coefficient_group(degree),
                                data_n.coefficient_group(degree), down))
    return KappaMaps(tuple(to_mn), tuple(from_mn))
