"""Classification and counting of unramified and tame extensions.

Extensions of a local field with residue size q are handled as
descriptors (q, f, e, r), never as element arithmetic: the descriptor
stands for the extension obtained from the unramified one of degree f by
adjoining an e-th root of u^r * pi, where u is the fixed Teichmuller lift
of the least generator of the residue multiplicative group.  Two
descriptors name the same extension exactly when their r classes lie in
one orbit of x -> q*x on Z/gcd(e, q^f - 1).  Wild ramification (e not
prime to the residue characteristic) is rejected outright.
Classification builds no group table; verified_order checks one on request.
The two enumeration oracles, orbit_count_oracle and galois_census, visit at
most MAX_ENUMERATION residues and reject a larger count before the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, ResourceLimitError
from .numtheory import (
    INFINITY,
    _count,
    _instance,
    divisors,
    euler_phi,
    least_primitive_root,
    multiplicative_order,
    prime_power_decomposition,
    require_prime,
)
# polynomials and ramification are imported by the one function that uses
# each, so counting and classifying extensions load neither; PadicPolynomial
# in annotations is polynomials.PadicPolynomial.

MAX_ENUMERATION = 10**6  # residues an oracle visits; 10^6 take ~0.2 s on a 2-core host


# ---------------------------------------------------------------------------
# roots of unity and unramified extensions
# ---------------------------------------------------------------------------


def splitting_degree_of_unity(q: int, n: int) -> int:
    """Degree of the unramified extension generated by a primitive n-th
    root of unity: the order of q mod n (n prime to the characteristic)."""
    prime_power_decomposition(_count(q))
    if _count(n) < 1 or math.gcd(n, q) != 1:
        raise InvalidArgumentError("n must be positive and prime to q")
    return multiplicative_order(q, n)


# ---------------------------------------------------------------------------
# counting tame extensions
# ---------------------------------------------------------------------------


def orbit_count_oracle(g: int, q: int) -> int:
    """Orbits of x -> q*x on Z/gZ, counted by explicit enumeration.

    This is the independent oracle for the counting formula
    sum over t | g of phi(t)/ord_t(q)."""
    if _count(g) < 1 or math.gcd(g, _count(q)) != 1:
        raise InvalidArgumentError("q must be prime to g")
    _check_enumeration(g)
    seen = [False] * g
    count = 0
    for x in range(g):
        if not seen[x]:
            count += 1
            y = x
            while not seen[y]:
                seen[y] = True
                y = y * q % g
    return count


def _check_enumeration(n: int) -> None:
    if n > MAX_ENUMERATION:
        raise ResourceLimitError(f"the enumeration exceeds the bound {MAX_ENUMERATION}")


def count_tame_extensions(q: int, e: int, f: int) -> int:
    """Number of isomorphism classes of extensions with ramification index
    e (prime to the residue characteristic) and residual degree f."""
    p, _ = prime_power_decomposition(_count(q))
    if _count(e) < 1 or _count(f) < 1:
        raise InvalidArgumentError("e and f must be positive")
    if e % p == 0:
        raise InvalidArgumentError(
            f"e = {e} is divisible by the residue characteristic {p}: wildly "
            "ramified extensions are out of scope"
        )
    g = math.gcd(e, pow(q, f, e) - 1)
    total = 0
    for t in divisors(g):
        total += euler_phi(t) // multiplicative_order(q, t)  # exact by Lagrange
    return total


# ---------------------------------------------------------------------------
# descriptors and their classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameExtensionDescriptor:
    """Parameters (q, f, e, r) of the extension K_f(e-th root of u^r pi)."""

    q: int
    e: int
    f: int
    r: int

    def __post_init__(self):
        p, _ = prime_power_decomposition(_count(self.q))
        if _count(self.e) < 1 or _count(self.f) < 1:
            raise InvalidArgumentError("e and f must be positive")
        if self.e % p == 0:
            raise InvalidArgumentError(
                f"e = {self.e} is divisible by the residue characteristic {p}: "
                "the descriptor only covers tame ramification"
            )
        if not 0 <= _count(self.r) < max(1, self.class_count):
            raise InvalidArgumentError(
                f"r must lie in [0, {self.class_count})"
            )

    @property
    def class_count(self) -> int:
        return math.gcd(self.e, pow(self.q, self.f, self.e) - 1)

    def conjugates(self) -> frozenset[int]:
        """The r values naming the same extension: the orbit of r under
        multiplication by q on Z/gcd(e, q^f - 1)."""
        g = self.class_count
        orbit, r = set(), self.r % g
        while r not in orbit:
            orbit.add(r)
            r = r * self.q % g
        return frozenset(orbit)

    def canonical(self) -> "TameExtensionDescriptor":
        """The descriptor with the least class index in the same orbit."""
        return TameExtensionDescriptor(self.q, self.e, self.f, min(self.conjugates()))


@dataclass(frozen=True)
class GaloisPresentation:
    """<sigma, tau | tau^e = 1, sigma^f = tau^r, sigma tau sigma^-1 = tau^q>,
    of order e*f; normal forms are tau^i sigma^j with i < e, j < f."""

    q: int
    e: int
    f: int
    r: int

    def __post_init__(self):
        for n in (self.q, self.r):
            _count(n)
        if _count(self.e) < 1 or _count(self.f) < 1:
            raise InvalidArgumentError("e and f must be positive")

    @property
    def order(self) -> int:
        return self.e * self.f

    def multiplication_table(self) -> tuple[list[list[int]], int]:
        """Cayley table on normal forms (index i*f + j for tau^i sigma^j)."""
        e, f, q, r = self.e, self.f, self.q, self.r
        q_pow = [pow(q, j, e) for j in range(f)]
        table = []
        for i1 in range(e):
            for j1 in range(f):
                row = []
                for i2 in range(e):
                    for j2 in range(f):
                        i = (i1 + i2 * q_pow[j1]) % e
                        j = j1 + j2
                        if j >= f:
                            i = (i + r * q_pow[j - f]) % e
                            j -= f
                        row.append(i * f + j)
                table.append(row)
        return table, 0

    def verified_order(self) -> int:
        """Order of the presented group, after checking the table is a group
        and that the conjugation relation closes on it; classify_tame does not."""
        from .ramification import MAX_VERIFIED_ORDER, FilteredGroup

        if self.order > MAX_VERIFIED_ORDER:
            raise ResourceLimitError(
                f"group order {self.order} exceeds the verified bound {MAX_VERIFIED_ORDER}"
            )
        table, identity = self.multiplication_table()
        depths = [1] * (self.e * self.f)
        depths[identity] = INFINITY
        group = FilteredGroup(table, identity, depths)  # validates the table
        tau, sigma = 1 * self.f + 0, 0 * self.f + 1
        if self.f == 1:
            sigma = identity
        if self.e > 1:
            lhs = group.table[group.table[sigma][tau]][group.inverses[sigma]]
            rhs_i = self.q % self.e
            if lhs != rhs_i * self.f + 0:
                raise InvalidArgumentError("conjugation relation fails to close")
        return group.order


@dataclass(frozen=True)
class TameClassification:
    galois: bool
    abelian: bool
    presentation: GaloisPresentation | None


def classify_tame(d: TameExtensionDescriptor) -> TameClassification:
    """Galois iff e | q^f - 1 and e | r(q-1); abelian iff galois and e | q-1.
    The presentation of a Galois descriptor has order e*f (Hoelder)."""
    _instance(TameExtensionDescriptor, d)
    galois = pow(d.q, d.f, d.e) == 1 % d.e and (d.r * (d.q - 1)) % d.e == 0
    abelian = galois and (d.q - 1) % d.e == 0
    presentation = GaloisPresentation(d.q, d.e, d.f, d.r) if galois else None
    return TameClassification(galois, abelian, presentation)


def galois_census(q: int, e: int, f: int) -> int:
    """Number of r in [0, e) with e | r(q-1), assuming gcd(e, q^f-1) = e.

    This equals gcd(e, q-1), the count of galoisian classes."""
    prime_power_decomposition(_count(q))
    if _count(e) < 1 or _count(f) < 1:
        raise InvalidArgumentError("e and f must be positive")
    if pow(q, f, e) != 1 % e:
        raise InvalidArgumentError("the census needs e | q^f - 1")
    _check_enumeration(e)
    return sum(1 for r in range(e) if (r * (q - 1)) % e == 0)


# ---------------------------------------------------------------------------
# unit group structure of Z/p^n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitGroupStructure:
    modulus: int
    factor_orders: tuple[int, ...]
    generators: tuple[int, ...]


def unit_group_structure(p: int, n: int) -> UnitGroupStructure:
    """(Z/p^nZ)^* as a product of cyclic groups with explicit generators.

    Odd p: order (p-1) x p^(n-1) generated by the Teichmuller lift of the
    least primitive root and by 1 + p.  p = 2: trivial for n = 1, {+-1}
    for n = 2, and {+-1} x <5> of order 2 x 2^(n-2) for n >= 3.  Trivial
    factors are dropped.
    """
    require_prime(p)
    if _count(n) < 1:
        raise InvalidArgumentError("n must be at least 1")
    q = p**n
    if q < 3:
        raise InvalidArgumentError("p^n must be at least 3")
    if p == 2:
        if n == 2:
            return UnitGroupStructure(q, (2,), (q - 1,))
        return UnitGroupStructure(q, (2, 2 ** (n - 2)), (q - 1, 5))
    # the Teichmuller lift of g is g^(p^(n-1)): congruent to g mod p, of order p - 1
    factors, gens = [p - 1], [pow(least_primitive_root(p), p ** (n - 1), q)]
    if n > 1:
        factors.append(p ** (n - 1))
        gens.append(1 + p)
    return UnitGroupStructure(q, tuple(factors), tuple(gens))


# ---------------------------------------------------------------------------
# invariants of Eisenstein polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EisensteinInvariants:
    ramification_index: int
    residual_degree: int
    root_valuation: Fraction
    uniformiser_norm: Fraction


def eisenstein_invariants(phi: PadicPolynomial) -> EisensteinInvariants:
    """Invariants of the totally ramified extension defined by an
    Eisenstein polynomial: e = deg, f = 1, root valuation 1/e, and the
    norm of the root (-1)^e * phi(0) after making phi monic.  The Newton
    polygon is one side of slope -1/e, so no root needs to be located."""
    from .polynomials import eisenstein_test

    if not eisenstein_test(phi):
        raise InvalidArgumentError("the polynomial is not Eisenstein")
    e = phi.degree
    lead = phi.coefficients[-1]
    norm = (-1) ** e * phi.coefficients[0] / lead
    return EisensteinInvariants(e, 1, Fraction(1, e), norm)
