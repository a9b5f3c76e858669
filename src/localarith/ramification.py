"""Ramification filtrations on explicit finite groups.

A FilteredGroup is a Cayley table together with a positive "depth" per
element (the valuation w(s(w0) - w0) measuring how deeply the
automorphism fixes the integer ring; +infinity at the identity).  The
depth function determines the whole lower filtration via
s in G_n <=> depth(s) >= n+1; this models the Galois group of a totally
ramified extension, so G_0 is the full group.  Herbrand's transition
functions, quotient filtrations, upper numbering and different and
discriminant exponents are all derived from the table and the depths
with exact rational arithmetic.

Tables passed to FilteredGroup are checked to be groups at run time, for
orders up to 512.  Associativity is decided exactly by Light's test
(Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961, section
1.2): it checks (xs)y = x(sy) only for s in a set S from which right
multiplication reaches the whole table, starting at the identity.  A greedy
S of a group has at most log2(g) elements, so the check costs O(g^2 log g).
The tables of cyclotomic_group, subgroup_filtration and
quotient_with_projection are groups by construction (a quotient's depths by
Herbrand's theorem), so they skip these checks; tests/test_ramification.py
runs them on each.  Tables are built and checked a row at a time, by C-level
``operator.itemgetter`` calls that compose two rows.  Every subgroup
question reuses Light's S: a set is a subgroup exactly when its greedy S
reaches the set itself, never by pairwise products.  G_n changes only one
below each finite depth, so filtration queries step through those depths.
They rely on each G_n being normal and G_0 = G, and check neither again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter

from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
)
from .numtheory import INFINITY, _count, _exact, _instance, int_valuation, require_prime

MAX_VERIFIED_ORDER = 512


# ---------------------------------------------------------------------------
# exact piecewise-linear functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [-1, +inf), exact rationals.

    Defined by its values at the breakpoints and a final slope beyond the
    last one.  Instances are normalized (no redundant breakpoints), so
    equality of functions is tuple equality.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    final_slope: Fraction

    @classmethod
    def from_data(cls, breakpoints, values, final_slope) -> "PiecewiseLinear":
        bps = [Fraction(_exact(b)) for b in breakpoints]
        vals = [Fraction(_exact(v)) for v in values]
        final_slope = Fraction(_exact(final_slope))
        # breakpoint i stays where the slope changes; a dropped run is collinear
        slopes = [(v1 - v0) / (b1 - b0) for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])]
        slopes.append(final_slope)
        keep = [0] + [i for i in range(1, len(bps)) if slopes[i - 1] != slopes[i]]
        return cls(tuple(bps[i] for i in keep), tuple(vals[i] for i in keep), final_slope)

    def evaluate(self, u) -> Fraction:
        u = Fraction(_exact(u))
        if u < self.breakpoints[0]:
            raise InvalidArgumentError(f"{u} is left of the domain start")
        if u >= self.breakpoints[-1]:
            return self.values[-1] + self.final_slope * (u - self.breakpoints[-1])
        i = bisect_left(self.breakpoints, u, 1) - 1  # b_i <= u <= b_(i+1)
        b0, b1 = self.breakpoints[i], self.breakpoints[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (u - b0) / (b1 - b0)

    def inverse(self) -> "PiecewiseLinear":
        # the breakpoints increase, so the slopes are positive when the values increase
        if any(v0 >= v1 for v0, v1 in zip(self.values, self.values[1:])) or self.final_slope <= 0:
            raise InvalidArgumentError("only increasing functions can be inverted")
        return PiecewiseLinear.from_data(
            self.values, self.breakpoints, 1 / self.final_slope
        )

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """The function u -> self(inner(u))."""
        inner_inv = inner.inverse()
        bps = set(inner.breakpoints)
        bps.update(inner_inv.evaluate(b) for b in self.breakpoints if b >= inner.values[0])
        bps = sorted(bps)
        vals = [self.evaluate(inner.evaluate(b)) for b in bps]
        return PiecewiseLinear.from_data(
            bps, vals, self.final_slope * inner.final_slope
        )


# ---------------------------------------------------------------------------
# filtered groups
# ---------------------------------------------------------------------------


def _right_closure(table, identity: int, generators) -> set[int]:
    """Everything reached from the identity by right multiplication by generators."""
    reached = {identity}
    stack = [identity]
    while stack:
        row = table[stack.pop()]
        for s in generators:
            if row[s] not in reached:
                reached.add(row[s])
                stack.append(row[s])
    return reached


def _greedy_generators(table, identity: int, elements) -> list[int] | None:
    """Greedy S of ``elements``, or None if it is not a subgroup.

    An element joins S when right multiplication by S does not yet reach it
    from the identity.  In a group each one at least doubles the subgroup
    reached, so a subgroup H has an S of at most log2|H| elements reaching H.
    """
    cap = len(elements).bit_length() - 1
    generators: list[int] = []
    reached = {identity}
    for a in sorted(elements):
        if a not in reached:
            generators.append(a)
            if len(generators) > cap:
                return None
            reached = _right_closure(table, identity, generators)
    return generators if reached == elements else None


class FilteredGroup:
    """Finite group as a multiplication table plus per-element depths."""

    def __init__(self, table, identity: int, depths):
        try:
            self.table, self.depths = tuple(map(tuple, table)), tuple(depths)
        except TypeError:
            raise InvalidArgumentError("table rows and depths must be sequences") from None
        self.identity = identity
        self.order = len(self.table)
        self._validate()
        self._validate_depths()

    @classmethod
    def _derived(cls, identity, row_of, depths, inverses) -> "FilteredGroup":
        """A group whose construction proves what __init__ checks, so none is run.

        row_of(s) is row s, asked for only for s in Light's greedy S: s joins S
        when no row is built for it yet, as in _greedy_generators.  Every other row
        xt is row x composed with row t, since (xt)y = x(ty): one itemgetter call.
        """
        self = cls.__new__(cls)
        self.identity, self.depths, self.inverses = identity, tuple(depths), tuple(inverses)
        self.order = order = len(self.depths)
        table: list = [None] * order
        table[identity] = tuple(range(order))
        built, self._generators, times = [identity], [], []
        for s in range(order):
            if table[s] is None:  # so order >= 2 and itemgetter returns tuples
                self._generators.append(s)
                times.append(itemgetter(*row_of(s)))
                for x in built:
                    for t, times_t in zip(self._generators, times):
                        if table[xt := table[x][t]] is None:
                            table[xt] = times_t(table[x])
                            built.append(xt)
        self.table = tuple(table)
        return self

    # -- construction checks ----------------------------------------------

    def _validate(self):
        """Check the group axioms; set ``inverses`` and Light's S."""
        g = self.order
        if g > MAX_VERIFIED_ORDER:
            raise ResourceLimitError(
                f"group order {g} exceeds the verified bound {MAX_VERIFIED_ORDER}"
            )
        mul, e = self.table, self.identity
        if any(len(row) != g for row in mul):
            raise InvalidArgumentError("table is not square")
        if set(map(type, chain.from_iterable(mul))) - {int}:
            raise InvalidArgumentError("table entries must be integers")
        if not set(chain.from_iterable(mul)) <= set(range(g)):
            raise InvalidArgumentError("table entries out of range")
        if type(e) is not int:
            raise InvalidArgumentError("identity must be an integer index")
        if not 0 <= e < g:
            raise InvalidArgumentError("identity index out of range")
        if mul[e] != tuple(range(g)) or tuple(map(itemgetter(e), mul)) != mul[e]:
            raise InvalidArgumentError("identity element does not act trivially")
        try:
            self.inverses = tuple(row.index(e) for row in mul)
        except ValueError:
            i = next(i for i, row in enumerate(mul) if e not in row)
            raise InvalidArgumentError(f"element {i} has no inverse") from None

        # a group never needs more than log2(g) greedy generators
        generators = _greedy_generators(mul, e, set(range(g)))
        if generators is None:
            raise InvalidArgumentError("multiplication table is not associative")
        # s is good when (xs)y = x(sy), i.e. row xs is row x composed with row
        # s.  For good a, b: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
        # x((ab)y), so ab is good; S reaches everything from the good identity.
        for s in generators:  # g >= 2 here, so itemgetter returns tuples
            times_s = itemgetter(*mul[s])
            if any(mul[row[s]] != times_s(row) for row in mul):
                raise InvalidArgumentError("multiplication table is not associative")
        self._generators = generators

    def _validate_depths(self):
        """Depth checks.  Conjugation invariance is checked under S only,
        which suffices because conjugation by a product composes; closure
        under multiplication is checked once per level {s : depth(s) >= d}."""
        g = self.order
        if len(self.depths) != g:
            raise InvalidArgumentError("depth list length must match the order")
        for i, d in enumerate(self.depths):
            if i == self.identity:
                if d != INFINITY:
                    raise InvalidArgumentError("identity must have infinite depth")
            elif type(d) is not int or d < 1:
                raise InvalidArgumentError(
                    "depths must be positive integers away from the identity"
                )
        mul, inv, d = self.table, self.inverses, self.depths
        for s in range(g):
            if d[inv[s]] != d[s]:
                raise InvalidArgumentError("depths must be inverse-invariant")
            for t in self._generators:
                if d[mul[t][mul[s][inv[t]]]] != d[s]:
                    raise InvalidArgumentError("depths must be a class function")
        for level in set(d) - {INFINITY}:
            if _greedy_generators(mul, self.identity, {s for s in range(g) if d[s] >= level}) is None:
                raise InvalidArgumentError(
                    "depth sets G_n are not closed under multiplication"
                )

    # -- filtration queries -------------------------------------------------

    def subgroup(self, n: int) -> frozenset[int]:
        """G_n = elements of depth >= n + 1 (all of G for n <= -1).

        Depths are integers, so the exclusive-threshold variant
        {s : depth(s) > r + 1 for real r} adds nothing new: at r = 0 it is
        exactly subgroup(1), which is the only identity relied on here.
        """
        if _count(n) <= -1:
            return frozenset(range(self.order))
        return frozenset(i for i in range(self.order) if self.depths[i] >= n + 1)

    def subgroup_at(self, u) -> frozenset[int]:
        """G_u for real u, which is G_ceil(u)."""
        return self.subgroup(math.ceil(Fraction(_exact(u))))

    def max_depth(self) -> int:
        return max((d for d in self.depths if d != INFINITY), default=0)

    def lower_jumps(self) -> tuple[int, ...]:
        """The u with G_u != G_{u+1}: one below each finite depth."""
        return tuple(sorted({d - 1 for d in self.depths if d != INFINITY}))


def lower_filtration(group: FilteredGroup) -> list[tuple[int, frozenset[int]]]:
    """The chain G = G_{-1} >= G_0 >= ... down to the first trivial term."""
    _instance(FilteredGroup, group)
    jumps = group.lower_jumps()
    starts = [-1] + [u + 1 for u in jumps]
    out = []
    # G_n is constant from each start to the next jump; the last start is trivial
    for start, end in zip(starts, [*jumps, starts[-1]]):
        out.extend(zip(range(start, end + 1), repeat(group.subgroup(start))))
    return out


def _element_set(group: FilteredGroup, elements) -> frozenset[int]:
    """The given elements as a set of indices, each an int in [0, order)."""
    _instance(FilteredGroup, group)
    try:
        elems = list(elements)
    except TypeError:
        elems = [None]  # rejected below with every other non-index
    if any(type(x) is not int or not 0 <= x < group.order for x in elems):
        raise InvalidArgumentError(f"elements must be integer indices in [0, {group.order})")
    return frozenset(elems)


def is_subgroup(group: FilteredGroup, elements) -> bool:
    elements = _element_set(group, elements)
    return _greedy_generators(group.table, group.identity, elements) is not None


def is_normal(group: FilteredGroup, elements) -> bool:
    """Conjugating H's generators by S suffices: conjugation by a product composes."""
    elements = _element_set(group, elements)
    generators = _greedy_generators(group.table, group.identity, elements)
    if generators is None:
        return False
    mul, inv = group.table, group.inverses
    return all(
        mul[t][mul[s][inv[t]]] in elements
        for t in group._generators
        for s in generators
    )


def all_subgroups(group: FilteredGroup) -> list[frozenset[int]]:
    """Every subgroup, found by adding one generator at a time."""
    _instance(FilteredGroup, group)
    trivial = frozenset({group.identity})
    found = {trivial}
    frontier = [(trivial, [])]
    while frontier:
        base, generators = frontier.pop()
        for x in range(group.order):
            if x not in base:
                new = frozenset(_right_closure(group.table, group.identity, generators + [x]))
                if new not in found:
                    found.add(new)
                    frontier.append((new, generators + [x]))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# Herbrand transition functions
# ---------------------------------------------------------------------------


def herbrand_functions(group: FilteredGroup) -> tuple[PiecewiseLinear, PiecewiseLinear]:
    """The mutually inverse reparameterizations phi and psi.

    phi has slope |G_{m+1}| / |G_0| on [m, m+1] and slope 1 on [-1, 0];
    psi is its inverse and maps integers to integers.
    """
    _instance(FilteredGroup, group)
    phi = _phi_of_depths(sorted(d for d in group.depths if d != INFINITY))
    return phi, phi.inverse()


def _phi_of_depths(finite) -> PiecewiseLinear:
    """phi of a filtered group from the sorted depths of its nonidentity
    elements: |G_n| = 1 + #{depth >= n + 1}, and G_0 is the whole group."""
    g0 = len(finite) + 1
    bps = [-1, 0] + sorted({d - 1 for d in finite if d > 1})
    vals = [Fraction(-1), Fraction(0)]
    for lo, hi in zip(bps[1:], bps[2:]):
        order = g0 - bisect_left(finite, lo + 2)
        vals.append(vals[-1] + Fraction((hi - lo) * order, g0))
    return PiecewiseLinear.from_data(bps, vals, Fraction(1, g0))


def phi_via_infimum(group: FilteredGroup, u) -> Fraction:
    """phi(u) computed as (1/g0) sum_s min(depth(s), u+1) - 1.

    An independent route to the same function; exposed as a cross-check.
    """
    _instance(FilteredGroup, group)
    u = Fraction(_exact(u))
    if u < -1:
        raise InvalidArgumentError("u must be >= -1")
    g0 = len(group.subgroup(0))
    total = Fraction(0)
    for d in group.depths:
        total += u + 1 if d == INFINITY or d > u + 1 else Fraction(d)
    return total / g0 - 1


# ---------------------------------------------------------------------------
# sub- and quotient filtrations
# ---------------------------------------------------------------------------


def _induced_rows(table, elems, label):
    """row_of(s) of FilteredGroup._derived for the table induced on elems:
    label[ab] for a = elems[s] and b in elems, by two C-level itemgetter calls."""
    pick = itemgetter(*elems)
    return lambda s: itemgetter(*pick(table[elems[s]]))(label)


def subgroup_filtration(group: FilteredGroup, elements) -> FilteredGroup:
    """The subgroup with the restricted depth function (depths restrict)."""
    h = _element_set(group, elements)
    if not is_subgroup(group, h):
        raise InvalidArgumentError("the given elements do not form a subgroup")
    elems = sorted(h)
    index = {e: i for i, e in enumerate(elems)}
    depths = [group.depths[e] for e in elems]
    inverses = [index[group.inverses[e]] for e in elems]
    row_of = _induced_rows(group.table, elems, index)
    return FilteredGroup._derived(index[group.identity], row_of, depths, inverses)


def quotient_filtration(group: FilteredGroup, subgroup_elements) -> FilteredGroup:
    """The quotient G/H with its induced depth function.

    The depth of a nontrivial coset is (1/e) * sum of the depths over the
    coset, with e = |H_0| = |H|.  The result is cross-checked against the
    Herbrand route depth(s) - 1 = phi_H(max depth over coset - 1);
    disagreement or a non-integral average raises InconsistencyError.
    """
    return quotient_with_projection(group, subgroup_elements)[0]


def quotient_with_projection(
    group: FilteredGroup, subgroup_elements
) -> tuple[FilteredGroup, tuple[int, ...]]:
    """quotient_filtration plus the element -> coset index projection."""
    h = _element_set(group, subgroup_elements)
    if not is_normal(group, h):
        raise InvalidArgumentError("H must be a normal subgroup")
    e = len(h)  # every depth is at least 1, so H_0 = H

    reps, cosets, coset_of = [], [], {}
    for x in range(group.order):
        if x not in coset_of:  # so x is the least element of its coset
            reps.append(x)
            cosets.append([group.table[x][t] for t in h])
            coset_of.update(dict.fromkeys(cosets[-1], len(reps) - 1))
    identity = coset_of[group.identity]

    # phi_H from H's depths in the parent, evaluated once per depth, not per coset
    phi_h = _phi_of_depths(sorted(group.depths[t] for t in h if t != group.identity))
    route = {j: phi_h.evaluate(j - 1) + 1 for j in set(group.depths) - {INFINITY}}
    depths: list[int | float] = []
    for i, coset in enumerate(cosets):
        if i == identity:
            depths.append(INFINITY)
            continue
        total = sum(group.depths[x] for x in coset)
        if total % e:
            raise InconsistencyError(
                "depth data is not compatible with the quotient (non-integral average)"
            )
        averaged = total // e
        j_max = max(group.depths[x] for x in coset)
        herbrand = route[j_max]
        if herbrand != averaged:
            raise InconsistencyError(
                f"averaging gives {averaged} but the Herbrand route gives {herbrand}"
            )
        depths.append(averaged)
    projection = tuple(coset_of[x] for x in range(group.order))
    inverses = [coset_of[group.inverses[r]] for r in reps]
    row_of = _induced_rows(group.table, reps, coset_of)
    return FilteredGroup._derived(identity, row_of, depths, inverses), projection


# ---------------------------------------------------------------------------
# upper numbering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpperNumbering:
    """Jumps and subgroup map of the filtration in the upper numbering."""

    jumps: tuple[Fraction, ...]
    phi: PiecewiseLinear
    psi: PiecewiseLinear
    group: FilteredGroup

    def subgroup_at(self, v) -> frozenset[int]:
        """G^v = G_psi(v)."""
        return self.group.subgroup_at(self.psi.evaluate(v))


def upper_numbering(group: FilteredGroup) -> UpperNumbering:
    phi, psi = herbrand_functions(group)
    jumps = tuple(phi.evaluate(u) for u in group.lower_jumps())
    return UpperNumbering(jumps, phi, psi, group)


# ---------------------------------------------------------------------------
# different and discriminant exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RamificationReport:
    lower_jumps: tuple[int, ...]
    upper_jumps: tuple[Fraction, ...]
    segment_orders: tuple[int, ...]
    different_exponent: int
    discriminant_exponent: int
    residual_degree: int


def different_discriminant(group: FilteredGroup, residual_degree: int = 1) -> RamificationReport:
    """Different exponent sum(depth(s)) over s != 1, equal to
    sum_n (|G_n| - 1); discriminant exponent is the residual degree times it."""
    _instance(FilteredGroup, group)
    if _count(residual_degree) < 1:
        raise InvalidArgumentError("residual degree must be >= 1")
    finite = sorted(d for d in group.depths if d != INFINITY)
    by_elements = sum(finite)
    orders = tuple(group.order - bisect_right(finite, n) for n in range(group.max_depth() + 1))
    by_filtration = sum(o - 1 for o in orders)
    if by_elements != by_filtration:
        raise InconsistencyError(
            "the two routes to the different exponent disagree"
        )  # unreachable for a valid group
    upper = upper_numbering(group)
    return RamificationReport(
        lower_jumps=group.lower_jumps(),
        upper_jumps=upper.jumps,
        segment_orders=orders,
        different_exponent=int(by_elements),
        discriminant_exponent=int(by_elements) * residual_degree,
        residual_degree=residual_degree,
    )


# ---------------------------------------------------------------------------
# the cyclotomic instance
# ---------------------------------------------------------------------------


def cyclotomic_group(p: int, n: int) -> FilteredGroup:
    """The automorphism group (Z/p^nZ)^* of the p^n-th cyclotomic extension,
    with depth p^s for the automorphism x -> x^a, s = v_p(a - 1).

    The lower filtration then satisfies G_u = G(m+1) for u in [p^m, p^(m+1)),
    where G(s) is the kernel of reduction to (Z/p^sZ)^*.
    """
    require_prime(p)
    if _count(n) < 1:
        raise InvalidArgumentError("n must be at least 1")
    order = (p - 1) * p ** (n - 1)
    if order > MAX_VERIFIED_ORDER:
        raise ResourceLimitError(
            f"group order {order} exceeds the verified bound {MAX_VERIFIED_ORDER}"
        )
    q = p**n
    units = [a for a in range(1, q) if a % p != 0]
    index = {a: i for i, a in enumerate(units)}
    depths = [INFINITY if a == 1 else p ** int_valuation(a - 1, p) for a in units]
    inverses = [index[pow(a, -1, q)] for a in units]
    return FilteredGroup._derived(
        index[1], lambda s: tuple(index[units[s] * b % q] for b in units), depths, inverses
    )


def cyclotomic_reduction_kernel(p: int, n: int, s: int) -> frozenset[int]:
    """Indices (in cyclotomic_group order) of units congruent to 1 mod p^s."""
    require_prime(p)
    if _count(n) < 1 or _count(s) < 0:
        raise InvalidArgumentError("n must be at least 1 and s at least 0")
    q = p**n
    units = [a for a in range(1, q) if a % p != 0]
    return frozenset(i for i, a in enumerate(units) if (a - 1) % p ** min(s, n) == 0)
