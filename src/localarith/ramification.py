"""Ramification filtrations on explicit finite groups.

A FilteredGroup is a Cayley table together with a positive "depth" per
element (the valuation w(s(w0) - w0) measuring how deeply the
automorphism fixes the integer ring; +infinity at the identity).  The
depth function determines the whole lower filtration via
s in G_n <=> depth(s) >= n+1; this models the Galois group of a totally
ramified extension, so G_0 is the full group.  Herbrand's transition
functions, quotient filtrations, upper numbering and different and
discriminant exponents are all derived from the table and the depths
with exact rational arithmetic.  phi's slope changes exactly at the lower
jumps, so in normal form its breakpoints past -1 are the lower jumps, its
values there the upper jumps, and psi is phi with the axes swapped.

Tables passed to FilteredGroup are checked to be groups at run time, for
orders up to 512, and depths to make each level {s : depth(s) >= n} a
normal subgroup.  Associativity is decided exactly by Light's test
(Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961, section
1.2): it checks (xs)y = x(sy) only for s in a set S from which left
multiplication by S reaches the whole table, starting at the identity.  A
greedy S of a group has at most log2(g) elements, so the check costs
O(g^2 log g).  The groups of cyclotomic_group, subgroup_filtration and
quotient_with_projection are groups by construction (a quotient's depths by
Herbrand's theorem), so they skip these checks; tests/test_ramification.py
runs them on each.  They build a row on first use and the table, by C-level
``operator.itemgetter`` calls that compose two rows, only when it is read.
Subgroup questions read generators' rows only: a set is a subgroup exactly
when its greedy S reaches it, and a coset xH = Hx of a normal H is what H's S
reaches from x.  Filtration queries read no row: G_n changes only one below
each finite depth, and they rely on each G_n being normal and G_0 = G.  A
quotient's coset depth is its average depth, phi_H(j - 1) + 1 for j its
largest depth once each level is a subgroup, so no phi_H is built for it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
)
from .numtheory import INFINITY, _count, _exact, _instance, _sequence, _unchecked, int_valuation
from .numtheory import require_prime

MAX_VERIFIED_ORDER = 512


# ---------------------------------------------------------------------------
# exact piecewise-linear functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [-1, +inf), exact rationals.

    Defined by its values at the breakpoints and a final slope beyond the
    last one.  The constructor checks that every number is exact, that there
    are as many values as breakpoints, at least one, and that the
    breakpoints strictly increase; it drops each breakpoint where the slope
    does not change, so equality of functions is tuple equality.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    final_slope: Fraction

    def __post_init__(self):
        message = "breakpoints and values must be sequences"
        bps = [Fraction(_exact(b)) for b in _sequence(self.breakpoints, message)]
        vals = [Fraction(_exact(v)) for v in _sequence(self.values, message)]
        final_slope = Fraction(_exact(self.final_slope))
        if not bps or len(bps) != len(vals):
            raise InvalidArgumentError("breakpoints and values must be non-empty and equally long")
        if any(b0 >= b1 for b0, b1 in zip(bps, bps[1:])):
            raise InvalidArgumentError("breakpoints must strictly increase")
        # breakpoint i stays where the slope changes; a dropped run is collinear
        slopes = [(v1 - v0) / (b1 - b0) for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])]
        slopes.append(final_slope)
        keep = [0] + [i for i in range(1, len(bps)) if slopes[i - 1] != slopes[i]]
        vars(self).update(
            breakpoints=tuple(bps[i] for i in keep),
            values=tuple(vals[i] for i in keep),
            final_slope=final_slope,
        )

    @classmethod
    def from_data(cls, breakpoints, values, final_slope) -> "PiecewiseLinear":
        """The same as the constructor."""
        return cls(breakpoints, values, final_slope)

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
        # swapping the axes keeps every slope change, so the result is normal
        return _piecewise(self.values, self.breakpoints, 1 / self.final_slope)

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """The function u -> self(inner(u))."""
        inner_inv = inner.inverse()
        bps = set(inner.breakpoints)
        bps.update(inner_inv.evaluate(b) for b in self.breakpoints if b >= inner.values[0])
        bps = sorted(bps)
        vals = [self.evaluate(inner.evaluate(b)) for b in bps]
        return PiecewiseLinear(bps, vals, self.final_slope * inner.final_slope)


def _piecewise(breakpoints, values, final_slope) -> PiecewiseLinear:
    """PiecewiseLinear without the checks, for data that is already exact,
    strictly increasing in its breakpoints and normal."""
    return _unchecked(
        PiecewiseLinear, breakpoints=breakpoints, values=values, final_slope=final_slope
    )


# ---------------------------------------------------------------------------
# filtered groups
# ---------------------------------------------------------------------------


class _Rows(dict):
    """The rows of a derived group, each built by row_of on first use."""

    def __init__(self, row_of):
        self.row_of = row_of

    def __missing__(self, s):
        row = self[s] = self.row_of(s)
        return row


def _closure(rows, start: int, generators) -> set[int]:
    """Everything reached from start by left multiplication by generators;
    s x is rows[s][x], so only the generators' rows are read."""
    generator_rows = [rows[s] for s in generators]
    reached, found = {start}, [start]
    for x in found:  # found grows while it is read
        for row in generator_rows:
            if (y := row[x]) not in reached:
                reached.add(y)
                found.append(y)
    return reached


def _greedy_generators(rows, identity: int, elements) -> list[int] | None:
    """Greedy S of ``elements``, or None if it is not a subgroup.

    An element joins S when left multiplication by S does not yet reach it
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
            reached = _closure(rows, identity, generators)
    return generators if reached == elements else None


class FilteredGroup:
    """Finite group as a multiplication table plus per-element depths."""

    def __init__(self, table, identity: int, depths):
        message = "table rows and depths must be sequences"
        self.table = tuple(tuple(_sequence(row, message)) for row in _sequence(table, message))
        self.depths = tuple(_sequence(depths, message))
        self.identity = identity
        self.order = len(self.table)
        self._rows = self.table
        self._validate()
        self._validate_depths()

    @classmethod
    def _derived(cls, identity, row_of, depths, inverses) -> "FilteredGroup":
        """A group whose construction proves what __init__ checks, so none is run.
        row_of(s) is row s, asked for when a query first reads it."""
        return _unchecked(
            cls, identity=identity, depths=tuple(depths), inverses=tuple(inverses),
            order=len(depths), _rows=_Rows(row_of),
        )

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """A derived group's table: past the rows of Light's S (empty unless
        order >= 2, so itemgetter returns tuples), row xt is row x composed
        with row t, since (xt)y = x(ty): one itemgetter call."""
        table: list = [None] * self.order
        table[self.identity] = tuple(range(self.order))
        built = [self.identity]
        times = [(t, itemgetter(*self._rows[t])) for t in self._generators]
        for x in built:
            for t, times_t in times:
                if table[xt := table[x][t]] is None:
                    table[xt] = times_t(table[x])
                    built.append(xt)
        self._rows = table = tuple(table)
        return table

    @cached_property
    def _generators(self) -> list[int] | None:
        """Light's greedy S; None if it does not reach every element."""
        return _greedy_generators(self._rows, self.identity, set(range(self.order)))

    def __getstate__(self):
        self.table  # a pickle carries the table, not row_of
        return vars(self)

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
        generators = self._generators
        if generators is None:
            raise InvalidArgumentError("multiplication table is not associative")
        # s is good when (xs)y = x(sy), i.e. row xs is row x composed with row
        # s.  For good a, b: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
        # x((ab)y), so ab is good; S reaches everything from the good identity.
        for s in generators:  # g >= 2 here, so itemgetter returns tuples
            times_s = itemgetter(*mul[s])
            if any(mul[row[s]] != times_s(row) for row in mul):
                raise InvalidArgumentError("multiplication table is not associative")

    def _validate_depths(self):
        """Depth checks: each level {s : depth(s) >= d} is a normal subgroup.
        That is all a depth function needs: a level is closed, so inverses
        keep their depth, and it is normal, so depth is a class function."""
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
        for level in set(self.depths) - {INFINITY}:
            elements = {s for s in range(g) if self.depths[s] >= level}
            if _normal_generators(self, elements) is None:
                if _greedy_generators(self._rows, self.identity, elements) is None:
                    raise InvalidArgumentError("depth sets G_n are not closed under multiplication")
                raise InvalidArgumentError("depths must be a class function")

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
    message = f"elements must be integer indices in [0, {group.order})"
    elems = _sequence(elements, message)
    if any(type(x) is not int or not 0 <= x < group.order for x in elems):
        raise InvalidArgumentError(message)
    return frozenset(elems)


def is_subgroup(group: FilteredGroup, elements) -> bool:
    elements = _element_set(group, elements)
    return _greedy_generators(group._rows, group.identity, elements) is not None


def is_normal(group: FilteredGroup, elements) -> bool:
    """Whether the elements form a normal subgroup of the group."""
    return _normal_generators(group, _element_set(group, elements)) is not None


def _normal_generators(group: FilteredGroup, h) -> list[int] | None:
    """H's greedy S, or None if H is not a normal subgroup.  Conjugating S
    by G's generators suffices: conjugation by a product composes."""
    generators = _greedy_generators(group._rows, group.identity, h)
    if generators is None:
        return None
    rows, inv = group._rows, group.inverses
    if all(rows[t][rows[s][inv[t]]] in h for t in group._generators for s in generators):
        return generators
    return None


def all_subgroups(group: FilteredGroup) -> list[frozenset[int]]:
    """Every subgroup, as a join of cyclic subgroups: each distinct <x> first,
    then each subgroup found joined with one <x> it does not contain."""
    _instance(FilteredGroup, group)
    table, e = group.table, group.identity  # every row is read
    cyclic = {}  # <x> -> its least generator x
    for x in range(group.order):
        cyclic.setdefault(frozenset(_closure(table, e, [x])), x)
    found, frontier = set(cyclic), [(c, [x]) for c, x in cyclic.items()]
    while frontier:
        base, generators = frontier.pop()
        for x in cyclic.values():
            if x not in base:  # base is a subgroup, so this is <x> <= base
                new = frozenset(_closure(table, e, generators + [x]))
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
    psi, phi with the axes swapped, is its inverse and maps integers to integers.
    """
    _instance(FilteredGroup, group)
    phi = _phi_of_depths(sorted(d for d in group.depths if d != INFINITY))
    return phi, _piecewise(phi.values, phi.breakpoints, 1 / phi.final_slope)


def _phi_of_depths(finite) -> PiecewiseLinear:
    """phi in normal form from the sorted nonidentity depths: |G_n| = 1 + #{depth >= n + 1}."""
    g0 = len(finite) + 1
    bps, vals, order = [Fraction(-1)], [Fraction(-1)], g0  # order is |G_(u+1)| past bps[-1]
    for jump in sorted({d - 1 for d in finite}):
        vals.append(vals[-1] + Fraction((jump - bps[-1]) * order, g0))
        bps.append(Fraction(jump))
        order = g0 - bisect_left(finite, jump + 2)
    return _piecewise(tuple(bps), tuple(vals), Fraction(1, g0))


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


def _induced_rows(rows, elems, label):
    """row_of(s) of FilteredGroup._derived for the table induced on elems:
    label[ab] for a = elems[s] and b in elems, by two C-level itemgetter calls."""
    pick = itemgetter(*elems)
    return lambda s: itemgetter(*pick(rows[elems[s]]))(label)


def subgroup_filtration(group: FilteredGroup, elements) -> FilteredGroup:
    """The subgroup with the restricted depth function (depths restrict)."""
    h = _element_set(group, elements)
    if _greedy_generators(group._rows, group.identity, h) is None:
        raise InvalidArgumentError("the given elements do not form a subgroup")
    elems = sorted(h)
    index = {e: i for i, e in enumerate(elems)}
    depths = [group.depths[e] for e in elems]
    inverses = [index[group.inverses[e]] for e in elems]
    row_of = _induced_rows(group._rows, elems, index)
    return FilteredGroup._derived(index[group.identity], row_of, depths, inverses)


def quotient_filtration(group: FilteredGroup, subgroup_elements) -> FilteredGroup:
    """The quotient G/H with its induced depth function.

    The depth of a nontrivial coset is (1/e) * sum of the depths over the
    coset, with e = |H_0| = |H|; a non-integral average raises
    InconsistencyError.  The average is Herbrand's phi_H(j - 1) + 1, j the
    largest depth in the coset, because each level is a subgroup: for x0 of
    depth j there, depth(x0 t) = min(j, depth(t)) for every t in H.
    """
    return quotient_with_projection(group, subgroup_elements)[0]


def quotient_with_projection(
    group: FilteredGroup, subgroup_elements
) -> tuple[FilteredGroup, tuple[int, ...]]:
    """quotient_filtration plus the element -> coset index projection."""
    h = _element_set(group, subgroup_elements)
    generators = _normal_generators(group, h)
    if generators is None:
        raise InvalidArgumentError("H must be a normal subgroup")
    e = len(h)  # every depth is at least 1, so H_0 = H

    reps, cosets, coset_of = [], [], {}
    for x in range(group.order):
        if x not in coset_of:  # so x is the least element of its coset
            reps.append(x)
            cosets.append(_closure(group._rows, x, generators))  # Hx, which is xH
            coset_of.update(dict.fromkeys(cosets[-1], len(reps) - 1))
    identity = coset_of[group.identity]

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
        depths.append(total // e)
    projection = tuple(coset_of[x] for x in range(group.order))
    inverses = [coset_of[group.inverses[r]] for r in reps]
    row_of = _induced_rows(group._rows, reps, coset_of)
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

    def __post_init__(self):
        jumps = _sequence(self.jumps, "jumps must be a sequence")
        vars(self)["jumps"] = tuple(Fraction(_exact(j)) for j in jumps)
        _instance(PiecewiseLinear, self.phi, self.psi)
        _instance(FilteredGroup, self.group)

    def subgroup_at(self, v) -> frozenset[int]:
        """G^v = G_psi(v)."""
        return self.group.subgroup_at(self.psi.evaluate(v))


def upper_numbering(group: FilteredGroup) -> UpperNumbering:
    phi, psi = herbrand_functions(group)
    return _unchecked(UpperNumbering, jumps=phi.values[1:], phi=phi, psi=psi, group=group)


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
    different = sum(finite)
    orders = tuple(group.order - bisect_right(finite, n) for n in range(group.max_depth() + 1))
    phi = _phi_of_depths(finite)
    return RamificationReport(
        lower_jumps=tuple(b.numerator for b in phi.breakpoints[1:]),
        upper_jumps=phi.values[1:],
        segment_orders=orders,
        different_exponent=different,
        discriminant_exponent=different * residual_degree,
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
    q, units = _cyclotomic_units(p, n)
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
    units = _cyclotomic_units(p, n)[1]
    return frozenset(i for i, a in enumerate(units) if (a - 1) % p ** min(s, n) == 0)


def _cyclotomic_units(p: int, n: int) -> tuple[int, list[int]]:
    """p^n and its units in [1, p^n), once their number is within the verified bound."""
    # the order is at least 2^(n - 1), so a large n is rejected without computing it
    if n > MAX_VERIFIED_ORDER.bit_length():
        raise ResourceLimitError(
            f"n = {n} gives a group order of at least 2^{n - 1}, "
            f"past the verified bound {MAX_VERIFIED_ORDER}"
        )
    order = (p - 1) * p ** (n - 1)
    if order > MAX_VERIFIED_ORDER:
        raise ResourceLimitError(
            f"group order {order} exceeds the verified bound {MAX_VERIFIED_ORDER}"
        )
    q = p**n
    return q, [a for a in range(1, q) if a % p != 0]
