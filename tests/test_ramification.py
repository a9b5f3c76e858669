import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarith import (
    FilteredGroup,
    INFINITY,
    InvalidArgumentError,
    PiecewiseLinear,
    ResourceLimitError,
    all_subgroups,
    cyclotomic_group,
    cyclotomic_reduction_kernel,
    different_discriminant,
    herbrand_functions,
    lower_filtration,
    phi_via_infimum,
    quotient_filtration,
    subgroup_filtration,
    upper_numbering,
)
from localarith import ramification
from localarith.ramification import is_normal, is_subgroup


def tame_cyclic(order):
    """Cyclic group with every nontrivial element at depth 1."""
    table = [[(a + b) % order for b in range(order)] for a in range(order)]
    depths = [INFINITY] + [1] * (order - 1)
    return FilteredGroup(table, 0, depths)


def is_associative(table):
    """Brute-force oracle: (xy)z = x(yz) for every triple."""
    g = range(len(table))
    return all(table[table[x][y]][z] == table[x][table[y][z]] for x in g for y in g for z in g)


@st.composite
def loop_tables(draw, max_order=6):
    """A random Latin square of order <= max_order with identity 0."""
    g = draw(st.integers(1, max_order))
    rnd = draw(st.randoms(use_true_random=False))
    table = [[c if r == 0 else r if c == 0 else None for c in range(g)] for r in range(g)]
    cells = [(r, c) for r in range(1, g) for c in range(1, g)]

    def fill(k):
        if k == len(cells):
            return True
        r, c = cells[k]
        used = set(table[r][:c]) | {table[i][c] for i in range(r)}
        candidates = [v for v in range(g) if v not in used]
        rnd.shuffle(candidates)
        for v in candidates:
            table[r][c] = v
            if fill(k + 1):
                return True
        table[r][c] = None
        return False

    fill(0)
    return table


def oracle_from_data(breakpoints, values, final_slope):
    """Two-pass normalization: the slope into each breakpoint is measured from
    the last breakpoint kept, the slope out of it to the next one."""
    bps, vals = list(map(Fraction, breakpoints)), list(map(Fraction, values))
    final_slope = Fraction(final_slope)
    keep = [0]
    for i in range(1, len(bps) - 1):
        s_in = (vals[i] - vals[keep[-1]]) / (bps[i] - bps[keep[-1]])
        s_out = (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
        if s_in != s_out:
            keep.append(i)
    if len(bps) > 1:
        i = len(bps) - 1
        s_in = (vals[i] - vals[keep[-1]]) / (bps[i] - bps[keep[-1]])
        if s_in != final_slope:
            keep.append(i)
    return PiecewiseLinear(tuple(bps[i] for i in keep), tuple(vals[i] for i in keep), final_slope)


SIXTHS = st.integers(-120, 120).map(lambda k: Fraction(k, 6))  # in [-20, 20]


@st.composite
def piecewise_data(draw):
    """1-8 breakpoints; each segment may repeat the slope before it, which makes
    runs of collinear points, and the final slope may repeat the last segment's."""
    count = draw(st.integers(1, 8))
    positive = st.integers(1, 30).map(lambda k: Fraction(k, 6))
    widths = draw(st.lists(positive, min_size=count - 1, max_size=count - 1))
    slopes = [draw(SIXTHS)]
    for _ in widths:  # one slope per segment after the first, then the final one
        slopes.append(slopes[-1] if draw(st.booleans()) else draw(SIXTHS))
    bps, vals = [draw(SIXTHS)], [draw(SIXTHS)]
    for width, slope in zip(widths, slopes):
        bps.append(bps[-1] + width)
        vals.append(vals[-1] + slope * width)
    return bps, vals, slopes[-1]


# a Latin square with identity 0 that is not associative
ORDER_5_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


class TestFilteredGroup:
    def test_rejects_non_class_function(self):
        # S3 with depths separating conjugate transpositions
        import itertools

        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
        ]
        identity = index[(0, 1, 2)]
        depths = [INFINITY if i == identity else 1 for i in range(6)]
        FilteredGroup(table, identity, depths)  # valid: constant depth
        # conjugation by the first generator fixes (0, 2, 1), so that case is
        # caught only under a later one
        for transposition in [index[(1, 0, 2)], index[(0, 2, 1)]]:
            bad = list(depths)
            bad[transposition] = 2
            with pytest.raises(InvalidArgumentError, match="class function"):
                FilteredGroup(table, identity, bad)

    def test_rejects_unclosed_depth_sets(self):
        # Z/4: inverse-invariant and a class function, but 1 + 1 = 2 leaves G_1
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(InvalidArgumentError, match="not closed under multiplication"):
            FilteredGroup(table, 0, [INFINITY, 2, 1, 2])

    @pytest.mark.parametrize(
        "table, identity, depths",
        [
            ([[0, 1], [1, 0]], 0, [INFINITY, 1.5]),
            ([[0, 1], [1, 0]], 0, [INFINITY, 1.0]),
            ([[0, 1], [1, 0]], 0, [INFINITY, True]),
            ([[0, 1], [1, 0]], 0, [INFINITY, Fraction(1)]),
            ([[0, 1], [1, 0]], 0, [INFINITY, "1"]),
            ([[0, 1], [1, 0]], 0, [True, 1]),
            ([[0, 1], [1.9, 0]], 0, [INFINITY, 1]),
            ([[0, 1], [1, False]], 0, [INFINITY, 1]),
            ([[0, 1], [1, 0]], 0.0, [INFINITY, 1]),
            ([[0, 1], [1, 0]], False, [INFINITY, 1]),
        ],
    )
    def test_rejects_inexact_input(self, table, identity, depths):
        with pytest.raises(InvalidArgumentError):
            FilteredGroup(table, identity, depths)

    # every malformed table keeps its message; checks run in this order
    @pytest.mark.parametrize(
        "table, identity, message",
        [
            ([], 0, "identity index out of range"),
            ([[0, 1], [1]], 0, "not square"),
            ([[0, 1]], 0, "not square"),
            ([[0, 1], [1, False]], 0, "must be integers"),
            ([[0, 1], [1.0, 0]], 0, "must be integers"),
            ([[0, "1"], [1, 0]], 0, "must be integers"),
            ([[0, 1], [1, -1]], 0, "out of range"),
            ([[0, 1], [1, 2]], 0, "out of range"),
            ([[0, 1], [1, 0]], 0.0, "identity must be an integer index"),
            ([[0, 1], [1, 0]], 2, "identity index out of range"),
            ([[0, 2, 1], [1, 2, 0], [2, 0, 1]], 0, "does not act trivially"),  # identity row
            ([[0, 1, 2], [2, 2, 0], [1, 0, 1]], 0, "does not act trivially"),  # identity column
            ([[0, 1, 2], [1, 2, 0], [2, 1, 1]], 0, "element 2 has no inverse"),
        ],
    )
    def test_malformed_table_messages(self, table, identity, message):
        depths = [INFINITY] + [1] * (len(table) - 1)
        with pytest.raises(InvalidArgumentError, match=message):
            FilteredGroup(table, identity, depths)

    def test_rejects_all_infinite(self):
        with pytest.raises(InvalidArgumentError):
            FilteredGroup([[0, 1], [1, 0]], 0, [INFINITY, INFINITY])

    def test_rejects_broken_table(self):
        with pytest.raises(InvalidArgumentError):
            FilteredGroup([[0, 1], [0, 1]], 0, [INFINITY, 1])
        with pytest.raises(InvalidArgumentError, match="element 1 has no inverse"):
            FilteredGroup([[0, 1], [1, 1]], 0, [INFINITY, 1])

    @pytest.mark.parametrize(
        "table",
        [
            # found by the associativity check
            ORDER_5_LOOP,
            # needs three generators at order 7, more than log2(7)
            [
                [0, 1, 2, 3, 4, 5, 6],
                [1, 0, 4, 2, 6, 3, 5],
                [2, 4, 0, 6, 5, 1, 3],
                [3, 5, 6, 0, 2, 4, 1],
                [4, 2, 1, 5, 3, 6, 0],
                [5, 6, 3, 4, 1, 0, 2],
                [6, 3, 5, 1, 0, 2, 4],
            ],
        ],
    )
    def test_rejects_non_associative_loop(self, table):
        # identity and inverses hold; only associativity fails
        assert not is_associative(table)
        with pytest.raises(InvalidArgumentError, match="not associative"):
            FilteredGroup(table, 0, [INFINITY] + [1] * (len(table) - 1))

    def test_rejects_non_associative_product_at_order_500(self):
        # the order-5 loop times Z/100: a greedy S exists, so the rejection
        # comes from comparing rows, not from the generator bound
        loop, m = ORDER_5_LOOP, 100
        table = [
            [loop[a // m][b // m] * m + (a + b) % m for b in range(5 * m)] for a in range(5 * m)
        ]
        assert ramification._greedy_generators(table, 0, set(range(5 * m))) is not None
        with pytest.raises(InvalidArgumentError, match="not associative"):
            FilteredGroup(table, 0, [INFINITY] + [1] * (5 * m - 1))

    def test_rejects_one_changed_entry_at_order_512(self):
        group = cyclotomic_group(2, 10)
        x, y = 5, 100
        assert y not in group._generators and x != group.identity
        table = [list(row) for row in group.table]
        table[x][y] = table[x][y + 1]
        assert ramification._greedy_generators(table, 0, set(range(512))) == group._generators
        with pytest.raises(InvalidArgumentError, match="not associative"):
            FilteredGroup(table, group.identity, group.depths)

    def test_elementary_abelian_order_512(self):
        # the valid table that needs the most generators (nine) at the order bound
        n = 512
        group = FilteredGroup(
            [[a ^ b for b in range(n)] for a in range(n)], 0, [INFINITY] + [1] * (n - 1)
        )
        assert group.inverses == tuple(range(n))

    @given(loop_tables())
    @settings(deadline=None)
    def test_acceptance_matches_brute_force(self, table):
        depths = [INFINITY] + [1] * (len(table) - 1)
        if is_associative(table):
            FilteredGroup(table, 0, depths)
        else:
            with pytest.raises(InvalidArgumentError, match="not associative"):
                FilteredGroup(table, 0, depths)

    def test_order_bound(self):
        with pytest.raises(ResourceLimitError):
            n = 600
            FilteredGroup(
                [[(a + b) % n for b in range(n)] for a in range(n)],
                0,
                [INFINITY] + [1] * (n - 1),
            )

    @pytest.mark.parametrize("p, n", [(2, 11), (31, 2)])
    def test_cyclotomic_order_bound(self, p, n, monkeypatch):
        # rejected from p and n alone, before any table is built
        monkeypatch.setattr(ramification, "FilteredGroup", None)
        with pytest.raises(ResourceLimitError):
            cyclotomic_group(p, n)

    def test_cyclotomic_below_order_bound(self):
        assert cyclotomic_group(3, 6).order == 486


class TestLowerFiltration:
    def test_tame_instance(self):
        group = tame_cyclic(5)
        chain = lower_filtration(group)
        assert [(n, len(s)) for n, s in chain] == [(-1, 5), (0, 5), (1, 1)]

    def test_cyclotomic_3_2(self):
        group = cyclotomic_group(3, 2)
        chain = dict(lower_filtration(group))
        assert len(chain[0]) == 6
        assert len(chain[1]) == 3 and chain[1] == chain[2]
        assert len(chain[3]) == 1

    def test_depth_multiset_3_2(self):
        group = cyclotomic_group(3, 2)
        finite = sorted(d for i, d in enumerate(group.depths) if i != group.identity)
        assert finite == [1, 1, 1, 3, 3]


class TestHerbrandFunctions:
    def test_tame_slope(self):
        group = tame_cyclic(6)
        phi, psi = herbrand_functions(group)
        assert phi.evaluate(0) == 0
        assert phi.evaluate(-1) == -1
        assert phi.evaluate(3) == Fraction(1, 2)
        assert psi.evaluate(Fraction(1, 2)) == 3

    def test_cyclotomic_integer_values(self):
        for p, n in [(2, 3), (3, 2), (3, 3), (5, 2)]:
            group = cyclotomic_group(p, n)
            phi, psi = herbrand_functions(group)
            for m in range(n + 1):
                assert phi.evaluate(p**m - 1) == m
                assert psi.evaluate(m) == p**m - 1

    def test_psi_maps_integers_to_integers(self):
        for p, n in [(2, 4), (3, 3), (7, 2)]:
            _, psi = herbrand_functions(cyclotomic_group(p, n))
            for v in range(0, 12):
                assert psi.evaluate(v).denominator == 1

    def test_infimum_route_agrees(self, rng):
        for p, n in [(2, 3), (3, 2), (5, 2), (7, 2)]:
            group = cyclotomic_group(p, n)
            phi, _ = herbrand_functions(group)
            for _ in range(100):
                u = Fraction(rng.randint(-20, 400), rng.randint(1, 20))
                if u < -1:
                    u = -u - 1
                assert phi_via_infimum(group, u) == phi.evaluate(u)

    @given(piecewise_data())
    @settings(max_examples=200, deadline=None)
    def test_from_data_matches_the_two_pass_normalization(self, data):
        assert PiecewiseLinear.from_data(*data) == oracle_from_data(*data)

    def test_piecewise_linear_composition(self):
        inner = PiecewiseLinear.from_data([-1, 0, 1], [-1, 0, Fraction(1, 2)], Fraction(1, 4))
        outer = PiecewiseLinear.from_data([-1, 0], [-1, 0], Fraction(1, 3))
        composed = outer.compose(inner)
        for u in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 7):
            assert composed.evaluate(u) == outer.evaluate(inner.evaluate(u))


class TestQuotientFiltration:
    def test_quotient_by_whole_group(self):
        group = cyclotomic_group(3, 2)
        q = quotient_filtration(group, frozenset(range(group.order)))
        assert q.order == 1

    def test_quotient_by_trivial(self):
        group = cyclotomic_group(3, 2)
        q = quotient_filtration(group, frozenset({group.identity}))
        assert q.order == group.order and q.depths == group.depths

    def test_tame_quadratic_quotient(self):
        group = cyclotomic_group(3, 2)
        order3 = next(s for s in all_subgroups(group) if len(s) == 3)
        q = quotient_filtration(group, order3)
        assert q.order == 2
        assert sorted(d for i, d in enumerate(q.depths) if i != q.identity) == [1]

    def test_non_normal_rejected(self):
        import itertools

        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
        ]
        identity = index[(0, 1, 2)]
        group = FilteredGroup(table, identity, [INFINITY if i == identity else 1 for i in range(6)])
        transposition = index[(1, 0, 2)]
        with pytest.raises(InvalidArgumentError):
            quotient_filtration(group, frozenset({identity, transposition}))

    # a set literal {0, 0.0} is {0}; a list keeps the float
    @pytest.mark.parametrize("elements", [{0, 600}, {0, -1}, [0, 0.0], {0.0}, {True}])
    def test_rejects_elements_that_are_not_indices(self, elements):
        group = cyclotomic_group(3, 2)
        with pytest.raises(InvalidArgumentError, match="integer indices"):
            quotient_filtration(group, elements)
        with pytest.raises(InvalidArgumentError, match="integer indices"):
            subgroup_filtration(group, elements)
        with pytest.raises(InvalidArgumentError, match="integer indices"):
            is_subgroup(group, elements)
        with pytest.raises(InvalidArgumentError, match="integer indices"):
            is_normal(group, elements)

    def test_quotient_reads_phi_of_the_subgroup_from_the_parent(self, monkeypatch):
        # phi_H comes from H's depths in the parent: building the quotient
        # builds the quotient table, checked or derived, and no table for H
        built, construct, derive = [], FilteredGroup.__init__, FilteredGroup._derived.__func__

        def recording(self, table, identity, depths):
            built.append(len(table))
            construct(self, table, identity, depths)

        def recording_derived(cls, identity, row_of, depths, inverses):
            built.append(len(depths))
            return derive(cls, identity, row_of, depths, inverses)

        group = cyclotomic_group(2, 10)
        monkeypatch.setattr(FilteredGroup, "__init__", recording)
        monkeypatch.setattr(FilteredGroup, "_derived", classmethod(recording_derived))
        for elements, order in [(range(512), 1), (cyclotomic_reduction_kernel(2, 10, 3), 4)]:
            built.clear()
            quotient, _ = ramification.quotient_with_projection(group, elements)
            assert quotient.order == order
            assert built == [order]

    def test_phi_of_depths_matches_the_rebuilt_subgroup(self):
        for p, n in [(2, 4), (3, 3), (5, 2)]:
            group = cyclotomic_group(p, n)
            for h in all_subgroups(group):
                depths = sorted(group.depths[t] for t in h if t != group.identity)
                rebuilt, _ = herbrand_functions(subgroup_filtration(group, h))
                assert ramification._phi_of_depths(depths) == rebuilt


class TestUpperNumbering:
    def test_cyclotomic_kernels(self):
        for p, n in [(2, 3), (3, 2), (5, 2)]:
            group = cyclotomic_group(p, n)
            upper = upper_numbering(group)
            for m in range(n + 1):
                assert upper.subgroup_at(m) == cyclotomic_reduction_kernel(p, n, m)

    def test_jump_positions(self):
        assert upper_numbering(cyclotomic_group(3, 2)).jumps == (0, 1)
        assert upper_numbering(cyclotomic_group(2, 3)).jumps == (1, 2)
        assert upper_numbering(cyclotomic_group(2, 4)).jumps == (1, 2, 3)


class TestDifferentDiscriminant:
    def test_tame_case(self):
        for e in (2, 3, 5, 8):
            report = different_discriminant(tame_cyclic(e), 3)
            assert report.different_exponent == e - 1
            assert report.discriminant_exponent == 3 * (e - 1)

    def test_cyclotomic_closed_form(self):
        for p, n in [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
            report = different_discriminant(cyclotomic_group(p, n))
            assert report.different_exponent == n * p**n - (n + 1) * p ** (n - 1)

    def test_vanishes_only_for_first_even_level(self):
        assert different_discriminant(cyclotomic_group(2, 1)).different_exponent == 0
        assert different_discriminant(cyclotomic_group(2, 2)).different_exponent > 0


class TestGroupLaws:
    def test_commutator_depth(self):
        # commutators of depth >= r+1 and >= s+1 elements land at depth >= r+s+1
        for p, n in [(2, 3), (3, 2), (2, 4)]:
            g = cyclotomic_group(p, n)
            mul, inv, d = g.table, g.inverses, g.depths
            for s in range(g.order):
                for t in range(g.order):
                    c = mul[mul[s][t]][mul[inv[s]][inv[t]]]
                    if s == g.identity or t == g.identity:
                        continue
                    assert d[c] >= min(d[s] + d[t], INFINITY) or c == g.identity

    def test_segment_quotients_elementary_abelian(self):
        # G_r / G_{r'} for consecutive positive jumps: exponent p and abelian
        for p, n in [(2, 3), (2, 4), (3, 3), (5, 2)]:
            group = cyclotomic_group(p, n)
            jumps = [u for u in group.lower_jumps() if u > 0]
            for u in jumps:
                sub = subgroup_filtration(group, group.subgroup(u))
                nxt = {i for i, e in enumerate(sorted(group.subgroup(u)))
                       if e in group.subgroup(u + 1)}
                for a in range(sub.order):
                    power = sub.identity
                    for _ in range(p):
                        power = sub.table[power][a]
                    assert power in nxt or power == sub.identity
                    for b in range(sub.order):
                        comm = sub.table[sub.table[a][b]][
                            sub.table[sub.inverses[a]][sub.inverses[b]]
                        ]
                        assert comm in nxt or comm == sub.identity

    def test_quotient_by_filtration_step(self):
        # modding out G_m preserves the filtration below m and kills it above
        from localarith.ramification import quotient_with_projection

        for p, n in [(2, 3), (3, 2), (3, 3)]:
            group = cyclotomic_group(p, n)
            for m in range(0, group.max_depth()):
                h = group.subgroup(m)
                if len(h) == group.order:
                    continue
                q, proj = quotient_with_projection(group, h)
                for k in range(-1, m + 1):
                    image = frozenset(proj[x] for x in group.subgroup(k))
                    assert q.subgroup(k) == image
                assert len(q.subgroup(m)) == 1


def test_exclusive_threshold_identity():
    # {s : depth(s) > 1} agrees with the level-1 subgroup on integer depths
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        group = cyclotomic_group(p, n)
        exclusive = frozenset(
            i for i in range(group.order) if group.depths[i] > 1
        )
        assert exclusive == group.subgroup(1)


# ---------------------------------------------------------------------------
# brute-force oracles: pairwise products, all conjugates, fixpoint closure and
# scans over every integer level
# ---------------------------------------------------------------------------


def _table_from(generators, mul, one):
    """Cayley table of the group generated by ``generators``; index 0 is ``one``."""
    elements = [one]
    for x in elements:
        for s in generators:
            if mul(x, s) not in elements:
                elements.append(mul(x, s))
    index = {x: i for i, x in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def _compose(p, q):
    return tuple(p[i] for i in q)


def _quaternion(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


SMALL_GROUPS = {
    **{f"C{n}": ([[(a + b) % n for b in range(n)] for a in range(n)], 0) for n in (1, 2, 5, 6, 8, 12)},
    "C2^3": ([[a ^ b for b in range(8)] for a in range(8)], 0),
    "S3": (_table_from([(1, 0, 2), (1, 2, 0)], _compose, (0, 1, 2)), 0),
    "D4": (_table_from([(1, 2, 3, 0), (0, 3, 2, 1)], _compose, (0, 1, 2, 3)), 0),
    "Q8": (_table_from([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion, (1, 0, 0, 0)), 0),
    **{
        f"cyclotomic({p},{n})": (cyclotomic_group(p, n).table, cyclotomic_group(p, n).identity)
        for p, n in [(2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (7, 2), (61, 1)]
    },
}


def comprehension_cyclotomic_table(p, n):
    """The Cayley table of (Z/p^nZ)^* one entry at a time, in cyclotomic_group's order."""
    q = p**n
    units = [a for a in range(1, q) if a % p != 0]
    index = {a: i for i, a in enumerate(units)}
    return tuple(tuple(index[a * b % q] for b in units) for a in units)


COMPREHENSION_CASES = (
    [(2, n) for n in range(1, 11)]
    + [(3, n) for n in range(1, 7)]
    + [(p, 2) for p in (5, 7, 13, 23)]
    + [(509, 1)]
)
INDUCED_CASES = ["C1", "C12", "S3", "D4", "Q8", "cyclotomic(2,4)", "cyclotomic(3,4)"]


@pytest.mark.parametrize("p, n", COMPREHENSION_CASES)
def test_cyclotomic_table_matches_the_comprehension(p, n):
    assert cyclotomic_group(p, n).table == comprehension_cyclotomic_table(p, n)


@pytest.mark.parametrize("name", INDUCED_CASES)
def test_induced_tables_match_the_comprehension(name):
    # every subgroup and every normal quotient, trivial and whole included,
    # of abelian and of non-abelian groups (which tell ab from ba)
    table, identity = SMALL_GROUPS[name]
    group = FilteredGroup(table, identity, [INFINITY if i == identity else 1 for i in range(len(table))])
    for h in all_subgroups(group):
        elems = sorted(h)
        index = {e: i for i, e in enumerate(elems)}
        sub = subgroup_filtration(group, h)
        assert sub.table == tuple(tuple(index[table[a][b]] for b in elems) for a in elems)
        if is_normal(group, h):
            quotient, proj = ramification.quotient_with_projection(group, h)
            reps = [proj.index(i) for i in range(quotient.order)]
            assert quotient.table == tuple(tuple(proj[table[a][b]] for b in reps) for a in reps)


# cyclotomic_group, subgroup_filtration and quotient_with_projection build
# groups by construction and skip the constructor's checks; these tests run
# every check on what they build


def assert_passes_the_checks(group):
    """The public constructor accepts the group's data and rebuilds it exactly:
    table, depths, inverses and Light's S; and every lower filtration level,
    which lower_filtration does not check, is normal."""
    checked = FilteredGroup(group.table, group.identity, group.depths)
    assert vars(checked) == vars(group)
    levels = {level for _, level in lower_filtration(group)}
    assert all(is_normal(group, level) for level in levels)


def assert_subgroups_and_quotients_pass_the_checks(group):
    for h in all_subgroups(group):
        assert_passes_the_checks(subgroup_filtration(group, h))
        if is_normal(group, h):
            assert_passes_the_checks(quotient_filtration(group, h))


@pytest.mark.parametrize("p, n", COMPREHENSION_CASES)
def test_derived_cyclotomic_groups_pass_the_checks(p, n):
    assert_passes_the_checks(cyclotomic_group(p, n))


@pytest.mark.parametrize("name", INDUCED_CASES)
def test_derived_subgroups_and_quotients_pass_the_checks(name):
    table, identity = SMALL_GROUPS[name]
    depths = [INFINITY if i == identity else 1 for i in range(len(table))]
    assert_subgroups_and_quotients_pass_the_checks(FilteredGroup(table, identity, depths))


@pytest.mark.parametrize("p, n", [(2, 4), (2, 6), (3, 4), (5, 2)])
def test_derived_subgroups_and_quotients_of_cyclotomic_groups_pass_the_checks(p, n):
    # the parent is itself derived, and its depths are not all 1
    assert_subgroups_and_quotients_pass_the_checks(cyclotomic_group(p, n))


PRIME_POWERS_TO_243 = [
    (p, n)
    for p in range(2, 244)
    if all(p % d for d in range(2, p))
    for n in range(1, 8)
    if p**n <= 243
]


@functools.lru_cache(maxsize=None)
def cyclotomic_with_subgroups(p, n):
    group = cyclotomic_group(p, n)
    return group, all_subgroups(group)


@given(st.sampled_from(PRIME_POWERS_TO_243))
@settings(deadline=None, max_examples=40)
def test_herbrand_theorem_for_quotients(p_n):
    # (G/H)^v is the image of G^v, for every H (G is abelian, so H is normal)
    # and every v at -1, at an upper jump of G, one past the last, and halfway
    # between any two of these neighbours
    group, subgroups = cyclotomic_with_subgroups(*p_n)
    upper = upper_numbering(group)
    ends = [-1, *upper.jumps]
    ends.append(ends[-1] + 1)
    points = ends + [Fraction(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for h in subgroups:
        quotient, proj = ramification.quotient_with_projection(group, h)
        quotient_upper = upper_numbering(quotient)
        for v in points:
            assert quotient_upper.subgroup_at(v) == frozenset(proj[x] for x in upper.subgroup_at(v))


def oracle_is_subgroup(table, identity, elements):
    return identity in elements and all(table[a][b] in elements for a in elements for b in elements)


def oracle_is_normal(table, identity, elements):
    inv = [row.index(identity) for row in table]
    return oracle_is_subgroup(table, identity, elements) and all(
        table[t][table[s][inv[t]]] in elements for t in range(len(table)) for s in elements
    )


@functools.lru_cache(maxsize=None)
def oracle_all_subgroups(name):
    table, identity = SMALL_GROUPS[name]

    def closure(seed):
        elems = set(seed) | {identity}
        added = True
        while added:
            added = False
            for a in list(elems):
                for b in list(elems):
                    if table[a][b] not in elems:
                        elems.add(table[a][b])
                        added = True
        return frozenset(elems)

    found = {frozenset({identity})}
    frontier = [frozenset({identity})]
    while frontier:
        base = frontier.pop()
        for x in range(len(table)):
            if x not in base:
                new = closure(base | {x})
                if new not in found:
                    found.add(new)
                    frontier.append(new)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def oracle_valid_depths(table, identity, depths):
    g = range(len(table))
    inv = [row.index(identity) for row in table]
    return (
        all(depths[inv[s]] == depths[s] for s in g)
        and all(depths[table[t][table[s][inv[t]]]] == depths[s] for s in g for t in g)
        and all(depths[table[s][t]] >= min(depths[s], depths[t]) for s in g for t in g)
    )


def oracle_level(group, n):
    if n <= -1:
        return frozenset(range(group.order))
    return frozenset(s for s in range(group.order) if group.depths[s] >= n + 1)


def oracle_lower_jumps(group):
    jumps, u = [], -1
    while len(oracle_level(group, u)) > 1:
        if oracle_level(group, u) != oracle_level(group, u + 1):
            jumps.append(u)
        u += 1
    return tuple(jumps)


def oracle_herbrand(group):
    g0 = len(oracle_level(group, 0))
    bps, vals = [Fraction(-1), Fraction(0)], [Fraction(-1), Fraction(0)]
    for m in range(group.max_depth()):
        bps.append(Fraction(m + 1))
        vals.append(vals[-1] + Fraction(len(oracle_level(group, m + 1)), g0))
    phi = PiecewiseLinear.from_data(bps, vals, Fraction(1, g0))
    return phi, phi.inverse()


def oracle_lower_filtration(group):
    out, n = [], -1
    while True:
        out.append((n, oracle_level(group, n)))
        if len(out[-1][1]) == 1:
            return out
        n += 1


@st.composite
def filtered_groups(draw):
    """A small group with a random valid depth function.

    Valid depths are those whose levels {s : depth(s) >= d} form a chain of
    normal subgroups; the depth steps up by 1-3 along the chain.
    """
    name = draw(st.sampled_from(sorted(SMALL_GROUPS)))
    table, identity = SMALL_GROUPS[name]
    normals = [h for h in oracle_all_subgroups(name) if oracle_is_normal(table, identity, h)]
    chain = [frozenset(range(len(table)))]
    while len(chain[-1]) > 1:
        chain.append(draw(st.sampled_from([h for h in normals if h < chain[-1]])))
    depths = [INFINITY] * len(table)
    level = 0
    for upper, lower in zip(chain, chain[1:]):
        level += draw(st.integers(1, 3))
        for s in upper - lower:
            depths[s] = level
    return name, table, identity, depths


@given(filtered_groups(), st.data())
@settings(deadline=None, max_examples=80)
def test_queries_match_brute_force(case, data):
    name, table, identity, depths = case
    group = FilteredGroup(table, identity, depths)
    subgroups = oracle_all_subgroups(name)
    assert all_subgroups(group) == subgroups
    for h in subgroups:
        assert is_subgroup(group, h)
        assert is_normal(group, h) == oracle_is_normal(table, identity, h)
    # near misses: one element toggled in a subgroup
    h = data.draw(st.sampled_from(subgroups)) ^ {data.draw(st.integers(0, group.order - 1))}
    assert is_subgroup(group, h) == oracle_is_subgroup(table, identity, h)
    assert is_normal(group, h) == oracle_is_normal(table, identity, h)

    assert group.lower_jumps() == oracle_lower_jumps(group)
    assert herbrand_functions(group) == oracle_herbrand(group)
    assert different_discriminant(group).segment_orders == tuple(
        len(oracle_level(group, n)) for n in range(group.max_depth() + 1)
    )
    assert lower_filtration(group) == oracle_lower_filtration(group)
    levels = {level for _, level in lower_filtration(group)}
    assert all(oracle_is_normal(table, identity, level) for level in levels)

    # one depth changed: the constructor agrees with the brute-force conditions
    if group.order > 1:
        s = data.draw(st.sampled_from([x for x in range(group.order) if x != identity]))
        changed = list(depths)
        changed[s] = data.draw(st.integers(1, group.max_depth() + 1))
        if oracle_valid_depths(table, identity, changed):
            FilteredGroup(table, identity, changed)
        else:
            with pytest.raises(InvalidArgumentError):
                FilteredGroup(table, identity, changed)
