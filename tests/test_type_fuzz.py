"""A type fuzz of the public callables: wrong types get a LocalArithError.

Every callable in ``localarith.__all__`` (modules, exception classes and
constants aside) is called with 0-4 arguments drawn from one typed pool.
Each call must return, or raise an error of the library's own hierarchy,
within 2 s; a bare TypeError or AttributeError is an argument that passed
the boundary unchecked.  A returned iterator is stepped a few times, since
a generator checks nothing before its first step.
"""

import inspect
import itertools
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localarith
from localarith import (
    FiniteField,
    FqPoly,
    LocalArithError,
    PadicNumber,
    PadicPolynomial,
    RationalPlace,
    TruncatedSeries,
    cyclotomic_group,
)

from conftest import deadline

# each entry builds a fresh value, so a call that mutates its argument
# cannot change later draws
POOL = [
    *(lambda n=n: n for n in range(-3, 13)),
    lambda: Fraction(1, 3),
    lambda: Fraction(-5, 2),
    lambda: 0.5,
    lambda: float("nan"),
    lambda: True,
    lambda: None,
    lambda: "T",
    lambda: [],
    lambda: [1, 2],
    lambda: (1,),
    lambda: {1},
    lambda: ["a"],
    lambda: PadicNumber.from_rational(5, 7, 8),
    lambda: PadicPolynomial(7, [-2, 0, 1]),
    lambda: FqPoly(FiniteField(5), [1, 1]),
    lambda: FiniteField(5),
    lambda: cyclotomic_group(3, 2),
    lambda: RationalPlace(5),
    lambda: TruncatedSeries(5, [5, 1, 1], 3),
]


def _is_target(value):
    if inspect.ismodule(value) or not callable(value):
        return False
    return not (isinstance(value, type) and issubclass(value, BaseException))


def _arities(f):
    """The argument counts from 0 to 4 that f's signature binds."""
    signature = inspect.signature(f)
    out = []
    for n in range(5):
        try:
            signature.bind(*range(n))
        except TypeError:
            continue
        out.append(n)
    return out


ARGUMENT = st.sampled_from(POOL).map(lambda make: make())
TARGETS = {
    name: _arities(value)
    for name in localarith.__all__
    if _is_target(value := getattr(localarith, name))
}


def test_the_targets_are_the_public_callables():
    assert "FiniteField" in TARGETS and "weak_approximation" in TARGETS
    assert "errors" not in TARGETS and "INFINITY" not in TARGETS
    assert "InvalidArgumentError" not in TARGETS
    # five arguments or more: past the fuzz's reach
    assert [name for name, arities in TARGETS.items() if not arities] == [
        "RamificationReport",
        "hensel_lift_factors",
    ]


@pytest.mark.parametrize("name", [name for name, arities in TARGETS.items() if arities])
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_public_callable_returns_or_raises_a_library_error(name, data):
    f = getattr(localarith, name)
    n = data.draw(st.sampled_from(TARGETS[name]), label="arity")
    args = data.draw(st.lists(ARGUMENT, min_size=n, max_size=n), label="args")
    with deadline(2):
        try:
            result = f(*args)
            if isinstance(result, Iterator):
                list(itertools.islice(result, 3))
        except LocalArithError:
            pass
