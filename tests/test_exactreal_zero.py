"""Zero is structural: every tower is a genuine quadratic extension, so
``sign`` decides zero from the enclosure alone.

The conjugate-norm test ``_norm_is_zero`` and a direct mpmath evaluation
of the value's tree serve as independent oracles.
"""

from contextlib import contextmanager

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from sulvalab import exactreal as er
from sulvalab.exactreal import sqrt

from oracle_util import mp_value, raw_node

ORACLE_BITS = 800

# -- the tower invariant -------------------------------------------------------------


@contextmanager
def _genuine_extensions_only():
    """Check that every tower created inside adjoins a positive non-square.

    The check runs as each tower is made: a later sign on a tower that
    adjoins a square could refine forever.
    """
    init = er.Tower.__init__
    created = []

    def checking(self, parent, radicand):
        assert radicand.sign() > 0
        assert er._sqrt_within(parent, radicand) is None, (parent, radicand)
        created.append(radicand)
        init(self, parent, radicand)

    er.Tower.__init__ = checking
    try:
        yield created
    finally:
        er.Tower.__init__ = init


def _nested_radical(root: int, steps) -> er.ConstructibleReal:
    """``sqrt(a_k + b_k*sqrt(... + b_1*sqrt(root)))`` from ``steps = [(a, b), ...]``."""
    x = sqrt(root)
    for a, b in steps:
        x = sqrt(a + b * x)
    return x


# small roots make denestable steps likely, like (3, 2) over sqrt(2)
_roots = st.one_of(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=10**6))
_steps = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3)),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(_roots, _steps, _roots, st.integers(min_value=0, max_value=1))
def test_every_tower_adjoins_a_non_square(root, steps, other_root, other_height):
    # heights 1-4 (some steps denest, like sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2)),
    # then a product across chains and a division that inverts the top level
    with _genuine_extensions_only():
        x = _nested_radical(root, steps)
        y = _nested_radical(other_root, [(1, 1)] * other_height)
        assert (x * y / y - x).sign() == 0
        if (x - 1).sign():
            assert (x + 1) / (x - 1) * (x - 1) == x + 1


def test_denesting_and_merging_reuse_existing_levels():
    # every radicand below is a square one level down, or becomes one once
    # the chains are merged, so none of them may open a tower
    with _genuine_extensions_only() as created:
        s19, s23, s29, s31, s589 = sqrt(19), sqrt(23), sqrt(29), sqrt(31), sqrt(589)
        assert sqrt(24 + 2 * s23) == 1 + s23
        assert sqrt(30 + 2 * s29) == 1 + s29
        assert s589 * s19 * s31 == 589
        assert s19 * s31 * s589 == 589
        x = sqrt(7 + s31)
        assert sqrt(x * x) == x
        assert sqrt((x + 1) * (x + 1)) == x + 1
    assert created  # the radicands are fresh, so the checks ran


def test_deep_tower_shape_adjoins_only_non_squares():
    # sqrt(p0 + sqrt(p1 + ...)) at heights 2, 4 and 6 with (x+1)/(x-1),
    # sqrt(x*x) and a product with an independent sqrt(p)
    primes = (211, 223, 227, 229, 233, 239)
    with _genuine_extensions_only() as created:
        for height in (2, 4, 6):
            x = sqrt(primes[0])
            for p in primes[1:height]:
                x = sqrt(x + p)
            y = (x + 1) / (x - 1)
            assert y * (x - 1) == x + 1
            assert sqrt(x * x) == x
            if height < 6:
                assert (x * sqrt(241)).tower.height == height + 1
    assert created


# -- sign against two independent zero oracles -------------------------------------


def _assert_sign_matches_oracles(x: er.ConstructibleReal) -> None:
    s = x.sign()
    assert (s == 0) == er._norm_is_zero(x), x
    with mpmath.workprec(ORACLE_BITS):
        reference = mp_value(x)
        if s == 0:
            assert abs(reference) < mpmath.mpf(2) ** (100 - ORACLE_BITS)
        else:
            assert abs(reference) > mpmath.mpf(2) ** (200 - ORACLE_BITS)
            assert s == (1 if reference > 0 else -1)


_small = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _canonical(draw, terms):
    """A rational plus ``terms`` radicals ``sqrt(r + k*sqrt(2))``, each with a
    small rational coefficient; towers of height 1-4 across several chains."""
    x = er.constructible(draw(_small))
    radicand = draw(st.sampled_from((2, 3, 5, 7)))
    for _ in range(terms):
        level = sqrt(radicand + sqrt(2) * draw(st.integers(min_value=0, max_value=2)))
        x = x + level * draw(_small)
        radicand = draw(st.integers(min_value=1, max_value=9))
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(_canonical), _small)
def test_sign_of_canonical_values_matches_oracles(x, q):
    # x minus a dyadic within 2**-40 or 2**-100 of it straddles zero in the
    # first rounds, so those rounds must not answer
    near = [x - er.enclose(x, bits).midpoint() for bits in (40, 100)]
    for value in (x, x - x, x - q, x * x - x * x, (x - q) * (x + q), *near):
        _assert_sign_matches_oracles(value)


def _tower_of_height(height: int) -> er.Tower:
    x = sqrt(2)
    for _ in range(height - 1):
        x = sqrt(1 + x)
    return x.tower


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_of_raw_nodes_with_zero_coefficients_matches_oracles(data):
    tower = _tower_of_height(data.draw(st.integers(min_value=1, max_value=3)))
    below = tower.parent

    def coefficient():
        # zero, a rational, or (at height >= 2) a raw node one level down
        kind = data.draw(st.sampled_from(("zero", "rational", "raw")))
        if kind == "zero" or (kind == "raw" and below is None):
            return er._ZERO
        if kind == "rational":
            return er.constructible(data.draw(_small))
        return raw_node(below, er._ZERO, er.constructible(data.draw(_small)))

    _assert_sign_matches_oracles(raw_node(tower, coefficient(), coefficient()))
    _assert_sign_matches_oracles(raw_node(tower, er._ZERO, er._ZERO))


def test_deep_differences_with_themselves_are_zero():
    x = sqrt(101)
    for p in (103, 107, 109, 113, 127):
        x = sqrt(x + p)
    assert x.tower.height == 6
    for zero in (x - x, (x + 1) / (x - 1) * (x - 1) - (x + 1)):
        assert zero.is_zero()
        _assert_sign_matches_oracles(zero)
    _assert_sign_matches_oracles(x - sqrt(x * x))


# -- last: the whole registry ------------------------------------------------------


def _registered_towers():
    pending = [tower for _, tower in er._ROOT_EXTENSIONS]
    while pending:
        tower = pending.pop()
        yield tower
        pending.extend(child for _, child in tower._children)


def test_registry_holds_only_genuine_extensions():
    # catches a bad tower made by any earlier test of the session, too
    assert (sqrt(3 + sqrt(5)) * sqrt(7)).tower.height == 3
    for tower in _registered_towers():
        assert tower.radicand.sign() > 0
        assert er._sqrt_within(tower.parent, tower.radicand) is None, tower
