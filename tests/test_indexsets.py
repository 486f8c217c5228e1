"""Eventually periodic sets: canonical algebra, exact rho, parser."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LONG_PERIODS,
    min_element,
    prefix_agreement,
    random_eventually_periodic,
    rho_partial,
)
from defectlab.families import ECHO_DIGITS
from defectlab.indexsets import (
    MAX_ELEMENT,
    MAX_NESTING,
    MAX_PERIOD,
    EventuallyPeriodicSet,
    SetSyntaxError,
    _min_period,
    parse_set,
    rho,
)

Q = Fraction

SCAN = 80  # covers every period * lcm and all exceptions used in these tests


def members(s, bound=SCAN):
    return {k for k in range(1, bound + 1) if s.contains(k)}


eps = st.builds(
    lambda period, residues, added, removed: EventuallyPeriodicSet.make(
        period, [r % period for r in residues], added,
        [k for k in removed if k not in added],
    ),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    st.lists(st.integers(min_value=1, max_value=20), max_size=3),
    st.lists(st.integers(min_value=1, max_value=20), max_size=3),
)


class TestCanonicalForm:
    def test_minimal_period(self):
        s = EventuallyPeriodicSet.make(4, [0, 1, 2, 3])
        assert s.period == 1 and s.residues == frozenset({0})

    def test_exceptions_normalized(self):
        # adding an element the pattern already contains is a no-op
        s = EventuallyPeriodicSet.make(2, [0], added=[4])
        assert s == EventuallyPeriodicSet.residue_class(2, [0])

    def test_double_complement_is_identity(self):
        a = parse_set("res(2;0)+1-2")
        assert a.complement().complement() == a

    @given(eps, eps)
    @settings(max_examples=100, deadline=None)
    def test_semantic_equality_is_structural(self, a, b):
        if members(a) == members(b):
            assert a == b

    @given(st.one_of(st.integers(1, 12), st.sampled_from(LONG_PERIODS)),
           st.lists(st.integers(0, 10 ** 4), max_size=5),
           st.lists(st.integers(1, 30), max_size=5),
           st.lists(st.integers(1, 30), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_exceptions_split_as_by_membership(self, period, residues, added, removed):
        # the reference asks each exception's membership (added first, then
        # removed, then the given pattern) against the minimal pattern
        pattern = {r % period for r in residues}

        def member(k):
            return k in added or (k not in removed and k % period in pattern)

        period2, residues2 = _min_period(period, frozenset(pattern))
        exceptions = set(added) | set(removed)
        expect = EventuallyPeriodicSet(
            period2, residues2,
            frozenset(k for k in exceptions if member(k) and k % period2 not in residues2),
            frozenset(k for k in exceptions if not member(k) and k % period2 in residues2))
        assert EventuallyPeriodicSet.make(period, residues, added, removed) == expect

    def test_describe_round_trip(self):
        for text in ["all", "none", "fin(1,5)", "res(3;0,2)", "res(2;1)+2-3"]:
            s = parse_set(text)
            assert parse_set(s.describe()) == s


class TestAlgebra:
    @given(eps, eps)
    @settings(max_examples=100, deadline=None)
    def test_operations_match_membership_scan(self, a, b):
        assert members(a.union(b)) == members(a) | members(b)
        assert members(a.intersection(b)) == members(a) & members(b)
        assert members(a.complement()) == set(range(1, SCAN + 1)) - members(a)
        assert members(a.symmetric_difference(b)) == members(a) ^ members(b)
        assert members(a.difference(b)) == members(a) - members(b)

    def test_truncate(self):
        assert parse_set("res(3;1)").truncate(10) == [1, 4, 7, 10]

    def test_min_element(self):
        assert min_element(parse_set("none")) is None
        assert min_element(parse_set("all-1-2")) == 3
        assert min_element(parse_set("fin(9,4)")) == 4


class TestRho:
    def test_worked_examples(self):
        evens = parse_set("res(2;0)")
        odds = parse_set("res(2;1)")
        assert rho(evens, odds) == Q(1)
        assert rho(parse_set("all"), parse_set("all-1")) == Q(1, 2)
        assert rho(parse_set("none"), parse_set("none")) == 0

    def test_closed_form_matches_partial_sum(self):
        rng = random.Random(41)
        for _ in range(200):
            a = random_eventually_periodic(rng)
            b = random_eventually_periodic(rng)
            exact = rho(a, b)
            partial = rho_partial(a, b, 40)
            assert 0 <= exact - partial <= Q(1, 2 ** 39)

    @given(eps, eps, eps)
    @settings(max_examples=80, deadline=None)
    def test_metric_axioms(self, a, b, c):
        assert rho(a, b) >= 0
        assert (rho(a, b) == 0) == (a == b)
        assert rho(a, b) == rho(b, a)
        assert rho(a, c) <= rho(a, b) + rho(b, c)

    def test_rho_bounded_by_one(self):
        assert rho(parse_set("all"), parse_set("none")) == Q(1)

    @given(eps, eps, st.lists(st.integers(1, 400), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_one_fraction_equals_the_sum_of_terms(self, a, b, extra):
        # the closed form summed one Fraction per residue and per exception
        a = a.symmetric_difference(EventuallyPeriodicSet.finite(extra))
        diff = a.symmetric_difference(b)
        p = diff.period
        terms = [Q(1, 2 ** (r if r >= 1 else p)) * Q(2 ** p, 2 ** p - 1)
                 for r in diff.residues]
        terms += [Q(1, 2 ** k) for k in diff.added] + [-Q(1, 2 ** k) for k in diff.removed]
        assert rho(a, b) == sum(terms, Q(0))


class TestPrefixAgreement:
    def test_worked_example(self):
        assert prefix_agreement(parse_set("all"), parse_set("all-5")) == 4

    def test_equal_sets_agree_forever(self):
        assert prefix_agreement(parse_set("res(2;0)"), parse_set("res(2;0)")) == math.inf

    @given(eps, eps)
    @settings(max_examples=60, deadline=None)
    def test_agreement_consistent_with_membership(self, a, b):
        m = prefix_agreement(a, b)
        if m == math.inf:
            assert a == b
        else:
            assert all(a.contains(k) == b.contains(k) for k in range(1, m + 1))
            assert a.contains(m + 1) != b.contains(m + 1)

    def test_rho_prefix_bound(self):
        # disagreement no earlier than m+1 forces rho <= 2^-m
        a, b = parse_set("res(3;1)"), parse_set("res(3;1)-7")
        m = prefix_agreement(a, b)
        assert rho(a, b) <= Q(1, 2 ** m)


class TestParser:
    def test_atoms(self):
        assert parse_set("all") == EventuallyPeriodicSet.all()
        assert parse_set("none") == EventuallyPeriodicSet.empty()
        assert parse_set("fin()") == EventuallyPeriodicSet.empty()
        assert parse_set("fin(2,4)") == EventuallyPeriodicSet.finite([2, 4])
        assert parse_set("res(3;1,2)") == EventuallyPeriodicSet.residue_class(3, [1, 2])

    def test_precedence_and_grouping(self):
        s = parse_set("res(2;0) | res(2;1) & fin(3)")
        assert members(s, 10) == {2, 3, 4, 6, 8, 10}
        t = parse_set("(res(2;0) | res(2;1)) & fin(3)")
        assert members(t, 10) == {3}

    def test_complement_and_exceptions(self):
        # '~' binds to the whole factor including its exception suffix
        s = parse_set("~res(2;0)+2-1")
        assert members(s, 8) == {1, 3, 5, 7}
        t = parse_set("(~res(2;0))+2-1")
        assert members(t, 8) == {2, 3, 5, 7}

    def test_whitespace_between_and_around_tokens(self):
        expected = parse_set("res(3;1,2)|fin(5)")
        for text in [" res( 3 ; 1 , 2 ) | fin( 5 )", "res(3;1,2)|fin(5) ",
                     "\tres(3;1,2) |fin(5)\n", "  res(3;1,2)|fin(5)  "]:
            assert parse_set(text) == expected
        assert parse_set("all ") == parse_set(" all") == EventuallyPeriodicSet.all()
        for bad in [" ", "all @ ", "all all "]:
            with pytest.raises(SetSyntaxError):
                parse_set(bad)

    def test_nesting_is_bounded(self):
        assert parse_set("~" * MAX_NESTING + "all") == EventuallyPeriodicSet.all()
        assert parse_set("(~" * (MAX_NESTING // 2) + "all" + ")" * (MAX_NESTING // 2)) == (
            EventuallyPeriodicSet.all())
        assert parse_set("(" * MAX_NESTING + "none" + ")" * MAX_NESTING) == (
            EventuallyPeriodicSet.empty())
        # siblings do not add up: only the depth of one path counts
        assert parse_set("|".join(["(" * MAX_NESTING + "none" + ")" * MAX_NESTING] * 3)) == (
            EventuallyPeriodicSet.empty())
        for bad in ["~" * 1500 + "all", "(" * 1200 + "all" + ")" * 1200,
                    "~" * (MAX_NESTING + 1) + "all",
                    "(" * (MAX_NESTING + 1) + "all" + ")" * (MAX_NESTING + 1)]:
            with pytest.raises(SetSyntaxError, match="nesting"):
                parse_set(bad)

    def test_periods_are_bounded(self):
        # checked before any work linear in the period
        assert parse_set("~res(%d;1)" % MAX_PERIOD).period == MAX_PERIOD
        assert parse_set("res(100;1)|res(99;1)").period == 9900
        for bad in ["~res(3000000;1)", "res(9973;1)|res(9967;1)", "res(10001;1)",
                    "res(1000000000000;1)", "res(100;1)&res(101;0)"]:
            with pytest.raises(ValueError, match="exceeds the bound"):
                parse_set(bad)
        with pytest.raises(ValueError, match="exceeds the bound"):
            EventuallyPeriodicSet.make(MAX_PERIOD + 1, [0])

    def test_elements_are_bounded(self):
        # checked while parsing, before rho builds 1/2^k for an exception k
        assert parse_set("fin(1,%d)" % MAX_ELEMENT).added == {1, MAX_ELEMENT}
        assert parse_set("all-%d" % MAX_ELEMENT).removed == {MAX_ELEMENT}
        assert parse_set("none+%d" % MAX_ELEMENT).added == {MAX_ELEMENT}
        for bad in ["fin(%d)" % (MAX_ELEMENT + 1), "fin(1,10000000000000000)",
                    "all-10000000000000000", "res(2;1)+%d" % (MAX_ELEMENT + 1),
                    "~(none+%d)" % (MAX_ELEMENT + 1)]:
            with pytest.raises(SetSyntaxError, match="exceeds the bound %d" % MAX_ELEMENT):
                parse_set(bad)
        # residues are not elements
        assert parse_set("res(3;100000000000)") == parse_set("res(3;1)")

    @pytest.mark.parametrize("text, what, bound", [
        ("fin(%s)", "element", MAX_ELEMENT),
        ("all+%s", "element", MAX_ELEMENT),
        ("res(%s;1)", "period", MAX_PERIOD),
    ])
    def test_overlong_tokens_are_named_by_their_digit_count(self, text, what, bound):
        # refused before int() reads the token, so the message stays short
        with pytest.raises(SetSyntaxError) as err:
            parse_set(text % ("9" * 100_000))
        assert str(err.value) == f"{what} of 100000 digits exceeds the bound {bound}"
        # a token of ECHO_DIGITS digits is still quoted, and leading zeros do not count
        at_echo = "9" * ECHO_DIGITS
        with pytest.raises(ValueError, match=f"{what} {at_echo} exceeds the bound {bound}"):
            parse_set(text % at_echo)
        with pytest.raises(SetSyntaxError, match=f"{what} of {ECHO_DIGITS + 1} digits"):
            parse_set(text % ("1" + "0" * ECHO_DIGITS))
        assert parse_set(text % ("0" * 100 + "3")) == parse_set(text % "3")

    def test_errors(self):
        for bad in ["", "res(0;1)", "fin(0)", "res(3)", "all all", "fin(1,)",
                    "res(3;1", "@", "+3"]:
            with pytest.raises(SetSyntaxError):
                parse_set(bad)
