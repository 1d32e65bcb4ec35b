"""Permutation arithmetic, cycle-notation parsing, element analysis."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from korbits.errors import DomainError, ParseError
from korbits.perm import (Permutation, analyze_element, parse_permutation)


def perms(max_degree=8):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(Permutation))


class TestParsing:
    def test_cycle_notation(self):
        p = parse_permutation("(1 2 3)(4 5)", 5)
        assert p.images == (2, 3, 1, 5, 4)

    def test_fixed_points_omitted(self):
        assert parse_permutation("(2 4)", 5).images == (1, 4, 3, 2, 5)

    def test_identity(self):
        assert parse_permutation("()", 3) == Permutation.identity(3)

    def test_image_notation(self):
        assert parse_permutation("[2,3,1]", 3).images == (2, 3, 1)
        assert parse_permutation("[2 3 1]", 3).images == (2, 3, 1)

    def test_commas_in_cycles(self):
        assert parse_permutation("(1,2,3)", 3).images == (2, 3, 1)

    @pytest.mark.parametrize("bad", [
        "", "(1 2", "1 2 3", "(1 2)(2 3)", "(0 1)", "(1 9)", "(1 x)",
        "[1,2]", "[1,1,2]", "[1,2,4]", "[2,3,1",
    ])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_permutation(bad, 3)

    @given(perms())
    def test_cycle_string_roundtrip(self, p):
        assert parse_permutation(p.cycle_string(), p.degree) == p


class TestArithmetic:
    def test_composition_applies_right_factor_first(self):
        a = parse_permutation("(1 2)", 3)
        b = parse_permutation("(2 3)", 3)
        assert (a * b).cycle_string() == "(1 2 3)"
        assert (b * a).cycle_string() == "(1 3 2)"

    def test_cycles_canonical(self):
        p = parse_permutation("(4 5)(1 3 2)", 5)
        assert p.cycles() == [(1, 3, 2), (4, 5)]

    def test_order_and_parity(self):
        p = parse_permutation("(1 2 3)(4 5)", 5)
        assert p.order() == 6

    def test_conjugate(self):
        p = parse_permutation("(1 2)", 3)
        g = parse_permutation("(1 3)", 3)
        assert p.conjugate(g).cycle_string() == "(2 3)"

    @given(perms())
    def test_inverse(self, p):
        assert p * p.inverse() == Permutation.identity(p.degree)
        assert p.inverse() * p == Permutation.identity(p.degree)

    @given(perms(), perms())
    def test_product_inverse(self, p, q):
        if p.degree != q.degree:
            return
        assert (p * q).inverse() == q.inverse() * p.inverse()

    @given(perms())
    def test_order_annihilates(self, p):
        acc = Permutation.identity(p.degree)
        for _ in range(p.order()):
            acc = acc * p
        assert acc.is_identity()

    @given(perms())
    def test_order_is_cycle_lcm(self, p):
        assert p.order() == math.lcm(1, *(len(c) for c in p.cycles()))


def test_product_of_different_degrees_is_a_domain_error():
    with pytest.raises(DomainError, match="degree mismatch"):
        Permutation([2, 1]) * Permutation([1, 2, 3])


class TestAnalysis:
    def test_six_cycle_is_not_prime_power(self):
        a = analyze_element(parse_permutation("(1 2 3 4 5 6)", 6))
        assert a.order == 6 and a.is_fpf and not a.is_prime_power
        assert a.prime_power_split == ((2, 1, 3), (3, 1, 2))

    def test_fpf_prime_power(self):
        a = analyze_element(parse_permutation("(1 2)(3 4)", 4))
        assert a.is_fpf_prime_power and a.order == 2

    def test_fixed_points_block_fpf(self):
        a = analyze_element(parse_permutation("(1 2)", 3))
        assert a.fixed_points == {3} and not a.is_fpf

    def test_identity_not_fpf(self):
        a = analyze_element(Permutation.identity(4))
        assert a.order == 1 and not a.is_fpf and not a.is_prime_power

    @given(perms())
    def test_split_reassembles_order(self, p):
        a = analyze_element(p)
        for prime, m, d in a.prime_power_split:
            assert prime ** m * d == a.order and d % prime != 0
