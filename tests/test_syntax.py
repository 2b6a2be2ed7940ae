import random

import pytest
from hypothesis import given, strategies as st

from actlat.syntax import (
    Join,
    LRes,
    Meet,
    One,
    ParseError,
    Prod,
    RRes,
    Sequent,
    Star,
    Var,
    Zero,
    parse_formula,
    parse_sequent,
    power_formula,
    power_seq,
    print_formula,
    print_sequent,
)

a, b, c = Var("a"), Var("b"), Var("c")


def test_parse_atom():
    assert parse_formula("a") == a


def test_parse_star_binds_tightest():
    assert parse_formula("a . a*") == Prod(a, Star(a))


def test_parse_residual_over_product():
    assert parse_formula("a \\ b . c*") == LRes(a, Prod(b, Star(c)))


def test_parse_constants_and_parens():
    assert parse_formula("0 & (1 | a)") == Meet(Zero(), Join(One(), a))


def test_product_left_associative():
    assert parse_formula("a . b . c") == Prod(Prod(a, b), c)


def test_mixed_sums_left_associative():
    assert parse_formula("a & b | c") == Join(Meet(a, b), c)


def test_chained_residual_requires_parens():
    with pytest.raises(ParseError):
        parse_formula("a \\ b \\ c")
    assert parse_formula("a \\ (b \\ c)") == LRes(a, LRes(b, c))


def test_print_atom():
    assert print_formula(a) == "a"


def test_print_star_of_product():
    assert print_formula(Star(Prod(a, b))) == "(a . b)*"


def test_print_residual_of_join():
    assert print_formula(LRes(a, Join(b, c))) == "a \\ (b | c)"


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_formula("a &\n& b")
    assert e.value.line == 2
    assert e.value.col == 1
    assert e.value.expected


def test_parse_sequent_basic():
    assert parse_sequent("a, b |- a . b") == Sequent((a, b), Prod(a, b))


def test_parse_sequent_empty_antecedent():
    assert parse_sequent("|- 1") == Sequent((), One())


def test_sequent_round_trip():
    assert print_sequent(parse_sequent("a*, b |- c")) == "a*, b |- c"


def test_occurrence_indexing():
    s = parse_sequent("a, b |- c")
    assert s.formula_at(-1) == c
    assert s.formula_at(0) == a
    assert s.formula_at(1) == b
    assert s.width == 2


def random_formula(rng: random.Random, size: int):
    if size <= 1:
        return rng.choice([a, b, c, Zero(), One(), Var("x1")])
    op = rng.choice(["meet", "join", "prod", "lres", "rres", "star"])
    if op == "star":
        return Star(random_formula(rng, size - 1))
    k = rng.randint(1, size - 2) if size > 2 else 1
    left = random_formula(rng, k)
    right = random_formula(rng, size - 1 - k)
    return {"meet": Meet, "join": Join, "prod": Prod, "lres": LRes, "rres": RRes}[op](left, right)


def test_round_trip_random_trees():
    rng = random.Random(20240803)
    for _ in range(500):
        f = random_formula(rng, rng.randint(1, 14))
        assert parse_formula(print_formula(f)) == f


@st.composite
def formulas(draw, depth=4):
    if depth == 0:
        return draw(st.sampled_from([a, b, c, Zero(), One()]))
    kind = draw(st.integers(0, 6))
    if kind <= 1:
        return draw(st.sampled_from([a, b, c, Zero(), One()]))
    if kind == 2:
        return Star(draw(formulas(depth=depth - 1)))
    node = [Meet, Join, Prod, LRes, RRes][kind - 3]
    return node(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))


@given(formulas())
def test_round_trip_property(f):
    assert parse_formula(print_formula(f)) == f


def test_power_seq():
    assert power_seq(a, 0) == ()
    assert power_seq(a, 2) == (a, a)
    assert power_seq(Star(a), 1) == (Star(a),)


def test_power_seq_concat():
    rng = random.Random(7)
    for _ in range(50):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        assert power_seq(a, m) + power_seq(a, n) == power_seq(a, m + n)


def test_power_formula():
    assert power_formula(a, 0) == One()
    assert power_formula(a, 1) == Prod(a, One())
    assert power_formula(a, 2) == Prod(a, Prod(a, One()))
