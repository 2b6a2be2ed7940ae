import collections
import dataclasses
import functools
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from actlat import models
from actlat.corpus import random_analytic_quasiequations, random_analytic_rule
from actlat.frames import dual_algebra, frame_of_algebra
from actlat.models import (
    FiniteActionLattice,
    ModelError,
    _algebra,
    _chain,
    eval_formula,
    find_quasieq_counterexample,
    find_sequent_counterexample,
    holds_quasieq,
    holds_sequent,
    library,
    model_from_json,
    model_to_json,
    rel_algebra,
    rule_models,
    sequent_inequation,
    soundness_audit,
    three_chain,
    truncated_words,
    two_chain,
    validate_algebra,
)
from actlat.rules import (Inequation, Quasiequation, RuleSet, builtin_rules,
                          example_structural_rules, q_a_of, q_of, qe_to_equation)
from actlat.syntax import Prod, Sequent, Star, Var, parse_formula, parse_sequent, variables

from tests.helpers import (ATOMS, formulas, random_formula, reference_counterexample,
                           star_by_powers)

EX = example_structural_rules()


def test_two_chain_valid():
    report = validate_algebra(two_chain())
    assert report.ok, report.violations


def test_two_chain_bad_star_detected():
    a = dataclasses.replace(two_chain(), star=np.array([0, 1]))  # 0* = 0 breaks 1 | x.x* <= x*
    report = validate_algebra(a)
    assert not report.ok
    assert any("x*" in v.law for v in report.violations)


def test_three_chain_valid():
    assert validate_algebra(three_chain()).ok


def test_rel_algebra_sizes_and_validity():
    r1 = rel_algebra(1)
    assert r1.size == 2
    assert validate_algebra(r1).ok
    r2 = rel_algebra(2)
    assert r2.size == 16
    assert r2.elements[r2.one] == "{00,11}"
    assert r2.elements[r2.zero] == "{}"
    assert validate_algebra(r2).ok


# One table entry of rel_algebra(2) changed, and every violation
# validate_algebra reports for it, each at its first witness.
ALGEBRA_BROKEN = [
    ("prod", (3, 5), 0, [("product associativity", (1, 7, 5)), ("left residuation", (3, 5, 0)),
                         ("right residuation", (3, 5, 0))]),
    ("lres", (3, 7), 11, [("left residuation", (3, 4, 7))]),
    ("rres", (2, 14), 9, [("right residuation", (8, 14, 2))]),
]


@pytest.mark.parametrize("table,entry,value,violations", ALGEBRA_BROKEN,
                         ids=[case[0] for case in ALGEBRA_BROKEN])
def test_validate_reports_first_witness(table, entry, value, violations):
    a = rel_algebra(2)
    broken = getattr(a, table).copy()
    broken[entry] = value
    a = dataclasses.replace(a, **{table: broken})
    assert [(v.law, v.witness) for v in validate_algebra(a).violations] == violations


def test_rel_algebra_star_is_transitive_closure():
    r2 = rel_algebra(2)

    def closure_oracle(mat):
        k = 2
        out = np.eye(k, dtype=bool) | mat
        for _ in range(k + 1):
            out = out | (out.astype(int) @ out.astype(int) > 0)
        return out

    def unpack(r):
        return np.array([[bool(r >> (i * 2 + j) & 1) for j in range(2)] for i in range(2)])

    def pack(mat):
        out = 0
        for i in range(2):
            for j in range(2):
                if mat[i, j]:
                    out |= 1 << (i * 2 + j)
        return out

    for r in range(16):
        assert r2.star[r] == pack(closure_oracle(unpack(r)))
    # the swap relation {01,10}: closure is the full reflexive closure of swap
    swap = pack(np.array([[False, True], [True, False]]))
    expect = pack(np.array([[True, True], [True, True]]))
    assert r2.star[swap] == expect


def test_rel_algebra_size_cap():
    with pytest.raises(ModelError):
        rel_algebra(4)


def test_truncated_words_valid():
    t = truncated_words()
    assert t.size == 128  # subsets of the 7 words shorter than 3 letters
    assert validate_algebra(t).ok


def test_star_by_powers_matches_tables():
    for a in (two_chain(), three_chain(), rel_algebra(1), rel_algebra(2),
              truncated_words(3, "a"), truncated_words(2, "ab")):
        for x in range(a.size):
            assert star_by_powers(a, x) == a.star[x]


def test_star_continuity_reports_the_first_x_of_the_scalar_walk():
    # copies with one broken star entry, and with one broken product or join
    # entry, which changes the powers of some elements or their join
    def first_x(a):
        return next(((x,) for x in range(a.size) if star_by_powers(a, x) != a.star[x]), None)

    def reported(a):
        found = [v.witness for v in validate_algebra(a).violations
                 if v.law == "star is the join of the powers"]
        return found[0] if found else None

    rng = random.Random(7)
    cases = 0
    for a in library().values():
        assert reported(a) is first_x(a) is None
        for _ in range(6):
            x, y, z = (rng.randrange(a.size) for _ in range(3))
            star, prod, join = a.star.copy(), a.prod.copy(), a.join.copy()
            star[x], prod[x, y], join[x, y] = z, z, z
            for broken in (dataclasses.replace(a, star=star), dataclasses.replace(a, prod=prod),
                           dataclasses.replace(a, join=join)):
                assert reported(broken) == first_x(broken)
                cases += first_x(broken) is not None
    assert cases >= 20


def test_algebra_without_residuals_rejected(monkeypatch):
    # on the chain 0 < 1 < 2, x . y = max(x, y) has unit 0, but no y gives
    # 1 . y <= 0, so 1 \ 0 does not exist; x . y = y has every left residual
    # (x \ z = z), but x . 1 = 1 for all x, so 0 / 1 does not exist, while
    # x . 0 = 0 gives 0 / 0 = 2.  With 9-cell blocks, each block holds one
    # fixed factor, so the failing one is found in a later block.
    i = np.arange(3)
    chain, low, high = i[:, None] <= i[None, :], np.minimum.outer(i, i), np.maximum.outer(i, i)
    for cells in (models._BLOCK_CELLS, 9):
        monkeypatch.setattr(models, "_BLOCK_CELLS", cells)
        with pytest.raises(ModelError) as err:
            _algebra("max_chain", ("0", "1", "2"), chain, low, high, high, one=0, zero=0)
        assert str(err.value) == "max_chain: missing left residual 1 \\ 0"
        with pytest.raises(ModelError) as err:
            _algebra("right_chain", ("0", "1", "2"), chain, low, high, np.tile(i, (3, 1)),
                     one=0, zero=0)
        assert str(err.value) == "right_chain: missing right residual 0 / 1"


def test_truncated_words_tables_pinned():
    a = truncated_words(3, "a")
    assert a.elements == ("{}", "{eps}", "{a}", "{eps,a}", "{aa}", "{eps,aa}",
                          "{a,aa}", "{eps,a,aa}")
    assert a.prod.tolist() == [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4, 5, 6, 7],
        [0, 2, 4, 6, 0, 2, 4, 6],
        [0, 3, 6, 7, 4, 7, 6, 7],
        [0, 4, 0, 4, 0, 4, 0, 4],
        [0, 5, 2, 7, 4, 5, 6, 7],
        [0, 6, 4, 6, 0, 6, 4, 6],
        [0, 7, 6, 7, 4, 7, 6, 7],
    ]
    assert a.star.tolist() == [1, 1, 7, 7, 5, 5, 7, 7]


def test_eval_formula_oracle():
    a = rel_algebra(2)
    f = parse_formula("(x . y)* & x")
    rng_vals = [(3, 5), (int(a.one), 9), (0, 7)]
    for vx, vy in rng_vals:
        got = eval_formula(a, {"x": vx, "y": vy}, f)
        expect = a.meet[a.star[a.prod[vx, vy]], vx]
        assert got == expect


def test_holds_sequent_identity():
    for a in library().values():
        assert holds_sequent(a, parse_sequent("a |- a"))


def test_holds_sequent_two_star():
    assert holds_sequent(rel_algebra(2), parse_sequent("a*, a* |- a*"))


def test_holds_sequent_counterexample():
    a = two_chain()
    witness = find_sequent_counterexample(a, parse_sequent("a |- b"))
    assert witness is not None
    assert dict(witness) == {"a": 1, "b": 0}


def brute_holds_sequent(a, s):
    ineq = sequent_inequation(s)
    from actlat.syntax import variables

    names = sorted(variables(ineq.lhs) | variables(ineq.rhs))
    for values in itertools.product(range(a.size), repeat=len(names)):
        v = dict(zip(names, values))
        if not a.leq(eval_formula(a, v, ineq.lhs), eval_formula(a, v, ineq.rhs)):
            return False
    return True


def test_holds_sequent_matches_brute_force():
    goals = ["a |- a", "a, b |- a . b", "a . b |- b . a", "a & b |- a", "a |- a | b",
             "a* |- a* . a*", "a, a \\ b |- b", "1 |- a*", "a |- b"]
    for a in (two_chain(), three_chain(), rel_algebra(2)):
        for text in goals:
            s = parse_sequent(text)
            assert holds_sequent(a, s) == brute_holds_sequent(a, s), (a.name, text)


def test_var_cap_on_large_carrier():
    a = truncated_words()
    with pytest.raises(ModelError):
        holds_sequent(a, parse_sequent("v, w, x, y, z |- v"))
    # small carriers may exceed four variables when the grid stays tractable
    assert holds_sequent(two_chain(), parse_sequent("v, w, x, y, z |- v"))


# The query kernel against the reference evaluator of tests/helpers.py, on
# models on both sides of each dtype boundary of its tables (uint8 up to 16
# elements, uint16 up to 256, uint32 beyond), also in blocks of one value of
# the first variable.  Carriers of 128 elements and more get formulas over two
# variables.
@functools.cache
def kernel_models() -> dict:
    chains = {f"chain{n}": _chain(f"chain{n}", n) for n in (16, 17, 256, 257)}
    return {**library(), **chains}


ANALYTIC_QES = [q_a_of(EX["C"]), q_a_of(EX["Wk"])] + random_analytic_quasiequations(11, 30)


def _variables(q: Quasiequation) -> set:
    return set().union(*(variables(i.lhs) | variables(i.rhs) for i in (*q.premises, q.conclusion)))


def _query_strategies(atoms, analytic):
    inequations = st.builds(Inequation, formulas(3, atoms), formulas(3, atoms))
    sequents = st.builds(lambda ante, succ: Sequent(tuple(ante), succ),
                         st.lists(formulas(4, atoms), max_size=3), formulas(4, atoms))
    quasieqs = st.one_of(
        st.sampled_from(analytic),
        st.builds(lambda ps, c: Quasiequation(tuple(ps), c), st.lists(inequations, max_size=2),
                  inequations))
    return sequents, quasieqs


# carrier size < 128 -> (sequents, quasiequations), built once
QUERIES = {True: _query_strategies(ATOMS, ANALYTIC_QES),
           False: _query_strategies(ATOMS[1:], [q for q in ANALYTIC_QES if len(_variables(q)) <= 2])}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_sequent_queries_match_reference(data, chunked):
    a = kernel_models()[data.draw(st.sampled_from(sorted(kernel_models())))]
    s = data.draw(QUERIES[a.size < 128][0])
    want = reference_counterexample(a, (), sequent_inequation(s))
    with mock.patch.object(models, "_BLOCK_CELLS", 1 if chunked else models._BLOCK_CELLS):
        assert find_sequent_counterexample(a, s) == want


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_quasieq_queries_match_reference(data, chunked):
    a = kernel_models()[data.draw(st.sampled_from(sorted(kernel_models())))]
    q = data.draw(QUERIES[a.size < 128][1])
    want = reference_counterexample(a, q.premises, q.conclusion)
    with mock.patch.object(models, "_BLOCK_CELLS", 1 if chunked else models._BLOCK_CELLS):
        assert find_quasieq_counterexample(a, q) == want


def test_variable_free_queries_match_reference():
    texts = ["|- 1", "|- 0", "0 |- 1", "1 |- 0", "1* |- 0 \\ 0", "0*, 1 / 1 |- 0 & 1 | 0",
             "1 . 1 |- 1*"]
    for a in kernel_models().values():
        for text in texts:
            s = parse_sequent(text)
            assert find_sequent_counterexample(a, s) == \
                reference_counterexample(a, (), sequent_inequation(s)), (a.name, text)
    # a failing variable-free query has the empty valuation as its witness
    assert find_sequent_counterexample(two_chain(), parse_sequent("1 |- 0")) == ()


def test_var_cap_applies_only_beyond_the_grid_limit():
    five = parse_sequent("v . w, x |- (y | z) . v")
    want = reference_counterexample(two_chain(), (), sequent_inequation(five))
    assert find_sequent_counterexample(two_chain(), five) == want  # 32 cells
    with mock.patch.object(models, "_GRID_LIMIT", 31):
        with pytest.raises(ModelError, match="over 5 variables on a carrier of size 2"):
            find_sequent_counterexample(two_chain(), five)
    four = parse_sequent("v . w, x |- x . v")
    with mock.patch.multiple(models, _GRID_LIMIT=1, _BLOCK_CELLS=1):  # blocked, never capped
        assert find_sequent_counterexample(two_chain(), four) == \
            reference_counterexample(two_chain(), (), sequent_inequation(four))


def _three_variable_queries(seed: int, count: int) -> tuple[list, list]:
    """count sequents and count quasiequations over exactly a, b and c."""
    rng = random.Random(seed)

    def draw(k):
        while True:
            fs = [random_formula(rng, 5, 1) for _ in range(k)]
            if set().union(*map(variables, fs)) == {"a", "b", "c"}:
                return fs

    sequents = [Sequent(tuple(fs[:-1]), fs[-1]) for fs in (draw(rng.randint(2, 3))
                                                          for _ in range(count))]
    quasieqs = [Quasiequation((Inequation(f, g),), Inequation(h, k))
                for f, g, h, k in (draw(4) for _ in range(count))]
    return sequents, quasieqs


def test_blocked_queries_match_whole_grid_reference():
    a = truncated_words()
    step = models._BLOCK_CELLS // a.size ** 2
    assert 1 <= step < a.size  # the grid spans several blocks
    sequents, quasieqs = _three_variable_queries(5, 16)
    got = [find_sequent_counterexample(a, s) for s in sequents] + \
        [find_quasieq_counterexample(a, q) for q in quasieqs]
    want = [reference_counterexample(a, (), sequent_inequation(s)) for s in sequents] + \
        [reference_counterexample(a, q.premises, q.conclusion) for q in quasieqs]
    assert got == want
    assert None in got and any(w is not None for w in got)
    # the first failing valuation lies in the third block of a
    late = parse_sequent("(1 / 0) \\ (a & c) |- 0 | c & b")
    witness = find_sequent_counterexample(a, late)
    assert witness == reference_counterexample(a, (), sequent_inequation(late)) == \
        (("a", 8), ("b", 0), ("c", 8))
    assert witness[0][1] >= 2 * step


def test_three_variable_query_memory():
    # the star bodies keep every variable's whole range, so the 128^3 grid is
    # walked in blocks; the reduced grid of the same law without stars is 8^3
    a = truncated_words()
    whole = parse_sequent("a* . (b* . c*) |- (a* . b*) . c*")
    reduced = parse_sequent("a . (b . c) |- (a . b) . c")
    find_sequent_counterexample(a, reduced)  # the model's tables and irreducibles, found once
    peaks = []
    for s in (whole, reduced):
        tracemalloc.start()
        try:
            assert find_sequent_counterexample(a, s) is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 4 << 20, peaks
    assert peaks[1] < min(64 << 10, peaks[0] // 16), peaks


def test_audit_counts_the_valuations_it_evaluates():
    a = truncated_words()
    assert [soundness_audit([parse_sequent(text)], [a]).valuations for text in (
        "a . (b . c) |- (a . b) . c",          # 8^3: join-irreducibles and 0
        "a \\ b, b \\ c |- a \\ c",             # 8 . 128 . 8
        "a* . (b* . c*) |- (a* . b*) . c*",    # no reduction
    )] == [8 ** 3, 8 * 128 * 8, 128 ** 3]
    # a failing reducible sequent pays for the reduced pass and then walks
    # the whole grid up to the block of its first failing valuation
    report = soundness_audit([parse_sequent("a |- b")], [a])
    assert (report.valuations, report.violations[0].valuation) == \
        (8 * 8 + 128 * 128, (("a", 1), ("b", 0)))
    # over three variables a block holds 4 values of a, and a = 1 fails
    report = soundness_audit([parse_sequent("a, b |- c")], [a])
    assert (report.valuations, report.violations[0].valuation) == \
        (8 ** 3 + 4 * 128 * 128, (("a", 1), ("b", 1), ("c", 0)))


# Each variable's range under the polarity reduction: "J" for the
# join-irreducibles and 0, "M" for the meet-irreducibles and the top.
POLARITY_REDUCTIONS = [
    ("a . (b . c) |- (a . b) . c", {"a": "J", "b": "J", "c": "J"}),     # J1
    ("a | b, c |- (a | c) . b*", {"a": "J", "b": "J", "c": "J"}),        # J1, star in the succedent
    ("a \\ c |- (1 / (a . b)) & c", {"a": "J", "b": "J", "c": "M"}),   # J2 on m d j; M
    ("a & b |- a & 1", {"a": "M", "b": "M"}),                          # M
    ("a \\ b, b \\ c |- a \\ c", {"a": "J", "b": "", "c": "M"}),        # b of mixed polarity
    ("a, a |- a . a", {"a": ""}),                                      # twice in the antecedent
    ("a* |- a | b", {"a": "", "b": "J"}),                              # under a star
    ("a & b |- a . b", {"a": "", "b": ""}),                            # under a meet
    ("b \\ c |- a . (b \\ c)", {"a": "J", "b": "", "c": ""}),           # denominator under a product
    ("b \\ c |- (b \\ c) | a", {"a": "J", "b": "", "c": ""}),           # denominator under a join
    ("|- 1 / 0", {}),
]


@pytest.mark.parametrize("text,kinds", POLARITY_REDUCTIONS, ids=[t for t, _ in POLARITY_REDUCTIONS])
def test_polarity_reduction(text, kinds):
    assert models._polarity_reduction(parse_sequent(text)) == kinds


def test_irreducibles_of_the_library():
    # J(L) + {0} and M(L) + {top}: a chain keeps every element, a powerset
    # its atoms and 0, its coatoms and the top
    sizes = {name: (len(r["J"][0]), len(r["M"][0])) for name, a in library().items()
             for r in [models.kept(a, "_ranges", models._ranges)]}
    assert sizes == {"two_chain": (2, 2), "three_chain": (3, 3), "rel1": (2, 2),
                     "rel2": (5, 5), "trunc_words": (8, 8)}
    r = models._ranges(rel_algebra(2))  # (plain, times-n) pairs
    assert r["J"][0].tolist() == [0, 1, 2, 4, 8] and r["M"][0].tolist() == [7, 11, 13, 14, 15]
    assert r["J"][1].tolist() == [0, 16, 32, 64, 128]


def test_a_model_file_breaking_the_laws_is_decided_on_its_whole_grid():
    # rel2 with the product of {00,01} and {10,11} raised to the top breaks
    # associativity and residuation; the reduced grid of a and b (5 x 5
    # irreducibles) would miss the failure at a = 3, b = 12, but a model read
    # from a file is validated before a reduced query, and one that breaks the
    # laws keeps every element
    data = model_to_json(rel_algebra(2))
    data["prod"][3][12] = 15
    a = model_from_json(data)
    assert not validate_algebra(a).ok
    s = parse_sequent("a . (b | 0), 1 |- a . (0 \\ b)")
    assert find_sequent_counterexample(rel_algebra(2), s) is None
    want = reference_counterexample(a, (), sequent_inequation(s))
    assert want == (("a", 3), ("b", 12))
    assert find_sequent_counterexample(a, s) == want
    assert soundness_audit([s], [a]).valuations == 16 * 16


def test_reduced_grid_verdict_does_not_depend_on_call_history(monkeypatch):
    # the broken rel2 above as a dataclasses.replace copy: it is not a
    # library model, so it is validated before its first reduced query, and
    # queried only, validated first, or queried, validated and queried again,
    # it gives the whole grid's witness
    prod = rel_algebra(2).prod.copy()
    prod[3, 12] = 15
    s = parse_sequent("a . (b | 0), 1 |- a . (0 \\ b)")
    want = (("a", 3), ("b", 12))
    validated = []
    real = models._validate_algebra
    monkeypatch.setattr(models, "_validate_algebra", lambda a: validated.append(a.name) or real(a))
    queried = dataclasses.replace(rel_algebra(2), prod=prod)
    assert find_sequent_counterexample(queried, s) == want
    first = dataclasses.replace(rel_algebra(2), prod=prod)
    assert not validate_algebra(first).ok
    assert find_sequent_counterexample(first, s) == want
    again = dataclasses.replace(rel_algebra(2), prod=prod)
    assert find_sequent_counterexample(again, s) == want
    assert not validate_algebra(again).ok
    assert find_sequent_counterexample(again, s) == want
    assert validated == ["rel2"] * 3   # once per copy, the report kept on it
    # a reducible query on a library model trusts its constructor
    library_model = rel_algebra(2)
    assert find_sequent_counterexample(library_model, s) is None
    assert models.kept(library_model, "_ranges", models._ranges)["J"][0].size < library_model.size
    assert validated == ["rel2"] * 3


def _check_reduction(a, s) -> bool | None:
    """Assert that s has the reference witness in a, and, where the polarity
    reduction shrinks the grid, that the reduced grid gives the whole grid's
    verdict, at a valuation where s fails when it fails.  Returns whether s
    fails in a, or None where the grid is not shrunk."""
    want = reference_counterexample(a, (), sequent_inequation(s))
    assert find_sequent_counterexample(a, s) == want, (a.name, str(s))
    ranges = models.kept(a, "_ranges", models._ranges)
    kinds = models._polarity_reduction(s)
    if all(ranges[kind][0].size == a.size for kind in kinds.values() if kind):
        return None
    witness, _ = models._check_all_valuations(a, kinds, lambda ev: ev.sequent(s))
    assert (witness is None) == (want is None), (a.name, str(s))
    if witness is not None:
        ineq = sequent_inequation(s)
        v = dict(witness)
        assert not a.leq(eval_formula(a, v, ineq.lhs), eval_formula(a, v, ineq.rhs))
    return want is not None


@functools.cache
def parity_models() -> list:
    return [*kernel_models().values(), truncated_words(5, "a")]


# Every model below 128 elements takes a sequent over a, b and c, every larger
# one a sequent over b and c; the examples are reducible failing queries.
@settings(max_examples=200, deadline=None)
@given(QUERIES[True][0], QUERIES[False][0])
@example(parse_sequent("a . b |- b . a"), parse_sequent("b |- c"))
@example(parse_sequent("a \\ b, b \\ c |- a \\ (b & c)"), parse_sequent("c \\ b |- b \\ c"))
def test_reduced_grid_decides_as_the_whole_grid(small, large):
    for a in parity_models():
        _check_reduction(a, small if a.size < 128 else large)


def test_reduced_grid_sweep():
    # seeded random sequents on the models where the reduction shrinks the
    # grid (no chain: there every element is irreducible); trunc_words takes
    # those over at most two variables
    rng = random.Random(22)
    models_ = [rel_algebra(2), truncated_words(5, "a"), truncated_words()]
    counts = collections.Counter()
    while counts["reducible"] < 2000:
        s = Sequent(tuple(random_formula(rng, 5, 1) for _ in range(rng.randint(0, 3))),
                    random_formula(rng, 5, 1))
        for a in models_[:2] if len(models._names(*s.antecedent, s.succedent)) > 2 else models_:
            fails = _check_reduction(a, s)
            if fails is not None:
                counts["reducible"] += 1
                counts["failing"] += fails
    assert counts["failing"] > 500, counts


def test_holds_quasieq_contraction():
    qc = q_a_of(EX["C"])
    assert holds_quasieq(two_chain(), qc)  # idempotent product
    assert not holds_quasieq(rel_algebra(2), qc)  # composition is not


def test_holds_quasieq_cut_everywhere():
    qcut = q_of(EX["Cut"])  # five variables: feasible up to rel2, not beyond
    for a in (two_chain(), three_chain(), rel_algebra(1), rel_algebra(2)):
        assert holds_quasieq(a, qcut), a.name
    with pytest.raises(ModelError):
        holds_quasieq(truncated_words(), qcut)


def test_analytic_equation_correspondence():
    # a model satisfies the analytic quasiequation exactly when it satisfies
    # the equation form, on the whole library
    from actlat.corpus import random_analytic_quasiequations

    qes = [q_a_of(EX["C"]), q_a_of(EX["Wk"])]
    qes += [q for q in random_analytic_quasiequations(99, 4) if q.premises]
    for q in qes:
        eq = qe_to_equation(q)
        for a in library().values():
            # an inequation is a premise-free quasiequation
            holds_eq = holds_quasieq(a, Quasiequation((), eq))
            assert holds_quasieq(a, q) == holds_eq, (str(q), a.name)


_RNG = random.Random(0)
RULES = [EX[n] for n in ("C", "Wk", "e", "c")] + [random_analytic_rule(_RNG, i) for i in range(20)]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_equation_form_of_q_of_matches_the_quasiequation(rule):
    # the step from q_of to its equation, checked against the raw
    # quasiequation on the library models below 128 elements
    eq = Quasiequation((), qe_to_equation(q_of(rule)))
    for a in library().values():
        if a.size < 128:
            assert holds_quasieq(a, q_of(rule)) == holds_quasieq(a, eq), a.name


def test_soundness_audit_passes_on_valid_sequents():
    goals = [parse_sequent(t) for t in ("a |- a", "a, b |- a . b", "|- 1", "a* |- a*")]
    report = soundness_audit(goals, library().values())
    assert report.ok
    assert report.checked == len(goals) * len(library())


def test_soundness_audit_flags_bad_sequent():
    report = soundness_audit([parse_sequent("a |- b")], [two_chain()])
    assert not report.ok
    assert report.violations[0].model == "two_chain"


def test_soundness_audit_respects_rule_filter():
    # contraction-dependent sequent is only audited against models of q_a(C)
    goals = [parse_sequent("a |- a . a")]
    report = soundness_audit(goals, [two_chain(), rel_algebra(2)], [EX["C"]])
    assert report.ok
    assert report.skipped_models == ["rel2"]


def test_soundness_audit_reports_undecided_models():
    # q_of(Cut) has 5 variables, past VAR_CAP on trunc_words, and no equation
    # form (its premises have different right sides): its verdict there is
    # undecided, not a failure
    report = soundness_audit([parse_sequent("a |- a")], library().values(), [EX["Cut"]])
    assert report.ok
    assert (report.skipped_models, report.undecided_models) == ([], ["trunc_words"])
    assert report.checked == 4


def test_soundness_audit_decides_exchange_on_every_library_model():
    # q_of(e) has 5 variables, past VAR_CAP on trunc_words; its equation form
    # has 4 and decides there: exchange fails in rel2 and trunc_words
    goals = [parse_sequent("a, b |- b . a")]
    report = soundness_audit(goals, library().values(), [EX["e"]])
    assert report.ok
    assert (report.skipped_models, report.undecided_models) == (["rel2", "trunc_words"], [])
    assert report.checked == 3


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_rule_models_agrees_with_q_of(rule):
    # an analytic rule is judged by q_a_of, any other by the equation form of
    # q_of; each must give q_of's verdict on every library model, read here
    # through the equation form (checked against q_of itself above)
    eq = Quasiequation((), qe_to_equation(q_of(rule)))
    for a in library().values():
        expected = holds_quasieq(a, eq)
        sound, skipped, undecided = rule_models([a], [rule])
        assert (sound == [a], skipped == [a.name], undecided) == \
            (expected, not expected, []), a.name


def test_rule_models_leaves_no_model_for_a_non_structural_rule():
    sound, skipped, undecided = rule_models([two_chain()], [builtin_rules()["prodR"]])
    assert (sound, skipped, undecided) == ([], ["two_chain"], [])


# The verdict path: holds_quasieq decides a quasiequation through its
# equation form on the reduced grid, holds_sequent stops after a failing
# reduced pass.  Both must give the whole grid's verdict on the library, the
# semantics benchmark's models, their duals and copies with one entry changed.
SEMANTICS_POOL = [q_a_of(EX["C"]), q_a_of(EX["Wk"])] + random_analytic_quasiequations(7, 64)


@functools.cache
def verdict_models() -> list:
    words = [truncated_words(k, "a") for k in (3, 5, 6)]
    base = [*library().values(), *words]
    duals = [dual_algebra(frame_of_algebra(a).frame).algebra for a in base if a.size < 128]
    rng, copies = random.Random(29), []
    for a in base:
        for table in ("join", "prod"):
            t = getattr(a, table).copy()
            x, y = rng.randrange(a.size), rng.randrange(a.size)
            t[x, y] = (t[x, y] + rng.randrange(1, a.size)) % a.size
            copies.append(dataclasses.replace(a, **{table: t}))
    return base + duals + copies


def _verdict_quasieqs(atoms: list, max_vars: int):
    """Pool quasiequations, ones shaped (t1 <= z & ...) => t <= z, premise-free
    ones and random ones (mostly with no equation form), over at most
    max_vars variables, z included."""
    z, terms = Var("z"), formulas(3, atoms)
    shaped = st.builds(lambda ts, t: Quasiequation(tuple(Inequation(p, z) for p in ts), Inequation(t, z)),
                       st.lists(terms, min_size=1, max_size=3), terms)
    free = st.builds(lambda lhs, rhs: Quasiequation((), Inequation(lhs, rhs)), terms,
                     formulas(3, atoms + [z]))
    pool = [q for q in ANALYTIC_QES + SEMANTICS_POOL if len(_variables(q)) <= max_vars]
    return st.one_of(shaped, free, _query_strategies(atoms, pool)[1])


# by carrier size: each model's atoms keep the reference grid small
VERDICT_QUERIES = [(16, _verdict_quasieqs(ATOMS, 4), QUERIES[True][0]),
                   (64, _verdict_quasieqs(ATOMS[1:], 3), QUERIES[True][0]),
                   (256, _verdict_quasieqs(ATOMS[2:], 2), QUERIES[False][0])]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verdicts_match_the_whole_grid_reference(data):
    a = data.draw(st.sampled_from(verdict_models()))
    quasieqs, sequents = next((q, s) for size, q, s in VERDICT_QUERIES if a.size <= size)
    q, s = data.draw(quasieqs), data.draw(sequents)
    want = reference_counterexample(a, q.premises, q.conclusion)
    assert holds_quasieq(a, q) == (want is None), (a.name, str(q))
    assert find_quasieq_counterexample(a, q) == want
    want = reference_counterexample(a, (), sequent_inequation(s))
    assert holds_sequent(a, s) == (want is None), (a.name, str(s))
    assert find_sequent_counterexample(a, s) == want


def test_pool_verdicts_match_the_whole_grid():
    # every variable of every pool equation form is J1, so each is decided
    # on the join-irreducibles and 0; the whole-grid kernel is the reference
    assert all(set(models.kept(q, "_form", models._equation_form)[1].values()) == {"J"}
               for q in SEMANTICS_POOL)
    for a in verdict_models():
        if a.size < 128:
            assert [holds_quasieq(a, q) for q in SEMANTICS_POOL] == \
                [find_quasieq_counterexample(a, q) is None for q in SEMANTICS_POOL], a.name


def test_a_lawless_copy_decides_a_quasiequation_on_its_own_grid(monkeypatch):
    # two_chain with 1 | 1 = 0: the join is no upper bound, so the equation
    # form a.b <= a | b fails at a = b = 1 where the quasiequation holds; the
    # copy is validated once and then walks the quasiequation's whole grid
    a, b, z = Var("a"), Var("b"), Var("z")
    q = Quasiequation((Inequation(a, z), Inequation(b, z)), Inequation(Prod(a, b), z))
    join = two_chain().join.copy()
    join[1, 1] = 0
    lawless = dataclasses.replace(two_chain(), join=join)
    assert not models._holds_reduced(lawless, *models._equation_form(q))
    validated, walked = [], []
    real_validate, real_walk = models._validate_algebra, models.find_quasieq_counterexample
    monkeypatch.setattr(models, "_validate_algebra", lambda m: validated.append(m.name) or real_validate(m))
    monkeypatch.setattr(models, "find_quasieq_counterexample",
                        lambda m, q: walked.append(m.name) or real_walk(m, q))
    copy = dataclasses.replace(two_chain(), join=join)
    assert reference_counterexample(copy, q.premises, q.conclusion) is None
    assert holds_quasieq(copy, q) and holds_quasieq(copy, q)  # the second is the kept verdict
    assert (validated, walked) == (["two_chain"], ["two_chain"])
    # a library model trusts its constructor and takes the equation form
    assert holds_quasieq(two_chain(), q)
    assert (validated, walked) == (["two_chain"], ["two_chain"])


def test_kept_facts_are_never_served_to_a_copy():
    qc = q_a_of(EX["C"])  # (x.x <= y) => x <= y, equation form x <= x.x
    good = two_chain()
    assert holds_quasieq(good, qc) and qc in good.__dict__["_verdicts"]
    prod = good.prod.copy()
    prod[1, 1] = 0
    broken = dataclasses.replace(good, prod=prod)
    assert "_verdicts" not in broken.__dict__
    assert not holds_quasieq(broken, qc)
    assert reference_counterexample(broken, qc.premises, qc.conclusion) == (("x", 1), ("y", 0))
    # a copy of the quasiequation with another premise gets its own form
    x, y = Var("x"), Var("y")
    weaker = dataclasses.replace(qc, premises=(Inequation(x, y),))
    assert "_form" in qc.__dict__ and "_form" not in weaker.__dict__
    assert not holds_quasieq(rel_algebra(2), qc) and holds_quasieq(rel_algebra(2), weaker)


def test_equation_form_decides_past_the_variable_cap():
    # q_of(e) has 5 variables, 32^5 cells on words_a5: its witness query is
    # refused, and its verdict is decided on the 4 variables of its equation
    # form (exchange holds: one letter's words commute)
    qe, words = q_of(EX["e"]), truncated_words(5, "a")
    with pytest.raises(ModelError):
        find_quasieq_counterexample(words, qe)
    assert holds_quasieq(words, qe)
    assert not holds_quasieq(truncated_words(), qe)


def test_model_json_round_trip():
    a = three_chain()
    b = model_from_json(model_to_json(a))
    assert validate_algebra(b).ok
    assert b.elements == a.elements
    assert (b.prod == a.prod).all()
