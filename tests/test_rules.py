import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from actlat import rules
from actlat.corpus import random_analytic_rule
from actlat.rules import (
    ClassificationError,
    FVar,
    Instantiation,
    MetaSequent,
    RuleError,
    RuleInstance,
    RuleSet,
    SchematicRule,
    SVar,
    analytic_parts,
    ancestry,
    builtin_rules,
    classify,
    example_structural_rules,
    instantiate,
    instantiate_premise,
    is_analytic_quasiequation,
    match_conclusion,
    parse_quasiequation,
    parse_rule_file,
    principal_position,
    q_a_of,
    q_of,
    qe_to_equation,
    t_term,
)
from actlat.syntax import (
    Meet,
    One,
    Prod,
    Sequent,
    Star,
    Var,
    parse_formula,
    parse_sequent,
)

from tests.helpers import reference_shape

B = builtin_rules()
EX = example_structural_rules()

a, b, c = Var("a"), Var("b"), Var("c")
p, q, r, s = Var("p"), Var("q"), Var("r"), Var("s")


def seq(text):
    return parse_sequent(text)


def test_builtin_meetR_shape():
    rule = B["meetR"]
    assert len(rule.premises) == 2
    assert rule.conclusion.rhs == Meet(FVar("b0"), FVar("b1"))
    assert rule.principal == -1


def test_builtin_id_instances():
    rule = B["id"]
    inst = Instantiation(fmap={"a": a})
    ri = instantiate(rule, inst)
    assert ri.premises == ()
    assert ri.conclusion == seq("a |- a")
    with pytest.raises(Exception):
        instantiate(rule, Instantiation(fmap={"a": Prod(a, a)}))


def test_builtin_starR0():
    ri = instantiate(B["starR0"], Instantiation(fmap={"b": a}))
    assert ri.premises == ()
    assert ri.conclusion == Sequent((), Star(a))


def test_instantiate_meetR():
    inst = Instantiation(fmap={"b0": b, "b1": c}, smap={"Gamma": (a,)})
    ri = instantiate(B["meetR"], inst)
    assert ri.premises == (seq("a |- b"), seq("a |- c"))
    assert ri.conclusion == seq("a |- b & c")


def test_instantiate_oneR_empty():
    ri = instantiate(B["oneR"], Instantiation())
    assert ri.premises == ()
    assert ri.conclusion == Sequent((), One())


def test_instantiate_wk():
    inst = Instantiation(fmap={"b": s}, smap={"Gamma": (), "Pi": (p, q), "Delta": (r,)})
    ri = instantiate(EX["Wk"], inst)
    assert ri.premises == (seq("r |- s"),)
    assert ri.conclusion == seq("p, q, r |- s")


def brute_force_matches(rule, goal):
    """Oracle: enumerate all ways to cut the antecedent at the SVar slots and
    all formula assignments, then filter by re-instantiation."""
    items = rule.conclusion.lhs
    n = len(goal.antecedent)
    svar_slots = [i for i, it in enumerate(items) if isinstance(it, SVar)]
    results = []
    # assign a contiguous chunk to every item (length 1 for formula items)
    for cuts in itertools.product(range(n + 1), repeat=len(items) + 1):
        if cuts[0] != 0 or cuts[-1] != n:
            continue
        if any(cuts[i] > cuts[i + 1] for i in range(len(items))):
            continue
        fmap, smap, ok = {}, {}, True
        for i, it in enumerate(items):
            chunk = goal.antecedent[cuts[i]:cuts[i + 1]]
            if isinstance(it, SVar):
                if it.name in smap and smap[it.name] != chunk:
                    ok = False
                    break
                smap[it.name] = chunk
            else:
                if len(chunk) != 1:
                    ok = False
                    break
                from actlat.rules import _match_formula

                if not _match_formula(it, chunk[0], fmap):
                    ok = False
                    break
        if not ok:
            continue
        from actlat.rules import _match_formula

        if not _match_formula(rule.conclusion.rhs, goal.succedent, fmap):
            continue
        inst = Instantiation(fmap, smap)
        try:
            if instantiate(rule, inst).conclusion == goal:
                if inst.key() not in {i.key() for i in results}:
                    results.append(inst)
        except Exception:
            continue
    return results


def test_match_prodR():
    goal = seq("a, b |- a . b")
    found = match_conclusion(B["prodR"], goal)
    oracle = brute_force_matches(B["prodR"], goal)
    assert {i.key() for i in found} == {i.key() for i in oracle}
    assert len(found) == 3  # all splits of (a, b) into Gamma, Delta


def test_match_meetR_no_match():
    assert match_conclusion(B["meetR"], seq("a |- b . c")) == []


def test_match_wk():
    goal = seq("p |- q")
    found = match_conclusion(EX["Wk"], goal)
    oracle = brute_force_matches(EX["Wk"], goal)
    assert {i.key() for i in found} == {i.key() for i in oracle}
    assert len(found) == 3


def test_match_round_trip():
    cases = [
        (B["meetR"], Instantiation(fmap={"b0": b, "b1": c}, smap={"Gamma": (a,)})),
        (EX["C"], Instantiation(fmap={"b": s}, smap={"Gamma": (p,), "Pi": (q, r), "Delta": ()})),
        (B["starL"], Instantiation(fmap={"a": a, "b": b}, smap={"Gamma": (), "Delta": (c,)})),
    ]
    for rule, inst in cases:
        goal = instantiate(rule, inst).conclusion
        assert inst.key() in {i.key() for i in match_conclusion(rule, goal)}


def test_classify_fig2():
    assert classify(EX["C"]) == __import__("actlat.rules", fromlist=["RuleFlags"]).RuleFlags(True, True, True)
    flags_cut = classify(EX["Cut"])
    assert (flags_cut.structural, flags_cut.linear, flags_cut.analytic) == (True, True, False)
    flags_c = classify(EX["c"])
    assert (flags_c.structural, flags_c.linear) == (True, False)
    flags_wk = classify(EX["Wk"])
    assert flags_wk.analytic
    flags_e = classify(EX["e"])
    assert flags_e.structural and not flags_e.linear


def test_classify_stable_under_renaming():
    rule = EX["C"]
    renamed = SchematicRule(
        "C2",
        (MetaSequent((SVar("X"), SVar("Y"), SVar("Y"), SVar("Z")), FVar("w")),),
        MetaSequent((SVar("X"), SVar("Y"), SVar("Z")), FVar("w")),
    )
    assert classify(renamed) == classify(rule)


def test_t_term():
    assert t_term(()) == One()
    assert t_term((SVar("Gamma"),)) == Var("x_Gamma")
    assert t_term((SVar("Gamma"), SVar("Delta"))) == Prod(Var("x_Gamma"), Var("x_Delta"))


def test_q_of_cut_matches_known_form():
    assert str(q_of(EX["Cut"])) == "(x <= y & z.y.w <= u) => z.x.w <= u"


def test_q_a_of_C():
    assert str(q_a_of(EX["C"])) == "(x.x <= y) => x <= y"


def test_q_a_of_Wk():
    assert str(q_a_of(EX["Wk"])) == "(1 <= y) => x <= y"


def test_q_a_rejects_non_analytic():
    with pytest.raises(ClassificationError):
        q_a_of(EX["Cut"])


def _printed(pairs, order) -> str:
    """A quasiequation from (antecedent, succedent) pairs of a rule, the last
    the conclusion, as rules prints it: its variables are x, y, z, ... in
    order of first occurrence in the pairs taken in the given order."""
    names = {}
    for i in order:
        lhs, rhs = pairs[i]
        for item in (*lhs, rhs):
            names.setdefault(item.name, "xyzwuv"[len(names)])
    ineqs = [f"{'.'.join(names[item.name] for item in lhs) or '1'} <= {names[rhs.name]}"
             for lhs, rhs in pairs]
    return f"({' & '.join(ineqs[:-1])}) => {ineqs[-1]}"


def test_q_of_and_q_a_of_name_variables_in_order_of_first_occurrence():
    # q_of reads the premises first, q_a_of the conclusion's middle first
    rng = random.Random(12)
    drawn = [random_analytic_rule(rng, i) for i in range(200)]
    for rule in [r for r in EX.values() if classify(r).structural] + drawn:
        pairs = [(p.lhs, p.rhs) for p in (*rule.premises, rule.conclusion)]
        assert str(q_of(rule)) == _printed(pairs, range(len(pairs))), rule.name
        if classify(rule).analytic:
            _, _, upsilon, mids, beta = analytic_parts(rule)
            pairs = [(m, beta) for m in mids] + [(upsilon, beta)]
            assert str(q_a_of(rule)) == _printed(pairs, [len(mids), *range(len(mids))]), rule.name


@pytest.mark.parametrize("text, analytic", [
    ("(x.x <= z & 1 <= z & y.x <= z) => x.y <= z", True),
    ("() => x.y <= z", True),                      # no premises
    ("(1 <= z & 1.1 <= z) => 1 <= z", True),        # a unit conclusion
    ("(x <= z) => x.x <= z", False),               # a repeated conclusion variable
    ("(x <= z) => x.z <= z", False),               # z in the conclusion
    ("(x <= z) => 1 <= z", False),                 # a premise variable not in the conclusion
    ("(x.y <= z & w <= z) => x.y <= z", False),
    ("(x <= w) => x.y <= z", False),               # a premise whose right side is not z
    ("(x <= z.z) => x.y <= z", False),
    ("(x | y <= z) => x.y <= z", False),           # a join in a premise
    ("() => x | y <= z", False),                   # a join in the conclusion
    ("() => x <= 1", False),                       # a right side that is not a variable
])
def test_is_analytic_quasiequation(text, analytic):
    assert is_analytic_quasiequation(parse_quasiequation(text)) is analytic


def test_equation_form():
    eq_c = qe_to_equation(q_a_of(EX["C"]))
    assert str(eq_c.lhs) == "x" and str(eq_c.rhs) == "x . x"
    eq_wk = qe_to_equation(q_a_of(EX["Wk"]))
    assert str(eq_wk.lhs) == "x" and str(eq_wk.rhs) == "1"


def test_equation_form_two_premises():
    rule = SchematicRule(
        "D2",
        (
            MetaSequent((SVar("Gamma"), SVar("Pi"), SVar("Delta")), FVar("b")),
            MetaSequent((SVar("Gamma"), SVar("Pi"), SVar("Pi"), SVar("Delta")), FVar("b")),
        ),
        MetaSequent((SVar("Gamma"), SVar("Pi"), SVar("Delta")), FVar("b")),
    )
    eq = qe_to_equation(q_a_of(rule))
    assert str(eq.lhs) == "x"
    assert str(eq.rhs) == "x | x . x"


def test_equation_form_of_no_premises_is_below_zero():
    # the empty join is 0: () => x <= y holds for every y exactly when x <= 0
    rule = SchematicRule(
        "E0",
        (),
        MetaSequent((SVar("Gamma"), SVar("Pi"), SVar("Delta")), FVar("b")),
    )
    assert classify(rule).analytic
    assert str(qe_to_equation(q_a_of(rule))) == "x <= 0"


def test_equation_form_of_rules_that_are_not_analytic():
    # the succedent variable of q_of(e) and q_of(c) is every right side and
    # nothing else, so it goes; cut's premises have different right sides
    assert str(qe_to_equation(q_of(EX["e"]))) == "x.z.y.w <= x.y.z.w"
    assert str(qe_to_equation(q_of(EX["c"]))) == "x.y.z <= x.y.y.z"
    assert qe_to_equation(q_of(EX["Cut"])) is None


def test_ancestry_meetL0():
    inst = Instantiation(fmap={"a0": a, "a1": b, "b": c}, smap={"Gamma": (p,), "Delta": ()})
    ri = instantiate(B["meetL0"], inst)
    anc = ancestry(ri)
    # auxiliary a at premise position 1 -> principal a & b at conclusion position 1
    assert ((0, 1), 1) in anc
    # context p maps across, succedent maps across
    assert ((0, 0), 0) in anc
    assert ((0, -1), -1) in anc


def test_ancestry_contraction_duplicates():
    inst = Instantiation(fmap={"b": s}, smap={"Gamma": (), "Pi": (p, q), "Delta": ()})
    ri = instantiate(EX["C"], inst)
    anc = ancestry(ri)
    # both premise copies of Pi are ancestors of the single conclusion copy
    for prem_pos in (0, 2):
        assert ((0, prem_pos), 0) in anc
    for prem_pos in (1, 3):
        assert ((0, prem_pos), 1) in anc


def test_ancestry_clause1_only_for_principal():
    ri = instantiate(EX["Wk"], Instantiation(fmap={"b": s}, smap={"Gamma": (p,), "Pi": (q,), "Delta": ()}))
    anc = ancestry(ri)
    assert ((0, 0), 0) in anc  # Gamma
    assert all(concl != 1 for (_, _), concl in anc)  # the new Pi has no ancestors


def test_principal_position():
    inst = Instantiation(fmap={"a": a, "b": b}, smap={"Gamma": (c, c), "Delta": ()})
    assert principal_position(RuleInstance(B["starL"], inst)) == 2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*B.values(), *EX.values()]), st.data())
def test_shape_facts_match_the_position_scan(rule, data):
    # images of 0-4 formulas bound in any order, and the first nine children
    # of the infinitary rules; a second instance of the same shape, with
    # other formulas, reads the facts the first one left in the table
    _, svars = rule.metavariable_names()
    names = data.draw(st.permutations(sorted(svars)))
    lengths = {name: data.draw(st.integers(0, 4)) for name in names}
    children = rule.child_indices()
    children = range(9) if children is None else children
    for formula in (p, Star(q)):
        ri = RuleInstance(rule, Instantiation({}, {n: (formula,) * k for n, k in lengths.items()}))
        want_layout, want_principal, _ = reference_shape(ri, ())
        assert (ri.layout, ri.principal) == (want_layout, want_principal)
        for child in children:
            assert ri.ancestry(child) == reference_shape(ri, (child,))[2], (rule.name, child)


def test_shape_table_stays_within_its_bound():
    # 10,000 instances of distinct shapes: lresL under 9,987 triples of image
    # lengths, and the infinitary rule at 13 children up to 10,000
    image = (p,)
    lengths = itertools.islice(itertools.product(range(22), repeat=3), 9_987)
    for g, d, s_ in lengths:
        inst = Instantiation({}, {"Gamma": image * g, "Delta": image * d, "Sigma": image * s_})
        RuleInstance(B["lresL"], inst).ancestry(1)
        assert len(rules._SHAPES) <= rules.SHAPE_CAP
    omega = RuleInstance(B["starLomega"], Instantiation({}, {"Gamma": image, "Delta": ()}))
    for n in (*range(10), 100, 1_000, 10_000):
        assert len(omega.ancestry(n)) == n + 2
        assert len(rules._SHAPES) <= rules.SHAPE_CAP
    # child 1 of lresL holds one pair per position of Gamma and Sigma and 2
    # more, at most 44 here; omega child n holds n + 2, tabled only below
    # SHAPE_CHILD_CAP
    per_entry = max(44, rules.SHAPE_CHILD_CAP + 1)
    stored = sum(len(fact) for key, (_, fact) in rules._SHAPES.items() if key[0] != "layout")
    assert 0 < stored <= rules.SHAPE_CAP * per_entry
    assert max(key[0] for key in rules._SHAPES if key[0] != "layout") == 9
    rules._SHAPES.clear()


def test_omega_premises():
    rule = B["starLomega"]
    inst = Instantiation(fmap={"a": a, "b": b}, smap={"Gamma": (c,), "Delta": ()})
    assert instantiate_premise(rule, inst, 0) == seq("c |- b")
    assert instantiate_premise(rule, inst, 2) == seq("c, a, a |- b")
    mod = B["starLomegaM"]
    assert instantiate_premise(mod, inst, 0) == seq("c |- b")
    assert instantiate_premise(mod, inst, 1) == Sequent((c, a, One()), b)
    assert instantiate_premise(mod, inst, 3) == Sequent((c, a, Prod(a, Prod(a, One()))), b)


def test_rule_file_round_trip(tmp_path):
    text = """
# structural extensions
rule C:
  G, P, P, D |- b
  ----
  G, P, D |- b

rule Wk:
  G, D |- b
  ----
  G, P, D |- b
"""
    rules = parse_rule_file(text)
    assert [r.name for r in rules] == ["C", "Wk"]
    assert classify(rules[0]).analytic
    assert str(q_a_of(rules[0])) == "(x.x <= y) => x <= y"


def test_rule_file_rejects_non_structural():
    with pytest.raises(Exception):
        parse_rule_file("rule bad:\n  G |- b . b\n  ----\n  G |- b\n")


def test_ruleset_resolution():
    rs = RuleSet()
    assert rs.resolve("*L").name == "starL"
    assert rs.resolve("meetR").name == "meetR"
    assert rs.resolve("Cut").name == "Cut"


def test_resolve_keeps_the_precedence_of_aliases_then_user_builtin_and_example_rules():
    [rule] = parse_rule_file("rule C:\n" + EXCHANGE)

    def reference(rs, name):
        name = rules.RULE_ALIASES.get(name, name)
        for table in (rs.user, rs.builtin, rs.examples):
            if name in table:
                return table[name]
        raise RuleError(f"unknown rule {name!r}")

    for rs in (RuleSet(), RuleSet([rule])):
        for name in (*rules.RULE_ALIASES, *B, *EX, "nope", "*l"):
            try:
                want = reference(rs, name)
            except RuleError as err:
                with pytest.raises(RuleError) as got:
                    rs.resolve(name)
                assert str(got.value) == str(err)
            else:
                assert rs.resolve(name) is want
    assert RuleSet([rule]).resolve("C") is rule


EXCHANGE = "  G, a, b, D |- g\n  ----\n  G, b, a, D |- g\n"


@pytest.mark.parametrize("name", ["prodL", "starL", ".L", "*Lw"])
def test_user_rule_may_not_shadow_a_builtin(name):
    with pytest.raises(RuleError, match="name of a built-in rule"):
        parse_rule_file(f"rule {name}:\n" + EXCHANGE)
    renamed = SchematicRule(name, EX["e"].premises, EX["e"].conclusion)
    with pytest.raises(RuleError, match="name of a built-in rule"):
        RuleSet([renamed])


def test_user_rule_may_take_an_example_name():
    [rule] = parse_rule_file("rule C:\n" + EXCHANGE)
    assert RuleSet([rule]).resolve("C") is rule


def test_rule_tables_are_shared_and_read_only():
    assert RuleSet().resolve("prodL") is RuleSet([EX["C"]]).resolve("prodL")
    assert RuleSet().resolve("Wk") is RuleSet().resolve("Wk")
    with pytest.raises(TypeError):
        RuleSet().builtin["prodL"] = EX["e"]
