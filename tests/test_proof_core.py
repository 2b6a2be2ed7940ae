import random

import pytest

from actlat.proof_core import (
    CyclicNode,
    CyclicProof,
    HeightResult,
    OmegaFamily,
    Ordinal,
    ProofError,
    RuleApp,
    WfProof,
    check_cyclic_local,
    check_local,
    check_wf,
    dotL_invert,
    height,
    id_expand,
    make_app,
    oneL_invert,
    rule_app,
    tau_n,
    to_standard_omega,
    wf_from_json,
    wf_to_json,
    zeroR_admit,
)
from actlat.rules import Instantiation, RuleSet
from actlat.syntax import (
    Join,
    Meet,
    One,
    Prod,
    Sequent,
    Star,
    Var,
    Zero,
    parse_formula,
    parse_sequent,
)

RS = RuleSet()

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
E = ()


def seq(text):
    return parse_sequent(text)


def id_leaf(v):
    return WfProof(Sequent((v,), v), make_app(RS, "id", Instantiation(fmap={"a": v})))


def test_check_local_id_ok():
    assert check_local(seq("a |- a"), make_app(RS, "id", Instantiation(fmap={"a": a})), ()) is None


def test_rule_app_chooses_the_split_by_its_premises():
    goal = seq("a, b |- a . b")
    app = rule_app(RS, "prodR", goal, (seq("a |- a"), seq("b |- b")))
    assert app == RuleApp("prodR", Instantiation(fmap={"b0": a, "b1": b},
                                                 smap={"Gamma": (a,), "Delta": (b,)}), -1)
    assert check_local(goal, app, (seq("a |- a"), seq("b |- b"))) is None
    # without premises, the first split in match order: Gamma empty
    assert rule_app(RS, "prodR", goal).inst.smap["Gamma"] == ()


def test_rule_app_chooses_the_instance_by_its_principal():
    goal = seq("1, 1 |- 0")
    assert rule_app(RS, "oneL", goal, (seq("1 |- 0"),)).principal == 0
    app = rule_app(RS, "oneL", goal, (seq("1 |- 0"),), principal=1)
    assert app.principal == 1
    assert app.inst == Instantiation(fmap={"b": Zero()}, smap={"Gamma": (One(),), "Delta": ()})


def test_rule_app_builds_a_family_node_without_premises():
    goal = seq("b, a* |- a*")
    app = rule_app(RS, "starLomega", goal)
    assert app == RuleApp("starLomega", Instantiation(fmap={"a": a, "b": Star(a)},
                                                      smap={"Gamma": (b,), "Delta": ()}), 1)
    star = seq("a* |- a*")
    p = WfProof(star, rule_app(RS, "starLomega", star), OmegaFamily(lambda n: tau_n(a, n, RS)))
    assert check_wf(p, 4, RS).ok


def test_rule_app_raises_when_no_instance_qualifies():
    with pytest.raises(ProofError, match="no instance of prodR"):
        rule_app(RS, "prodR", seq("a, b |- a . b"), (seq("b |- a"), seq("|- b")))
    with pytest.raises(ProofError, match="with principal 1"):
        rule_app(RS, "oneL", seq("1, a |- 0"), principal=1)
    with pytest.raises(ProofError):
        rule_app(RS, "id", seq("a . b |- a . b"))
    with pytest.raises(ProofError, match="cannot derive Cut"):
        rule_app(RS, "Cut", seq("a |- a"), (seq("a |- a"), seq("a |- a")))


def test_check_local_id_requires_variable():
    app = RuleApp("id", Instantiation(fmap={"a": Prod(a, b)}), None)
    v = check_local(seq("a . b |- a . b"), app, ())
    assert v is not None


def test_check_local_oneL():
    inst = Instantiation(fmap={"b": b}, smap={"Gamma": (a,), "Delta": (c,)})
    app = make_app(RS, "oneL", inst)
    assert check_local(seq("a, 1, c |- b"), app, (seq("a, c |- b"),)) is None
    bad = check_local(seq("a, 1, c |- b"), app, (seq("c, a |- b"),))
    assert bad is not None and bad.premise_index == 0


def test_check_local_rejects_principal_mark_off_by_one():
    inst = Instantiation(fmap={"b": b}, smap={"Gamma": (a,), "Delta": (c,)})
    app = make_app(RS, "oneL", inst)
    assert app.principal == 1
    shifted = RuleApp("oneL", inst, app.principal + 1)
    v = check_local(seq("a, 1, c |- b"), shifted, (seq("a, c |- b"),))
    assert v is not None and "principal mark" in v.message


def _defective_star_id(defect):
    """``a* |- a*`` by the infinitary rule, broken in one place."""
    good = id_expand(Star(a), RS)
    if defect == "premise":
        # premise 2 proves a, a, a |- a* instead of a, a |- a*
        fam = OmegaFamily(lambda n: tau_n(a, n + (n == 2), RS))
        return WfProof(good.sequent, good.app, fam)
    if defect == "conclusion":
        return WfProof(seq("b, a* |- a*"), good.app, good.children)
    return WfProof(good.sequent, RuleApp("starLomega", good.app.inst, 1), good.children)


@pytest.mark.parametrize("defect", ["premise", "conclusion", "principal"])
def test_checkers_reject_defective_infinitary_node(defect):
    from actlat.translate import as_lazy, check_lazy_prefix

    p = _defective_star_id(defect)
    report = check_wf(p, 3, RS)
    assert not report.ok and report.violation.address == ()
    if defect == "premise":
        assert report.violation.premise_index == 2
    _, violation = check_lazy_prefix(as_lazy(p, RS), 2, RS, omega_fuel=3)
    assert violation is not None and violation[0] == ()
    assert check_wf(id_expand(Star(a), RS), 3, RS).ok


def test_ordinal_order():
    zero = Ordinal()
    three = Ordinal.nat(3)
    w = Ordinal.omega()
    assert zero < three < w < w.succ() < Ordinal.omega(coefficient=2) < Ordinal.omega(exponent=2)
    assert Ordinal.nat(4) == Ordinal.nat(3).succ()


def brute_height(p: WfProof, fuel: int) -> int:
    if p.is_omega:
        return 1 + max(brute_height(p.children(n), fuel) for n in range(fuel + 1))
    if not p.children:
        return 0
    return 1 + max(brute_height(c, fuel) for c in p.children)


def test_height_leaf_and_unary():
    leaf = id_leaf(a)
    assert height(leaf) == HeightResult(Ordinal(), False)
    inst = Instantiation(fmap={"b": a}, smap={"Gamma": E, "Delta": (a,)})
    over = WfProof(seq("1, a |- a"), make_app(RS, "oneL", inst), (leaf,))
    assert height(over) == HeightResult(Ordinal.nat(1), False)


def test_height_tau3_matches_brute_force():
    t3 = tau_n(a, 3, RS)
    assert check_wf(t3, 3, RS).ok
    got = height(t3)
    assert not got.approx
    assert got.value.as_int() == brute_height(t3, 0) == 3


def test_id_expand_atom():
    p = id_expand(a, RS)
    assert p.app.rule == "id"
    report = check_wf(p, 3, RS)
    assert report.ok and not report.bounded


def test_id_expand_meet_shape():
    p = id_expand(Meet(a, b), RS)
    assert p.app.rule == "meetR"
    assert p.children[0].app.rule == "meetL0"
    assert p.children[1].app.rule == "meetL1"
    assert check_wf(p, 3, RS).ok


def test_id_expand_star_bounded():
    p = id_expand(Star(a), RS)
    assert p.app.rule == "starLomega"
    report = check_wf(p, 4, RS)
    assert report.ok and report.bounded
    # n-th premise is tau_n
    assert p.children(2).sequent == seq("a, a |- a*")


def test_id_expand_random_corpus():
    from tests.helpers import random_formula

    rng = random.Random(12)
    for _ in range(40):
        f = random_formula(rng, max_size=10, max_star_depth=2)
        assert check_wf(id_expand(f, RS), 3, RS).ok


def test_check_wf_detects_corruption():
    t2 = tau_n(a, 2, RS)
    # swap the premises of the top right-star step
    bad = WfProof(t2.sequent, t2.app, (t2.children[1], t2.children[0]))
    report = check_wf(bad, 3, RS)
    assert not report.ok
    assert report.violation.premise_index == 0


def zero_axiom(gamma, delta, beta):
    inst = Instantiation(fmap={"b": beta}, smap={"Gamma": gamma, "Delta": delta})
    return WfProof(
        Sequent(gamma + (Zero(),) + delta, beta), make_app(RS, "zeroL", inst)
    )


def test_zeroR_axiom_case():
    p = zero_axiom((a,), (b,), Zero())
    out = zeroR_admit(p, (c,), E, d, RS)
    assert out.sequent == seq("c, a, 0, b |- d")
    assert out.app.rule == "zeroL"
    assert check_wf(out, 3, RS).ok


def test_zeroR_residual_case():
    # lresL over (b |- b) and (a, 0 |- 0): proves a, b, b \ (0 . 0) ... build simpler:
    # conclusion: b, b \ a, 0 |- 0 hmm; construct via instantiation directly
    side = id_leaf(b)
    main = zero_axiom((a,), E, Zero())
    inst = Instantiation(
        fmap={"a0": b, "a1": a, "b": Zero()},
        smap={"Gamma": E, "Delta": (b,), "Sigma": (Zero(),)},
    )
    p = WfProof(
        Sequent((b, parse_formula("b \\ a"), Zero()), Zero()),
        make_app(RS, "lresL", inst),
        (side, main),
    )
    assert check_wf(p, 3, RS).ok
    out = zeroR_admit(p, (c,), (d,), d, RS)
    assert out.sequent == seq("c, b, b \\ a, 0, d |- d")
    assert check_wf(out, 3, RS).ok
    # the side premise is untouched
    assert out.children[0] is side


def test_zeroR_analytic_rule_case():
    rs = RuleSet()
    inner = zero_axiom((a, a), E, Zero())
    inst = Instantiation(fmap={"b": Zero()}, smap={"Gamma": E, "Pi": (a,), "Delta": (Zero(),)})
    p = WfProof(Sequent((a, Zero()), Zero()), RuleApp("C", inst, None), (inner,))
    assert check_wf(p, 3, rs).ok
    out = zeroR_admit(p, (c,), (d,), b, rs)
    assert out.sequent == seq("c, a, 0, d |- b")
    assert out.app.rule == "C"
    assert check_wf(out, 3, rs).ok


def test_zeroR_through_omega_node():
    # c*, 0 |- 0 by the infinitary rule over zero axioms
    star = Star(c)
    inst = Instantiation(fmap={"a": c, "b": Zero()}, smap={"Gamma": E, "Delta": (Zero(),)})
    fam = OmegaFamily(lambda n: zero_axiom((c,) * n, E, Zero()))
    p = WfProof(Sequent((star, Zero()), Zero()), make_app(RS, "starLomega", inst), fam)
    assert check_wf(p, 4, RS).ok
    out = zeroR_admit(p, (a,), (b,), d, RS)
    assert out.sequent == seq("a, c*, 0, b |- d")
    report = check_wf(out, 4, RS)
    assert report.ok and report.bounded


@pytest.mark.parametrize("seed", [1, 19, 22, 24, 35, 44])
def test_random_zero_proofs_keep_a_zero(seed):
    # these seeds once drew a left-residual step that consumed the only zero
    from actlat.corpus import random_zero_proofs

    for p in random_zero_proofs(seed, 20):
        assert check_wf(p, 4, RS).ok


def test_zeroR_rejects_right_rule():
    p = WfProof(Sequent(E, One()), make_app(RS, "oneR", Instantiation()))
    with pytest.raises(ProofError):
        zeroR_admit(p, E, E, a, RS)


def prodL_over(inner, gamma, delta, l, r, beta):
    inst = Instantiation(fmap={"a0": l, "a1": r, "b": beta}, smap={"Gamma": gamma, "Delta": delta})
    return WfProof(
        Sequent(gamma + (Prod(l, r),) + delta, beta), make_app(RS, "prodL", inst), (inner,)
    )


def test_dotL_invert_peels_introduction():
    inner = WfProof(
        Sequent((a, b), Prod(a, b)),
        make_app(RS, "prodR", Instantiation(fmap={"b0": a, "b1": b}, smap={"Gamma": (a,), "Delta": (b,)})),
        (id_leaf(a), id_leaf(b)),
    )
    p = prodL_over(inner, E, E, a, b, Prod(a, b))
    assert dotL_invert(p, 0, RS) is inner


def test_dotL_invert_pushes_through_context():
    # 1L with a . b in the context
    ab = Prod(a, b)
    inner = prodL_over(
        WfProof(
            Sequent((a, b), ab),
            make_app(RS, "prodR", Instantiation(fmap={"b0": a, "b1": b}, smap={"Gamma": (a,), "Delta": (b,)})),
            (id_leaf(a), id_leaf(b)),
        ),
        E, E, a, b, ab,
    )
    inst = Instantiation(fmap={"b": ab}, smap={"Gamma": E, "Delta": (ab,)})
    p = WfProof(Sequent((One(), ab), ab), make_app(RS, "oneL", inst), (inner,))
    out = dotL_invert(p, 1, RS)
    assert out.sequent == seq("1, a, b |- a . b")
    assert check_wf(out, 3, RS).ok
    hi, ho = height(p), height(out)
    assert ho.value <= hi.value


def test_dotL_invert_through_analytic_svar():
    rs = RuleSet()
    ab = Prod(a, b)
    # C contracting (a.b): premise a.b, a.b |- a.b
    inner_inner = id_expand(ab, rs)
    # build premise proof of (a.b, a.b |- a.b) via Wk on the left
    wk_inst = Instantiation(fmap={"b": ab}, smap={"Gamma": E, "Pi": (ab,), "Delta": (ab,)})
    premise = WfProof(Sequent((ab, ab), ab), RuleApp("Wk", wk_inst, None), (inner_inner,))
    c_inst = Instantiation(fmap={"b": ab}, smap={"Gamma": E, "Pi": (ab,), "Delta": E})
    p = WfProof(Sequent((ab,), ab), RuleApp("C", c_inst, None), (premise,))
    assert check_wf(p, 3, rs).ok
    out = dotL_invert(p, 0, rs)
    assert out.sequent == seq("a, b |- a . b")
    assert check_wf(out, 3, rs).ok


def test_oneL_invert():
    inst = Instantiation(fmap={"b": a}, smap={"Gamma": E, "Delta": (a,)})
    p = WfProof(seq("1, a |- a"), make_app(RS, "oneL", inst), (id_leaf(a),))
    out = oneL_invert(p, 0, RS)
    assert out.sequent == seq("a |- a")


def test_dotL_invert_position_error():
    p = id_leaf(a)
    with pytest.raises(ProofError):
        dotL_invert(p, 0, RS)


def modified_omega_node():
    """a* |- a* via the modified rule, premises built by hand."""
    star = Star(a)
    inst = Instantiation(fmap={"a": a, "b": star}, smap={"Gamma": E, "Delta": E})

    def member(n: int) -> WfProof:
        if n == 0:
            return WfProof(Sequent(E, star), make_app(RS, "starR0", Instantiation(fmap={"b": a})))
        # a, a^(n-1 packed) |- a*: right-star step over id and tau-style tail
        from actlat.syntax import power_formula

        packed = power_formula(a, n - 1)
        sub = _packed_tail(n - 1)
        r1 = Instantiation(fmap={"b": a}, smap={"Gamma": (a,), "Delta": (packed,)})
        return WfProof(Sequent((a, packed), star), make_app(RS, "starR1", r1), (id_leaf(a), sub))

    def _packed_tail(k: int) -> WfProof:
        # proof of a^k (packed) |- a*
        from actlat.syntax import power_formula

        packed = power_formula(a, k)
        if k == 0:
            seed = WfProof(Sequent(E, star), make_app(RS, "starR0", Instantiation(fmap={"b": a})))
            one_inst = Instantiation(fmap={"b": star}, smap={"Gamma": E, "Delta": E})
            return WfProof(Sequent((One(),), star), make_app(RS, "oneL", one_inst), (seed,))
        inner = _packed_tail(k - 1)
        r1 = Instantiation(fmap={"b": a}, smap={"Gamma": (a,), "Delta": (power_formula(a, k - 1),)})
        step = WfProof(Sequent((a, power_formula(a, k - 1)), star),
                       make_app(RS, "starR1", r1), (id_leaf(a), inner))
        p_inst = Instantiation(fmap={"a0": a, "a1": power_formula(a, k - 1), "b": star},
                               smap={"Gamma": E, "Delta": E})
        return WfProof(Sequent((packed,), star), make_app(RS, "prodL", p_inst), (step,))

    fam = OmegaFamily(lambda n: member(n))
    return WfProof(Sequent((star,), star), make_app(RS, "starLomegaM", inst), fam)


def test_modified_omega_checks():
    p = modified_omega_node()
    report = check_wf(p, 4, RS)
    assert report.ok and report.bounded


def test_to_standard_omega():
    p = modified_omega_node()
    out = to_standard_omega(p, RS)
    assert out.app.rule == "starLomega"
    assert out.sequent == p.sequent
    report = check_wf(out, 4, RS)
    assert report.ok
    assert out.children(0).sequent == seq("|- a*")
    assert out.children(1).sequent == seq("a |- a*")
    assert out.children(3).sequent == seq("a, a, a |- a*")


def test_wf_json_round_trip_tau():
    p = id_expand(Star(a), RS)
    data = wf_to_json(p)
    q, _ = wf_from_json(data)
    assert q.sequent == p.sequent
    assert check_wf(q, 3, RS).ok
    assert q.children(2).sequent == p.children(2).sequent


def test_wf_json_rejects_anonymous_family():
    fam = OmegaFamily(lambda n: tau_n(a, n, RS))
    inst = Instantiation(fmap={"a": a, "b": Star(a)}, smap={"Gamma": E, "Delta": E})
    p = WfProof(seq("a* |- a*"), make_app(RS, "starLomega", inst), fam)
    with pytest.raises(ProofError):
        wf_to_json(p)


def test_cyclic_local_check():
    star = Star(a)
    n0 = CyclicNode(
        seq("a* |- a*"),
        make_app(RS, "starL", Instantiation(fmap={"a": a, "b": star}, smap={"Gamma": E, "Delta": E})),
        ("n1", "n2"),
    )
    n1 = CyclicNode(seq("|- a*"), make_app(RS, "starR0", Instantiation(fmap={"b": a})), ())
    n2 = CyclicNode(
        seq("a, a* |- a*"),
        make_app(RS, "starR1", Instantiation(fmap={"b": a}, smap={"Gamma": (a,), "Delta": (star,)})),
        ("n3", "n0"),
    )
    n3 = CyclicNode(seq("a |- a"), make_app(RS, "id", Instantiation(fmap={"a": a})), ())
    p = CyclicProof({"n0": n0, "n1": n1, "n2": n2, "n3": n3}, "n0")
    report = check_cyclic_local(p, RS)
    assert report.ok and report.nodes_checked == 4


# ---------------------------------------------------------------------------
# Shared subproofs: identity expansion and translation return one object per
# distinct subproof, and check_wf checks each object once.


def _nodes(p, fuel):
    """Every node of the tree unfolded at the fuel, premises 0..fuel of each
    infinitary node, as (tree size, number of distinct node objects)."""
    size, distinct, stack = 0, set(), [p]
    while stack:
        node = stack.pop()
        size += 1
        distinct.add(id(node))
        stack.extend([node.children(n) for n in range(fuel + 1)] if node.is_omega
                     else node.children)
    return size, len(distinct)


def _tree_fold(p, fuel):
    kids = [p.children(n) for n in range(fuel + 1)] if p.is_omega else p.children
    return (p.sequent, p.app.rule, p.app.principal, p.app.inst.fmap, p.app.inst.smap,
            p.is_omega, [_tree_fold(k, fuel) for k in kids])


def test_id_expand_shares_equal_subproofs():
    p = id_expand(parse_formula("(a . b) & (a . b)"), RS)
    assert p.app.rule == "meetR"
    left, right = p.children
    assert left.children[0] is right.children[0]
    star = id_expand(parse_formula("(a & a)*"), RS)
    # tau_3 stacks three right-star steps over tau_2, which is premise 2
    assert star.children(3).children[1] is star.children(2)
    assert star.children(2).children[0] is star.children(1).children[0]


def _meet_of_pairs():
    good = id_expand(parse_formula("(a . b) & (a . b)"), RS)
    left, right = good.children
    inner = left.children[0]              # a . b |- a . b: prodL over prodR
    return good, left, right, inner, inner.children[0]


def test_check_wf_reports_a_defect_in_a_shared_subproof_once():
    good, left, right, inner, pair = _meet_of_pairs()
    # both branches share one proof of a . b |- a . b whose prodR premises
    # are swapped; the messages and addresses are those of the unshared walk
    bad = WfProof(inner.sequent, inner.app,
                  (WfProof(pair.sequent, pair.app, pair.children[::-1]),))
    p = WfProof(good.sequent, good.app, (WfProof(left.sequent, left.app, (bad,)),
                                          WfProof(right.sequent, right.app, (bad,))))
    report = check_wf(p, 3, RS)
    assert not report.ok
    assert report.violation.address == (1, 0, 0)
    assert report.violation.message == "premise 0 of prodR must be a |- a, child proves b |- b"
    # a defect met after a skipped shared node: the right branch is walked
    # first, so its leaf b |- b is skipped under the left branch
    id_a, id_b = pair.children
    wrong = WfProof(id_a.sequent, RuleApp("id", Instantiation(fmap={"a": b})))
    bad = WfProof(inner.sequent, inner.app, (WfProof(pair.sequent, pair.app, (wrong, id_b)),))
    p = WfProof(good.sequent, good.app, (WfProof(left.sequent, left.app, (bad,)), right))
    report = check_wf(p, 3, RS)
    assert report.violation.address == (0, 0, 0, 0)
    assert report.violation.message == "conclusion of id is b |- b, node has a |- a"


@pytest.mark.parametrize("text", ["(a . b) & (a . b)", "((a | b) . (a | b))*", "(a* \\ a*)*"])
def test_nodes_checked_counts_distinct_node_objects(text):
    p = id_expand(parse_formula(text), RS)
    size, distinct = _nodes(p, 4)
    report = check_wf(p, 4, RS)
    assert report.ok
    assert report.nodes_checked == distinct < size


@pytest.mark.parametrize("name,tree_nodes", [("star_id", 37), ("two_star", 253),
                                              ("join_star", 463)])
def test_translated_tree_is_unchanged_by_sharing(name, tree_nodes):
    # tree_nodes is check_wf's count at fuel 5 from before the translation
    # shared subproofs, when it walked the unfolded tree
    from actlat.corpus import canonical_proofs
    from actlat.translate import nwf_to_wf

    wf = nwf_to_wf(canonical_proofs(RS)[name], rules=RS)
    size, distinct = _nodes(wf, 5)
    assert size == tree_nodes
    assert check_wf(wf, 5, RS).nodes_checked == distinct < size


def test_wf_json_round_trip_shared_projected_family():
    from actlat.corpus import canonical_two_star
    from actlat.proof_core import cyclic_to_json
    from actlat.translate import nwf_to_wf

    cyclic = canonical_two_star(RS)
    wf = nwf_to_wf(cyclic, rules=RS)
    seen, shared, stack = set(), False, [wf]
    while stack:
        node = stack.pop()
        if node.is_omega:
            shared = shared or id(node.children) in seen
            seen.add(id(node.children))
        stack.extend([node.children(n) for n in range(4)] if node.is_omega else node.children)
    assert shared
    back, _ = wf_from_json(wf_to_json(wf, source=cyclic_to_json(cyclic)))
    assert _tree_fold(back, 4) == _tree_fold(wf, 4)
    assert check_wf(back, 4, RS).ok


def test_admissibility_audit_checks_few_nodes(monkeypatch):
    # a count, not a time: the audit checked 141,859 nodes when every
    # subproof was its own copy
    import actlat.proof_core as proof_core
    from actlat import corpus

    calls = [0]
    check = proof_core.check_local

    def counting_check_local(*args, **kwargs):
        calls[0] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(proof_core, "check_local", counting_check_local)
    assert corpus._crit_admissibility(20240810).passed
    assert 0 < calls[0] <= 10_000
