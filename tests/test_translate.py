import pytest

from actlat.corpus import canonical_star_id, canonical_two_star
from actlat.progress import check_cyclic_progress, critical_height, progress_points
from actlat.proof_core import (
    ProofError,
    check_cyclic_local,
    check_wf,
    id_expand,
)
from actlat.rules import Instantiation, RuleInstance, RuleSet, instantiate
from actlat.syntax import (
    One,
    Prod,
    Sequent,
    Star,
    Var,
    parse_sequent,
    power_formula,
)
from actlat.translate import (
    AddressError,
    AssignmentError,
    CyclicLazy,
    check_lazy_prefix,
    check_rule_uniformity,
    evolve_assignment,
    iter_addresses,
    nwf_to_wf,
    om,
    path,
    project_cyclic,
    project_proof,
    project_sequent,
    project_single,
    wf_to_nwf,
)

RS = RuleSet()
a, b, c = Var("a"), Var("b"), Var("c")
E = ()


def seq(text):
    return parse_sequent(text)


def test_project_sequent_zero_power():
    s = seq("a*, b |- c")
    assert project_sequent(s, {0: 0}) == Sequent((One(), b), c)


def test_project_sequent_empty_assignment():
    s = seq("a*, b |- c")
    assert project_sequent(s, {}) == s


def test_project_sequent_packed_power():
    s = seq("a*, a* |- c")
    out = project_sequent(s, {1: 2})
    assert out == Sequent((Star(a), Prod(a, Prod(a, One()))), c)


def test_project_sequent_rejects_non_star():
    with pytest.raises(AssignmentError):
        project_sequent(seq("a, b |- c"), {0: 1})


def test_evolve_through_unary_context():
    rule = RS.resolve("oneL")
    inst = Instantiation(fmap={"b": c}, smap={"Gamma": (Star(a),), "Delta": (b,)})
    f = {0: 2}
    assert evolve_assignment(f, RuleInstance(rule, inst), 0) == {0: 2}
    # a position after the removed unit shifts down
    inst2 = Instantiation(fmap={"b": c}, smap={"Gamma": (), "Delta": (Star(a),)})
    assert evolve_assignment({1: 3}, RuleInstance(rule, inst2), 0) == {0: 3}


def test_evolve_through_contraction_duplicates():
    rule = RS.resolve("C")
    star = Star(a)
    inst = Instantiation(fmap={"b": c}, smap={"Gamma": (), "Pi": (star,), "Delta": ()})
    out = evolve_assignment({0: 2}, RuleInstance(rule, inst), 0)
    assert out == {0: 2, 1: 2}


def test_evolve_drops_unrelated_positions():
    rule = RS.resolve("Wk")
    star = Star(a)
    inst = Instantiation(fmap={"b": c}, smap={"Gamma": (), "Pi": (star,), "Delta": (b,)})
    # position 0 (the weakened-in star) has no ancestor in the premise
    out = evolve_assignment({0: 1}, RuleInstance(rule, inst), 0)
    assert out == {}


def test_evolve_rejects_assigned_principal():
    rule = RS.resolve("starL")
    inst = Instantiation(fmap={"a": a, "b": c}, smap={"Gamma": (), "Delta": ()})
    with pytest.raises(AssignmentError):
        evolve_assignment({0: 1}, RuleInstance(rule, inst), 1)


def test_rule_flags_are_classified_once_per_schema(monkeypatch):
    # evolution and the translation's linearity check read a rule's flags off
    # its schema, which classifies itself on first use
    import dataclasses

    import actlat.rules as rules

    classified = []
    classify = rules.classify
    monkeypatch.setattr(rules, "classify", lambda rule: classified.append(rule.name) or classify(rule))
    rule = dataclasses.replace(RS.resolve("oneL"))  # a schema not classified yet
    inst = Instantiation(fmap={"b": c}, smap={"Gamma": (Star(a),), "Delta": (b,)})
    for _ in range(3):
        assert evolve_assignment({0: 2}, RuleInstance(rule, inst), 0) == {0: 2}
    assert classified == ["oneL"]
    classified.clear()
    assert check_wf(nwf_to_wf(canonical_two_star(RS), rules=RS), 5, RS).ok
    assert len(classified) == len(set(classified))


def test_evolution_preserves_validity():
    # carried assignments stay valid for every premise across the nodes of
    # the reference proofs
    from actlat.corpus import canonical_proofs
    from actlat.translate import validate_assignment

    for proof in canonical_proofs(RS).values():
        for node in proof.nodes.values():
            rule = RS.resolve(node.app.rule)
            sequent = node.sequent
            f = {
                i: 1
                for i in sequent.positions()
                if isinstance(sequent.formula_at(i), Star) and i != node.app.principal
            }
            from actlat.rules import instantiate_premise

            for slot, child in enumerate(node.children):
                indices = rule.child_indices()
                fi = evolve_assignment(f, RuleInstance(rule, node.app.inst), indices[slot])
                validate_assignment(fi, proof.node(child).sequent)


def test_uniformity_id():
    rule = RS.resolve("id")
    inst = Instantiation(fmap={"a": a})
    projected, premises, conclusion = check_rule_uniformity(RuleInstance(rule, inst), {})
    assert conclusion == seq("a |- a")
    assert premises == ()


def test_uniformity_meetR_context():
    rule = RS.resolve("meetR")
    star = Star(a)
    inst = Instantiation(fmap={"b0": b, "b1": c}, smap={"Gamma": (star,)})
    projected, premises, conclusion = check_rule_uniformity(RuleInstance(rule, inst), {0: 1})
    assert conclusion == Sequent((power_formula(a, 1),), parse_sequent("|- b & c").succedent)
    assert premises[0] == Sequent((power_formula(a, 1),), b)
    assert premises[1] == Sequent((power_formula(a, 1),), c)


def test_uniformity_contraction():
    rule = RS.resolve("C")
    star = Star(a)
    inst = Instantiation(fmap={"b": c}, smap={"Gamma": (), "Pi": (star,), "Delta": ()})
    projected, premises, conclusion = check_rule_uniformity(RuleInstance(rule, inst), {0: 2})
    assert conclusion == Sequent((power_formula(a, 2),), c)
    assert premises[0] == Sequent((power_formula(a, 2), power_formula(a, 2)), c)


def test_projection_zero_case_on_canonical():
    p = canonical_star_id(RS)
    proj = project_single(p, 0, 0, RS)
    root = proj.node_at(())
    assert root.app.rule == "oneL"
    assert root.sequent == Sequent((One(),), Star(a))
    child = proj.node_at((0,))
    assert child.app.rule == "starR0"
    assert child.sequent == seq("|- a*")
    assert child.child_indices == ()
    checked, violation = check_lazy_prefix(proj, 3, RS)
    assert violation is None


def test_projection_empty_assignment_copies():
    p = canonical_star_id(RS)
    proj = project_proof(p, {}, RS)
    src = CyclicLazy(p, RS)
    for addr in [(), (0,), (1,), (1, 0), (1, 1)]:
        assert proj.node_at(addr).sequent == src.node_at(addr).sequent
        assert proj.node_at(addr).app.rule == src.node_at(addr).app.rule


def test_projection_two_case_chain():
    p = canonical_star_id(RS)
    proj = project_single(p, 0, 2, RS)
    root = proj.node_at(())
    assert root.app.rule == "prodL1"
    assert root.sequent == Sequent((power_formula(a, 2),), Star(a))
    assert root.child_indices == (1,)
    n1 = proj.node_at((1,))
    assert n1.app.rule == "starR1"
    n2 = proj.node_at((1, 1))
    assert n2.app.rule == "prodL1"
    assert n2.sequent == Sequent((power_formula(a, 1),), Star(a))
    n3 = proj.node_at((1, 1, 1))
    assert n3.app.rule == "starR1"
    n4 = proj.node_at((1, 1, 1, 1))
    assert n4.app.rule == "oneL"
    n5 = proj.node_at((1, 1, 1, 1, 0))
    assert n5.app.rule == "starR0"
    assert n5.child_indices == ()
    checked, violation = check_lazy_prefix(proj, 6, RS)
    assert violation is None


def test_projection_node_containment():
    p = canonical_two_star(RS)
    src = CyclicLazy(p, RS)
    for k, n in [(0, 0), (0, 1), (0, 2), (1, 2)]:
        proj = project_single(p, k, n, RS)
        for addr in iter_addresses(proj, 8):
            src.node_at(addr)  # must not raise: projection addresses exist in the source


def test_projection_progress_monotone():
    # project one star of the two-star proof; the other cycle survives, so
    # the projection still has infinite branches to compare along
    p = canonical_two_star(RS)
    reg = project_cyclic(p, {0: 2}, RS)
    assert check_cyclic_local(reg, RS).ok
    assert check_cyclic_progress(reg, RS).accepted
    # descend through the projected star (steps 1,1,1,1), drop into the
    # copied single-star proof (step 0), then follow its cycle
    prefix = [1, 1, 1, 1, 0, 1, 1]
    pts_src = progress_points(p, prefix, 12, RS)
    pts_proj = progress_points(reg, prefix, 12, RS)
    assert pts_src <= pts_proj
    ch_src = critical_height(p, prefix, 12, RS)
    ch_proj = critical_height(reg, prefix, 12, RS)
    assert ch_proj <= ch_src


def test_projection_finite_when_root_star_projected():
    # assigning the only star makes the whole projection finite
    p = canonical_star_id(RS)
    reg = project_cyclic(p, {0: 2}, RS)
    assert check_cyclic_local(reg, RS).ok
    assert check_cyclic_progress(reg, RS).accepted
    # acyclic: no node reachable from itself
    for nid, node in reg.nodes.items():
        seen, stack = set(), list(node.children)
        while stack:
            cur = stack.pop()
            if cur == nid:
                raise AssertionError("projection of the only star left a cycle")
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(reg.nodes[cur].children)


def test_projection_stuck_branch_is_finite():
    # following the projected star's unfolding direction exits the projection
    p = canonical_star_id(RS)
    proj = project_single(p, 0, 1, RS)
    addr = ()
    depth = 0
    while depth < 50:
        view = proj.node_at(addr)
        if view.child_indices == ():
            break
        step = 1 if 1 in view.child_indices else view.child_indices[0]
        addr += (step,)
        depth += 1
    assert depth < 20  # the right-leaning walk bottoms out


def test_om_of_starfree_is_identity_shape():
    n0 = canonical_star_id(RS)
    # pick a star-free cyclic proof: a |- a
    from actlat.proof_core import CyclicNode, CyclicProof, make_app

    leaf = CyclicNode(seq("a |- a"), make_app(RS, "id", Instantiation(fmap={"a": a})), ())
    p = CyclicProof({"x": leaf}, "x")
    out = om(p, RS)
    assert out.node_at(()).app.rule == "id"
    assert out.node_at(()).child_indices == ()


def test_om_family_members():
    p = canonical_star_id(RS)
    out = om(p, RS)
    root = out.node_at(())
    assert root.app.rule == "starLomegaM"
    assert root.child_indices is None
    assert out.node_at((0,)).sequent == seq("|- a*")
    # family member i proves a, a^i |- a*
    for i in range(3):
        member = out.node_at((i + 1,))
        assert member.sequent == Sequent((a, power_formula(a, i)), Star(a))
    checked, violation = check_lazy_prefix(out, 4, RS, omega_fuel=3)
    assert violation is None, violation


def test_om_nested_two_star():
    p = canonical_two_star(RS)
    out = om(p, RS)
    root = out.node_at(())
    assert root.app.rule == "starLomegaM"
    # premise 0 is the single-star proof: itself an infinitary node
    sub = out.node_at((0,))
    assert sub.app.rule == "starLomegaM"
    for n, m in [(1, 1), (2, 2), (2, 1)]:
        checked, violation = check_lazy_prefix(out, 4, RS, omega_fuel=max(n, m))
        assert violation is None


def test_path_reading():
    p = canonical_star_id(RS)
    out = om(p, RS)
    assert path(out, [0]) == [0]
    assert path(out, [3]) == [1]
    # a branch avoiding infinitary nodes is unchanged
    assert path(out, [2, 1]) == [1, 1]


def test_nwf_to_wf_canonical():
    p = canonical_star_id(RS)
    wf = nwf_to_wf(p, rules=RS)
    assert wf.sequent == seq("a* |- a*")
    assert wf.app.rule == "starLomega"
    assert wf.children(0).sequent == seq("|- a*")
    assert wf.children(1).sequent == seq("a |- a*")
    assert wf.children(2).sequent == seq("a, a |- a*")
    report = check_wf(wf, 5, RS)
    assert report.ok, report.violation


def test_nwf_to_wf_starfree():
    from actlat.proof_core import CyclicNode, CyclicProof, make_app

    inst = Instantiation(fmap={"b0": a, "b1": b}, smap={"Gamma": (a,), "Delta": (b,)})
    n0 = CyclicNode(seq("a, b |- a . b"), make_app(RS, "prodR", inst), ("n1", "n2"))
    n1 = CyclicNode(seq("a |- a"), make_app(RS, "id", Instantiation(fmap={"a": a})), ())
    n2 = CyclicNode(seq("b |- b"), make_app(RS, "id", Instantiation(fmap={"a": b})), ())
    p = CyclicProof({"n0": n0, "n1": n1, "n2": n2}, "n0")
    wf = nwf_to_wf(p, rules=RS)
    assert not wf.is_omega
    assert wf.app.rule == "prodR"
    assert check_wf(wf, 2, RS).ok


def test_nwf_to_wf_two_star():
    p = canonical_two_star(RS)
    wf = nwf_to_wf(p, rules=RS)
    assert wf.sequent == seq("a*, a* |- a*")
    report = check_wf(wf, 4, RS)
    assert report.ok, report.violation


def test_projection_checks_each_address_once(monkeypatch):
    import actlat.translate as translate

    checks = []
    addresses = set()
    check = translate.check_rule_uniformity
    node_at = translate.ProjectedLazy.node_at

    def counting_check(*args, **kwargs):
        checks.append(args[0].rule.name)
        return check(*args, **kwargs)

    def recording_node_at(self, addr):
        addresses.add((id(self), tuple(addr)))
        return node_at(self, addr)

    monkeypatch.setattr(translate, "check_rule_uniformity", counting_check)
    monkeypatch.setattr(translate.ProjectedLazy, "node_at", recording_node_at)
    wf = nwf_to_wf(canonical_two_star(RS), rules=RS)
    assert check_wf(wf, 5, RS).ok
    assert checks
    assert len(checks) <= len(addresses)


def test_projected_nodes_are_read_once_per_address(monkeypatch):
    # the two-star proof has 455 distinct projected addresses; reading the
    # infinitary view from the root on every lookup made 3,700 calls
    import actlat.translate as translate

    calls = [0]
    node_at = translate.ProjectedLazy.node_at

    def counting_node_at(self, addr):
        calls[0] += 1
        return node_at(self, addr)

    monkeypatch.setattr(translate.ProjectedLazy, "node_at", counting_node_at)
    wf = nwf_to_wf(canonical_two_star(RS), rules=RS)
    assert check_wf(wf, 5, RS).ok
    assert 0 < calls[0] <= 455


def test_om_rejects_a_missing_child():
    lazy = om(canonical_two_star(RS), RS)
    root = lazy.node_at(())
    assert root.child_indices is None
    with pytest.raises(AddressError):
        lazy.node_at((2, 5))


def test_nwf_to_wf_rejects_non_progressing():
    from actlat.corpus import corrupted_variants

    bad = corrupted_variants(RS)["star_id_root_loop_C"]
    with pytest.raises(ProofError):
        nwf_to_wf(bad, rules=RS)


def test_wf_to_nwf_omega_free_unchanged():
    p = id_expand(Prod(a, b), RS)
    lazy = wf_to_nwf(p, RS)
    assert lazy.node_at(()).app.rule == p.app.rule
    checked, violation = check_lazy_prefix(lazy, 6, RS)
    assert violation is None


def test_wf_to_nwf_ladder():
    p = id_expand(Star(a), RS)
    lazy = wf_to_nwf(p, RS)
    root = lazy.node_at(())
    assert root.app.rule == "starL"
    assert root.sequent == seq("a* |- a*")
    # spine at depth j proves a^(j), a* |- a*; left child proves a^(j) |- a*
    for j in range(4):
        spine = lazy.node_at((1,) * j)
        assert spine.app.rule == "starL"
        assert spine.sequent == Sequent((a,) * j + (Star(a),), Star(a))
        left = lazy.node_at((1,) * j + (0,))
        assert left.sequent == Sequent((a,) * j, Star(a))
    checked, violation = check_lazy_prefix(lazy, 4, RS)
    assert violation is None, violation


def test_wf_to_nwf_ladder_reads_the_principal_mark():
    import dataclasses

    p = id_expand(Star(a), RS)
    assert wf_to_nwf(p, RS).node_at((1, 1)).app.principal == 2
    for mark in (None, 1):
        bad = dataclasses.replace(p, app=dataclasses.replace(p.app, principal=mark))
        with pytest.raises(ProofError, match="principal mark"):
            wf_to_nwf(bad, RS).node_at(())


def test_round_trip_conclusions():
    for p in (canonical_star_id(RS), canonical_two_star(RS)):
        wf = nwf_to_wf(p, rules=RS)
        assert wf.sequent == p.node(p.root).sequent
        back = wf_to_nwf(wf, RS)
        assert back.node_at(()).sequent == wf.sequent
