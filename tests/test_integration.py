"""Cross-module scenarios: translations of the reference proofs, projections
over infinitary nodes, serialization with user rules, and resource limits."""

import pytest

from actlat.corpus import canonical_join_star, canonical_star_id, goal_corpus
from actlat.proof_core import (
    CyclicNode,
    CyclicProof,
    OmegaFamily,
    ResourceLimit,
    RuleApp,
    WfProof,
    check_wf,
    cyclic_from_json,
    cyclic_to_json,
    make_app,
    tau_n,
)
from actlat.models import library, soundness_audit
from actlat.rules import (
    Instantiation,
    RuleSet,
    SplitCapExceeded,
    example_structural_rules,
    match_conclusion,
    q_a_of,
)
from actlat.search import SearchConfig, prove
from actlat.syntax import Sequent, Star, Var, parse_sequent
from actlat.translate import (
    AssignmentError,
    check_lazy_prefix,
    nwf_to_wf,
    project_proof,
    wf_to_nwf,
)

RS = RuleSet()
EX = example_structural_rules()
a, b = Var("a"), Var("b")


def test_join_star_full_pipeline():
    p = canonical_join_star(RS)
    wf = nwf_to_wf(p, rules=RS)
    assert wf.sequent == parse_sequent("(a | b)* |- (a | b)*")
    report = check_wf(wf, 5, RS)
    assert report.ok, report.violation
    ladder = wf_to_nwf(wf, RS)
    checked, violation = check_lazy_prefix(ladder, 5, RS)
    assert violation is None


def test_translation_resource_limit_carries_address():
    # the eager part of this translation is a single infinitary root, so a
    # tiny fuel only bites when a family member materializes
    p = canonical_star_id(RS)
    wf = nwf_to_wf(p, fuel=2, rules=RS)
    assert wf.is_omega
    with pytest.raises(ResourceLimit) as e:
        wf.children(4)
    assert e.value.address is not None


def test_project_rejects_assigned_infinitary_principal():
    from actlat.proof_core import id_expand

    p = id_expand(Star(a), RS)
    proj = project_proof(p, {0: 1}, RS)
    with pytest.raises(AssignmentError):
        proj.node_at(())


def test_project_through_infinitary_context():
    # infinitary node with a starred context occurrence: the star at
    # position 0 projects through every premise of the family
    rules = RuleSet([EX["Wk"]])
    bstar, astar = Star(b), Star(a)

    def member(n: int) -> WfProof:
        inner = tau_n(a, n, rules)
        wk = Instantiation(fmap={"b": astar}, smap={"Gamma": (), "Pi": (bstar,), "Delta": (a,) * n})
        return WfProof(Sequent((bstar,) + (a,) * n, astar), RuleApp("Wk", wk, None), (inner,))

    inst = Instantiation(fmap={"a": a, "b": astar}, smap={"Gamma": (bstar,), "Delta": ()})
    p = WfProof(Sequent((bstar, astar), astar), make_app(rules, "starLomega", inst),
                OmegaFamily(member))
    assert check_wf(p, 3, rules).ok
    proj = project_proof(p, {0: 2}, rules)
    root = proj.node_at(())
    assert root.app.rule == "starLomega"
    assert str(root.sequent) == "b . (b . 1), a* |- a*"
    # family member 2: the projected star keeps its power in the premise
    child = proj.node_at((2,))
    assert str(child.sequent) == "b . (b . 1), a, a |- a*"
    # the weakened-away assignment vanishes below
    below = proj.node_at((2, 0))
    assert below.sequent == parse_sequent("a, a |- a*")


def test_cyclic_json_with_user_rules(tmp_path):
    rules = RuleSet([EX["Wk"]])
    goal = parse_sequent("a, b |- a")
    result = prove(goal, user_rules=[EX["Wk"]], rules=rules)
    assert result.found
    data = cyclic_to_json(result.proof, ["Wk"])
    loaded, loaded_rules = cyclic_from_json(data)
    from actlat.proof_core import check_cyclic_local

    assert check_cyclic_local(loaded, loaded_rules).ok
    assert data["rules"] == ["Wk"]


def test_match_split_cap():
    wide = parse_sequent(", ".join(["a"] * 14) + " |- b")
    with pytest.raises(SplitCapExceeded):
        match_conclusion(EX["Cut"], wide, split_cap=100)


def test_corpus_goals_all_valid_in_eligible_models():
    goals = []
    for name, goal, extras in goal_corpus():
        if not extras:
            goals.append(goal)
    report = soundness_audit(goals, library().values())
    assert report.ok, report.violations[:1]


def test_deterministic_search():
    goal = parse_sequent("a*, a* |- a*")
    first = prove(goal, cfg=SearchConfig())
    second = prove(goal, cfg=SearchConfig())
    assert cyclic_to_json(first.proof) == cyclic_to_json(second.proof)


def test_project_both_stars_makes_finite():
    from actlat.corpus import canonical_two_star
    from actlat.translate import iter_addresses, project_proof

    p = canonical_two_star(RS)
    proj = project_proof(p, {0: 1, 1: 1}, RS)
    checked, violation = check_lazy_prefix(proj, 12, RS)
    assert violation is None
    # with every star projected the whole tree bottoms out
    deepest = max(len(addr) for addr in iter_addresses(proj, 12))
    assert deepest < 12


@pytest.mark.parametrize("text", [
    "(a . b)*, a |- a . (b . a)*",   # sliding rule for star over product
    "(a | b)* |- (b | a)*",          # commuting a join under star
])
def test_star_identities_full_pipeline(text):
    from actlat.progress import check_cyclic_progress
    from actlat.proof_core import check_cyclic_local

    goal = parse_sequent(text)
    result = prove(goal)
    assert result.found, (text, result.reason)
    assert check_cyclic_local(result.proof, RS).ok
    assert check_cyclic_progress(result.proof, RS).accepted
    wf = nwf_to_wf(result.proof, rules=RS)
    assert wf.sequent == goal
    report = check_wf(wf, 4, RS)
    assert report.ok, report.violation
    ladder = wf_to_nwf(wf, RS)
    _, violation = check_lazy_prefix(ladder, 5, RS)
    assert violation is None
    # validity cross-check in the relation model
    from actlat.models import holds_sequent, rel_algebra

    assert holds_sequent(rel_algebra(2), goal)


def test_match_repeated_svar_conclusion():
    from actlat.rules import MetaSequent, SchematicRule, SVar, FVar

    rule = SchematicRule(
        "mirror",
        (MetaSequent((SVar("G"),), FVar("b")),),
        MetaSequent((SVar("G"), SVar("G")), FVar("b")),
    )
    hits = match_conclusion(rule, parse_sequent("a, a |- b"))
    assert len(hits) == 1 and hits[0].smap == {"G": (a,)}
    assert match_conclusion(rule, parse_sequent("a, b |- b")) == []


def test_root_cut_proofs_contain_a_cut():
    from actlat.corpus import _root_cut_proof
    from actlat.models import rel_algebra, three_chain, two_chain
    from actlat.progress import check_cyclic_progress
    from actlat.proof_core import check_cyclic_local

    models = [two_chain(), three_chain(), rel_algebra(1), rel_algebra(2)]
    p = _root_cut_proof(parse_sequent("a & b |- b | a"), [], RS, models)
    root = p.node(p.root)
    assert root.app.rule == "Cut" and root.sequent == parse_sequent("a & b |- b | a")
    # the cut formula a: a & b |- a, then a |- b | a
    assert [p.node(c).sequent for c in root.children] == [
        parse_sequent("a & b |- a"), parse_sequent("a |- b | a")]
    assert check_cyclic_local(p, RS).ok and check_cyclic_progress(p, RS).accepted
    # a cut on a |- a needs a premise equal to the goal or a refuted one
    assert _root_cut_proof(parse_sequent("a |- a"), [], RS, models) is None


# The detail line of every criterion, as the audit printed it before the
# completions and the corpus searches were shared between criteria.
AUDIT_DETAILS = [
    "q(Cut) = (x <= y & z.y.w <= u) => z.x.w <= u",
    "200 id-expansions, 50 zero-widenings",
    "3 accepted, 10 rejected with cycles",
    "25 goals, both directions",
    "containment to depth 8; 30 live prefixes compared",
    "121 sequent/model pairs",
    "5 frames",
    "5 quasiequations x 5 frames",
    "5 models",
    "8 of 25 goals proved with a root cut; each has a cut-free proof",
]


def test_audit_run_builds_each_completion_and_search_once(monkeypatch):
    """One cold audit run builds each of the 5 library models' frame,
    star-Gentzen report and dual once, and runs each of the 25 corpus goals'
    default search once, with unchanged verdicts and detail lines."""
    from collections import Counter

    from actlat import corpus, frames, search

    calls = Counter()
    depths = []

    def count(name):
        original = getattr(frames, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(frames, name, counted)

    for name in ("dual_algebra", "check_star_gentzen", "frame_of_algebra"):
        count(name)
    prove = search.prove

    def counted_prove(goal, user_rules=(), cfg=None, rules=None):
        depths.append((cfg or search.SearchConfig()).depth)
        return prove(goal, user_rules, cfg, rules)

    monkeypatch.setattr(search, "prove", counted_prove)
    corpus._library_completions.cache_clear()
    corpus._searched_proofs.cache_clear()
    results = corpus.run_acceptance()
    assert [r.number for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
    assert [r.detail for r in results] == AUDIT_DETAILS
    assert calls["dual_algebra"] == calls["check_star_gentzen"] == calls["frame_of_algebra"] == 5
    assert depths.count(40) == 25
