import dataclasses
import functools
import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from actlat import models, progress, search
from actlat.models import library, rel_algebra, soundness_audit, two_chain
from actlat.progress import check_cyclic_progress
from actlat.proof_core import ResourceLimit, check_cyclic_local, cyclic_to_json
from actlat.rules import (RuleSet, builtin_rules, example_structural_rules, match_conclusion,
                          parse_rule_file, q_a_of)
from actlat.search import SearchConfig, SearchResult, prove, refute
from actlat.syntax import Sequent, parse_sequent

from tests.helpers import formulas

EX = example_structural_rules()


def seq(text):
    return parse_sequent(text)


def assert_found(result: SearchResult, rules=None):
    assert result.found, result.reason
    rules = rules or RuleSet()
    assert check_cyclic_local(result.proof, rules).ok
    assert check_cyclic_progress(result.proof, rules).accepted


def test_prove_id():
    result = prove(seq("a |- a"))
    assert_found(result)
    assert len(result.proof.nodes) == 1


def test_prove_star_id_cyclic():
    result = prove(seq("a* |- a*"))
    assert_found(result)
    # at least one back-edge: some node is reachable twice
    ids = set(result.proof.nodes)
    child_refs = [c for n in result.proof.nodes.values() for c in n.children]
    assert len(child_refs) >= len(ids)


def test_prove_two_star():
    result = prove(seq("a*, a* |- a*"))
    assert_found(result)
    # sanity: the goal is valid in the relation model
    from actlat.models import holds_sequent

    assert holds_sequent(rel_algebra(2), seq("a*, a* |- a*"))


def test_prove_join_star():
    result = prove(seq("(a | b)* |- (a | b)*"))
    assert_found(result)


def test_prove_simple_goals():
    for text in ["a, b |- a . b", "a & b |- a", "a |- a | b", "|- 1",
                 "a, a \\ b |- b", "b / a, a |- b", "0 |- b", "1 |- 1"]:
        assert_found(prove(seq(text)))


def test_prove_rres_succedent():
    for text in ["b / a |- b / a", "a |- (a . b) / b"]:
        assert_found(prove(seq(text)))


def expansions(goal, user=(), with_cut=True):
    rules = RuleSet(list(user))
    cut = rules.resolve("Cut") if with_cut else None
    groups = search._expansions(goal, search._rule_groups(rules, user), cut)
    return list(itertools.chain.from_iterable(groups))


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(), max_size=3), formulas())
def test_expansions_conclude_their_goal(antecedent, succedent):
    goal = Sequent(tuple(antecedent), succedent)
    for ri in expansions(goal, list(EX.values())):
        assert ri.conclusion == goal, ri.rule.name


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(), max_size=3), formulas())
def test_expansions_include_every_match(antecedent, succedent):
    goal = Sequent(tuple(antecedent), succedent)
    rules = RuleSet()
    found = [(ri.rule.name, ri.inst) for ri in expansions(goal, with_cut=False)]
    for name in itertools.chain.from_iterable(search.SEARCH_ORDER):
        for inst in match_conclusion(rules.resolve(name), goal):
            assert (name, inst) in found


@pytest.mark.parametrize("text, expected", [
    # left rules by position, meetL0 before meetL1 at each position
    ("a & b, c . d, a & b |- e | f",
     [("joinR0", -1), ("joinR1", -1), ("meetL0", 0), ("meetL1", 0), ("prodL", 1),
      ("meetL0", 2), ("meetL1", 2)]),
    ("a \\ b, c / d, e* |- f . g",
     [("prodR", -1)] * 4 + [("lresL", 0), ("rresL", 1), ("rresL", 1), ("starL", 2)]),
])
def test_expansion_order(text, expected):
    assert [(ri.rule.name, ri.principal) for ri in expansions(seq(text), with_cut=False)] == expected


def test_search_order_names_every_finitary_builtin_rule():
    searched = set(itertools.chain.from_iterable(search.SEARCH_ORDER))
    finitary = {name for name, rule in builtin_rules().items() if not rule.is_omega}
    assert searched == finitary - {"prodL1"}


def test_prove_unknown_for_invalid():
    result = prove(seq("a |- b"), cfg=SearchConfig(depth=6))
    assert not result.found


def test_exchange_enables_commutation():
    goal = seq("a . b |- b . a")
    assert not prove(goal, cfg=SearchConfig(depth=8)).found
    rules = RuleSet([EX["e"]])
    result = prove(goal, user_rules=[EX["e"]], rules=rules)
    assert result.found
    assert check_cyclic_local(result.proof, rules).ok


def test_weakening_enables_extra_context():
    goal = seq("a, b |- a")
    assert not prove(goal, cfg=SearchConfig(depth=6)).found
    rules = RuleSet([EX["Wk"]])
    assert prove(goal, user_rules=[EX["Wk"]], rules=rules).found


def test_contraction_enables_duplication():
    goal = seq("a |- a . a")
    rules = RuleSet([EX["C"]])
    result = prove(goal, user_rules=[EX["C"]], rules=rules)
    assert result.found


def test_refute_simple():
    result = refute(seq("a |- b"), [two_chain()])
    assert result.refuted
    assert result.model == "two_chain"
    assert dict(result.valuation) == {"a": 1, "b": 0}


def test_refute_commutation_without_exchange():
    result = refute(seq("a . b |- b . a"), list(library().values())[:4])
    assert result.refuted
    assert result.model == "rel2"


def test_refute_unknown_for_valid():
    result = refute(seq("a |- a"), [two_chain(), rel_algebra(2)])
    assert not result.refuted


def test_prove_refute_exclusive():
    models = [two_chain(), rel_algebra(2)]
    goals = ["a |- a", "a |- b", "a, b |- a . b", "a . b |- b . a", "a* |- a*"]
    for text in goals:
        s = seq(text)
        proved = prove(s, cfg=SearchConfig(depth=12)).found
        refuted = refute(s, models).refuted
        assert not (proved and refuted), text


def test_cut_enabled_search():
    cfg = SearchConfig(depth=10, with_cut=True)
    result = prove(seq("a, a \\ b, b \\ c |- c"), cfg=cfg)
    assert result.found


def test_nested_residual_goal():
    result = prove(seq("a \\ (b \\ c) |- (b . a) \\ c"))
    assert_found(result)


# Star identities valid in every *-continuous action lattice.  The first
# seven must be proved; search may give up on the rest, but never crash and
# never return a proof that fails a check.
STAR_IDENTITIES_FOUND = [
    "(a*)* |- a*",
    "a* . a |- a . a*",
    "(a & b)* |- a* & b*",
    "(a . b)*, a |- a . (b . a)*",
    "a* |- 1 | a . a*",
    "1 | a . a* |- a*",
    "a* |- a* . a*",
]
STAR_IDENTITIES_OTHER = [
    "a . a* |- a* . a",
    "(a | b)* |- (a* . b)* . a*",
    "(a | b)* |- (b | a)*",
    "a* |- (a*)*",
    "(a . a)* |- a*",
    "a* . (b . a*)* |- (a | b)*",
    "a* |- (1 | a)*",
    "(1 | a)* |- a*",
]
STAR_IDENTITIES = STAR_IDENTITIES_FOUND + STAR_IDENTITIES_OTHER


@functools.lru_cache(maxsize=None)
def prove_star_identity(text):
    return prove(seq(text))


@pytest.mark.parametrize("text", STAR_IDENTITIES)
def test_star_identity_battery(text):
    result = prove_star_identity(text)
    if text in STAR_IDENTITIES_FOUND:
        assert result.found, result.reason
    if result.found:
        assert_found(result)
        report = soundness_audit([seq(text)], library().values())
        assert report.ok, report.violations[:1]


@pytest.mark.parametrize("text", STAR_IDENTITIES)
def test_back_edges_target_ancestors(text):
    result = prove_star_identity(text)
    if not result.found:
        return
    proof = result.proof
    seen: set[str] = set()
    stack: list[str] = []

    def walk(nid):
        seen.add(nid)
        stack.append(nid)
        for child in proof.nodes[nid].children:
            if child in seen:
                assert child in stack, (text, nid, child)
            else:
                walk(child)
        stack.pop()

    walk(proof.root)
    assert seen == set(proof.nodes)


# The two valid identities of the battery that search misses, inside the
# step and candidate budgets: one exhausts its space, one fires VISIT_CAP.
VISIT_CAPPED_ONCE = "visit cap reached: 1 sequent(s) visited more than VISIT_CAP (2000) times"
MISSED = {"a . a* |- a* . a": "search space exhausted within bounds",
          "(a | b)* |- (a* . b)* . a*": VISIT_CAPPED_ONCE}


@pytest.mark.parametrize("text", MISSED)
def test_missed_identity_stats(text):
    result = prove_star_identity(text)
    assert result.reason == MISSED[text]
    stats = result.stats
    assert 0 < stats.expansions < search.STEP_CAP
    assert stats.candidates < search.MAX_CANDIDATES
    assert stats.model_queries <= stats.sequents
    assert stats.seconds > 0


def record_queries(monkeypatch) -> list:
    """Record (model or evaluator, sequent, verdict) for every pruning query."""
    queried = []
    real = search.holds_sequent

    def recording(model, s):
        queried.append((model, s, real(model, s)))
        return queried[-1][2]

    monkeypatch.setattr(search, "holds_sequent", recording)
    return queried


def test_viability_queried_once_per_sequent(monkeypatch):
    records = record_queries(monkeypatch)
    result = prove(seq("(a | b)* |- (a* . b)* . a*"))
    queried = [s for _, s, _ in records]
    assert len(queried) == len(set(queried)) == result.stats.model_queries
    assert len(queried) <= 200


# Caps 501, 2001 and 10008 run out inside a visit to a sequent with no usable
# instance, whose expansions are counted all at once, past the cap.
# The candidate case stays second so that its id keeps the index cfg1.
@pytest.mark.parametrize("cap, value, text, cfg, reason", [
    ("STEP_CAP", 500, "(a | b)* |- (a* . b)* . a*", None, "step budget exhausted"),
    ("MAX_CANDIDATES", 2, "a* . a |- a . a*", SearchConfig(depth=12, with_cut=True),
     "candidate budget exhausted"),
    *(("STEP_CAP", value, "(a | b)* |- (a* . b)* . a*", None, "step budget exhausted")
      for value in (501, 2000, 2001, 10000, 10008)),
])
def test_budget_exhaustion_reasons(monkeypatch, cap, value, text, cfg, reason):
    monkeypatch.setattr(search, cap, value)
    result = prove(seq(text), cfg=cfg)
    assert not result.found and result.reason == reason
    if cap == "MAX_CANDIDATES":
        assert result.stats.candidates == value
    else:
        assert result.stats.expansions == value + 1


def test_default_budgets_on_budget_goals():
    assert prove_star_identity("(a | b)* |- (a* . b)* . a*").reason == VISIT_CAPPED_ONCE
    assert_found(prove_star_identity("a* . a |- a . a*"))


# found, reason and SearchStats but sequents, instances and the timings, as
# the search gave them before it built instances lazily
@pytest.mark.parametrize("text, cfg, found, reason, expansions, model_queries, candidates, capped", [
    ("(a | b)* |- (a* . b)* . a*", None, False, VISIT_CAPPED_ONCE, 20434, 86, 0, 1),
    ("(a . b)*, a |- a . (b . a)*", None, True, "", 220, 62, 1, 0),
    ("a* . a |- a . a*", SearchConfig(depth=12, with_cut=True), False,
     "candidate budget exhausted", 1262, 56, 64, 0),
    ("a* . b* |- (a . b)*", None, False, "search space exhausted within bounds", 30, 21, 0, 0),
])
def test_search_stats_pinned(text, cfg, found, reason, expansions, model_queries,
                             candidates, capped):
    result = prove(seq(text), cfg=cfg)
    stats = result.stats
    assert (result.found, result.reason) == (found, reason)
    assert (stats.expansions, stats.model_queries, stats.candidates, stats.visit_capped) == \
        (expansions, model_queries, candidates, capped)


def outcome(result: SearchResult) -> tuple:
    """What a search gave, but for the timings and the replay count."""
    stats = dataclasses.asdict(result.stats)
    for key in ("seconds", "model_seconds", "replayed"):
        del stats[key]
    proof = cyclic_to_json(result.proof) if result.found else None
    return result.found, result.reason, proof, stats


# The two identities after the star goals replay spans that visit inert
# premises.  Every cap below runs out while a replay would pass it, so the
# empty call runs instead; 501, 2001 and 10008 run out inside a bulk count.
@pytest.mark.parametrize("text, cfg, cap, budget, replays", [
    ("(a | b)* |- a* | b*", None, None, "VISIT_CAP", True),
    ("(a | b)* |- (a* . b)* . a*", None, None, "VISIT_CAP", True),
    ("c* | (a / 0)** |- c* | (a / 0)**", None, None, "", True),
    ("(((c | c) \\ 1) | 1)* |- (((c | c) \\ 1) | 1)*", None, None, "VISIT_CAP", True),
    ("(a . b)*, a |- a . (b . a)*", None, None, "", False),
    ("a* . a |- a . a*", SearchConfig(depth=12, with_cut=True), None, "MAX_CANDIDATES", False),
    ("a* . b* |- (a . b)*", None, None, "", False),
    *(("(a | b)* |- (a* . b)* . a*", None, cap, "STEP_CAP", False)
      for cap in (500, 501, 2000, 2001, 10000, 10008)),
])
def test_replay_is_exact(monkeypatch, text, cfg, cap, budget, replays):
    if cap is not None:
        monkeypatch.setattr(search, "STEP_CAP", cap)
    shipped = prove(seq(text), cfg=cfg)
    monkeypatch.setattr(search, "_replay", lambda *args: False)
    rerun = prove(seq(text), cfg=cfg)
    assert outcome(shipped) == outcome(rerun)
    assert shipped.stats.budget == budget
    assert rerun.stats.replayed == 0
    if replays:
        assert shipped.stats.replayed > 0


def test_replay_refuses_what_a_rerun_could_change(monkeypatch):
    # a call that made the visits x, y, x and counted 4 expansions in epoch 2
    monkeypatch.setattr(search, "VISIT_CAP", 5)
    monkeypatch.setattr(search, "STEP_CAP", 11)
    x, y = (search._Entry(seq(text), iter(())) for text in ("a |- a", "b |- b"))
    log, empty = [x, y, x], (2, 0, 3, 4)
    stats = search.SearchStats(expansions=7)
    x.visits, y.visits = 1, 3

    def state():
        return x.visits, y.visits, log, stats.expansions, stats.replayed

    assert not search._replay(log, empty, 3, stats)   # an entry turned inert since
    y.visits = 4
    assert not search._replay(log, empty, 2, stats)   # y would reach VISIT_CAP
    assert state() == (1, 4, [x, y, x], 7, 0)
    y.visits, stats.expansions = 3, 8
    assert not search._replay(log, empty, 2, stats)   # 12 expansions pass STEP_CAP
    stats.expansions = 7
    assert search._replay(log, empty, 2, stats)
    assert state() == (3, 4, [x, y, x] * 2, 11, 1)


@pytest.mark.parametrize("text", ["(a | b)* |- (a* . b)* . a*", "a* . a |- a . a*",
                                  "(a . b)*, a |- a . (b . a)*"])
def test_search_table_is_freed_when_the_search_ends(text):
    # the table's entries and the search's closures refer to each other;
    # the search breaks those cycles, so almost nothing is left to the
    # cyclic collector (over 2,000 objects for the first goal otherwise);
    # the result is kept, as its proof is not the search's to free
    prove(seq(text))   # the first search builds what every later one shares
    gc.collect()
    gc.disable()
    try:
        result = prove(seq(text))
        left = gc.collect()
    finally:
        gc.enable()
    assert left < 50, (result.reason, left)


def test_instances_built_as_consumed():
    # the proof closes inside the first group of each sequent it reaches, so
    # the later groups (the left rules of the goal) are never built
    result = prove(seq("a & b |- b | a"))
    assert_found(result)
    reached = {node.sequent for node in result.proof.nodes.values()}
    every = sum(len(expansions(s, with_cut=False)) for s in reached)
    assert (result.stats.instances, every) == (5, 7)


@pytest.mark.parametrize("text, cfg", [
    ("(a | b)* |- (a* . b)* . a*", None),
    ("a* . a |- a . a*", SearchConfig(depth=12, with_cut=True)),
])
def test_pruning_cache_agrees_with_the_kernel(monkeypatch, text, cfg):
    queried = record_queries(monkeypatch)
    goal = seq(text)
    prove(goal, cfg=cfg)
    assert queried and all(isinstance(m, models.Evaluator) for m, _, _ in queried)
    assert {s for _, s, _ in queried} > {goal}
    for _, s, verdict in queried:
        assert verdict == (models.find_sequent_counterexample(two_chain(), s) is None), s
    # the same sequents through evaluators over larger models' goal grids
    for model in (rel_algebra(2), models.truncated_words()):
        ev = models.evaluator(model, goal)
        for _, s, _ in queried:
            assert models.holds_sequent(ev, s) == models.holds_sequent(model, s), (model.name, s)


def test_search_falls_back_to_the_kernel_beyond_one_block(monkeypatch):
    monkeypatch.setattr(models, "_BLOCK_CELLS", 2)  # a 2-variable goal needs 4 cells
    queried = record_queries(monkeypatch)
    assert_found(prove(seq("a . b |- a . b")))
    assert queried and all(m is search._two_chain() for m, _, _ in queried)


def test_progress_limit_rejects_one_candidate(monkeypatch):
    # with no room for trace relations, every candidate of this goal exceeds
    # the progress check's relation cap: each is rejected and counted, and
    # the search ends with its stats (two candidates keep the test short)
    monkeypatch.setattr(progress, "REL_CAP", 0)
    limited = []
    real = search.check_cyclic_progress

    def checking(proof, rules):
        try:
            return real(proof, rules)
        except ResourceLimit:
            limited.append(len(proof.nodes))
            raise

    monkeypatch.setattr(search, "check_cyclic_progress", checking)
    monkeypatch.setattr(search, "MAX_CANDIDATES", 2)
    result = prove(seq("a* |- a*"))
    assert isinstance(result, SearchResult)
    assert (result.found, result.reason) == (False, "candidate budget exhausted")
    assert result.stats.candidates == len(limited) == 2


def test_candidate_over_the_node_cap_skips_the_local_check(monkeypatch):
    # every candidate of this goal has over 2,700 nodes at the default
    # depth: each is rejected, and still counted, before its graph is built
    # (so before the local check)
    graphs, nodes = [], []
    real_proof, real_node = search.CyclicProof, search.CyclicNode

    def proof(node_map, root):
        graphs.append(len(node_map))
        return real_proof(node_map, root)

    def node(*args):
        nodes.append(None)
        return real_node(*args)

    monkeypatch.setattr(search, "CyclicProof", proof)
    monkeypatch.setattr(search, "CyclicNode", node)
    monkeypatch.setattr(search, "MAX_CANDIDATES", 2)
    mix = parse_rule_file("rule mix3:\n  G |- b\n  D |- b\n  P |- b\n  ----\n  G, D, P |- b\n")
    result = prove(seq("(a | b)*, a, b |- (a | b)*"), [*mix, EX["Wk"]])
    assert graphs == []
    assert len(nodes) <= 2 * progress.NODE_CAP
    assert (result.found, result.reason) == (False, "candidate budget exhausted")
    stats = result.stats
    assert (stats.expansions, stats.instances, stats.sequents, stats.model_queries,
            stats.candidates, stats.visit_capped) == (54697, 5684, 315, 265, 2, 1)
