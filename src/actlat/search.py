"""Bounded backward proof search producing cyclic proofs.

Goals are expanded backward through the rules in a fixed order: the identity
axiom, right principal rules, left principal rules with the left star rule
last, then user structural rules, then cut when enabled.  Every rule
instance comes from matching a rule's conclusion schema against the goal.
A goal equal to an ancestor on the current path may close with a back-edge,
but only when the path segment in between applies the left star rule at
least once (a cycle without it can never progress).  Each complete
candidate graph runs through the global progress check; the first accepted
one is returned.

Each call keeps a table with one entry per distinct sequent reached as a
premise: its visit count, its rule instances with premises mapped to table
entries (so the back-edge and self-premise tests compare by identity), which
instances are usable, and whether it is viable, read from one value cache per
pruning model; each is computed once per search, in the same order.
Instances are built one rule group at a time, as the search consumes them.  A
sequent that can yield nothing more (visit-capped, or with no usable
instance) is not entered again; its visits are only counted.

A two-premise instance enumerates its second premise once per candidate of
its first, with the same arguments each time.  Once such a call has yielded
nothing, its effect is replayed rather than run again: every visit goes to
a per-search log, and a replay adds the visits in the call's span of the log
to their entries once more, appends them to the log and counts the call's
expansions again.  This is exact because state only moves one way: visit
counts grow, entries turn inert, and instances and their usability are
settled once.  So the call would yield nothing again, and while no entry
turns inert (an epoch counts those that do) it would take the same branches,
making the same visits and counting the same expansions, unless a visit
count reached VISIT_CAP or the expansions passed STEP_CAP on the way.  A
replay that could do either is refused and the call runs, so the budgets run
out at the same expansion as without replay.  The log holds one reference
per visit, about one per expansion in the searches measured (some 2 MB for a
search that spends all of STEP_CAP).  The first premise is still enumerated
after the second is known to yield nothing: its visits count towards
VISIT_CAP, so skipping them would change which goals the visit cap stops.

The search is a semi-decision procedure: exhausted budgets yield an unknown
result, never a refutation.  Refutation is a separate counter-valuation
search in finite models.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Sequence

from .progress import NODE_CAP, check_cyclic_progress
from .proof_core import CyclicNode, CyclicProof, ResourceLimit, RuleApp, check_cyclic_local
from .rules import (
    Instantiation,
    RuleInstance,
    RuleSet,
    SchematicRule,
    instantiate,
    match_conclusion,
    metavariables,
)
from .models import (FiniteActionLattice, evaluator, find_sequent_counterexample, holds_sequent,
                     rule_models, two_chain)
from .syntax import Formula, Join, LRes, Meet, Prod, RRes, Sequent, Star


LOOP_WINDOW = 20         # back-edges may reach this many ancestors up
VISIT_CAP = 2000         # visits to one sequent; later visits yield nothing
MAX_CANDIDATES = 64      # complete candidate graphs checked before giving up
WIDTH_SLACK = 4          # premises may exceed the goal width by this much
STEP_CAP = 200_000       # total expansions before giving up


@dataclass
class SearchConfig:
    depth: int = 40
    with_cut: bool = False

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError("search depth must be positive")


@dataclass
class SearchStats:
    expansions: int = 0      # rule instances enumerated, usable or not
    instances: int = 0       # rule instances built
    sequents: int = 0        # distinct sequents in the table
    model_queries: int = 0   # counter-model searches in the pruning models
    model_seconds: float = 0.0   # time spent in those searches
    candidates: int = 0      # complete candidate graphs checked
    visit_capped: int = 0    # sequents visited more than VISIT_CAP times
    replayed: int = 0        # empty premise calls whose recorded effect was applied again
    budget: str = ""         # what ended the search: VISIT_CAP, STEP_CAP, MAX_CANDIDATES or none
    seconds: float = 0.0


@dataclass
class SearchResult:
    found: bool
    proof: CyclicProof | None = None
    reason: str = ""
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class _Cand:
    sequent: Sequent
    ri: RuleInstance
    children: tuple


@dataclass(frozen=True)
class _Back:
    ancestor: int


def _subformulas(f: Formula) -> set[Formula]:
    out = {f}
    if isinstance(f, (Meet, Join, Prod, LRes, RRes)):
        out |= _subformulas(f.left) | _subformulas(f.right)
    elif isinstance(f, Star):
        out |= _subformulas(f.body)
    return out


# The principal rules in search order, in four groups: the axioms, the right
# rules, the left rules other than the star rule (tried by the position they
# introduce), and the left star rule.  prodL1 is left out: it has the premise
# of prodL, so it would only repeat prodL's candidates.
SEARCH_ORDER = (
    ("id", "zeroL"),
    ("oneR", "meetR", "joinR0", "joinR1", "prodR", "lresR", "rresR", "starR0", "starR1"),
    ("oneL", "meetL0", "meetL1", "joinL", "prodL", "lresL", "rresL"),
    ("starL",),
)
_BY_POSITION = 2  # the group of SEARCH_ORDER sorted by principal position


def _connective(rule: SchematicRule) -> tuple[bool, type] | None:
    """Whether a principal rule introduces its connective on the right, and
    the connective; None for other rules."""
    if rule.principal is None:
        return None
    ms = rule.conclusion
    right = rule.principal == -1
    return right, type(ms.rhs if right else ms.lhs[rule.principal])


def _rule_groups(rules: RuleSet, user: Sequence[SchematicRule]) -> list[list[tuple]]:
    """The rules of SEARCH_ORDER resolved through a rule set, then the user
    rules, each paired with its :func:`_connective`.  A user rule whose
    premises mention a metavariable its conclusion does not would need that
    metavariable guessed, so search leaves it out."""
    groups = [[rules.resolve(name) for name in names] for names in SEARCH_ORDER]
    groups.append([r for r in user if metavariables(r.conclusion) == r.metavariable_names()])
    return [[(r, _connective(r)) for r in group] for group in groups]


def cut_instances(goal: Sequent, cut: SchematicRule) -> Iterator[RuleInstance]:
    """Instances of cut concluding the goal, with cut formulas drawn from
    the subformulas of the goal."""
    pool = sorted(
        set().union(*(_subformulas(f) for f in goal.antecedent + (goal.succedent,))),
        key=str,
    )
    for inst in match_conclusion(cut, goal):
        for alpha in pool:
            yield instantiate(cut, Instantiation({"a": alpha, **inst.fmap}, inst.smap))


def _expansions(goal: Sequent, groups: list[list[tuple]],
                cut: SchematicRule | None) -> Iterator[list[RuleInstance]]:
    """Rule instances whose conclusion is the goal, in search order and in
    non-empty groups: those of :func:`_rule_groups`, then each cut alone."""
    present = {(False, type(f)) for f in goal.antecedent}
    present.add((True, type(goal.succedent)))
    for i, group in enumerate(groups):
        found = [instantiate(rule, inst) for rule, connective in group
                 if connective is None or connective in present
                 for inst in match_conclusion(rule, goal)]
        if i == _BY_POSITION:
            found.sort(key=lambda ri: ri.principal)
        if found:
            yield found
    if cut is not None:
        yield from ([ri] for ri in cut_instances(goal, cut))


def _to_cyclic(cand: _Cand) -> CyclicProof | None:
    """The candidate as a proof graph; None once it passes NODE_CAP nodes,
    since the progress check refuses such a graph."""
    nodes: dict[str, CyclicNode] = {}
    ids = iter(range(NODE_CAP))   # one more node raises StopIteration

    def build(c: _Cand, stack: list[str]) -> str:
        nid = f"s{next(ids)}"
        stack.append(nid)
        child_ids = []
        for child in c.children:
            if isinstance(child, _Back):
                child_ids.append(stack[child.ancestor])
            else:
                child_ids.append(build(child, stack))
        stack.pop()
        app = RuleApp(c.ri.rule.name, c.ri.inst, c.ri.principal)
        nodes[nid] = CyclicNode(c.sequent, app, tuple(child_ids))
        return nid

    try:
        return CyclicProof(nodes, build(cand, []))
    except StopIteration:
        return None


class _StepsExhausted(Exception):
    pass


# the pruning model, built once per process so that its query tables last
# across searches
_two_chain = functools.cache(two_chain)


@dataclass(slots=True, eq=False)
class _Entry:
    """The table entry of one distinct sequent within one search."""
    sequent: Sequent
    pending: Iterator[list[RuleInstance]]   # the instance groups not built yet
    # [ri, premise entries, usable] per instance built, then None while pending lasts
    expansions: list[list | None] = field(default_factory=lambda: [None])
    visits: int = 0
    viable: bool | None = None
    inert: bool = False   # later visits yield nothing: visit-capped, or no usable instance


def _replay(log: list[_Entry], empty: tuple[int, int, int, int], epoch: int,
            stats: SearchStats) -> bool:
    """Apply again the effect of a call that yielded nothing: ``empty`` holds
    the epoch it began and ended in, the span ``log[start:end]`` of its
    visits and the expansions it counted.  Returns False, with no effect,
    when running the call again could go otherwise: an entry turned inert
    since (the epoch moved on), a visit count would reach VISIT_CAP, or the
    expansions would pass STEP_CAP."""
    at, start, end, steps = empty
    if at != epoch or stats.expansions + steps > STEP_CAP:
        return False
    span = log[start:end]
    for e in span:
        e.visits += 1
    for e in span:
        if e.visits >= VISIT_CAP:
            for e in span:
                e.visits -= 1
            return False
    log += span
    stats.expansions += steps
    stats.replayed += 1
    return True


def prove(goal: Sequent, user_rules: Sequence[SchematicRule] = (),
          cfg: SearchConfig | None = None, rules: RuleSet | None = None) -> SearchResult:
    """Search for a cyclic proof of the goal.

    Returns the first candidate accepted by the progress check; budget
    exhaustion gives an unknown result, never a refutation.
    """
    start = perf_counter()
    cfg = cfg or SearchConfig()
    rules = rules or RuleSet(list(user_rules))
    groups = _rule_groups(rules, user_rules)
    cut = rules.resolve("Cut") if cfg.with_cut else None
    table: dict[Sequent, _Entry] = {}
    stats = SearchStats()
    max_width = goal.width + WIDTH_SLACK
    # every sequent's variables are the goal's (cut formulas are goal
    # subformulas), so one evaluator per model serves the whole search
    pruning = [evaluator(m, goal) or m for m in rule_models([_two_chain()], user_rules)[0]]
    log: list[_Entry] = []   # every visit in order, for the spans that _replay reads
    epoch = 0                # the number of entries turned inert so far

    def entry(s: Sequent) -> _Entry:
        return table.get(s) or table.setdefault(s, _Entry(s, _expansions(s, groups, cut)))

    def viable(e: _Entry) -> bool:
        if e.viable is None:
            e.viable = e.sequent.width <= max_width
            for m in pruning:
                if e.viable:
                    stats.model_queries += 1
                    t0 = perf_counter()
                    e.viable = holds_sequent(m, e.sequent)
                    stats.model_seconds += perf_counter() - t0
        return e.viable

    def grow(e: _Entry) -> list | None:
        """Put e's next group of instances in place of the final None, and
        return its first; None when no group is left."""
        exps = e.expansions
        exps.pop()
        group = next(e.pending, None)
        if group is None:
            return None
        stats.instances += len(group)
        exps += [[ri, tuple(map(entry, ri.premises)), None] for ri in group]
        exps.append(None)
        return exps[-1 - len(group)]

    def retire(e: _Entry) -> None:
        nonlocal epoch
        if not e.inert:
            e.inert = True
            epoch += 1

    def pass_over(e: _Entry, depth: int) -> None:
        # a visit to an inert entry, which yields nothing: one with no usable
        # instance is never on a path, and each instance is one expansion
        e.visits += 1
        log.append(e)
        if e.visits <= VISIT_CAP and depth > 0:
            stats.expansions += len(e.expansions)
            if stats.expansions > STEP_CAP:
                stats.expansions = STEP_CAP + 1
                raise _StepsExhausted

    def candidates(e: _Entry, depth: int, path: tuple[_Entry, ...], last_star: int):
        # path holds one entry per ancestor of e, root first, so back-edge
        # indices line up with the stack the graph builder keeps; last_star
        # indexes the last one that applied starL.  Each frame passes its
        # children a path of its own, so none leaves entries behind.
        e.visits += 1
        log.append(e)
        if e.visits >= VISIT_CAP:
            retire(e)
            if e.visits > VISIT_CAP:
                return
        if e in path:
            for i in range(max(0, len(path) - LOOP_WINDOW), last_star + 1):
                if path[i] is e:
                    yield _Back(i)
        if depth <= 0:
            return
        s, sub, depth = e.sequent, path + (e,), depth - 1
        live = False
        for exp in e.expansions:   # the loop sees the groups that grow appends
            if exp is None and (exp := grow(e)) is None:
                break
            stats.expansions += 1
            if stats.expansions > STEP_CAP:
                raise _StepsExhausted
            ri, premises, usable = exp
            if usable is None:
                # a premise equal to its conclusion can never progress
                usable = exp[2] = e not in premises and all(map(viable, premises))
            if not usable:
                continue
            live = True
            star = len(path) if ri.rule.name == "starL" else last_star
            if not premises:
                yield _Cand(s, ri, ())
            elif len(premises) <= 2 and premises[0].inert:
                pass_over(premises[0], depth)
            elif len(premises) == 1:
                for a in candidates(premises[0], depth, sub, star):
                    yield _Cand(s, ri, (a,))
            elif len(premises) == 2:
                p, q = premises
                empty = None   # q's last call, when it yielded nothing and retired no entry
                for a in candidates(p, depth, sub, star):
                    if q.inert:
                        pass_over(q, depth)
                        continue
                    if empty and _replay(log, empty, epoch, stats):
                        continue
                    mark, steps, at, yielded = len(log), stats.expansions, epoch, False
                    for b in candidates(q, depth, sub, star):
                        yielded = True
                        yield _Cand(s, ri, (a, b))
                    empty = None if yielded or epoch != at else (
                        at, mark, len(log), stats.expansions - steps)
            else:
                yield from _combine(s, ri, premises, (), depth, sub, star)
        if not live:
            retire(e)

    def _combine(s, ri, premises, done, depth, path, last_star):
        if not premises:
            yield _Cand(s, ri, done)
            return
        for sub in candidates(premises[0], depth, path, last_star):
            yield from _combine(s, ri, premises[1:], done + (sub,), depth, path, last_star)

    root = entry(goal)
    try:
        if not viable(root):
            return SearchResult(False, None, "goal fails in a sound finite counter-model", stats)
        for cand in candidates(root, cfg.depth, (), -1):
            if isinstance(cand, _Back):
                continue
            stats.candidates += 1
            proof = _to_cyclic(cand)
            if (proof is not None and check_cyclic_local(proof, rules).ok
                    and _progresses(proof, rules)):
                return SearchResult(True, proof, stats=stats)
            if stats.candidates >= MAX_CANDIDATES:
                stats.budget = "MAX_CANDIDATES"
                return SearchResult(False, None, "candidate budget exhausted", stats)
    except _StepsExhausted:
        stats.budget = "STEP_CAP"
        return SearchResult(False, None, "step budget exhausted", stats)
    finally:
        stats.sequents = len(table)
        stats.visit_capped = sum(e.visits > VISIT_CAP for e in table.values())
        stats.seconds = perf_counter() - start
        # entries refer to each other through their premises, and candidates
        # and _combine to themselves through their cells: break both cycles
        # so the table is freed when the search returns, not at a collection
        for e in table.values():
            e.expansions.clear()
        candidates = _combine = None
    if stats.visit_capped:
        stats.budget = "VISIT_CAP"
        return SearchResult(False, None, f"visit cap reached: {stats.visit_capped} sequent(s) "
                            f"visited more than VISIT_CAP ({VISIT_CAP}) times", stats)
    return SearchResult(False, None, "search space exhausted within bounds", stats)


def _progresses(proof: CyclicProof, rules: RuleSet) -> bool:
    """The progress check's verdict; a candidate past its limits is rejected."""
    try:
        return check_cyclic_progress(proof, rules).accepted
    except ResourceLimit:
        return False


@dataclass
class RefuteResult:
    refuted: bool
    model: str = ""
    valuation: tuple = ()


def refute(goal: Sequent, models: Sequence[FiniteActionLattice]) -> RefuteResult:
    """Look for a finite counter-model among the given models.  The caller
    is responsible for only passing models of the active structural rules."""
    for a in models:
        witness = find_sequent_counterexample(a, goal)
        if witness is not None:
            return RefuteResult(True, a.name, witness)
    return RefuteResult(False)
