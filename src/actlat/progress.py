"""The global branch condition on cyclic proofs.

A branch of the unfolding satisfies the condition when it carries a thread
that eventually sticks to one fixed starred formula on the left-hand side and
is introduced (principal at a left star step) infinitely often.

Decision procedure: per-edge trace relations over star-holding antecedent
positions, composed and saturated over all graph paths.  A pair is flagged
progressing when the step passes through the principal position of a left
star node.  The proof is accepted iff every idempotent relation looping a
node back to itself relates some position to itself with the progress flag
set; a progress-free idempotent yields a concrete counterexample cycle.
This is the usual size-change/Ramsey argument: any infinite branch decomposes
into infinitely many segments all realizing one idempotent relation, so the
proof is accepted exactly when every such decomposition carries a progressing
self-thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .proof_core import CyclicNode, CyclicProof, ProofError, ResourceLimit
from .rules import RuleInstance, RuleSet
from .syntax import Sequent, Star

INFINITY_UP_TO_FUEL = "INFINITY_UP_TO_FUEL"

NODE_CAP = 500
REL_CAP = 50_000


@dataclass(frozen=True)
class Thread:
    """Occurrence positions visited along consecutive branch nodes, starting
    at branch index ``start``."""

    start: int
    positions: tuple[int, ...]


def star_thread(t: Thread, branch_sequents: Sequence[Sequent]) -> bool:
    """True when the thread keeps denoting one fixed starred formula and
    never sits on the succedent."""
    if not t.positions:
        return False
    forms = []
    for i, pos in enumerate(t.positions):
        if pos == -1:
            return False
        forms.append(branch_sequents[t.start + i].formula_at(pos))
    first = forms[0]
    return isinstance(first, Star) and all(f == first for f in forms)


# A trace relation is a frozenset of (source position, target position,
# progressing) triples between the conclusion of an edge and its premise.
TraceRel = frozenset


def compose(r1: TraceRel, r2: TraceRel) -> TraceRel:
    by_mid: dict[int, list[tuple[int, bool]]] = {}
    for q2, q3, prog2 in r2:
        by_mid.setdefault(q2, []).append((q3, prog2))
    out = set()
    for q, q2, prog1 in r1:
        for q3, prog2 in by_mid.get(q2, ()):
            out.add((q, q3, prog1 or prog2))
    return frozenset(out)


def _edge_relation(
    proof: CyclicProof, node: CyclicNode, ri: RuleInstance, child_slot: int
) -> TraceRel:
    """Trace pairs for one edge out of a node with rule instance ``ri``,
    restricted to left positions that hold the same starred formula at both
    ends."""
    indices = ri.child_indices
    child_index = indices[child_slot] if indices is not None else child_slot
    anc = ri.ancestry(child_index)
    child = proof.node(node.children[child_slot])
    pairs = set()
    for (i, q_premise), q_conclusion in anc:
        if q_premise < 0 or q_conclusion < 0:
            continue
        f = node.sequent.formula_at(q_conclusion)
        if not isinstance(f, Star):
            continue
        if child.sequent.formula_at(q_premise) != f:
            continue
        progressing = (
            ri.rule.name == "starL" and node.app.principal == q_conclusion
        )
        pairs.add((q_conclusion, q_premise, progressing))
    return frozenset(pairs)


@dataclass
class _Saturation:
    edges: dict[tuple[str, str], list[tuple[TraceRel, tuple[str, ...]]]]
    closure: dict[tuple[str, str], dict[TraceRel, tuple[str, ...]]]


def _saturate(proof: CyclicProof, rules: RuleSet) -> _Saturation:
    if len(proof.nodes) > NODE_CAP:
        raise ResourceLimit(f"proof graph exceeds {NODE_CAP} nodes")
    edge_rels: dict[tuple[str, str], list[tuple[TraceRel, tuple[str, ...]]]] = {}
    for nid, node in proof.nodes.items():
        ri = RuleInstance(rules.resolve(node.app.rule), node.app.inst)
        for slot, child_id in enumerate(node.children):
            rel = _edge_relation(proof, node, ri, slot)
            edge_rels.setdefault((nid, child_id), []).append((rel, (nid, child_id)))
    out_edges: dict[str, list[tuple[str, TraceRel, tuple[str, ...]]]] = {}
    for (u, v), rels in edge_rels.items():
        for rel, path in rels:
            out_edges.setdefault(u, []).append((v, rel, path))
    closure: dict[tuple[str, str], dict[TraceRel, tuple[str, ...]]] = {}
    work: list[tuple[str, str, TraceRel, tuple[str, ...]]] = []
    for (u, v), rels in edge_rels.items():
        for rel, path in rels:
            slot = closure.setdefault((u, v), {})
            if rel not in slot:
                slot[rel] = path
                work.append((u, v, rel, path))
    total = sum(len(s) for s in closure.values())
    while work:
        u, v, rel, path = work.pop()
        for w, erel, epath in out_edges.get(v, ()):
            new = compose(rel, erel)
            slot = closure.setdefault((u, w), {})
            if new not in slot:
                slot[new] = path + epath[1:]
                work.append((u, w, new, slot[new]))
                total += 1
                if total > REL_CAP:
                    raise ResourceLimit(
                        f"trace-relation saturation exceeded {REL_CAP} relations"
                    )
    return _Saturation(edge_rels, closure)


@dataclass(frozen=True)
class ProgressResult:
    accepted: bool
    counterexample: tuple[str, ...] | None = None
    star_positions: tuple[int, ...] = ()


def check_cyclic_progress(p: CyclicProof, rules: RuleSet | None = None) -> ProgressResult:
    """Accept iff every infinite branch of the unfolding has a progressing
    thread; rejection returns a cycle witnessing a progress-free idempotent."""
    rules = rules or RuleSet()
    sat = _saturate(p, rules)
    for (u, v), rels in sorted(sat.closure.items()):
        if u != v:
            continue
        for rel, path in rels.items():
            if compose(rel, rel) != rel:
                continue
            if any(q == q2 and prog for q, q2, prog in rel):
                continue
            star_positions = tuple(sorted({q for q, _, _ in rel}))
            return ProgressResult(False, path, star_positions)
    return ProgressResult(True)


# ---------------------------------------------------------------------------
# Progress points of a branch prefix.


def _branch_nodes(p: CyclicProof, rules: RuleSet, prefix: Sequence[int]) -> list[str]:
    """Node ids visited along a prefix of child address components."""
    out = [p.root]
    nid = p.root
    for step in prefix:
        node = p.node(nid)
        rule = rules.resolve(node.app.rule)
        indices = rule.child_indices()
        if indices is None:
            raise ProofError("infinitary rules cannot occur in a cyclic proof")
        if step not in indices:
            raise ProofError(f"no child {step} at node {nid}")
        nid = node.children[indices.index(step)]
        out.append(nid)
    return out


def _can_progress_forever(
    p: CyclicProof, sat: _Saturation, start: str, pos: int
) -> bool:
    """Is there an infinite continuation from (node, position) that is
    principal at a left star step infinitely often?"""
    # progressing idempotent self-pairs reachable from (start, pos)
    targets = set()
    for (u, v), rels in sat.closure.items():
        if u != v:
            continue
        for rel in rels:
            if compose(rel, rel) == rel:
                for q, q2, prog in rel:
                    if q == q2 and prog:
                        targets.add((u, q))
    if not targets:
        return False
    if (start, pos) in targets:
        return True
    for (u, v), rels in sat.closure.items():
        if u != start:
            continue
        for rel in rels:
            for q, q2, _ in rel:
                if q == pos and (v, q2) in targets:
                    return True
    return False


def progress_points(
    p: CyclicProof,
    branch_prefix: Sequence[int],
    fuel: int,
    rules: RuleSet | None = None,
) -> set[int]:
    """Indices i <= fuel of prefix steps where a progressing thread that
    sticks to one starred formula can be principal.

    The thread is traced along the prefix through the per-edge relations and
    must then admit an infinite progressing continuation in the graph.
    """
    rules = rules or RuleSet()
    sat = _saturate(p, rules)
    nodes = _branch_nodes(p, rules, branch_prefix)
    out: set[int] = set()
    for i in range(min(fuel, len(branch_prefix)) + 1):
        node = p.node(nodes[i])
        if node.app.rule != "starL" or node.app.principal is None:
            continue
        # follow the thread from the principal occurrence to the prefix end
        current = {node.app.principal}
        for j in range(i, len(branch_prefix)):
            nxt: set[int] = set()
            for rel, _ in sat.edges.get((nodes[j], nodes[j + 1]), []):
                for q, q2, _ in rel:
                    if q in current:
                        nxt.add(q2)
            current = nxt
            if not current:
                break
        if any(_can_progress_forever(p, sat, nodes[-1], q) for q in current):
            out.add(i)
    return out


def critical_height(
    p: CyclicProof,
    branch_prefix: Sequence[int],
    fuel: int,
    rules: RuleSet | None = None,
):
    """Least progress point of the prefix, or the not-found sentinel."""
    pts = progress_points(p, branch_prefix, fuel, rules)
    return min(pts) if pts else INFINITY_UP_TO_FUEL
