"""Translations between the cyclic and the infinitary proof system.

Both directions work through a lazy preproof interface: a tree exposed by
expanding node addresses (tuples of child indices) on demand.  That one
interface covers finite-graph cyclic proofs, wellfounded trees with
infinitary nodes, and the genuinely non-regular outputs of the translations.

Cyclic to wellfounded: a proof is first read as a preproof with the
right-child product rule available, each left star node is replaced by a
modified infinitary node whose premise family projects the unfolding premise
at every depth, the result is materialized eagerly between infinitary nodes,
and finally the modified nodes are flattened to the standard infinitary rule
by product and unit inversions.

Wellfounded to cyclic-system: each infinitary node becomes an infinite left
star ladder whose spine keeps the starred formula principal at every step,
so every branch into the ladder is progressing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .progress import check_cyclic_progress
from .proof_core import (
    CyclicNode,
    CyclicProof,
    OmegaFamily,
    ProofError,
    ResourceLimit,
    RuleApp,
    WfProof,
    check_local,
    make_app,
    rule_app,
    to_standard_omega,
)
from .rules import Instantiation, RuleInstance, RuleSet
from .syntax import Sequent, Star, power_formula

StarAssignment = dict[int, int]


class AddressError(ValueError):
    pass


class AssignmentError(ValueError):
    pass


class UniformityError(AssertionError):
    """The projected instance fails to re-instantiate its rule; this signals
    a defect in the rule engine, not in the input proof."""


def validate_assignment(f: StarAssignment, s: Sequent) -> None:
    for pos, value in f.items():
        if value is None:
            continue
        if not 0 <= pos < s.width:
            raise AssignmentError(f"assigned position {pos} outside the antecedent")
        if not isinstance(s.formula_at(pos), Star):
            raise AssignmentError(f"assigned position {pos} does not hold a starred formula")
        if value < 0:
            raise AssignmentError("assigned values are naturals")


def project_sequent(s: Sequent, f: StarAssignment) -> Sequent:
    """Replace each assigned starred occurrence by the packed finite power."""
    validate_assignment(f, s)
    lhs = list(s.antecedent)
    for pos, value in f.items():
        lhs[pos] = power_formula(lhs[pos].body, value)
    return Sequent(tuple(lhs), s.succedent)


def evolve_assignment(f: StarAssignment, instance: RuleInstance,
                      child_index: int) -> StarAssignment:
    """Carry an assignment from the conclusion of a rule instance to one
    premise along immediate ancestry; positions with no ancestor in the
    premise drop out.

    Only allowed for linear rules, the id axiom, or principal rules whose
    principal occurrence is unassigned.
    """
    rule = instance.rule
    principal = instance.principal
    if not (rule.flags.linear or rule.name == "id" or principal is not None):
        raise AssignmentError(f"cannot evolve through {rule.name}")
    if principal is not None and principal in f:
        raise AssignmentError("the principal occurrence is assigned; use projection")
    out: StarAssignment = {}
    for (_, q_premise), q_conclusion in instance.ancestry(child_index):
        if q_conclusion in f and q_premise >= 0:
            if q_premise in out and out[q_premise] != f[q_conclusion]:
                raise AssignmentError("conflicting ancestor assignments")
            out[q_premise] = f[q_conclusion]
    return out


def project_instantiation(instance: RuleInstance, f: StarAssignment) -> Instantiation:
    """Apply an assignment inside the images of the conclusion's sequence
    metavariables of a rule instance."""
    origins, _, _ = instance.layout
    out = instance.inst.copy()
    for pos, value in f.items():
        origin = origins[pos]
        if origin.kind != "svar":
            raise AssignmentError(
                f"assigned occurrence {pos} is not inside a sequence metavariable of {instance.rule.name}"
            )
        image = out.smap[origin.name]
        target = image[origin.offset]
        if not isinstance(target, Star):
            raise AssignmentError(f"occurrence {pos} does not hold a starred formula")
        out.smap[origin.name] = (
            image[:origin.offset] + (power_formula(target.body, value),) + image[origin.offset + 1:]
        )
    return out


def check_rule_uniformity(instance: RuleInstance, f: StarAssignment):
    """Project a rule instance and assert the result instantiates the same
    rule.

    Returns (projected instantiation, projected premises, projected
    conclusion); a mismatch raises, signalling a rule-engine bug.
    """
    rule = instance.rule
    validate_assignment(f, instance.conclusion)
    projected = RuleInstance(rule, project_instantiation(instance, f))
    want_conclusion = project_sequent(instance.conclusion, f)
    got_conclusion = projected.conclusion
    if got_conclusion != want_conclusion:
        raise UniformityError(
            f"projected conclusion of {rule.name} is {got_conclusion}, expected {want_conclusion}"
        )
    premises = []
    if not rule.is_omega:
        for i in instance.child_indices:
            fi = evolve_assignment(f, instance, i)
            want = project_sequent(instance.premise(i), fi)
            got = projected.premise(i)
            if got != want:
                raise UniformityError(
                    f"projected premise {i} of {rule.name} is {got}, expected {want}"
                )
            premises.append(got)
    return projected.inst, tuple(premises), got_conclusion


# ---------------------------------------------------------------------------
# Lazy preproofs.


@dataclass(frozen=True)
class NodeView:
    sequent: Sequent
    app: RuleApp
    child_indices: tuple[int, ...] | None  # None: a child for every natural


class LazyPreproof:
    """Expand-on-demand preproof; re-expansion of an address is stable.  The
    views nwf_to_wf reads give ``key(addr)``: equal keys, equal subtrees."""

    rules: RuleSet

    def node_at(self, addr: tuple[int, ...]) -> NodeView:
        raise NotImplementedError


def _indices_for(rules: RuleSet, app: RuleApp) -> tuple[int, ...] | None:
    return rules.resolve(app.rule).child_indices()


class WfLazy(LazyPreproof):
    def __init__(self, proof: WfProof, rules: RuleSet | None = None):
        self.proof = proof
        self.rules = rules or RuleSet()
        self._memo: dict[tuple[int, ...], WfProof] = {(): proof}

    def _node(self, addr: tuple[int, ...]) -> WfProof:
        if addr in self._memo:
            return self._memo[addr]
        parent = self._node(addr[:-1])
        step = addr[-1]
        if parent.is_omega:
            node = parent.children(step)
        else:
            indices = _indices_for(self.rules, parent.app)
            if step not in indices:
                raise AddressError(f"no child {step} at {addr[:-1]}")
            node = parent.children[indices.index(step)]
        self._memo[addr] = node
        return node

    def node_at(self, addr):
        node = self._node(tuple(addr))
        return NodeView(node.sequent, node.app,
                        None if node.is_omega else _indices_for(self.rules, node.app))


class CyclicLazy(LazyPreproof):
    def __init__(self, proof: CyclicProof, rules: RuleSet | None = None):
        self.proof = proof
        self.rules = rules or RuleSet()
        self._memo: dict[tuple[int, ...], str] = {(): proof.root}

    def _node_id(self, addr: tuple[int, ...]) -> str:
        if addr in self._memo:
            return self._memo[addr]
        parent_id = self._node_id(addr[:-1])
        parent = self.proof.node(parent_id)
        indices = _indices_for(self.rules, parent.app)
        if indices is None:
            raise ProofError("infinitary rules cannot occur in a cyclic proof")
        step = addr[-1]
        if step not in indices:
            raise AddressError(f"no child {step} at {addr[:-1]}")
        nid = parent.children[indices.index(step)]
        self._memo[addr] = nid
        return nid

    def node_at(self, addr):
        node = self.proof.node(self._node_id(tuple(addr)))
        return NodeView(node.sequent, node.app, _indices_for(self.rules, node.app))

    def key(self, addr):
        return self._node_id(tuple(addr))


class SubtreeLazy(LazyPreproof):
    def __init__(self, src: LazyPreproof, base: tuple[int, ...]):
        self.src = src
        self.base = base
        self.rules = src.rules

    def node_at(self, addr):
        return self.src.node_at(self.base + tuple(addr))

    def key(self, addr):
        return self.src.key(self.base + tuple(addr))


def as_lazy(proof, rules: RuleSet | None = None) -> LazyPreproof:
    if isinstance(proof, LazyPreproof):
        return proof
    if isinstance(proof, CyclicProof):
        return CyclicLazy(proof, rules)
    if isinstance(proof, WfProof):
        return WfLazy(proof, rules)
    raise TypeError(f"not a proof: {proof!r}")


# ---------------------------------------------------------------------------
# Projection.


_ProjState = tuple[StarAssignment, NodeView, RuleInstance, NodeView | None]


class ProjectedLazy(LazyPreproof):
    """The f-projection of a preproof.

    Node addresses coincide with source addresses: the replaced left star
    steps keep their child index (0 for the vanishing power, 1 through the
    right-child product rule), and every other node keeps its own indices.
    """

    def __init__(self, src: LazyPreproof, f: StarAssignment, rules: RuleSet | None = None):
        self.src = src
        self.rules = rules or src.rules
        self.f0 = dict(f)
        # the projected node is None until node_at first asks for it
        self._states: dict[tuple[int, ...], _ProjState] = {}

    def _case(self, view: NodeView, f: StarAssignment) -> tuple[str, int | None]:
        if view.app.rule == "starL":
            k = view.app.principal
            if k in f:
                return ("zero", k) if f[k] == 0 else ("succ", k)
        return ("copy", None)

    def _state(self, addr: tuple[int, ...]) -> _ProjState:
        """The assignment at an address, the source node there, its rule
        instance and the projected node, if already computed."""
        if addr in self._states:
            return self._states[addr]
        if not addr:
            f = dict(self.f0)
            validate_assignment(f, self.src.node_at(()).sequent)
        else:
            parent, step = addr[:-1], addr[-1]
            fp, view, ri, _ = self._state(parent)
            case, k = self._case(view, fp)
            if case == "zero":
                if step != 0:
                    raise AddressError(f"no child {step} at {parent}")
                f = {p - (p > k): v for p, v in fp.items() if p != k}
            elif case == "succ":
                if step != 1:
                    raise AddressError(f"no child {step} at {parent}")
                f = {p + (p > k): v for p, v in fp.items() if p != k}
                f[k + 1] = fp[k] - 1
            else:
                f = evolve_assignment(fp, ri, step)
        view = self.src.node_at(addr)
        state = (f, view, RuleInstance(self.rules.resolve(view.app.rule), view.app.inst), None)
        self._states[addr] = state
        return state

    def node_at(self, addr):
        addr = tuple(addr)
        f, view, ri, projected = self._state(addr)
        if projected is None:
            projected = self._project(f, view, ri)
            self._states[addr] = (f, view, ri, projected)
        return projected

    def key(self, addr):
        f = self._state(tuple(addr))[0]  # an empty assignment copies the source
        return (tuple(sorted(f.items())), self.src.key(addr)) if f else self.src.key(addr)

    def _project(self, f: StarAssignment, view: NodeView, ri: RuleInstance) -> NodeView:
        case, k = self._case(view, f)
        if case == "copy":
            if not f:
                return view
            projected, _, conclusion = check_rule_uniformity(ri, f)
            app = make_app(self.rules, ri.rule.name, projected)
            return NodeView(conclusion, app, view.child_indices)
        # the packed power at k is 1 or alpha . alpha^(n-1)
        sequent = project_sequent(view.sequent, f)
        if case == "zero":
            return NodeView(sequent, rule_app(self.rules, "oneL", sequent, principal=k), (0,))
        return NodeView(sequent, rule_app(self.rules, "prodL1", sequent, principal=k), (1,))


def project_proof(proof, f: StarAssignment, rules: RuleSet | None = None) -> ProjectedLazy:
    """The f-projection: assigned left star steps become unit or right-child
    product steps over the projection of the matching premise; everything
    else is copied with the assignment carried along ancestry."""
    src = as_lazy(proof, rules)
    return ProjectedLazy(src, f, rules or src.rules)


def project_single(proof, k: int, n: int, rules: RuleSet | None = None) -> ProjectedLazy:
    """Projection by the singleton assignment sending occurrence k to n."""
    return project_proof(proof, {k: n}, rules)


# ---------------------------------------------------------------------------
# The cyclic-to-infinitary reading.


class OmLazy(LazyPreproof):
    """Replace every left star node by a modified infinitary node whose
    premise family projects the unfolding premise at each depth."""

    def __init__(self, src: LazyPreproof, rules: RuleSet | None = None):
        self.src = src
        self.rules = rules or src.rules
        self._subs: dict[tuple[tuple[int, ...], int], OmLazy] = {}
        self._cursors: dict[tuple[int, ...], tuple[OmLazy, tuple[int, ...], NodeView]] = {}

    def _omega_child(self, src_addr: tuple[int, ...], k: int, step: int) -> "OmLazy":
        key = (src_addr, step)
        if key not in self._subs:
            sub = SubtreeLazy(self.src, src_addr + (1,))
            projected = ProjectedLazy(sub, {k + 1: step - 1}, self.rules)
            self._subs[key] = OmLazy(projected, self.rules)
        return self._subs[key]

    def _cursor(self, addr: tuple[int, ...]):
        """The OmLazy that owns an address, the source address it reads
        there and the source node, one step on from the parent's cursor."""
        if addr not in self._cursors:
            owner, cur = self, ()
            if addr:
                owner, cur, view = self._cursor(addr[:-1])
                step = addr[-1]
                if view.app.rule == "starL" and step:
                    owner, cur = owner._omega_child(cur, view.app.principal, step), ()
                elif view.child_indices is not None and step not in view.child_indices:
                    raise AddressError(f"no child {step} at {addr[:-1]}")
                else:
                    cur += (step,)
            self._cursors[addr] = (owner, cur, owner.src.node_at(cur))
        return self._cursors[addr]

    def node_at(self, addr):
        _, _, view = self._cursor(tuple(addr))
        if view.app.rule == "starL":
            return NodeView(view.sequent, make_app(self.rules, "starLomegaM", view.app.inst), None)
        return view

    def key(self, addr):
        owner, cur, _ = self._cursor(tuple(addr))
        return owner.src.key(cur)


def om(proof, rules: RuleSet | None = None) -> OmLazy:
    src = as_lazy(proof, rules)
    return OmLazy(src, rules or src.rules)


def path(proof: LazyPreproof, branch) -> list[int]:
    """Re-read a branch of an infinitary proof as a branch of its source:
    entering a premise family goes to the unfolding premise, the base premise
    stays first, and everything else is copied."""
    out = []
    addr: tuple[int, ...] = ()
    for step in branch:
        view = proof.node_at(addr)
        if view.child_indices is None:
            out.append(0 if step == 0 else 1)
        else:
            out.append(step)
        addr += (step,)
    return out


# ---------------------------------------------------------------------------
# Full pipelines.


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, addr):
        self.spent += 1
        if self.spent > self.limit:
            raise ResourceLimit(
                f"materialization exceeded {self.limit} nodes", tuple(addr)
            )


def _materialize(lazy: LazyPreproof, addr: tuple[int, ...], plain: tuple[int, ...],
                 budget: _Budget, fuel: int, memo: dict) -> WfProof:
    """plain tracks positions in the built tree (tuple slots and family
    indices), which is what serialized family addresses refer to.  memo maps
    state keys to built nodes, so equal subtrees are built once; a shared
    family keeps the address where it was built first."""
    key = lazy.key(addr)
    if key not in memo:
        budget.spend(addr)
        view = lazy.node_at(addr)
        if view.child_indices is None:
            children = OmegaFamily(
                lambda n: _materialize(lazy, addr + (n,), plain + (n,), _Budget(fuel), fuel, memo),
                schema="projected",
                params={"address": list(plain)},
            )
        else:
            children = tuple(_materialize(lazy, addr + (i,), plain + (slot,), budget, fuel, memo)
                             for slot, i in enumerate(view.child_indices))
        memo[key] = WfProof(view.sequent, view.app, children)
    return memo[key]


def _used_rules_linear(p: CyclicProof, rules: RuleSet) -> None:
    builtin = set(rules.builtin)
    for node in p.nodes.values():
        rule = rules.resolve(node.app.rule)
        if rule.name in builtin:
            continue
        if not rule.flags.linear:
            raise ProofError(f"rule {rule.name} is not linear; translation requires linear rules")


def nwf_to_wf(p: CyclicProof, fuel: int = 100_000, rules: RuleSet | None = None) -> WfProof:
    """Translate an accepted cyclic proof into the standard infinitary
    wellfounded system, preserving the conclusion.

    Everything outside premise families is materialized eagerly (the
    translation only terminates because accepted inputs have no infinite
    branch after the rewrite); families stay lazy and each materialization is
    bounded by the fuel (in nodes built, a shared subtree once), with
    exhaustion reported as a resource limit rather than a validity verdict.
    """
    rules = rules or RuleSet()
    _used_rules_linear(p, rules)
    from .proof_core import check_cyclic_local

    local = check_cyclic_local(p, rules)
    if not local.ok:
        raise ProofError(f"input is not locally valid: {local.violation}")
    result = check_cyclic_progress(p, rules)
    if not result.accepted:
        raise ProofError(
            f"input fails the branch condition; counterexample cycle {list(result.counterexample or ())}"
        )
    lazy = om(CyclicLazy(p, rules), rules)
    materialized = _materialize(lazy, (), (), _Budget(fuel), fuel, {})
    return to_standard_omega(materialized, rules)


class LadderLazy(LazyPreproof):
    """Infinitary nodes unravelled into infinite left star ladders.

    The spine node at ladder depth j proves ``Gamma, alpha^(j), alpha*,
    Delta |- beta``; its first child is the translation of the j-th premise
    and its second child the next spine node, so the starred occurrence is
    principal at every spine step (a progressing thread by construction).
    """

    def __init__(self, proof: WfProof, rules: RuleSet | None = None):
        self.proof = proof
        self.rules = rules or RuleSet()
        # per address: the source node, the ladder depth (None off the
        # spines) and the view, None until node_at first asks for it
        self._memo: dict[tuple[int, ...], tuple[WfProof, int | None, NodeView | None]] = {}

    def _enter(self, node: WfProof) -> tuple[WfProof, int | None]:
        if not node.is_omega:
            return node, None
        if node.app.rule != "starLomega":
            raise ProofError(
                f"only the standard infinitary rule can be unravelled, got {node.app.rule}"
            )
        k, ant = node.app.principal, node.sequent.antecedent
        if not (isinstance(k, int) and 0 <= k < len(ant) and isinstance(ant[k], Star)):
            raise ProofError(f"principal mark of starLomega is {k!r}, not a starred occurrence")
        return node, 0

    def _state(self, addr: tuple[int, ...]):
        if addr in self._memo:
            return self._memo[addr]
        if not addr:
            node, j = self._enter(self.proof)
        else:
            node, j, _ = self._state(addr[:-1])
            step = addr[-1]
            if j is not None:
                if step == 0:
                    node, j = self._enter(node.children(j))
                elif step == 1:
                    j += 1
                else:
                    raise AddressError(f"no child {step} at {addr[:-1]}")
            else:
                indices = _indices_for(self.rules, node.app)
                if step not in indices:
                    raise AddressError(f"no child {step} at {addr[:-1]}")
                node, j = self._enter(node.children[indices.index(step)])
        state = self._memo[addr] = (node, j, None)
        return state

    def node_at(self, addr):
        addr = tuple(addr)
        node, j, view = self._state(addr)
        if view is None:
            view = self._view(node, j)
            self._memo[addr] = (node, j, view)
        return view

    def _view(self, node: WfProof, j: int | None) -> NodeView:
        if j is None:
            return NodeView(node.sequent, node.app, _indices_for(self.rules, node.app))
        k, ant = node.app.principal, node.sequent.antecedent
        spine = Sequent(ant[:k] + (ant[k].body,) * j + ant[k:], node.sequent.succedent)
        return NodeView(spine, rule_app(self.rules, "starL", spine, principal=k + j), (0, 1))


def wf_to_nwf(p: WfProof, rules: RuleSet | None = None) -> LadderLazy:
    return LadderLazy(p, rules)


# ---------------------------------------------------------------------------
# Bounded audits of lazy preproofs.


def iter_addresses(lazy: LazyPreproof, depth: int, omega_fuel: int = 3):
    """Breadth-first addresses of a lazy preproof down to the given depth;
    premise families are sampled up to omega_fuel."""
    frontier = [()]
    for _ in range(depth + 1):
        next_frontier = []
        for addr in frontier:
            yield addr
            view = lazy.node_at(addr)
            indices = view.child_indices
            if indices is None:
                indices = tuple(range(omega_fuel + 1))
            next_frontier.extend(addr + (i,) for i in indices)
        frontier = next_frontier


def check_lazy_prefix(lazy: LazyPreproof, depth: int, rules: RuleSet | None = None,
                      omega_fuel: int = 3):
    """Locally check every node of the prefix; returns (nodes checked, first
    violation or None)."""
    rules = rules or lazy.rules
    checked = 0
    for addr in iter_addresses(lazy, depth, omega_fuel):
        view = lazy.node_at(addr)
        family = view.child_indices is None
        indices = range(omega_fuel + 1) if family else view.child_indices
        child_sequents = tuple(lazy.node_at(addr + (i,)).sequent for i in indices)
        violation = check_local(view.sequent, view.app, child_sequents, rules, family)
        if violation is not None:
            return checked, (addr, str(violation))
        checked += 1
    return checked, None


def project_cyclic(p: CyclicProof, f: StarAssignment, rules: RuleSet | None = None) -> CyclicProof:
    """Regular form of the projection of a cyclic proof: states are (source
    node, assignment) pairs, of which there are finitely many."""
    rules = rules or RuleSet()
    lazy = CyclicLazy(p, rules)
    proj = ProjectedLazy(lazy, f, rules)

    ids: dict = {}
    nodes: dict[str, CyclicNode] = {}

    def visit(addr: tuple[int, ...]) -> str:
        key = proj.key(addr)
        if key in ids:
            return ids[key]
        new_id = f"p{len(ids)}"
        ids[key] = new_id
        view = proj.node_at(addr)
        children = tuple(visit(addr + (i,)) for i in view.child_indices)
        nodes[new_id] = CyclicNode(view.sequent, view.app, children)
        return new_id

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 20_000))
    try:
        root = visit(())
    finally:
        sys.setrecursionlimit(old_limit)
    return CyclicProof(nodes, root)
