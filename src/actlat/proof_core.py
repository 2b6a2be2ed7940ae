"""Proof objects and their local checking and admissible transformations.

Three proof representations:

* :class:`WfProof` — wellfounded trees; a node's children are either a finite
  tuple or an :class:`OmegaFamily`, a total generator of the countably many
  premises of an infinitary left star rule.
* :class:`CyclicProof` — a finite node graph with a root; back-edges encode
  regular non-wellfounded trees.  Edges to an existing node require the child
  node's sequent to equal the expected premise, which the local check
  enforces.
* lazy preproofs (see :mod:`actlat.translate`) — expand-on-demand views used
  by the translations, which can produce non-regular trees.

Bounded checking: infinitary nodes are audited for premise indices up to the
given fuel and the report carries a BOUNDED flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import total_ordering
from typing import Callable, Iterable, Mapping

from .rules import (
    FVar,
    Instantiation,
    InstantiationError,
    RuleError,
    RuleInstance,
    RuleSet,
    SchematicRule,
    SVar,
    classify,
    match_conclusion,
)
from .syntax import (
    Formula,
    Join,
    LRes,
    Meet,
    One,
    Prod,
    RRes,
    Sequent,
    Star,
    Var,
    Zero,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)


class ProofError(ValueError):
    pass


class ResourceLimit(RuntimeError):
    def __init__(self, message: str, address: tuple[int, ...] | None = None):
        self.address = address
        super().__init__(message)


@dataclass(frozen=True)
class RuleApp:
    """A rule name, the instantiation used, and (for principal rules) the
    ground position of the introduced occurrence."""

    rule: str
    inst: Instantiation
    principal: int | None = None


def make_app(rules: RuleSet, name: str, inst: Instantiation) -> RuleApp:
    """The application of a rule with its principal occurrence marked."""
    rule = rules.resolve(name)
    return RuleApp(rule.name, inst, RuleInstance(rule, inst).principal)


def rule_app(rules: RuleSet, name: str, sequent: Sequent,
             premises: tuple[Sequent, ...] | None = None,
             principal: int | None = None) -> RuleApp:
    """The application of a rule that concludes ``sequent``, derived from the
    rule's schema.

    Of the instances that match the conclusion, those whose premises are
    ``premises`` (any premises when None, as for a premise family) and whose
    principal position is ``principal`` (any when None) qualify; the first
    in match order is returned.  Raises ProofError when none qualifies, or
    when premises are given for a rule whose premises mention a
    metavariable its conclusion does not (cut's formula); without premises
    such a metavariable stays unbound, as in :func:`match_conclusion`, and
    the local check rejects the node.
    """
    rule = rules.resolve(name)
    for inst in match_conclusion(rule, sequent):
        ri = RuleInstance(rule, inst)
        if principal is not None and ri.principal != principal:
            continue
        try:
            if premises is None or ri.premises == premises:
                return RuleApp(rule.name, inst, ri.principal)
        except InstantiationError as e:
            raise ProofError(f"cannot derive {rule.name} from its conclusion: {e}") from e
    raise ProofError(f"no instance of {rule.name} concludes {print_sequent(sequent)}"
                     + ("" if premises is None else " from the given premises")
                     + ("" if principal is None else f" with principal {principal}"))


class OmegaFamily:
    """Total generator of the premises of an infinitary node.

    Generators are memoized so re-invocation yields the same object; the
    optional schema tag names a registered closed form for serialization.
    """

    def __init__(self, generate: Callable[[int], "WfProof"], schema: str | None = None,
                 params: dict | None = None):
        self._generate = generate
        self._cache: dict[int, WfProof] = {}
        self.schema = schema
        self.params = params or {}

    def __call__(self, n: int) -> "WfProof":
        if n < 0:
            raise ProofError("premise indices are naturals")
        if n not in self._cache:
            self._cache[n] = self._generate(n)
        return self._cache[n]


@dataclass(frozen=True)
class WfProof:
    sequent: Sequent
    app: RuleApp
    children: tuple["WfProof", ...] | OmegaFamily = ()

    @property
    def is_omega(self) -> bool:
        return isinstance(self.children, OmegaFamily)


@dataclass(frozen=True)
class CyclicNode:
    sequent: Sequent
    app: RuleApp
    children: tuple[str, ...]


@dataclass(frozen=True)
class CyclicProof:
    nodes: Mapping[str, CyclicNode]
    root: str

    def node(self, node_id: str) -> CyclicNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ProofError(f"unknown node id {node_id!r}")

    def rerooted(self, new_root: str) -> "CyclicProof":
        self.node(new_root)
        return CyclicProof(self.nodes, new_root)


# ---------------------------------------------------------------------------
# Local checking.


@dataclass(frozen=True)
class Violation:
    address: tuple | None
    premise_index: int | None
    expected: Sequent | None
    found: Sequent | None
    message: str

    def __str__(self) -> str:
        loc = f" at {list(self.address)}" if self.address is not None else ""
        return f"violation{loc}: {self.message}"


def check_local(
    sequent: Sequent,
    app: RuleApp,
    child_sequents: tuple[Sequent, ...],
    rules: RuleSet | None = None,
    family: bool = False,
) -> Violation | None:
    """Compare a node against the instance of its rule.

    ``family`` marks a node whose children are a premise family, as the
    infinitary rules need; ``child_sequents`` then holds premises 0..k-1 of
    it, and only those are checked.  Returns None when the node is a correct
    instance, otherwise the first violation.
    """
    rules = rules or RuleSet()
    try:
        rule = rules.resolve(app.rule)
    except RuleError as e:
        return Violation(None, None, None, None, str(e))
    if family != rule.is_omega:
        shape = "cannot take" if family else "needs"
        return Violation(None, None, None, None, f"rule {rule.name} {shape} a premise family")
    ri = RuleInstance(rule, app.inst)
    try:
        conclusion = ri.conclusion
        premises = (tuple(ri.premise(n) for n in range(len(child_sequents)))
                    if family else ri.premises)
    except (InstantiationError, RuleError) as e:
        return Violation(None, None, None, None, f"bad instantiation of {rule.name}: {e}")
    if conclusion != sequent:
        return Violation(
            None, None, conclusion, sequent,
            f"conclusion of {rule.name} is {print_sequent(conclusion)}, node has {print_sequent(sequent)}",
        )
    if len(premises) != len(child_sequents):
        return Violation(
            None, None, None, None,
            f"rule {rule.name} has {len(premises)} premises, node has {len(child_sequents)} children",
        )
    for i, (want, got) in enumerate(zip(premises, child_sequents)):
        if want != got:
            return Violation(
                None, i, want, got,
                f"premise {i} of {rule.name} must be {print_sequent(want)}, child proves {print_sequent(got)}",
            )
    if app.principal != ri.principal:
        return Violation(None, None, None, None, f"principal mark of {rule.name} is wrong")
    return None


@dataclass
class WfReport:
    ok: bool
    nodes_checked: int
    bounded: bool
    violation: Violation | None = None

    def __str__(self) -> str:
        status = "ok" if self.ok else str(self.violation)
        tag = " [BOUNDED]" if self.bounded else ""
        return f"{status}; {self.nodes_checked} nodes checked{tag}"


def check_wf(p: WfProof, omega_fuel: int = 5, rules: RuleSet | None = None) -> WfReport:
    """Audit a wellfounded proof: every finite node exhaustively, every
    infinitary node for premises 0..omega_fuel.  A node object is checked
    once, at its first address in depth-first preorder, so shared subproofs
    leave the verdict and the first violation as in the unfolded tree;
    ``nodes_checked`` counts distinct node objects."""
    if omega_fuel < 1:
        raise ValueError("omega_fuel must be >= 1")
    rules = rules or RuleSet()
    stack: list[tuple[tuple, WfProof]] = [((), p)]
    seen: set[int] = set()  # ids stay valid: p keeps every node alive
    checked = 0
    bounded = False
    while stack:
        address, node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        checked += 1
        bounded = bounded or node.is_omega
        children = (tuple(node.children(n) for n in range(omega_fuel + 1))
                    if node.is_omega else node.children)
        violation = check_local(node.sequent, node.app, tuple(c.sequent for c in children),
                                rules, node.is_omega)
        if violation:
            return WfReport(
                False, checked, bounded,
                Violation(address, violation.premise_index, violation.expected,
                          violation.found, violation.message),
            )
        stack.extend((address + (i,), c) for i, c in enumerate(children))
    return WfReport(True, checked, bounded)


# ---------------------------------------------------------------------------
# Ordinal heights in Cantor normal form (polynomials in the first limit
# ordinal: terms (exponent, coefficient) with exponents descending).


@total_ordering
@dataclass(frozen=True, order=False)
class Ordinal:
    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def nat(n: int) -> "Ordinal":
        return Ordinal(((0, n),)) if n else Ordinal()

    @staticmethod
    def omega(exponent: int = 1, coefficient: int = 1) -> "Ordinal":
        return Ordinal(((exponent, coefficient),))

    def succ(self) -> "Ordinal":
        if self.terms and self.terms[-1][0] == 0:
            head, (e, c) = self.terms[:-1], self.terms[-1]
            return Ordinal(head + ((0, c + 1),))
        return Ordinal(self.terms + ((0, 1),))

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return self.terms[0][1]
        raise ValueError("not a finite ordinal")

    def __lt__(self, other: "Ordinal") -> bool:
        # lexicographic on (exponent desc, coefficient) with shorter-is-less
        # when one is a prefix of the other
        a, b = self.terms, other.terms
        for (e1, c1), (e2, c2) in zip(a, b):
            if (e1, c1) != (e2, c2):
                return (e1, c1) < (e2, c2)
        return len(a) < len(b)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"w*{c}" if c != 1 else "w")
            else:
                parts.append(f"w^{e}*{c}" if c != 1 else f"w^{e}")
        return " + ".join(parts)


@dataclass(frozen=True)
class HeightResult:
    value: Ordinal
    approx: bool


def height(p: WfProof, omega_fuel: int = 5) -> HeightResult:
    """Tree height: leaves are 0, a node is one above its highest child.

    Exact for finitely branching proofs; for infinitary nodes only premises
    up to the fuel are sampled and the result carries an APPROX flag.
    """
    children = [p.children(n) for n in range(omega_fuel + 1)] if p.is_omega else p.children
    best, approx = Ordinal(), p.is_omega
    for c in children:
        sub = height(c, omega_fuel)
        approx = approx or sub.approx
        if best < sub.value:
            best = sub.value
    return HeightResult(best.succ() if children else best, approx)


# ---------------------------------------------------------------------------
# Identity expansion.


def _shared(memo: dict, key, build: Callable[[], WfProof], keep=None) -> WfProof:
    """``build()`` once per key of one top-level call.  A key made of
    ``id(node)`` passes the node as ``keep``, so the id is never reused."""
    if key not in memo:
        memo[key] = (keep, build())
    return memo[key][1]


def id_expand(alpha: Formula, rules: RuleSet | None = None) -> WfProof:
    """A cut-free proof of ``alpha |- alpha`` by recursion on the formula.

    The star case is an infinitary node whose n-th premise stacks n
    right-star steps over the seed ``|- alpha*`` (schema tag ``tau_n``).
    Equal subformulas get one shared subproof.
    """
    return _id_expand(alpha, rules or RuleSet(), {})


def _id_expand(alpha: Formula, rules: RuleSet, memo: dict) -> WfProof:
    return _shared(memo, alpha, lambda: _expand(alpha, rules, memo))


def _derived(rules: RuleSet, name: str, sequent: Sequent, *children: WfProof) -> WfProof:
    """A finite node whose application is the instance of the named rule
    with the children's sequents as premises."""
    return WfProof(sequent, rule_app(rules, name, sequent, tuple(c.sequent for c in children)),
                   children)


def _expand(alpha: Formula, rules: RuleSet, memo: dict) -> WfProof:
    goal = Sequent((alpha,), alpha)
    if isinstance(alpha, Var):
        return _derived(rules, "id", goal)
    if isinstance(alpha, Zero):
        return _derived(rules, "zeroL", goal)
    if isinstance(alpha, One):
        return _derived(rules, "oneL", goal, _derived(rules, "oneR", Sequent((), alpha)))
    if isinstance(alpha, Star):
        gamma = alpha.body
        family = OmegaFamily(
            lambda n: _tau(gamma, n, rules, memo),
            schema="tau_n",
            params={"body": print_formula(gamma)},
        )
        return WfProof(goal, rule_app(rules, "starLomega", goal), family)
    if not isinstance(alpha, (Meet, Join, Prod, LRes, RRes)):
        raise ProofError(f"cannot expand {alpha!r}")
    l, r = alpha.left, alpha.right
    left, right = _id_expand(l, rules, memo), _id_expand(r, rules, memo)
    if isinstance(alpha, Meet):
        return _derived(rules, "meetR", goal,
                        _derived(rules, "meetL0", Sequent((alpha,), l), left),
                        _derived(rules, "meetL1", Sequent((alpha,), r), right))
    if isinstance(alpha, Join):
        return _derived(rules, "joinL", goal,
                        _derived(rules, "joinR0", Sequent((l,), alpha), left),
                        _derived(rules, "joinR1", Sequent((r,), alpha), right))
    if isinstance(alpha, Prod):
        return _derived(rules, "prodL", goal,
                        _derived(rules, "prodR", Sequent((l, r), alpha), left, right))
    if isinstance(alpha, LRes):
        return _derived(rules, "lresR", goal,
                        _derived(rules, "lresL", Sequent((l, alpha), r), left, right))
    # alpha = l / r
    return _derived(rules, "rresR", goal,
                    _derived(rules, "rresL", Sequent((alpha, r), l), right, left))


def tau_n(gamma: Formula, n: int, rules: RuleSet | None = None) -> WfProof:
    """Proof of ``gamma^(n) |- gamma*``: n right-star steps over the seed."""
    return _tau(gamma, n, rules or RuleSet(), {})


def _tau(gamma: Formula, n: int, rules: RuleSet, memo: dict) -> WfProof:
    def build() -> WfProof:
        if n == 0:
            return _derived(rules, "starR0", Sequent((), Star(gamma)))
        return _derived(rules, "starR1", Sequent((gamma,) * n, Star(gamma)),
                        _id_expand(gamma, rules, memo), _tau(gamma, n - 1, rules, memo))

    return _shared(memo, (gamma, n), build)


# ---------------------------------------------------------------------------
# Admissible transformations.


def _first_last_svars(rule: SchematicRule) -> tuple[str, str]:
    lhs = rule.conclusion.lhs
    if not lhs or not isinstance(lhs[0], SVar) or not isinstance(lhs[-1], SVar):
        raise ProofError(f"rule {rule.name} has no context to widen")
    return lhs[0].name, lhs[-1].name


def _widen_inst(rule: SchematicRule, inst: Instantiation,
                sigma_l: tuple[Formula, ...], sigma_r: tuple[Formula, ...],
                beta: Formula) -> Instantiation:
    first, last = _first_last_svars(rule)
    rhs = rule.conclusion.rhs
    if not isinstance(rhs, FVar):
        raise ProofError(f"rule {rule.name} does not end in a metavariable succedent")
    out = inst.copy()
    if first == last:
        out.smap[first] = sigma_l + inst.smap[first] + sigma_r
    else:
        out.smap[first] = sigma_l + inst.smap[first]
        out.smap[last] = inst.smap[last] + sigma_r
    out.fmap[rhs.name] = beta
    return out


def zeroR_admit(
    p: WfProof,
    sigma_l: tuple[Formula, ...],
    sigma_r: tuple[Formula, ...],
    beta: Formula,
    rules: RuleSet | None = None,
) -> WfProof:
    """Turn a proof of ``Gamma |- 0`` into one of ``Sigma_l, Gamma, Sigma_r |- beta``.

    Works by recursion on the proof: the zero axiom and every left rule keep
    their shape with a widened context; premises whose succedent is the
    conclusion's succedent metavariable are transformed recursively, side
    premises are kept.  Requires the ambient structural rules to be analytic.
    """
    rules = rules or RuleSet()
    if p.sequent.succedent != Zero():
        raise ProofError("input must prove a sequent with succedent 0")
    return _zeroR(p, sigma_l, sigma_r, beta, rules)


def _zeroR(p, sigma_l, sigma_r, beta, rules):
    rule = rules.resolve(p.app.rule)
    if rule.name == "id" or rule.principal == -1:
        raise ProofError(f"impossible last rule {rule.name} in a proof of succedent 0")
    if rule is not rules.builtin.get(rule.name) and not classify(rule).analytic:
        raise ProofError(f"structural rule {rule.name} must be analytic")
    rhs = rule.conclusion.rhs
    ri = RuleInstance(rule, _widen_inst(rule, p.app.inst, sigma_l, sigma_r, beta))
    new_sequent = Sequent(sigma_l + p.sequent.antecedent + sigma_r, beta)
    app = RuleApp(rule.name, ri.inst, ri.principal)
    if p.is_omega:
        # the widened family is a fresh generator with no closed form
        family = OmegaFamily(lambda n: _zeroR(p.children(n), sigma_l, sigma_r, beta, rules))
        return WfProof(new_sequent, app, family)
    new_children = []
    for i, child in zip(ri.child_indices, p.children, strict=True):
        ms, _ = rule.premise_meta(i)
        if ms.rhs == rhs:
            new_children.append(_zeroR(child, sigma_l, sigma_r, beta, rules))
        else:
            new_children.append(child)
    return WfProof(new_sequent, app, tuple(new_children))


def _splice_svar(inst: Instantiation, name: str, offset: int,
                 replacement: tuple[Formula, ...]) -> Instantiation:
    out = inst.copy()
    image = inst.smap[name]
    out.smap[name] = image[:offset] + replacement + image[offset + 1:]
    return out


_PEEL = {Prod: ("prodL", "prodL1"), One: ("oneL",)}


def _invert_at(p: WfProof, pos: int, rules: RuleSet, kind: type, memo: dict) -> WfProof:
    """Shared engine for product and unit left-inversion.

    A principal introduction of ``kind`` at ``pos`` is removed by returning
    its premise; elsewhere the occurrence is pushed into the context, a
    product as its two factors and the unit as nothing.  One result per
    (node, position, kind) within one top-level call.
    """
    return _shared(memo, (id(p), pos, kind), lambda: _invert_node(p, pos, rules, kind, memo), p)


def _invert_node(p: WfProof, pos: int, rules: RuleSet, kind: type, memo: dict) -> WfProof:
    f = p.sequent.formula_at(pos)
    if not isinstance(f, kind):
        name = "a product" if kind is Prod else "the unit"
        raise ProofError(f"occurrence {pos} holds {print_formula(f)}, not {name}")
    rule = rules.resolve(p.app.rule)
    if rule.name in _PEEL[kind] and p.app.principal == pos:
        return p.children[0]
    replacement = (f.left, f.right) if kind is Prod else ()
    ri = RuleInstance(rule, p.app.inst)
    origin = ri.layout[0][pos]
    if origin.kind != "svar":
        raise ProofError(
            f"cannot push inversion through {rule.name}: occurrence {pos} is "
            f"not inside a sequence metavariable"
        )
    new_inst = _splice_svar(p.app.inst, origin.name, origin.offset, replacement)
    new_sequent = Sequent(
        p.sequent.antecedent[:pos] + replacement + p.sequent.antecedent[pos + 1:],
        p.sequent.succedent,
    )
    app = make_app(rules, rule.name, new_inst)

    def transform_child(child: WfProof, child_index: int) -> WfProof:
        # the occurrence sits inside a sequence metavariable, so its immediate
        # ancestors are the same slot of that metavariable in the premise
        out = child
        ancestors = [q for (_, q), c in ri.ancestry(child_index) if c == pos]
        for q in sorted(ancestors, reverse=True):
            out = _invert_at(out, q, rules, kind, memo)
        return out

    if p.is_omega:
        family = OmegaFamily(lambda n: transform_child(p.children(n), n))
        return WfProof(new_sequent, app, family)
    new_children = tuple(
        transform_child(child, i) for i, child in zip(ri.child_indices, p.children, strict=True)
    )
    return WfProof(new_sequent, app, new_children)


def dotL_invert(p: WfProof, pos: int, rules: RuleSet | None = None) -> WfProof:
    """Invert a left product introduction: from a proof whose antecedent has
    ``a . b`` at ``pos``, a proof with ``a, b`` there instead, never taller."""
    return _invert_at(p, pos, rules or RuleSet(), Prod, {})


def oneL_invert(p: WfProof, pos: int, rules: RuleSet | None = None) -> WfProof:
    """Remove a unit occurrence from the antecedent (inverse of the left
    unit rule)."""
    return _invert_at(p, pos, rules or RuleSet(), One, {})


def to_standard_omega(p: WfProof, rules: RuleSet | None = None) -> WfProof:
    """Rewrite a proof using the modified infinitary rule and the right-child
    product rule into one over the standard infinitary system.

    Right-child product nodes are relabelled; each modified infinitary node
    becomes a standard one whose n-th premise flattens the packed power by
    n-1 product inversions and one unit inversion.  A node object shared in
    the input is rewritten once, and so is each of its inversions.
    """
    return _standardize(p, rules or RuleSet(), {})


def _standardize(p: WfProof, rules: RuleSet, memo: dict) -> WfProof:
    return _shared(memo, (id(p),), lambda: _standard_node(p, rules, memo), p)


def _standard_node(p: WfProof, rules: RuleSet, memo: dict) -> WfProof:
    rule = rules.resolve(p.app.rule)
    if rule.name == "starLomegaM":
        app = make_app(rules, "starLomega", p.app.inst)

        def premise(n: int) -> WfProof:
            if n == 0:
                return _standardize(p.children(0), rules, memo)
            q = _standardize(p.children(n), rules, memo)
            pos = p.app.principal + 1
            for _ in range(n - 1):
                q = _invert_at(q, pos, rules, Prod, memo)
                pos += 1
            return _invert_at(q, pos, rules, One, memo)

        return WfProof(p.sequent, app, OmegaFamily(premise, schema=p.children.schema,
                                                   params=dict(p.children.params)))
    if p.is_omega:
        family = OmegaFamily(lambda n: _standardize(p.children(n), rules, memo),
                             schema=p.children.schema, params=dict(p.children.params))
        return WfProof(p.sequent, p.app, family)
    new_children = tuple(_standardize(c, rules, memo) for c in p.children)
    if rule.name == "prodL1":
        return WfProof(p.sequent, make_app(rules, "prodL", p.app.inst), new_children)
    return WfProof(p.sequent, p.app, new_children)


# ---------------------------------------------------------------------------
# Cyclic proof validation.


@dataclass
class CyclicReport:
    ok: bool
    nodes_checked: int
    violation: Violation | None = None


def check_cyclic_local(p: CyclicProof, rules: RuleSet | None = None) -> CyclicReport:
    """Local validity of every node plus reachability from the root."""
    rules = rules or RuleSet()
    reached = set()
    stack = [p.root]
    checked = 0
    while stack:
        nid = stack.pop()
        if nid in reached:
            continue
        reached.add(nid)
        node = p.node(nid)
        child_sequents = tuple(p.node(c).sequent for c in node.children)
        violation = check_local(node.sequent, node.app, child_sequents, rules)
        if violation:
            return CyclicReport(False, checked,
                                Violation((nid,), violation.premise_index,
                                          violation.expected, violation.found,
                                          violation.message))
        checked += 1
        stack.extend(node.children)
    unreachable = set(p.nodes) - reached
    if unreachable:
        return CyclicReport(False, checked,
                            Violation(None, None, None, None,
                                      f"unreachable nodes: {sorted(unreachable)}"))
    return CyclicReport(True, checked)


# ---------------------------------------------------------------------------
# Proof files (JSON).


def _inst_to_json(inst: Instantiation) -> dict:
    out: dict = {}
    for name, f in inst.fmap.items():
        out[name] = print_formula(f)
    for name, fs in inst.smap.items():
        out[name] = [print_formula(f) for f in fs]
    return out


def _inst_from_json(data: dict) -> Instantiation:
    fmap: dict[str, Formula] = {}
    smap: dict[str, tuple[Formula, ...]] = {}
    for name, value in data.items():
        if isinstance(value, list):
            smap[name] = tuple(parse_formula(t) for t in value)
        else:
            fmap[name] = parse_formula(value)
    return Instantiation(fmap, smap)


def cyclic_to_json(p: CyclicProof, user_rule_names: Iterable[str] = ()) -> dict:
    nodes = {}
    for nid, node in p.nodes.items():
        nodes[nid] = {
            "sequent": print_sequent(node.sequent),
            "rule": node.app.rule,
            "principal": node.app.principal,
            "inst": _inst_to_json(node.app.inst),
            "children": list(node.children),
        }
    return {"system": "cyclic", "rules": sorted(set(user_rule_names)),
            "nodes": nodes, "root": p.root}


def wf_to_json(p: WfProof, user_rule_names: Iterable[str] = (),
               source: dict | None = None) -> dict:
    """Serialize a wellfounded proof; infinitary families must carry a
    registered schema tag (arbitrary generators exist only in memory)."""
    nodes: dict[str, dict] = {}
    counter = [0]

    def visit(node: WfProof) -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        entry = {
            "sequent": print_sequent(node.sequent),
            "rule": node.app.rule,
            "principal": node.app.principal,
            "inst": _inst_to_json(node.app.inst),
        }
        nodes[nid] = entry
        if node.is_omega:
            fam = node.children
            if fam.schema not in ("tau_n", "projected"):
                raise ProofError(
                    f"cannot serialize an infinitary family without a registered schema (got {fam.schema!r})"
                )
            entry["children"] = [{"omega_schema": fam.schema, "params": fam.params}]
        else:
            entry["children"] = [visit(c) for c in node.children]
        return nid

    root = visit(p)
    out = {"system": "womega", "rules": sorted(set(user_rule_names)), "nodes": nodes, "root": root}
    if source is not None:
        out["source"] = source
    return out


def _family_from_schema(schema: str, params: dict, rules: RuleSet,
                        source: dict | None) -> OmegaFamily:
    if schema == "tau_n":
        gamma, memo = parse_formula(params["body"]), {}
        return OmegaFamily(lambda n: _tau(gamma, n, rules, memo), schema="tau_n", params=params)
    if schema == "projected":
        if source is None:
            raise ProofError("projected families need the source cyclic proof embedded in the file")
        from .translate import nwf_to_wf  # deferred: translate depends on this module

        cyclic, _ = cyclic_from_json(source)
        translated = nwf_to_wf(cyclic, rules=rules)
        node = translated
        # addresses are plain child positions in the final wellfounded tree
        for step in params["address"]:
            node = node.children(step) if node.is_omega else node.children[step]
        if not node.is_omega:
            raise ProofError(f"address {params['address']} is not an infinitary node")
        return node.children
    raise ProofError(f"unknown omega schema {schema!r}")


def wf_from_json(data: dict, extra_rules: Iterable[SchematicRule] = ()) -> tuple[WfProof, RuleSet]:
    rules = RuleSet(list(extra_rules))
    for name in data.get("rules", []):
        rules.resolve(name)
    source = data.get("source")

    def build(nid: str) -> WfProof:
        entry = data["nodes"][nid]
        sequent = parse_sequent(entry["sequent"])
        inst = _inst_from_json(entry["inst"])
        app = RuleApp(entry["rule"], inst, entry.get("principal"))
        children = entry["children"]
        if len(children) == 1 and isinstance(children[0], dict):
            descriptor = children[0]
            fam = _family_from_schema(descriptor["omega_schema"],
                                      descriptor.get("params", {}), rules, source)
            return WfProof(sequent, app, fam)
        return WfProof(sequent, app, tuple(build(c) for c in children))

    return build(data["root"]), rules


def cyclic_from_json(data: dict, extra_rules: Iterable[SchematicRule] = ()) -> tuple[CyclicProof, RuleSet]:
    rules = RuleSet(list(extra_rules))
    nodes = {}
    for nid, entry in data["nodes"].items():
        inst = _inst_from_json(entry["inst"])
        app = RuleApp(entry["rule"], inst, entry.get("principal"))
        nodes[nid] = CyclicNode(parse_sequent(entry["sequent"]), app, tuple(entry["children"]))
    return CyclicProof(nodes, data["root"]), rules


def load_proof(path: str, extra_rules: Iterable[SchematicRule] = ()):
    """Load a proof file; returns (kind, proof, rules) with kind one of
    "cyclic", "womega", "nwf"."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    system = data.get("system")
    if system == "cyclic":
        proof, rules = cyclic_from_json(data, extra_rules)
        return "cyclic", proof, rules
    if system == "womega":
        proof, rules = wf_from_json(data, extra_rules)
        return "womega", proof, rules
    if system == "nwf":
        inner, rules = wf_from_json(data["source"], extra_rules)
        from .translate import wf_to_nwf

        return "nwf", wf_to_nwf(inner, rules=rules), rules
    raise ProofError(f"unknown proof system {system!r}")


def save_proof(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
