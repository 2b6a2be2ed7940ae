"""Reference proofs, goal lists, and seeded generators used by the test
suite, the demos, and the bundled audit runner."""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

import numpy as np

from .proof_core import CyclicNode, CyclicProof, OmegaFamily, RuleApp, WfProof, rule_app
from .rules import MetaSequent, RuleSet, SchematicRule, SVar, FVar
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
    parse_sequent,
)


def _cyclic(rules: RuleSet, root: str,
            spec: dict[str, tuple[str, str, tuple[str, ...]]]) -> CyclicProof:
    """A cyclic proof from (rule name, sequent, child ids) per node id; each
    node applies the first instance of its rule whose premises are its
    children's sequents."""
    sequents = {nid: parse_sequent(text) for nid, (_, text, _) in spec.items()}
    return CyclicProof({
        nid: CyclicNode(sequents[nid],
                        rule_app(rules, name, sequents[nid], tuple(sequents[c] for c in children)),
                        children)
        for nid, (name, _, children) in spec.items()
    }, root)


_STAR_ID = {
    "n0": ("starL", "a* |- a*", ("n1", "n2")),
    "n1": ("starR0", "|- a*", ()),
    "n2": ("starR1", "a, a* |- a*", ("n3", "n0")),
    "n3": ("id", "a |- a", ()),
}


def canonical_star_id(rules: RuleSet | None = None) -> CyclicProof:
    """The regular proof of ``a* |- a*`` with one left-star cycle."""
    return _cyclic(rules or RuleSet(), "n0", _STAR_ID)


def canonical_two_star(rules: RuleSet | None = None) -> CyclicProof:
    """``a*, a* |- a*``: unfold the first star, feed the rest back."""
    return _cyclic(rules or RuleSet(), "m0", {
        **_STAR_ID,
        "m0": ("starL", "a*, a* |- a*", ("n0", "m2")),
        "m2": ("starR1", "a, a*, a* |- a*", ("n3", "m0")),
    })


def canonical_join_star(rules: RuleSet | None = None) -> CyclicProof:
    """``(a | b)* |- (a | b)*`` with a left-join split inside the cycle."""
    return _cyclic(rules or RuleSet(), "k0", {
        "k0": ("starL", "(a | b)* |- (a | b)*", ("k1", "k2")),
        "k1": ("starR0", "|- (a | b)*", ()),
        "k2": ("joinL", "a | b, (a | b)* |- (a | b)*", ("k3", "k4")),
        "k3": ("starR1", "a, (a | b)* |- (a | b)*", ("k5", "k0")),
        "k4": ("starR1", "b, (a | b)* |- (a | b)*", ("k6", "k0")),
        "k5": ("joinR0", "a |- a | b", ("k7",)),
        "k6": ("joinR1", "b |- a | b", ("k8",)),
        "k7": ("id", "a |- a", ()),
        "k8": ("id", "b |- b", ()),
    })


def canonical_proofs(rules: RuleSet | None = None) -> dict[str, CyclicProof]:
    rules = rules or RuleSet()
    return {
        "star_id": canonical_star_id(rules),
        "two_star": canonical_two_star(rules),
        "join_star": canonical_join_star(rules),
    }


def _self_loop(node_id: str, sequent: Sequent, via: str, rules: RuleSet) -> CyclicNode:
    """A locally valid node that is its own only premise (contraction or
    weakening of the empty sequence)."""
    return CyclicNode(sequent, rule_app(rules, via, sequent, (sequent,)), (node_id,))


def _reachable(nodes: dict[str, CyclicNode], root: str) -> dict[str, CyclicNode]:
    keep = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in keep:
            continue
        keep.add(nid)
        stack.extend(nodes[nid].children)
    return {k: v for k, v in nodes.items() if k in keep}


def _replace_subtree_with_loop(p: CyclicProof, target: str, via: str,
                               rules: RuleSet) -> CyclicProof:
    """Swap the subtree at ``target`` for a progress-free self-loop."""
    nodes = dict(p.nodes)
    nodes[target] = _self_loop(target, p.nodes[target].sequent, via, rules)
    nodes = _reachable(nodes, p.root)
    return CyclicProof(nodes, p.root)


def corrupted_variants(rules: RuleSet | None = None) -> dict[str, CyclicProof]:
    """Ten locally valid proofs whose only cycles avoid every left star step,
    so the branch condition fails."""
    rules = rules or RuleSet()
    star_id = canonical_star_id(rules)
    two_star = canonical_two_star(rules)
    join_star = canonical_join_star(rules)
    return {
        "star_id_root_loop_C": _replace_subtree_with_loop(star_id, "n0", "C", rules),
        "star_id_root_loop_Wk": _replace_subtree_with_loop(star_id, "n0", "Wk", rules),
        "star_id_unfold_loop_C": _replace_subtree_with_loop(star_id, "n2", "C", rules),
        "star_id_unfold_loop_Wk": _replace_subtree_with_loop(star_id, "n2", "Wk", rules),
        "two_star_root_loop_C": _replace_subtree_with_loop(two_star, "m0", "C", rules),
        "two_star_unfold_loop_C": _replace_subtree_with_loop(two_star, "m2", "C", rules),
        "two_star_inner_loop_Wk": _replace_subtree_with_loop(two_star, "n0", "Wk", rules),
        "join_star_root_loop_C": _replace_subtree_with_loop(join_star, "k0", "C", rules),
        "join_star_left_branch_loop_Wk": _replace_subtree_with_loop(join_star, "k3", "Wk", rules),
        "join_star_right_branch_loop_C": _replace_subtree_with_loop(join_star, "k4", "C", rules),
    }


# ---------------------------------------------------------------------------
# Goal corpus for search, translation, and the audits.  Each entry is
# (name, sequent text, names of structural rules to enable).


GOALS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("id_atom", "a |- a", ()),
    ("unit_right", "|- 1", ()),
    ("unit_left", "1 |- 1", ()),
    ("zero_any", "0 |- b", ()),
    ("zero_context", "a, 0 |- b", ()),
    ("prod_pair", "a, b |- a . b", ()),
    ("prod_id", "a . b |- a . b", ()),
    ("prod_assoc", "a . (b . c) |- (a . b) . c", ()),
    ("meet_left", "a & b |- a", ()),
    ("meet_right", "a & b |- b", ()),
    ("join_inl", "a |- a | b", ()),
    ("join_comm", "a | b |- b | a", ()),
    ("meet_join", "a & b |- b | a", ()),
    ("lres_id", "a \\ b |- a \\ b", ()),
    ("lres_apply", "a, a \\ b |- b", ()),
    ("rres_apply", "b / a, a |- b", ()),
    ("res_compose", "a \\ b, b \\ c |- a \\ c", ()),
    ("star_fold", "|- a*", ()),
    ("star_once", "a |- a*", ()),
    ("star_prod", "a* . a* |- a*", ()),
    ("star_id", "a* |- a*", ()),
    ("two_star", "a*, a* |- a*", ()),
    ("join_star_id", "(a | b)* |- (a | b)*", ()),
    ("wk_extra", "a, b |- a", ("Wk",)),
    ("contract_prod", "a |- a . a", ("C", "Wk")),
)


def goal_corpus() -> list[tuple[str, Sequent, tuple[str, ...]]]:
    return [(name, parse_sequent(text), extras) for name, text, extras in GOALS]


# ---------------------------------------------------------------------------
# Seeded generators.


_ATOMS = (Var("a"), Var("b"), Var("c"), Zero(), One())


def random_formula(rng: random.Random, max_size: int, max_star_depth: int) -> Formula:
    if max_size <= 1:
        return rng.choice(_ATOMS)
    choices = ["meet", "join", "prod", "lres", "rres", "atom"]
    if max_star_depth > 0:
        choices += ["star", "star"]
    op = rng.choice(choices)
    if op == "atom":
        return rng.choice(_ATOMS)
    if op == "star":
        return Star(random_formula(rng, max_size - 1, max_star_depth - 1))
    k = rng.randint(1, max_size - 2) if max_size > 2 else 1
    left = random_formula(rng, k, max_star_depth)
    right = random_formula(rng, max_size - 1 - k, max_star_depth)
    node = {"meet": Meet, "join": Join, "prod": Prod, "lres": LRes, "rres": RRes}[op]
    return node(left, right)


def random_formulas(seed: int, count: int, max_size: int = 12, max_star_depth: int = 2):
    rng = random.Random(seed)
    return [random_formula(rng, max_size, max_star_depth) for _ in range(count)]


def random_zero_proof(rng: random.Random, rules: RuleSet) -> WfProof:
    """A random wellfounded proof of some ``Gamma |- 0``.

    Builds a target antecedent containing a zero plus material for the left
    rules (a unit, a product, an applicable residual pair, sometimes a star),
    then proves exactly that target by peeling matching occurrences until the
    zero axiom closes the branch.  Analytic contraction and weakening steps
    are mixed in, so a generated batch covers the axiom, residual, and
    structural transformation cases.
    """
    from .proof_core import id_expand

    def node(name: str, target: tuple[Formula, ...], children=(), principal=None) -> WfProof:
        """A node proving ``target |- 0`` by the first instance of the rule
        with that principal position and the children's sequents as
        premises; several contraction or weakening instances can share them."""
        sequent = Sequent(target, Zero())
        premises = None if isinstance(children, OmegaFamily) else tuple(c.sequent for c in children)
        return WfProof(sequent, rule_app(rules, name, sequent, premises, principal), children)

    def axiom(target: tuple[Formula, ...]) -> WfProof:
        i = rng.choice([k for k, f in enumerate(target) if f == Zero()])
        return node("zeroL", target, principal=i)

    def build(target: tuple[Formula, ...], depth: int) -> WfProof:
        if depth <= 0:
            return axiom(target)
        moves = []
        for i, f in enumerate(target):
            rest = target[:i] + target[i + 1:]
            if isinstance(f, One):
                moves.append(("oneL", i))
            elif isinstance(f, Prod):
                moves.append(("prodL", i))
            elif (isinstance(f, LRes) and i > 0 and target[i - 1] == f.left
                  and Zero() in target[:i - 1] + (f.right,) + target[i + 1:]):
                # the main premise drops f.left, which may be the only zero
                moves.append(("lresL", i))
            elif isinstance(f, Star) and Zero() in rest:
                moves.append(("omega", i))
        if len(target) < 6:
            moves.append(("C", None))
        for i in range(len(target)):
            for j in range(i + 1, len(target) + 1):
                if Zero() in target[:i] + target[j:]:
                    moves.append(("Wk", (i, j)))
                    break
        moves.append(("axiom", None))
        move, arg = rng.choice(moves)
        if move == "axiom":
            return axiom(target)
        if move == "oneL":
            i = arg
            return node("oneL", target, (build(target[:i] + target[i + 1:], depth - 1),), i)
        if move == "prodL":
            i = arg
            f = target[i]
            sub = build(target[:i] + (f.left, f.right) + target[i + 1:], depth - 1)
            return node("prodL", target, (sub,), i)
        if move == "lresL":
            i = arg
            f = target[i]
            side = id_expand(f.left, rules)
            main = build(target[:i - 1] + (f.right,) + target[i + 1:], depth - 1)
            return node("lresL", target, (side, main), i)
        if move == "omega":
            i = arg
            body, gamma, delta = target[i].body, target[:i], target[i + 1:]

            def member(n: int) -> WfProof:
                ant = gamma + (body,) * n + delta
                return node("zeroL", ant, principal=ant.index(Zero()))

            return node("starLomega", target, OmegaFamily(member), i)
        if move == "C":
            i = rng.randrange(len(target))
            j = rng.randint(i + 1, len(target))
            pi = target[i:j]
            return node("C", target, (build(target[:i] + pi + pi + target[j:], depth - 1),))
        # weakening: drop a block that leaves a zero behind
        i, j = arg
        return node("Wk", target, (build(target[:i] + target[j:], depth - 1),))

    target = [Zero()]
    target.append(One())
    target.append(Prod(random_formula(rng, 2, 0), random_formula(rng, 2, 0)))
    left = random_formula(rng, 2, 0)
    target.extend([left, LRes(left, random_formula(rng, 2, 0))])
    if rng.random() < 0.4:
        target.insert(rng.randrange(len(target) + 1), Star(random_formula(rng, 2, 0)))
    # keep the residual pair adjacent, shuffle around it
    return build(tuple(target), rng.randint(2, 5))


def random_zero_proofs(seed: int, count: int, rules: RuleSet | None = None) -> list[WfProof]:
    rules = rules or RuleSet()
    rng = random.Random(seed)
    return [random_zero_proof(rng, rules) for _ in range(count)]


def random_analytic_rule(rng: random.Random, index: int) -> SchematicRule:
    """A random analytic structural rule with one or two middle SVars."""
    m = rng.randint(1, 2)
    mids = tuple(SVar(f"P{i}") for i in range(m))
    n_prem = rng.randint(1, 3)
    premises = []
    for _ in range(n_prem):
        k = rng.randint(0, 3)
        middle = tuple(rng.choice(mids) for _ in range(k))
        premises.append(MetaSequent((SVar("G"),) + middle + (SVar("D"),), FVar("b")))
    conclusion = MetaSequent((SVar("G"),) + mids + (SVar("D"),), FVar("b"))
    return SchematicRule(f"R{index}", tuple(premises), conclusion)


def random_analytic_quasiequations(seed: int, count: int):
    from .rules import q_a_of

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rule = random_analytic_rule(rng, len(out))
        qe = q_a_of(rule)
        out.append(qe)
    return out


# ---------------------------------------------------------------------------
# The bundled audit suite.  Each runner checks one property batch end to end
# and reports a pass/fail verdict with a short detail line; the CLI prints
# one line per criterion and the test suite asserts them all.


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(number, name, start, passed, detail="") -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def _crit_rule_engine() -> CriterionResult:
    from .rules import classify, example_structural_rules, q_of

    t0 = time.perf_counter()
    ex = example_structural_rules()
    want = "(x <= y & z.y.w <= u) => z.x.w <= u"
    got = str(q_of(ex["Cut"]))
    checks = [
        got == want,
        classify(ex["C"]).analytic,
        classify(ex["Wk"]).analytic,
        classify(ex["Cut"]).linear and not classify(ex["Cut"]).analytic,
        not classify(ex["c"]).linear,
    ]
    detail = f"q(Cut) = {got}" if all(checks) else f"got {got!r}, classify flags {checks}"
    return _result(1, "rule engine fidelity", t0, all(checks), detail)


def _crit_admissibility(seed: int) -> CriterionResult:
    from .proof_core import check_wf, id_expand, zeroR_admit
    from .syntax import Sequent

    t0 = time.perf_counter()
    rules = RuleSet()
    failures = []
    for i, f in enumerate(random_formulas(seed, 200, max_size=12, max_star_depth=2)):
        report = check_wf(id_expand(f, rules), 5, rules)
        if not report.ok:
            failures.append(f"id-expansion {i}: {report.violation}")
            break
    rng = random.Random(seed + 1)
    for i, p in enumerate(random_zero_proofs(seed + 1, 50, rules)):
        sigma_l = tuple(random_formula(rng, 2, 0) for _ in range(rng.randint(0, 2)))
        sigma_r = tuple(random_formula(rng, 2, 0) for _ in range(rng.randint(0, 2)))
        beta = random_formula(rng, 3, 1)
        out = zeroR_admit(p, sigma_l, sigma_r, beta, rules)
        want = Sequent(sigma_l + p.sequent.antecedent + sigma_r, beta)
        report = check_wf(out, 4, rules)
        if out.sequent != want or not report.ok:
            failures.append(f"zero-widening {i}: {report.violation}")
            break
    return _result(2, "admissible rules", t0, not failures,
                   failures[0] if failures else "200 id-expansions, 50 zero-widenings")


def _crit_progress() -> CriterionResult:
    from .progress import check_cyclic_progress
    from .proof_core import check_cyclic_local

    t0 = time.perf_counter()
    rules = RuleSet()
    failures = []
    for name, proof in canonical_proofs(rules).items():
        if not check_cyclic_progress(proof, rules).accepted:
            failures.append(f"{name} not accepted")
    for name, proof in corrupted_variants(rules).items():
        if not check_cyclic_local(proof, rules).ok:
            failures.append(f"{name} not locally valid")
            continue
        res = check_cyclic_progress(proof, rules)
        if res.accepted or not res.counterexample:
            failures.append(f"{name} not rejected with a cycle")
    return _result(3, "cyclic progress checker", t0, not failures,
                   failures[0] if failures else "3 accepted, 10 rejected with cycles")


@functools.cache
def _searched_proofs() -> tuple:
    """Cut-free search under the default config for every corpus goal, run
    once per process: (name, goal, extras, user rules, rule set, result)."""
    from .rules import example_structural_rules
    from .search import prove

    ex = example_structural_rules()
    out = []
    for name, goal, extras in goal_corpus():
        user = [ex[e] for e in extras]
        rules = RuleSet(user)
        result = prove(goal, user_rules=user, rules=rules)
        out.append((name, goal, extras, user, rules, result))
    return tuple(out)


@functools.cache
def _library_completions() -> dict:
    """The completion of every library model (its frame, star-Gentzen report,
    dual algebra and embedding report), built once per process."""
    from .frames import macneille
    from .models import library

    return {name: macneille(a) for name, a in library().items()}


def _crit_translation() -> CriterionResult:
    from .proof_core import check_wf
    from .translate import check_lazy_prefix, nwf_to_wf, wf_to_nwf

    t0 = time.perf_counter()
    failures = []
    for name, goal, extras, user, rules, result in _searched_proofs():
        if not result.found:
            failures.append(f"{name}: {result.reason}")
            continue
        wf = nwf_to_wf(result.proof, rules=rules)
        if wf.sequent != goal:
            failures.append(f"{name}: conclusion changed")
            continue
        report = check_wf(wf, 5, rules)
        if not report.ok:
            failures.append(f"{name}: {report.violation}")
            continue
        _, violation = check_lazy_prefix(wf_to_nwf(wf, rules), 6, rules)
        if violation is not None:
            failures.append(f"{name}: ladder {violation}")
    return _result(4, "translation equivalence (bounded)", t0, not failures,
                   failures[0] if failures else "25 goals, both directions")


def _cycle_reaching_nodes(proof: CyclicProof) -> set[str]:
    """Nodes from which some cycle is still reachable (prefixes ending there
    approximate prefixes of infinite branches)."""
    def reaches(start: str, goal: str) -> bool:
        seen, stack = set(), [start]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for child in proof.nodes[cur].children:
                if child == goal:
                    return True
                stack.append(child)
        return False

    cyclic_nodes = {nid for nid in proof.nodes if reaches(nid, nid)}
    return {nid for nid in proof.nodes
            if nid in cyclic_nodes or any(reaches(nid, c) for c in cyclic_nodes)}


def _crit_projection() -> CriterionResult:
    from .progress import critical_height, progress_points, INFINITY_UP_TO_FUEL, _branch_nodes
    from .syntax import Star
    from .translate import CyclicLazy, iter_addresses, project_cyclic, project_single

    t0 = time.perf_counter()
    rules = RuleSet()
    failures = []
    compared = 0
    for name, proof in canonical_proofs(rules).items():
        root = proof.node(proof.root).sequent
        star_positions = [i for i in root.positions() if isinstance(root.formula_at(i), Star)]
        src = CyclicLazy(proof, rules)
        for k in star_positions:
            for n in (0, 1, 2):
                projected = project_single(proof, k, n, rules)
                try:
                    for addr in iter_addresses(projected, 8):
                        src.node_at(addr)
                except Exception as e:
                    failures.append(f"{name} P^{n}_{k}: containment: {e}")
                    continue
                regular = project_cyclic(proof, {k: n}, rules)
                # projections of accepted proofs are accepted again
                from .progress import check_cyclic_progress

                if not check_cyclic_progress(regular, rules).accepted:
                    failures.append(f"{name} P^{n}_{k}: projection lost the branch condition")
                    continue
                # progress comparison is only meaningful along branches of
                # the projection; the prefix-level invariants are that the
                # projection's progress structure embeds into the source's,
                # so the source reaches a progress point at least as early
                live = _cycle_reaching_nodes(regular)
                for prefix_addr in iter_addresses(projected, 4):
                    prefix = list(prefix_addr)
                    if _branch_nodes(regular, rules, prefix)[-1] not in live:
                        continue
                    compared += 1
                    pts_src = progress_points(proof, prefix, 12, rules)
                    pts_proj = progress_points(regular, prefix, 12, rules)
                    if not pts_proj <= pts_src:
                        failures.append(f"{name} P^{n}_{k}: projection invented progress at {prefix}")
                        break
                    ch_src = critical_height(proof, prefix, 12, rules)
                    ch_proj = critical_height(regular, prefix, 12, rules)
                    if ch_proj != INFINITY_UP_TO_FUEL:
                        if ch_src == INFINITY_UP_TO_FUEL or ch_src > ch_proj:
                            failures.append(f"{name} P^{n}_{k}: source progresses later at {prefix}")
                            break
    detail = f"containment to depth 8; {compared} live prefixes compared"
    return _result(5, "projection invariants (bounded)", t0, not failures and compared > 0,
                   failures[0] if failures else detail)


def _crit_soundness() -> CriterionResult:
    from .models import soundness_audit

    t0 = time.perf_counter()
    models = [c.gentzen.algebra for c in _library_completions().values()]
    failures = []
    checked = 0
    by_extras: dict[tuple, tuple] = {}
    for name, goal, extras, user, rules, result in _searched_proofs():
        if result.found:
            by_extras.setdefault(extras, (user, []))[1].append(goal)
    for user, goals in by_extras.values():
        report = soundness_audit(goals, models, user)
        checked += report.checked
        failures.extend(str(v) for v in report.violations)
    return _result(6, "soundness audit", t0, not failures,
                   failures[0] if failures else f"{checked} sequent/model pairs")


def _crit_frames(seed: int) -> CriterionResult:
    from .frames import check_nuclear, gamma, quasimorphism_check, set_product
    from .models import validate_algebra

    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    completions = _library_completions()
    for name, c in completions.items():
        gf, dual = c.gentzen, c.dual
        f = gf.frame
        if not check_nuclear(f).ok:
            failures.append(f"{name}: not nuclear")
            continue
        for _ in range(10):
            x = np.array([rng.random() < 0.3 for _ in range(f.w_size)])
            y = np.array([rng.random() < 0.3 for _ in range(f.w_size)])
            gx = gamma(f, x)
            if (x & ~gx).any() or (gamma(f, gx) != gx).any():
                failures.append(f"{name}: closure laws fail")
                break
            if (set_product(f, gx, gamma(f, y)) & ~gamma(f, set_product(f, x, y))).any():
                failures.append(f"{name}: nucleus law fails")
                break
        if not c.star_gentzen.ok:
            failures.append(f"{name}: star-gentzen {c.star_gentzen.violations[0]}")
            continue
        v = validate_algebra(dual.algebra)
        if not v.ok:
            failures.append(f"{name}: dual algebra {v.violations[0]}")
            continue
        if not quasimorphism_check(gf, dual).ok:
            failures.append(f"{name}: quasimorphism")
        if not c.embedding.ok:
            failures.append(f"{name}: embedding")
    return _result(7, "frame suite", t0, not failures,
                   failures[0] if failures else f"{len(completions)} frames")


def _transfer_quasiequations(seed: int):
    from .rules import example_structural_rules, q_a_of

    ex = example_structural_rules()
    return [q_a_of(ex["C"]), q_a_of(ex["Wk"])] + random_analytic_quasiequations(seed, 3)


def _crit_transfer(seed: int) -> CriterionResult:
    from .frames import verify_transfer

    t0 = time.perf_counter()
    failures = []
    qes = _transfer_quasiequations(seed)
    completions = _library_completions()
    for name, c in completions.items():
        for q in qes:
            if not verify_transfer(c.gentzen.frame, q, c.dual).ok:
                failures.append(f"{name}: {q} disagrees")
    return _result(8, "quasiequation transfer", t0, not failures,
                   failures[0] if failures else f"{len(qes)} quasiequations x {len(completions)} frames")


def _crit_macneille(seed: int) -> CriterionResult:
    from .models import holds_quasieq

    t0 = time.perf_counter()
    failures = []
    qes = _transfer_quasiequations(seed)
    completions = _library_completions()
    for name, c in completions.items():
        if not c.is_isomorphism:
            failures.append(f"{name}: completion is not an isomorphism")
            continue
        for q in qes:
            if holds_quasieq(c.gentzen.algebra, q) != holds_quasieq(c.dual.algebra, q):
                failures.append(f"{name}: {q} not preserved")
    return _result(9, "completion closure", t0, not failures,
                   failures[0] if failures else f"{len(completions)} models")


def _root_cut_proof(goal: Sequent, user, rules: RuleSet, models) -> CyclicProof | None:
    """A proof of the goal whose last step is a cut on a subformula of the
    goal, with both premises found by cut-free search; None if there is
    none.  Cuts with a premise equal to the goal, or with a premise refuted
    in one of the models that satisfies the active rules, are not tried."""
    from .models import rule_models
    from .search import SearchConfig, cut_instances, prove, refute

    models = rule_models(models, user)[0]
    for ri in cut_instances(goal, rules.resolve("Cut")):
        if goal in ri.premises or any(refute(p, models).refuted for p in ri.premises):
            continue
        subs = [prove(p, user_rules=user, rules=rules, cfg=SearchConfig(depth=10)).proof
                for p in ri.premises]
        if None in subs:
            continue
        nodes = {f"{i}.{nid}": CyclicNode(n.sequent, n.app, tuple(f"{i}.{c}" for c in n.children))
                 for i, sub in enumerate(subs) for nid, n in sub.nodes.items()}
        nodes["cut"] = CyclicNode(goal, RuleApp("Cut", ri.inst, ri.principal),
                                  tuple(f"{i}.{sub.root}" for i, sub in enumerate(subs)))
        return CyclicProof(nodes, "cut")
    return None


def _crit_cut_elimination() -> CriterionResult:
    """Every goal of the corpus that has a proof ending in a cut also has a
    cut-free proof, found by the default search of :func:`_searched_proofs`.
    Only goals whose proof really contains a cut count."""
    from .models import rel_algebra, three_chain, two_chain
    from .progress import check_cyclic_progress
    from .proof_core import check_cyclic_local

    t0 = time.perf_counter()
    models = [two_chain(), three_chain(), rel_algebra(1), rel_algebra(2)]
    failures = []
    with_cut = 0
    for name, goal, extras, user, rules, cut_free in _searched_proofs():
        proof = _root_cut_proof(goal, user, rules, models)
        if proof is None:
            continue
        with_cut += 1
        if not (check_cyclic_local(proof, rules).ok and check_cyclic_progress(proof, rules).accepted):
            failures.append(f"{name}: the proof with a cut is rejected")
        elif not cut_free.found:
            failures.append(f"{name}: provable with cut only")
    if not with_cut:
        failures.append("no goal has a proof with a cut")
    return _result(10, "empirical cut elimination", t0, not failures,
                   failures[0] if failures else
                   f"{with_cut} of {len(GOALS)} goals proved with a root cut; each has a cut-free proof")


def run_acceptance(seed: int = 20240810) -> list[CriterionResult]:
    """Run the whole audit suite; results come back in criterion order."""
    return [
        _crit_rule_engine(),
        _crit_admissibility(seed),
        _crit_progress(),
        _crit_translation(),
        _crit_projection(),
        _crit_soundness(),
        _crit_frames(seed),
        _crit_transfer(seed),
        _crit_macneille(seed),
        _crit_cut_elimination(),
    ]
