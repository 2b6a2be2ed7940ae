"""The three workloads: their set-up, the ops of one pass, and the checks.

Every op calls the library through its module objects (``search.prove``,
not a name imported from ``search``), so the traced run sees the calls.
An op's ``run`` is timed; its ``judge`` runs after the clock stops and
returns the outcome, or raises ``Unsound`` when the output is wrong.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from actlat import corpus, frames, models, progress, proof_core, rules, search, syntax, translate

HERE = Path(__file__).resolve().parent

# Outcomes that count as decided; "unknown" and "crashed" do not.
DECIDED = frozenset({"proved", "refuted", "checked"})


class Unsound(Exception):
    """A verdict or an output the benchmark knows to be wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    judge: Callable[[object], str]
    repeats: bool = False               # same input every pass: the outcome must repeat


def _pass_rng(seed: int, pass_no: int, what: str) -> random.Random:
    return random.Random(f"{what}/{seed}/{pass_no}")


# ---------------------------------------------------------------------------
# prove: goals through search, then the proof checks or refutation.

_ATOM = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_POOL = "abcdefghijklmnopqrstuvwxyz"


def rename_atoms(text: str, rng: random.Random) -> str:
    """Rename the atoms of a sequent by a seeded permutation of a-z."""
    perm = dict(zip(_POOL, rng.sample(_POOL, len(_POOL))))
    return _ATOM.sub(lambda m: perm.get(m.group(), m.group()), text)


def load_goals(path: Path = HERE / "goals.json") -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["goals"]


@dataclass
class ProveInputs:
    goals: list[dict]
    user: dict[tuple, list]             # extras -> structural rules
    eligible: dict[tuple, list]         # extras -> library models of those rules


def setup_prove(goals: list[dict] | None = None) -> ProveInputs:
    """Build the model library, pick the models of each goal's structural
    rules, and check the verdict reference against them."""
    goals = goals if goals is not None else load_goals()
    library = models.library()
    ex = rules.example_structural_rules()
    user, eligible = {}, {}
    for g in goals:
        extras = tuple(g["extras"])
        if extras in user:
            continue
        user[extras] = [ex[e] for e in extras]
        qas = [rules.q_a_of(r) for r in user[extras]]
        eligible[extras] = [a for a in library.values()
                            if all(models.holds_quasieq(a, q) for q in qas)]
    for g in goals:
        if g["valid"]:
            continue
        named = [a for a in eligible[tuple(g["extras"])] if a.name == g["counter_model"]]
        if not named or models.holds_sequent(named[0], syntax.parse_sequent(g["text"])):
            raise ValueError(f"goal reference: {g['counter_model']} does not refute {g['text']}")
    return ProveInputs(goals, user, eligible)


def _check_witness(model, goal, valuation) -> bool:
    ineq = models.sequent_inequation(goal)
    val = dict(valuation)
    lhs = models.eval_formula(model, val, ineq.lhs)
    rhs = models.eval_formula(model, val, ineq.rhs)
    return not model.leq(lhs, rhs)


def prove_ops(inputs: ProveInputs, seed: int, pass_no: int) -> list[Op]:
    rng = _pass_rng(seed, pass_no, "prove")
    return [_prove_op(g, rename_atoms(g["text"], rng), inputs) for g in inputs.goals]


def _prove_op(g: dict, text: str, inputs: ProveInputs) -> Op:
    extras = tuple(g["extras"])
    user, eligible = inputs.user[extras], inputs.eligible[extras]

    def run():
        goal = syntax.parse_sequent(text)
        rs = rules.RuleSet(user)
        result = search.prove(goal, user_rules=user, rules=rs)
        if result.found:
            local = proof_core.check_cyclic_local(result.proof, rs).ok
            accepted = progress.check_cyclic_progress(result.proof, rs).accepted
            audit = models.soundness_audit([goal], eligible)
            return "proved", goal, result.proof, local and accepted and audit.ok
        return "refute", goal, search.refute(goal, eligible), None

    def judge(out) -> str:
        kind, goal, payload, checks_pass = out
        if kind == "proved":
            if not g["valid"]:
                raise Unsound(f"proof of the invalid goal {text}")
            if payload.node(payload.root).sequent != goal or not checks_pass:
                raise Unsound(f"returned proof of {text} fails the local, progress or model check")
            return "proved"
        if not payload.refuted:
            return "unknown"
        if g["valid"]:
            raise Unsound(f"refutation of the valid goal {text} in {payload.model}")
        model = next(a for a in eligible if a.name == payload.model)
        if not _check_witness(model, goal, payload.valuation):
            raise Unsound(f"counter-valuation for {text} in {payload.model} does not refute it")
        return "refuted"

    return Op(g["name"], run, judge, repeats=True)


# ---------------------------------------------------------------------------
# pipeline: cyclic proof -> check -> translate -> check, as the CLI runs it.

IDEXP_PER_PASS = 8
ZERO_PER_PASS = 8


def load_fixtures(path: Path = HERE / "fixtures.json") -> list[dict]:
    """Load the fixtures and re-check each one as a cyclic proof."""
    with open(path, encoding="utf-8") as fh:
        fixtures = json.load(fh)["fixtures"]
    ex = rules.example_structural_rules()
    for fx in fixtures:
        proof, rs = proof_core.cyclic_from_json(fx["proof"], [ex[n] for n in fx["proof"]["rules"]])
        if not proof_core.check_cyclic_local(proof, rs).ok or \
                not progress.check_cyclic_progress(proof, rs).accepted:
            raise ValueError(f"fixture {fx['name']} fails the local or the progress check")
    return fixtures


def pipeline_ops(fixtures: list[dict], seed: int, pass_no: int) -> list[Op]:
    ops = [_fixture_op(fx) for fx in fixtures]
    rng = _pass_rng(seed, pass_no, "pipeline")
    ops += [_id_expand_op(corpus.random_formula(rng, 12, 2), i) for i in range(IDEXP_PER_PASS)]
    rs = rules.RuleSet()
    for i in range(ZERO_PER_PASS):
        proof = _random_zero_proof(rng, rs)
        sigma_l = tuple(corpus.random_formula(rng, 2, 0) for _ in range(rng.randint(0, 2)))
        sigma_r = tuple(corpus.random_formula(rng, 2, 0) for _ in range(rng.randint(0, 2)))
        ops.append(_zero_op(proof, sigma_l, sigma_r, corpus.random_formula(rng, 3, 1), i))
    return ops


def _random_zero_proof(rng: random.Random, rs):
    """``corpus.random_zero_proof`` raises IndexError on some draws (seed 14,
    pass 1 is one); such a draw yields no input, so draw again from the
    same stream."""
    while True:
        try:
            return corpus.random_zero_proof(rng, rs)
        except IndexError:
            continue


def _fixture_op(fx: dict) -> Op:
    data = fx["proof"]

    def run():
        ex = rules.example_structural_rules()
        proof, rs = proof_core.cyclic_from_json(data, [ex[n] for n in data["rules"]])
        local = proof_core.check_cyclic_local(proof, rs).ok
        accepted = progress.check_cyclic_progress(proof, rs).accepted
        wf = translate.nwf_to_wf(proof, rules=rs)
        wf_ok = proof_core.check_wf(wf, 5, rs).ok
        ladder = translate.wf_to_nwf(wf, rs)
        _, violation = translate.check_lazy_prefix(ladder, 6, rs)
        back = proof_core.cyclic_to_json(proof, data["rules"])
        root = proof.node(proof.root).sequent
        return {"local": local, "progress": accepted, "conclusion kept": wf.sequent == root,
                "check_wf": wf_ok, "ladder": violation is None, "json round trip": back == data}

    return Op(fx["name"], run, _all_checks(fx["name"]), repeats=True)


def _all_checks(label: str) -> Callable[[dict], str]:
    def judge(checks: dict) -> str:
        failed = [k for k, ok in checks.items() if not ok]
        if failed:
            raise Unsound(f"{label}: known-good input rejected by {', '.join(failed)}")
        return "checked"

    return judge


def _id_expand_op(alpha, i: int) -> Op:
    def run():
        rs = rules.RuleSet()
        wf = proof_core.id_expand(alpha, rs)
        return {"conclusion": wf.sequent == syntax.Sequent((alpha,), alpha),
                "check_wf": proof_core.check_wf(wf, 5, rs).ok}

    return Op(f"id_expand#{i}", run, _all_checks(f"id_expand({alpha})"))


def _zero_op(proof, sigma_l, sigma_r, beta, i: int) -> Op:
    want = syntax.Sequent(sigma_l + proof.sequent.antecedent + sigma_r, beta)

    def run():
        rs = rules.RuleSet()
        out = proof_core.zeroR_admit(proof, sigma_l, sigma_r, beta, rs)
        return {"conclusion": out.sequent == want, "check_wf": proof_core.check_wf(out, 4, rs).ok}

    return Op(f"zeroR_admit#{i}", run, _all_checks(f"zeroR_admit to {want}"))


# ---------------------------------------------------------------------------
# semantics: one op audits one model, from its constructor on.  The
# 128-element library model ``truncated_words()`` is left out: its audit
# takes about 17 s, so a run would hold a single sample of it.  The 8-element
# ``words_a3`` makes the count odd, so the median op falls on one model's
# times, not on the edge between the three tiny models and rel2.

MODELS: tuple[tuple[str, Callable], ...] = (
    ("two_chain", lambda: models.two_chain()),
    ("three_chain", lambda: models.three_chain()),
    ("rel1", lambda: models.rel_algebra(1)),
    ("rel2", lambda: models.rel_algebra(2)),
    ("words_a3", lambda: models.truncated_words(3, "a")),
    ("words_a5", lambda: models.truncated_words(5, "a")),
    ("words_a6", lambda: models.truncated_words(6, "a")),
)


# Each pass checks transfer for three random analytic quasiequations taken
# from a pool drawn at set-up, so a run's op times average over many draws
# instead of resting on the three that one seed gives.
QE_POOL = 64
QE_PER_PASS = 3


@dataclass
class SemanticsInputs:
    fixed: list                         # contraction and weakening
    pool: list                          # random analytic quasiequations
    models: tuple = MODELS


def setup_semantics(seed: int) -> SemanticsInputs:
    ex = rules.example_structural_rules()
    return SemanticsInputs([rules.q_a_of(ex["C"]), rules.q_a_of(ex["Wk"])],
                           corpus.random_analytic_quasiequations(seed, QE_POOL))


def semantics_ops(inputs: SemanticsInputs, seed: int, pass_no: int) -> list[Op]:
    qes = inputs.fixed + _pass_rng(seed, pass_no, "semantics").sample(inputs.pool, QE_PER_PASS)
    return [_audit_op(name, build, qes) for name, build in inputs.models]


def _audit_op(name: str, build: Callable, qes: list) -> Op:
    def run():
        a = build()
        checks = {"algebra": models.validate_algebra(a).ok}
        gf = frames.frame_of_algebra(a)
        checks["nuclear"] = frames.check_nuclear(gf.frame).ok
        checks["star gentzen"] = frames.check_star_gentzen(gf).ok
        dual = frames.dual_algebra(gf.frame)
        checks["dual algebra"] = models.validate_algebra(dual.algebra).ok
        checks["quasimorphism"] = frames.quasimorphism_check(gf, dual).ok
        checks["embedding"] = frames.embedding_check(gf, dual).ok
        checks["transfer"] = all(frames.verify_transfer(gf.frame, q, dual).ok for q in qes)
        done = frames.macneille(a)
        checks["completion"] = done.is_isomorphism
        checks["preservation"] = all(
            models.holds_quasieq(a, q) == models.holds_quasieq(done.dual.algebra, q) for q in qes)
        return checks

    return Op(name, run, _all_checks(name), repeats=True)


def setup(workload: str, seed: int):
    if workload == "prove":
        return setup_prove()
    if workload == "pipeline":
        return load_fixtures()
    return setup_semantics(seed)


def ops(workload: str, inputs, seed: int, pass_no: int) -> list[Op]:
    make = {"prove": prove_ops, "pipeline": pipeline_ops, "semantics": semantics_ops}[workload]
    return make(inputs, seed, pass_no)
