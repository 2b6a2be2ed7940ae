"""Command-line front end.

Exit codes: 0 success/accepted, 1 rejected/refuted/violation, 2 resource
limit or unknown, 3 usage or parse error, 4 internal error.  ``--json``, given
before the command (``actlat --json check f``), switches every command to a
machine-readable report on stdout.  For a wellfounded proof ``nodes_checked``
counts distinct node objects: a subproof that the translation or the identity
expansion shares is checked once, so the count can be far below the size of
the tree at the given fuel; for a cyclic-system reading it counts the
addresses of the checked prefix.  Setting ``ACTLAT_COLOR=0`` disables the
pass/fail coloring.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import corpus
from .frames import (
    FrameError,
    check_nuclear,
    check_star_gentzen,
    dual_algebra,
    frame_of_algebra,
    macneille,
    verify_transfer,
)
from .models import (
    ModelError,
    eval_formula,
    find_quasieq_counterexample,
    find_sequent_counterexample,
    library,
    load_model,
    save_model,
    soundness_audit,
    validate_algebra,
)
from .progress import check_cyclic_progress
from .proof_core import (
    ProofError,
    ResourceLimit,
    check_cyclic_local,
    check_wf,
    cyclic_to_json,
    load_proof,
    save_proof,
    wf_to_json,
)
from .rules import (
    RuleError,
    RuleSet,
    classify,
    parse_quasiequation,
    parse_rule_file,
    q_a_of,
    q_of,
)
from .search import RefuteResult, SearchConfig, prove, refute
from .syntax import ParseError, parse_formula, parse_sequent, parse_sequent_file, print_sequent
from .translate import check_lazy_prefix, nwf_to_wf, project_cyclic, wf_to_nwf

OK, REJECTED, RESOURCE, USAGE, INTERNAL = 0, 1, 2, 3, 4


def _color_enabled() -> bool:
    if os.environ.get("ACTLAT_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _mark(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _load_user_rules(path: str | None):
    if not path:
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rule_file(fh.read())


def _resolve_model(name_or_path: str):
    lib = library()
    if name_or_path in lib:
        return lib[name_or_path]
    return load_model(name_or_path)


def _models_from(selector: str | None):
    if selector is None:
        return list(library().values())
    if os.path.isdir(selector):
        out = []
        for name in sorted(os.listdir(selector)):
            if name.endswith(".json"):
                out.append(load_model(os.path.join(selector, name)))
        return out
    return [_resolve_model(s) for s in selector.split(",")]


def cmd_fmt(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        out.append(print_sequent(parse_sequent(stripped)))
    body = "\n".join(out)
    _emit(args, {"sequents": out}, body)
    return OK


def cmd_check(args) -> int:
    user = _load_user_rules(args.rules)
    kind, proof, rules = load_proof(args.file, user)
    if kind == "womega":
        report = check_wf(proof, args.omega_fuel, rules)
        payload = {
            "system": kind,
            "ok": report.ok,
            "nodes_checked": report.nodes_checked,
            "bounded": report.bounded,
            "violation": str(report.violation) if report.violation else None,
        }
        _emit(args, payload, str(report))
        return OK if report.ok else REJECTED
    if kind == "cyclic":
        local = check_cyclic_local(proof, rules)
        if not local.ok:
            _emit(args, {"system": kind, "ok": False, "violation": str(local.violation)},
                  f"locally invalid: {local.violation}")
            return REJECTED
        result = check_cyclic_progress(proof, rules)
        if result.accepted:
            _emit(args, {"system": kind, "ok": True, "nodes": len(proof.nodes)},
                  f"accepted; {len(proof.nodes)} nodes")
            return OK
        payload = {
            "system": kind,
            "ok": False,
            "counterexample_cycle": list(result.counterexample or ()),
            "star_positions": list(result.star_positions),
        }
        _emit(args, payload,
              "rejected; counterexample cycle: " + " -> ".join(result.counterexample or ())
              + f" (star positions {list(result.star_positions)})")
        return REJECTED
    checked, violation = check_lazy_prefix(proof, args.unfold_depth, rules,
                                           omega_fuel=args.omega_fuel)
    ok = violation is None
    payload = {"system": kind, "ok": ok, "nodes_checked": checked,
               "violation": None if ok else str(violation)}
    _emit(args, payload,
          f"prefix of depth {args.unfold_depth} locally valid; {checked} nodes"
          if ok else f"violation: {violation}")
    return OK if ok else REJECTED


def cmd_translate(args) -> int:
    user = _load_user_rules(args.rules)
    kind, proof, rules = load_proof(args.infile, user)
    user_names = [r.name for r in user]
    if args.to == "wf":
        if kind != "cyclic":
            raise ProofError("translating to the wellfounded system needs a cyclic proof")
        wf = nwf_to_wf(proof, fuel=args.fuel, rules=rules)
        report = check_wf(wf, args.omega_fuel, rules)
        data = wf_to_json(wf, user_names, source=cyclic_to_json(proof, user_names))
        save_proof(args.outfile, data)
        _emit(args, {"ok": report.ok, "out": args.outfile, "check": str(report)},
              f"wrote {args.outfile}; {report}")
        return OK if report.ok else REJECTED
    if kind != "womega":
        raise ProofError("translating to the cyclic-system reading needs a wellfounded proof")
    lazy = wf_to_nwf(proof, rules)
    checked, violation = check_lazy_prefix(lazy, args.unfold_depth, rules,
                                           omega_fuel=args.omega_fuel)
    with open(args.infile, "r", encoding="utf-8") as fh:
        source = json.load(fh)
    save_proof(args.outfile, {"system": "nwf", "rules": user_names, "source": source})
    ok = violation is None
    _emit(args, {"ok": ok, "out": args.outfile, "nodes_checked": checked},
          f"wrote {args.outfile}; prefix of depth {args.unfold_depth} checked")
    return OK if ok else REJECTED


def cmd_project(args) -> int:
    user = _load_user_rules(args.rules)
    kind, proof, rules = load_proof(args.infile, user)
    if kind != "cyclic":
        raise ProofError("projection operates on cyclic proofs")
    out = project_cyclic(proof, {args.pos: args.value}, rules)
    save_proof(args.outfile, cyclic_to_json(out, [r.name for r in user]))
    _emit(args, {"ok": True, "out": args.outfile, "nodes": len(out.nodes)},
          f"wrote {args.outfile}; {len(out.nodes)} nodes")
    return OK


def cmd_prove(args) -> int:
    user = _load_user_rules(args.rules)
    rules = RuleSet(user)
    goal = parse_sequent(args.sequent)
    cfg = SearchConfig(depth=args.depth, with_cut=args.with_cut)
    result = prove(goal, user_rules=user, cfg=cfg, rules=rules)
    stats = dataclasses.asdict(result.stats)
    if result.found:
        if args.out:
            save_proof(args.out, cyclic_to_json(result.proof, [r.name for r in user]))
        _emit(args, {"found": True, "nodes": len(result.proof.nodes),
                     "out": args.out, "stats": stats},
              f"found ({len(result.proof.nodes)} nodes)"
              + (f"; wrote {args.out}" if args.out else ""))
        return OK
    _emit(args, {"found": False, "reason": result.reason, "stats": stats},
          f"unknown ({result.reason})")
    return RESOURCE


def cmd_refute(args) -> int:
    goal = parse_sequent(args.sequent)
    models = _models_from(args.models)
    result: RefuteResult = refute(goal, models)
    if result.refuted:
        _emit(args, {"refuted": True, "model": result.model,
                     "valuation": dict(result.valuation)},
              f"refuted in {result.model} at {dict(result.valuation)}")
        return REJECTED
    _emit(args, {"refuted": False}, "unknown (no counter-model found)")
    return RESOURCE


def cmd_rules(args) -> int:
    user = _load_user_rules(args.rules)
    rules = RuleSet(user)
    rule = rules.resolve(args.name)
    if args.action == "classify":
        flags = classify(rule)
        payload = {"rule": rule.name, "structural": flags.structural,
                   "linear": flags.linear, "analytic": flags.analytic}
        _emit(args, payload,
              f"{rule.name}: structural={flags.structural} linear={flags.linear} "
              f"analytic={flags.analytic}")
        return OK
    qe = q_a_of(rule) if args.analytic else q_of(rule)
    _emit(args, {"rule": rule.name, "quasiequation": str(qe)}, str(qe))
    return OK


# the arguments each models action needs; the parser leaves them optional
_MODELS_NEEDS = {"validate": ("model",), "eval": ("model", "expr"),
                 "check-seq": ("model", "expr"), "check-qe": ("model", "expr"),
                 "audit": ("--seqs",)}


def cmd_models(args) -> int:
    missing = [n for n in _MODELS_NEEDS[args.action] if getattr(args, n.lstrip("-")) is None]
    if missing:
        raise ValueError(f"models {args.action} needs {' and '.join(missing)}")
    if args.action == "validate":
        a = _resolve_model(args.model)
        report = validate_algebra(a)
        payload = {"model": a.name, "ok": report.ok,
                   "violations": [str(v) for v in report.violations]}
        _emit(args, payload,
              f"{a.name}: valid" if report.ok else f"{a.name}: {report.violations[0]}")
        return OK if report.ok else REJECTED
    if args.action == "eval":
        a = _resolve_model(args.model)
        f = parse_formula(args.expr)
        valuation = {}
        for part in (args.env or "").split(","):
            if not part:
                continue
            name, value = part.split("=", 1)
            valuation[name.strip()] = a.elements.index(value.strip())
        result = eval_formula(a, valuation, f)
        _emit(args, {"model": a.name, "value": a.elements[result]}, a.elements[result])
        return OK
    if args.action == "check-seq":
        a = _resolve_model(args.model)
        s = parse_sequent(args.expr)
        witness = find_sequent_counterexample(a, s)
        if witness is None:
            _emit(args, {"model": a.name, "holds": True}, "holds")
            return OK
        named = {k: a.elements[v] for k, v in witness}
        _emit(args, {"model": a.name, "holds": False, "valuation": named},
              f"fails at {named}")
        return REJECTED
    if args.action == "check-qe":
        a = _resolve_model(args.model)
        q = parse_quasiequation(args.expr)
        witness = find_quasieq_counterexample(a, q)
        if witness is None:
            _emit(args, {"model": a.name, "holds": True}, "holds")
            return OK
        named = {k: a.elements[v] for k, v in witness}
        _emit(args, {"model": a.name, "holds": False, "valuation": named},
              f"fails at {named}")
        return REJECTED
    # audit
    models = _models_from(args.models)
    with open(args.seqs, "r", encoding="utf-8") as fh:
        sequents = parse_sequent_file(fh.read())
    report = soundness_audit(sequents, models, _load_user_rules(args.rules))
    payload = {"checked": report.checked, "valuations": report.valuations, "ok": report.ok,
               "skipped_models": report.skipped_models,
               "undecided_models": report.undecided_models,
               "violations": [str(v) for v in report.violations]}
    _emit(args, payload,
          f"{report.checked} pairs checked; "
          + ("no violations" if report.ok else f"violation: {report.violations[0]}"))
    return OK if report.ok else REJECTED


def cmd_frames(args) -> int:
    if args.action == "transfer" and args.qe is None and args.rule is None:
        raise ValueError("frames transfer needs --qe or --rule")
    a = _resolve_model(args.model)
    if args.action == "macneille":
        result = macneille(a)
        ok = result.is_isomorphism and result.star_gentzen.ok
        payload = {"model": a.name, "isomorphism": result.is_isomorphism,
                   "closed_sets": len(result.dual.closed),
                   "star_gentzen_ok": result.star_gentzen.ok,
                   "stats": dataclasses.asdict(result.dual.stats)}
        _emit(args, payload,
              f"completion of {a.name}: {len(result.dual.closed)} elements; "
              + ("isomorphic to the original" if ok else "NOT an isomorphism"))
        return OK if ok else REJECTED
    gf = frame_of_algebra(a)
    if args.action == "dual":
        dual = dual_algebra(gf.frame)
        report = validate_algebra(dual.algebra)
        payload = {"model": a.name, "closed_sets": len(dual.closed), "valid": report.ok,
                   "stats": dataclasses.asdict(dual.stats)}
        if args.out:
            save_model(args.out, dual.algebra)
            payload["out"] = args.out
        _emit(args, payload,
              f"dual algebra of W[{a.name}]: {len(dual.closed)} closed sets; "
              + ("valid" if report.ok else str(report.violations[0])))
        return OK if report.ok else REJECTED
    if args.action == "gentzen-check":
        report = check_star_gentzen(gf, with_cut=not args.no_cut)
        nuclear = check_nuclear(gf.frame)
        ok = report.ok and nuclear.ok
        payload = {"model": a.name, "nuclear": nuclear.ok, "rules_ok": report.ok,
                   "violations": [f"{law} at {w}" for law, w in report.violations]}
        _emit(args, payload,
              f"W[{a.name}]: " + ("all interaction laws hold" if ok
                                  else f"violation: {report.violations[0]}"))
        return OK if ok else REJECTED
    # transfer
    if args.rule:
        q = q_a_of(RuleSet(_load_user_rules(args.rules)).resolve(args.rule))
    else:
        q = parse_quasiequation(args.qe)
    report = verify_transfer(gf.frame, q, dual_algebra(gf.frame))
    payload = {"model": a.name, "quasiequation": str(q),
               "frame": report.frame_holds, "dual": report.dual_holds,
               "agree": report.ok}
    _emit(args, payload,
          f"frame={report.frame_holds} dual={report.dual_holds} "
          + ("(agree)" if report.ok else "(DISAGREE)"))
    return OK if report.ok else REJECTED


def cmd_corpus(args) -> int:
    if not args.json:
        print(f"seed: {args.seed}")
    results = corpus.run_acceptance(args.seed)
    all_ok = all(r.passed for r in results)
    if args.json:
        print(json.dumps({"seed": args.seed, "criteria": [{
            "criterion": r.number, "name": r.name, "passed": r.passed,
            "detail": r.detail, "seconds": round(r.seconds, 2),
        } for r in results]}, indent=2))
    else:
        for r in results:
            print(f"{_mark(r.passed)} criterion {r.number:>2} ({r.name}): "
                  f"{r.detail} [{r.seconds:.1f}s]")
    return OK if all_ok else REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actlat",
        description="Sequent calculi, cyclic proofs, and finite semantics for "
                    "star-continuous action lattices.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fmt", help="normalize a sequent file")
    p.add_argument("file")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("file")
    p.add_argument("--rules", help="rule file with user structural rules")
    p.add_argument("--omega-fuel", type=int, default=5)
    p.add_argument("--unfold-depth", type=int, default=6)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="translate between the two systems")
    p.add_argument("--to", choices=("wf", "nwf"), required=True)
    p.add_argument("--rules")
    p.add_argument("--fuel", type=int, default=100_000)
    p.add_argument("--omega-fuel", type=int, default=5)
    p.add_argument("--unfold-depth", type=int, default=6)
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("project", help="project a star occurrence to a finite power")
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--rules")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("prove", help="backward proof search")
    p.add_argument("sequent")
    p.add_argument("--rules")
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--with-cut", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("refute", help="counter-valuation search in finite models")
    p.add_argument("sequent")
    p.add_argument("--models", help="directory of model files, or comma-separated names")
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("rules", help="inspect rules")
    p.add_argument("action", choices=("classify", "quasieq"))
    p.add_argument("name")
    p.add_argument("--rules")
    p.add_argument("--analytic", action="store_true",
                   help="context-free form for analytic rules")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("models", help="finite model commands")
    p.add_argument("action", choices=("validate", "eval", "check-seq", "check-qe", "audit"))
    p.add_argument("model", nargs="?", help="library model name or model file")
    p.add_argument("expr", nargs="?", help="formula, sequent, or quasiequation")
    p.add_argument("--env", help="valuation, e.g. a=1,b=0")
    p.add_argument("--models")
    p.add_argument("--seqs", help="sequent file for the audit")
    p.add_argument("--rules")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("frames", help="residuated frame commands")
    p.add_argument("action", choices=("dual", "gentzen-check", "transfer", "macneille"))
    p.add_argument("model")
    p.add_argument("--qe", help="analytic quasiequation text")
    p.add_argument("--rule", help="take the quasiequation of this analytic rule")
    p.add_argument("--rules")
    p.add_argument("--no-cut", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("corpus", help="corpus utilities")
    p.add_argument("action", choices=("run",))
    p.add_argument("--seed", type=int, default=20240810)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ProofError as e:  # a ValueError, so it must come first
        print(f"invalid: {e}", file=sys.stderr)
        return REJECTED
    except (ParseError, RuleError, ModelError, FrameError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return RESOURCE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except Exception as e:
        # a defect in the library, never a verdict on the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
