"""Run the translations over a fixed set of cyclic proofs and write one JSON
line per proof.

    python3 tools/translate_parity.py [--src DIR] > out.jsonl

The inputs are the 36 fixtures of ``actbench/fixtures.json``, then
``corpus.canonical_proofs()`` and ``corpus.corrupted_variants()``.  Each line
holds:

- ``nwf_to_wf``: the SHA-256 of the translation's ``wf_to_json``, or the
  error type and message;
- ``check_wf``: the ``check_wf(..., 5)`` report of the translation;
- ``ladder`` and ``om``: ``check_lazy_prefix`` of ``wf_to_nwf`` at depth 6
  and of ``om`` at depth 5;
- ``projections``: for each starred position k of the root antecedent and
  n in 0..2, the SHA-256 of ``project_cyclic``'s ``cyclic_to_json``,
  ``check_lazy_prefix(project_single(...), 5)`` and the SHA-256 of the keys
  along ``iter_addresses(..., 5)``.

A last line probes one missing child per kind of lazy preproof and gives the
error type and message.  Every failure is written as ``[type, message]``.

``--src`` imports ``actlat`` from another source tree, so a change to the
translations can be compared with its parent proof by proof::

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/translate_parity.py --src /tmp/parent/src > parent.jsonl
    python3 tools/translate_parity.py > change.jsonl
    cmp parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def attempt(fn):
    """fn() as JSON, or [error type, message] if it raises."""
    try:
        return fn()
    except Exception as exc:  # every failure is part of the output
        return [type(exc).__name__, str(exc)]


def inputs(actlat) -> list[tuple[str, object, object, list[str]]]:
    """(name, cyclic proof, rule set, user rule names) per line, in order."""
    corpus, proof_core, rules = actlat.corpus, actlat.proof_core, actlat.rules
    ex = rules.example_structural_rules()
    out = []
    fixtures = json.loads((ROOT / "actbench" / "fixtures.json").read_text())["fixtures"]
    for fx in fixtures:
        names = fx["proof"]["rules"]
        proof, rs = proof_core.cyclic_from_json(fx["proof"], [ex[n] for n in names])
        out.append((fx["name"], proof, rs, names))
    rs = rules.RuleSet()
    for group in (corpus.canonical_proofs(rs), corpus.corrupted_variants(rs)):
        out += [(name, proof, rs, []) for name, proof in group.items()]
    return out


def translations(actlat, proof, rs, names: list[str]) -> dict:
    pc, tr = actlat.proof_core, actlat.translate
    line = {}
    try:
        wf = tr.nwf_to_wf(proof, rules=rs)
    except Exception as exc:
        wf, line["nwf_to_wf"] = None, [type(exc).__name__, str(exc)]
    if wf is not None:
        line["nwf_to_wf"] = attempt(lambda: digest(pc.wf_to_json(wf, names)))

        def report():
            r = pc.check_wf(wf, 5, rs)
            return [r.ok, r.nodes_checked, r.bounded, None if r.ok else str(r.violation)]

        line["check_wf"] = attempt(report)
        line["ladder"] = attempt(lambda: tr.check_lazy_prefix(tr.wf_to_nwf(wf, rs), 6, rs))
    line["om"] = attempt(lambda: tr.check_lazy_prefix(tr.om(proof, rs), 5, rs))
    root = proof.node(proof.root).sequent
    stars = [k for k, f in enumerate(root.antecedent) if isinstance(f, actlat.syntax.Star)]
    line["projections"] = [
        {"k": k, "n": n,
         "project_cyclic": attempt(
             lambda: digest(pc.cyclic_to_json(tr.project_cyclic(proof, {k: n}, rs), names))),
         "prefix": attempt(lambda: tr.check_lazy_prefix(tr.project_single(proof, k, n, rs), 5)),
         "keys": attempt(lambda: digest(repr(keys(tr, tr.project_single(proof, k, n, rs)))))}
        for k in stars for n in range(3)
    ]
    return line


def keys(tr, lazy) -> list:
    return [lazy.key(addr) for addr in tr.iter_addresses(lazy, 5)]


def missing_children(actlat) -> dict:
    """One read past the last child per kind of lazy preproof."""
    corpus, rules, tr = actlat.corpus, actlat.rules, actlat.translate
    rs = rules.RuleSet()
    star_id, two_star = corpus.canonical_star_id(rs), corpus.canonical_two_star(rs)
    wf = tr.nwf_to_wf(star_id, rules=rs)
    probes = {
        "WfLazy": (lambda: tr.as_lazy(wf, rs), (0, 0)),
        "CyclicLazy": (lambda: tr.as_lazy(two_star, rs), (2,)),
        "OmLazy": (lambda: tr.om(two_star, rs), (2, 5)),
        "LadderLazy spine": (lambda: tr.wf_to_nwf(wf, rs), (2,)),
        "LadderLazy off spine": (lambda: tr.wf_to_nwf(wf, rs), (0, 0)),
        "ProjectedLazy copy, empty": (lambda: tr.project_proof(two_star, {}, rs), (2,)),
        "ProjectedLazy copy": (lambda: tr.project_single(two_star, 1, 1, rs), (2,)),
        "ProjectedLazy zero": (lambda: tr.project_single(star_id, 0, 0, rs), (1,)),
        "ProjectedLazy succ": (lambda: tr.project_single(star_id, 0, 1, rs), (0,)),
    }
    return {name: attempt(lambda: repr(make().node_at(addr)))
            for name, (make, addr) in probes.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the source tree to import actlat from")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import actlat.corpus, actlat.proof_core, actlat.rules, actlat.syntax, actlat.translate

    for name, proof, rs, names in inputs(actlat):
        print(json.dumps({"input": name, **translations(actlat, proof, rs, names)}, sort_keys=True))
    print(json.dumps({"missing child": missing_children(actlat)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
