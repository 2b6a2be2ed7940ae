"""Run a fixed battery of proof searches and write one JSON line per search.

    python3 tools/search_parity.py [--src DIR] [--omit seconds,model_seconds] > out.jsonl

The battery has 390 searches: the 45 goals of ``actbench/goals.json`` with
their structural rules at the default settings, the same goals at depth 12
with cut, and the identities ``f |- f`` of ``random_formulas(1, 300,
max_size=8)`` at the default settings.  Each line holds the goal, the
config, ``found``, ``reason``, the proof as ``cyclic_to_json`` writes it
(null when none is found) and the ``SearchStats`` fields not named by
``--omit`` (by default the two timings).

``--src`` imports ``actlat`` from another source tree, so a change to search
can be compared with its parent search by search::

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/search_parity.py --src /tmp/parent/src --omit S > parent.jsonl
    python3 tools/search_parity.py --omit S > change.jsonl
    cmp parent.jsonl change.jsonl

where ``S`` lists the timings and any stats field that only one side has.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def battery(actlat) -> list[tuple[str, object, list]]:
    """(goal text, config, user rules) per search, in output order."""
    corpus, rules, search, syntax = actlat.corpus, actlat.rules, actlat.search, actlat.syntax
    ex = rules.example_structural_rules()
    goals = json.loads((ROOT / "actbench" / "goals.json").read_text())["goals"]
    out = []
    for cfg in (search.SearchConfig(), search.SearchConfig(depth=12, with_cut=True)):
        out += [(g["text"], cfg, [ex[e] for e in g["extras"]]) for g in goals]
    for f in corpus.random_formulas(1, 300, max_size=8):
        out.append((syntax.print_sequent(syntax.Sequent((f,), f)), search.SearchConfig(), []))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the source tree to import actlat from")
    ap.add_argument("--omit", default="seconds,model_seconds",
                    help="SearchStats fields left out of each line, comma-separated")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import actlat.corpus, actlat.proof_core, actlat.rules, actlat.search, actlat.syntax

    omit = set(args.omit.split(","))
    for text, cfg, user in battery(actlat):
        goal = actlat.syntax.parse_sequent(text)
        result = actlat.search.prove(goal, user_rules=user, cfg=cfg,
                                     rules=actlat.rules.RuleSet(user))
        proof = (actlat.proof_core.cyclic_to_json(result.proof, [r.name for r in user])
                 if result.found else None)
        stats = {k: v for k, v in dataclasses.asdict(result.stats).items() if k not in omit}
        print(json.dumps({"goal": text, "rules": [r.name for r in user],
                          "config": dataclasses.asdict(cfg), "found": result.found,
                          "reason": result.reason, "proof": proof, "stats": stats},
                         sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
