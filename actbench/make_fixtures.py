"""Write the cyclic-proof fixtures of the ``pipeline`` workload.

The fixtures are generated once and committed, so the workload's inputs do
not move when proof search changes.  They are the canonical proofs, the
searched proofs of the goal corpus, searched proofs of ``a*, ..., a* |- a*``
with one to three starred antecedents, and regular projections of some of
them.  Every fixture must pass the local and the progress check here and
again when the benchmark loads it.

Run from the repository root:  python3 actbench/make_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from actlat.corpus import canonical_proofs, goal_corpus  # noqa: E402
from actlat.proof_core import check_cyclic_local, cyclic_to_json  # noqa: E402
from actlat.progress import check_cyclic_progress  # noqa: E402
from actlat.rules import RuleSet, example_structural_rules  # noqa: E402
from actlat.search import prove  # noqa: E402
from actlat.syntax import parse_sequent  # noqa: E402
from actlat.translate import project_cyclic  # noqa: E402

OUT = HERE / "fixtures.json"

# (source fixture, star assignment {antecedent position: power})
PROJECTIONS = (
    ("two_star", {0: 1}),
    ("two_star", {1: 2}),
    ("join_star", {0: 2}),
    ("stars_3", {0: 1}),
    ("stars_3", {2: 2}),
)


def build() -> list[dict]:
    ex = example_structural_rules()
    proofs: dict[str, tuple] = {}
    for name, proof in canonical_proofs().items():
        proofs[name] = (proof, ())
    for name, goal, extras in goal_corpus():
        user = [ex[e] for e in extras]
        result = prove(goal, user_rules=user, rules=RuleSet(user))
        if not result.found:
            raise SystemExit(f"corpus goal {name} not proved: {result.reason}")
        proofs[f"corpus_{name}"] = (result.proof, extras)
    for k in (1, 2, 3):
        goal = parse_sequent(", ".join(["a*"] * k) + " |- a*")
        result = prove(goal)
        if not result.found:
            raise SystemExit(f"{goal} not proved: {result.reason}")
        proofs[f"stars_{k}"] = (result.proof, ())
    for src, assignment in PROJECTIONS:
        proof, extras = proofs[src]
        tag = "_".join(f"{k}to{n}" for k, n in assignment.items())
        proofs[f"{src}_proj_{tag}"] = (project_cyclic(proof, assignment, RuleSet()), extras)

    out = []
    for name, (proof, extras) in proofs.items():
        rules = RuleSet([ex[e] for e in extras])
        if not check_cyclic_local(proof, rules).ok or not check_cyclic_progress(proof, rules).accepted:
            raise SystemExit(f"fixture {name} fails the local or the progress check")
        out.append({"name": name, "proof": cyclic_to_json(proof, extras)})
    return out


def main() -> None:
    fixtures = build()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"fixtures": fixtures}, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(fixtures)} fixtures to {OUT.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
