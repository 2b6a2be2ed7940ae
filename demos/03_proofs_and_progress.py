# Wellfounded proofs with infinitary star nodes, cyclic proofs, and the
# global progress condition.

from actlat import (
    RuleSet,
    Star,
    Var,
    check_cyclic_local,
    check_cyclic_progress,
    check_wf,
    critical_height,
    height,
    id_expand,
    parse_formula,
    progress_points,
    zeroR_admit,
)
from actlat.corpus import canonical_star_id, corrupted_variants

rules = RuleSet()

# Identity expansion builds a cut-free proof of f |- f for any formula.
# Star formulas produce an infinitary node: one premise per finite power.
p = id_expand(parse_formula("(a . b)*"), rules)
report = check_wf(p, omega_fuel=4, rules=rules)
print("id-expansion of (a.b)*:", report)
print("third premise of the infinitary node:", p.children(3).sequent)

# Heights are exact ordinals for finitely branching proofs and flagged
# approximations when an infinitary node is sampled.
h = height(id_expand(parse_formula("a & b"), rules))
print("height of the meet expansion:", h.value, "approx:", h.approx)

# An admissible transformation: a proof of Gamma |- 0 widens to any context
# and any succedent.  A node's rule application is derived from the rule's
# schema: the instance of zeroL that concludes the axiom's sequent.
from actlat import WfProof, parse_sequent
from actlat.proof_core import rule_app

zero_axiom = parse_sequent("a, 0 |- 0")
axiom = WfProof(zero_axiom, rule_app(rules, "zeroL", zero_axiom))
widened = zeroR_admit(axiom, (Var("c"),), (), Var("d"), rules)
print("widened zero proof:", widened.sequent)

# The canonical cyclic proof of a* |- a*: one left-star node whose unfolding
# premise loops back to the root.  The checker accepts it because the star
# occurrence threads through the cycle and is introduced at every pass.
cyc = canonical_star_id(rules)
print("locally valid:", check_cyclic_local(cyc, rules).ok)
print("branch condition:", check_cyclic_progress(cyc, rules).accepted)

# Following the cycle, the left-star node is a progress point at every visit.
prefix = [1, 1, 1, 1]
print("progress points along the cycle:", sorted(progress_points(cyc, prefix, 6, rules)))
print("critical height:", critical_height(cyc, prefix, 6, rules))

# Break the thread and the checker answers with a concrete counterexample
# cycle.
bad = corrupted_variants(rules)["star_id_root_loop_C"]
verdict = check_cyclic_progress(bad, rules)
print("corrupted variant accepted:", verdict.accepted,
      "| cycle:", " -> ".join(verdict.counterexample))
