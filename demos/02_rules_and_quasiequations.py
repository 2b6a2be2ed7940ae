# Schematic rules: matching, classification, and their algebraic readings.

from actlat import (
    Instantiation,
    RuleSet,
    Var,
    classify,
    example_structural_rules,
    instantiate,
    match_conclusion,
    parse_sequent,
    q_a_of,
    q_of,
    qe_to_equation,
)

rules = RuleSet()
ex = example_structural_rules()

# Instantiating a rule schema gives its premises and conclusion.
meetR = rules.resolve("meetR")
inst = Instantiation(fmap={"b0": Var("b"), "b1": Var("c")}, smap={"Gamma": (Var("a"),)})
ri = instantiate(meetR, inst)
print("premises:", [str(p) for p in ri.premises])
print("conclusion:", ri.conclusion)

# Backward matching enumerates every way the conclusion fits a goal,
# including all context splits.
goal = parse_sequent("a, b |- a . b")
[print("match:", m.smap) for m in match_conclusion(rules.resolve("prodR"), goal)]

# The structural-rule hierarchy: contraction and weakening are analytic,
# cut is linear but not analytic, single-formula contraction is not linear.
for name in ("C", "Wk", "Cut", "c", "e"):
    print(name, classify(ex[name]))

# Every structural rule reads as a quasiequation over variable products;
# analytic rules additionally have a context-free form.  A quasiequation
# whose succedent variable is every right side and occurs nowhere else has
# an equivalent single equation, with one variable fewer.
print("q(Cut) =", q_of(ex["Cut"]))
print("q_a(C) =", q_a_of(ex["C"]))
print("equation of q_a(C):", qe_to_equation(q_a_of(ex["C"])))
print("q_a(Wk) =", q_a_of(ex["Wk"]))
print("equation of q_a(Wk):", qe_to_equation(q_a_of(ex["Wk"])))
print("equation of q(e):", qe_to_equation(q_of(ex["e"])))
