# Residuated frames, dual algebras, quasiequation transfer, and completion.

import numpy as np

from actlat import (
    check_nuclear,
    check_star_gentzen,
    dual_algebra,
    example_structural_rules,
    frame_of_algebra,
    frame_satisfies_q,
    holds_quasieq,
    macneille,
    q_a_of,
    quasimorphism_check,
    rel_algebra,
    three_chain,
    validate_algebra,
)
from actlat.frames import gamma

# Every finite algebra yields a frame over itself: both sorts are the
# carrier, the relation is the order, the residual tables witness nuclearity.
a = rel_algebra(2)
gf = frame_of_algebra(a)
print("nuclear:", check_nuclear(gf.frame).ok)

# The polarities form a Galois connection; their composite is a closure
# operator, here computed on a small subset.  A subset is a bool row over the
# sort it lives in.
bottom = np.zeros(a.size, dtype=bool)
bottom[a.zero] = True
print("closure of {bottom}:", np.flatnonzero(gamma(gf.frame, bottom)).tolist())

# The closed sets carry induced operations and form a star-continuous action
# lattice again.
dual = dual_algebra(gf.frame)
print("closed sets:", len(dual.closed), "| laws ok:", validate_algebra(dual.algebra).ok)

# The frame interacts with the algebra exactly as the sequent rules demand,
# including the infinitary star law checked over one power cycle.
print("interaction laws:", check_star_gentzen(gf).ok)
print("set-valued quasimorphism:", quasimorphism_check(gf, dual).ok)

# Analytic quasiequations transfer: the frame satisfies one exactly when its
# dual algebra does.
qc = q_a_of(example_structural_rules()["C"])
print("frame satisfies contraction:", frame_satisfies_q(gf.frame, qc))
print("dual satisfies contraction: ", holds_quasieq(dual.algebra, qc))

# Completion through the frame of the algebra itself: finite algebras are
# their own completion, and tested analytic quasiequations are preserved.
result = macneille(three_chain())
print("completion of the three-chain is an isomorphism:", result.is_isomorphism)
qwk = q_a_of(example_structural_rules()["Wk"])
print("weakening preserved:",
      holds_quasieq(three_chain(), qwk) == holds_quasieq(result.dual.algebra, qwk))
