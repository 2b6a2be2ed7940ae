"""Shared generators and reference implementations for the test suite."""

import random

import numpy as np

from actlat.syntax import Formula, Join, LRes, Meet, One, Prod, RRes, Star, Var, Zero

ATOMS = [Var("a"), Var("b"), Var("c"), Zero(), One()]


def random_formula(rng: random.Random, max_size: int, max_star_depth: int) -> Formula:
    if max_size <= 1:
        return rng.choice(ATOMS)
    choices = ["meet", "join", "prod", "lres", "rres", "atom"]
    if max_star_depth > 0:
        choices.append("star")
    op = rng.choice(choices)
    if op == "atom":
        return rng.choice(ATOMS)
    if op == "star":
        return Star(random_formula(rng, max_size - 1, max_star_depth - 1))
    k = rng.randint(1, max_size - 2) if max_size > 2 else 1
    left = random_formula(rng, k, max_star_depth)
    right = random_formula(rng, max_size - 1 - k, max_star_depth)
    node = {"meet": Meet, "join": Join, "prod": Prod, "lres": LRes, "rres": RRes}[op]
    return node(left, right)


def loop_gentzen_laws(gf, star: bool) -> list:
    """The (.R), (\\L), (/L) and, with star, (*L) violations of a Gentzen
    frame, each at its first witness, found one algebra element at a time:
    the reference for the whole-table checks of ``actlat.frames``."""
    f, a = gf.frame, gf.algebra
    N, w_of, wp_of, n = f.n_rel, gf.to_w, gf.to_wp, gf.algebra.size
    found = []
    # (.R): x N a and y N b -> x o y N a.b
    B = N[:, wp_of]
    for ai in range(n):
        xs = np.flatnonzero(B[:, ai])
        bad = B[None, :, :] & ~N[:, wp_of[a.prod[ai]]][f.op[xs]]
        if bad.any():
            xi, y, bi = (int(v) for v in np.argwhere(bad)[0])
            found.append(("(.R)", (int(xs[xi]), y, ai, bi)))
            break
    # (\L): x N a and b N z -> a\b N x lres z; (/L) through the transposes
    for side, alg_res, wit in (("\\", a.lres, f.lres_w), ("/", a.rres.T, f.rres_w.T)):
        for ai in range(n):
            xs = np.flatnonzero(N[:, wp_of[ai]])
            bad = N[w_of, :].T[None, :, :] & ~N[w_of[alg_res[ai]]].T[wit[xs]]
            if bad.any():
                bi, xi, z = (int(v) for v in np.argwhere(bad.transpose(2, 0, 1))[0])
                found.append((f"({side}L)", (ai, bi, int(xs[xi]), z)))
                break
    if not star:
        return found
    # (*L): (a^(n) N z for all n) -> a* N z, powers over one cycle
    for ai in range(n):
        power = f.eps
        seen = set()
        holds_all = N[f.eps, :].copy()
        while power not in seen:
            seen.add(power)
            holds_all &= N[power, :]
            power = int(f.op[power, w_of[ai]])
        bad = holds_all & ~N[w_of[a.star[ai]], :]
        if bad.any():
            found.append(("(*L)", (ai, int(np.flatnonzero(bad)[0]))))
            break
    return found
