"""Shared generators and reference implementations for the test suite."""

import itertools
import random

import numpy as np
from hypothesis import strategies as st

from actlat.rules import layout
from actlat.syntax import Formula, Join, LRes, Meet, One, Prod, RRes, Star, Var, Zero, variables

ATOMS = [Var("a"), Var("b"), Var("c"), Zero(), One()]


def formulas(max_leaves: int = 5, atoms=ATOMS):
    """Hypothesis strategy: formulas over the atoms with every connective."""
    binary = (Meet, Join, Prod, LRes, RRes)
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(st.builds(Star, inner),
                                *(st.builds(node, inner, inner) for node in binary)),
        max_leaves=max_leaves)


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


def star_by_powers(a, x: int) -> int:
    """Join of all distinct powers of x (stabilizes on a finite carrier): the
    scalar reference for the star-continuity check of ``validate_algebra``."""
    acc = a.one
    power = a.one
    seen = set()
    while power not in seen:
        seen.add(power)
        acc = int(a.join[acc, power])
        power = int(a.prod[power, x])
    return acc


def lexsort_distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows by a lexsort with the last column as primary key:
    the reference order for ``actlat.frames._distinct``."""
    rows = rows[np.lexsort(rows.T)]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def loop_quasimorphism(gf, dual) -> list:
    """The violations of ``quasimorphism_check``, each operation law checked
    one algebra element at a time: the reference for the whole-table check."""
    from actlat.frames import _locate
    from actlat.models import outside, pack

    found = []
    f, a, alg = gf.frame, gf.algebra, dual.algebra
    inside = ~outside(pack(f.n_rel[:, gf.to_wp].T), pack(dual.closed)[:, None])
    members = dual.closed[:, gf.to_w].T & inside.T
    if not members[a.one, alg.one]:
        found.append(("unit membership", (int(alg.one),)))
    if f.zero_wp is not None:
        zero_set = int(_locate(dual.closed, f.n_rel[:, f.zero_wp]))
        if not members[a.zero, zero_set]:
            found.append(("zero membership", (zero_set,)))
    pb, py = np.nonzero(members)
    for law in ("meet", "join", "prod", "lres", "rres"):
        alg_op, dual_op = getattr(a, law), getattr(alg, law)
        for ai in range(a.size):
            xs = np.flatnonzero(members[ai])
            bad = ~members[alg_op[ai, pb][None, :], dual_op[xs[:, None], py[None, :]]]
            if bad.any():
                xi, q = np.nonzero(bad)
                first = np.lexsort((py[q], xs[xi], pb[q]))[0]
                found.append((law, (ai, int(pb[q[first]]), int(xs[xi[first]]), int(py[q[first]]))))
                return found
    bad = members & ~members[a.star][:, alg.star]
    if bad.any():
        found.append(("star", tuple(int(v) for v in np.argwhere(bad)[0])))
    return found


def _word(term: Formula) -> list:
    """The variables of a product of variables and 1, left to right."""
    if isinstance(term, Prod):
        return _word(term.left) + _word(term.right)
    return [term.name] if isinstance(term, Var) else []


def loop_frame_q_counterexample(f, q):
    """The witness of ``frame_q_counterexample`` for an analytic
    quasiequation, one valuation of the product variables at a time, in
    sorted variable order, with the least z of the second sort whose bool
    column breaks it: the reference for the packed row test.  Each product
    is folded from its first variable; the empty one is the frame's eps."""
    names = sorted(set(_word(q.conclusion.lhs)))

    def value(term, val):
        word = _word(term)
        out = val[word[0]] if word else f.eps
        for v in word[1:]:
            out = f.op[out, val[v]]
        return out

    for values in itertools.product(range(f.w_size), repeat=len(names)):
        val = dict(zip(names, values))
        bad = np.logical_and.reduce([~f.n_rel[value(q.conclusion.lhs, val)],
                                     *(f.n_rel[value(p.lhs, val)] for p in q.premises)])
        if bad.any():
            return tuple(sorted({**val, q.conclusion.rhs.name: int(bad.argmax())}.items()))
    return None


def _reference_eval(a, grids: dict, f: Formula) -> np.ndarray:
    if isinstance(f, Var):
        return grids[f.name]
    if isinstance(f, Zero):
        return np.full((), a.zero)
    if isinstance(f, One):
        return np.full((), a.one)
    if isinstance(f, Star):
        return a.star[_reference_eval(a, grids, f.body)]
    table = {Meet: a.meet, Join: a.join, Prod: a.prod, LRes: a.lres, RRes: a.rres}[type(f)]
    return table[_reference_eval(a, grids, f.left), _reference_eval(a, grids, f.right)]


def reference_counterexample(a, premises, conclusion):
    """The first valuation, in sorted variable order, at which every premise
    inequation holds and the conclusion fails, or None: the whole grid
    evaluated with 2-D fancy indexing on the model's own tables, the
    reference for the query kernel of ``actlat.models``."""
    names = sorted(set().union(*(variables(i.lhs) | variables(i.rhs)
                                 for i in (*premises, conclusion))))
    n, k = a.size, len(names)
    grids = {name: np.arange(n).reshape([n if i == axis else 1 for i in range(k)])
             for axis, name in enumerate(names)}

    def holds(ineq):
        return a.le[_reference_eval(a, grids, ineq.lhs), _reference_eval(a, grids, ineq.rhs)]

    ok = holds(conclusion)
    for p in premises:
        ok = ok | ~holds(p)
    bad = np.argwhere(~np.broadcast_to(ok, (n,) * k))
    return tuple(zip(names, (int(v) for v in bad[0]))) if len(bad) else None


def reference_shape(instance, child_indices):
    """(layout, principal position, ancestry) of a rule instance, computed
    afresh: the conclusion and premise layouts of ``actlat.rules.layout``,
    and every premise position compared with every conclusion position
    through their origins.  The reference for the per-shape facts of
    ``actlat.rules.RuleInstance``."""
    rule, inst = instance.rule, instance.inst
    c_origins, c_rhs, c_starts = layout(rule.conclusion, inst)
    principal = rule.principal
    if principal is not None and principal != -1:
        principal = c_starts[principal]
    pairs = set()
    for i in child_indices:
        ms, aux_items = rule.premise_meta(i)
        p_origins, p_rhs, p_starts = layout(ms, inst)
        if principal is not None:
            for item in aux_items:
                pairs.add(((i, -1 if item == -1 else p_starts[item]), principal))
        for q, po in [*enumerate(p_origins), (-1, p_rhs)]:
            if po.kind == "formula":
                continue
            for q2, co in [*enumerate(c_origins), (-1, c_rhs)]:
                if co.kind == po.kind and co.name == po.name and co.offset == po.offset:
                    pairs.add(((i, q), q2))
    return (c_origins, c_rhs, c_starts), principal, frozenset(pairs)


def float32_within(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Entry [..., j] is true when that row of xs is a subset of row j of ys,
    by one float32 product counting the members of each row outside row j:
    the former subset test of ``actlat.frames``, the reference for its
    packed-bit test."""
    out = xs.reshape(-1, xs.shape[-1]).astype(np.float32) @ (~ys).T.astype(np.float32)
    return (out == 0).reshape(xs.shape[:-1] + ys.shape[:1])


def _first_break(report: list, law: str, cond, conseq) -> None:
    bad = cond & ~conseq
    if bad.any():
        report.append((law, tuple(int(v) for v in np.argwhere(bad)[0])))


def broadcast_gentzen_laws(gf, star: bool, with_cut: bool = True) -> list:
    """The violations of the Gentzen-frame laws that ``actlat.frames`` checks
    as subset tests of packed rows, each at its first witness, found with
    boolean broadcasts over all element triples: the reference for them."""
    f, a = gf.frame, gf.algebra
    N, w_of, wp_of = f.n_rel, gf.to_w, gf.to_wp
    found = []
    if with_cut:
        cond = N[:, wp_of][:, :, None] & N[w_of, :][None, :, :]
        _first_break(found, "(Cut)", cond, np.broadcast_to(N[:, None, :], cond.shape))
    _first_break(found, "(.L)", N[f.op[w_of[:, None], w_of[None, :]], :], N[w_of[a.prod], :])
    base, conseq = N[w_of, :], N[w_of[a.meet], :]
    for cond, law in ((base[:, None, :], "(^L0)"), (base[None, :, :], "(^L1)")):
        _first_break(found, law, np.broadcast_to(cond, conseq.shape), conseq)
    _first_break(found, "(^R)", N[:, wp_of][:, :, None] & N[:, wp_of][:, None, :],
                 N[:, wp_of[a.meet]])
    _first_break(found, "(vL)", N[w_of][:, None, :] & N[w_of][None, :, :], N[w_of[a.join], :])
    base, conseq = N[:, wp_of], N[:, wp_of[a.join]]
    for cond, law in ((base[:, :, None], "(vR0)"), (base[:, None, :], "(vR1)")):
        _first_break(found, law, np.broadcast_to(cond, conseq.shape), conseq)
    for side, alg_res, wit in (("\\", a.lres, f.lres_w), ("/", a.rres.T, f.rres_w.T)):
        _first_break(found, f"({side}R)", N.T[wit[w_of[:, None], wp_of[None, :]]],
                     N.T[wp_of[alg_res]])
    if not star:
        return found
    if f.zero_wp is not None:
        _first_break(found, "(0L)", np.broadcast_to(N[:, wp_of[a.zero]][:, None], N.shape), N)
    star_wp = wp_of[a.star]
    _first_break(found, "(*R1)", N[:, wp_of].T[:, :, None] & N[:, star_wp].T[:, None, :],
                 N[f.op[None, :, :], star_wp[:, None, None]])
    return found + [law for law in loop_gentzen_laws(gf, star=True) if law[0] == "(*L)"]


def broadcast_order_laws(a) -> list:
    """The transitivity, greatest-meet and least-join violations of a model,
    each at its first witness, found with boolean broadcasts over all element
    triples: the reference for the row tests of ``validate_algebra``."""
    le, found = a.le, []
    _first_break(found, "transitivity", le[:, :, None] & le[None, :, :], le[:, None, :])
    _first_break(found, "meet is greatest", le[:, :, None] & le[:, None, :], le[:, a.meet])
    _first_break(found, "join is least", le[:, None, :] & le[None, :, :], le[a.join, :])
    return found


def reference_dual(f) -> dict | None:
    """The closed sets of a frame and the tables of its dual algebra, as the
    former ``actlat.frames.dual_algebra`` built them: bool rows, subset tests
    by :func:`float32_within`, closed sets found by a dict of their rows.
    None when a residual lands outside the closed sets."""
    n = f.w_size
    closed = np.ones((1, n), dtype=bool)
    while True:
        grown = lexsort_distinct(np.concatenate(
            [closed, (closed[:, None, :] & f.n_rel.T[None, :, :]).reshape(-1, n)]))
        if len(grown) == len(closed):
            break
        closed = grown
    k = len(closed)
    index = {row.tobytes(): i for i, row in enumerate(closed)}

    def lookup(rows):
        return np.array([index.get(r.tobytes(), -1) for r in rows.reshape(-1, n)]).reshape(rows.shape[:-1])

    le = float32_within(closed, closed)
    out = {"closed": closed, "le": le, "meet": lookup(closed[:, None, :] & closed[None, :, :]),
           "join": (le[:, None, :] & le[None, :, :]).argmax(axis=-1)}
    for name, op in (("lres", f.op), ("rres", f.op.T)):
        found = lookup(float32_within(closed, closed[:, op.T].reshape(-1, n)).reshape(k, k, n))
        if (found < 0).any():
            return None
        out[name] = found if name == "lres" else found.T
    out["prod"] = le[:, out["rres"].T].argmax(axis=-1)
    out["elements"] = tuple("{" + ",".join(f.w_names[i] for i in np.flatnonzero(m)) + "}"
                            for m in closed)
    return out
