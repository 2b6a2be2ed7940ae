"""Finite residuated frames and their dual algebras.

A frame is a two-sorted structure: a monoid on one sort, a relation into the
other, and residual witnesses making the relation nuclear.  The polarities of
the relation form a Galois connection whose composite is a nucleus; its
closed sets, with the induced operations, are the dual algebra, which is a
complete residuated lattice and (for star frames) a star-continuous action
lattice.

Subsets of the monoid sort are represented as int bitmasks; closed sets are
enumerated as intersections of the basic closed sets (one per element of the
second sort), which is exhaustive because every closure is such an
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import FiniteActionLattice, holds_quasieq, validate_algebra
from .rules import Quasiequation, is_analytic_quasiequation
from .syntax import Formula, One, Prod, Var

CLOSED_SET_CAP = 4096


class FrameError(ValueError):
    pass


@dataclass
class ResiduatedFrame:
    name: str
    w_names: tuple[str, ...]
    wp_names: tuple[str, ...]
    n_rel: np.ndarray       # (|W|, |W'|) bool
    op: np.ndarray          # (|W|, |W|) int
    eps: int
    lres_w: np.ndarray      # (|W|, |W'|) int into W'; witness for x \\ z
    rres_w: np.ndarray      # (|W'|, |W|) int into W'; witness for z / y
    zero_wp: int | None = None  # W' element interpreting the least constant

    @property
    def w_size(self) -> int:
        return len(self.w_names)

    @property
    def wp_size(self) -> int:
        return len(self.wp_names)


@dataclass
class FrameReport:
    violations: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness: tuple) -> None:
        self.violations.append((law, witness))


def check_nuclear(f: ResiduatedFrame) -> FrameReport:
    """x.y N z iff y N x\\z iff x N z/y, over all triples."""
    report = FrameReport()
    n, m = f.w_size, f.wp_size
    lhs = f.n_rel[f.op[:, :, None], np.arange(m)[None, None, :]]
    via_l = f.n_rel[np.arange(n)[None, :, None],
                    f.lres_w[np.arange(n)[:, None, None], np.arange(m)[None, None, :]]]
    via_r = f.n_rel[np.arange(n)[:, None, None],
                    f.rres_w[np.arange(m)[None, None, :], np.arange(n)[None, :, None]]]
    if not (lhs == via_l).all():
        report.add("x.y N z iff y N x\\z", tuple(int(v) for v in np.argwhere(lhs != via_l)[0]))
    if not (lhs == via_r).all():
        report.add("x.y N z iff x N z/y", tuple(int(v) for v in np.argwhere(lhs != via_r)[0]))
    return report


def _mask_of(indices, size: int) -> int:
    out = 0
    for i in indices:
        out |= 1 << int(i)
    return out


def _indices(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class FrameSets:
    """Bitmask views of the polarities and the basic closed sets."""

    def __init__(self, f: ResiduatedFrame):
        self.frame = f
        self.rows = [_mask_of(np.flatnonzero(f.n_rel[x]), f.wp_size) for x in range(f.w_size)]
        self.cols = [_mask_of(np.flatnonzero(f.n_rel[:, z]), f.w_size) for z in range(f.wp_size)]
        self.full_w = (1 << f.w_size) - 1
        self.full_wp = (1 << f.wp_size) - 1

    def polar_right(self, x_mask: int) -> int:
        """All second-sort elements related to everything in the set."""
        out = self.full_wp
        for x in _indices(x_mask):
            out &= self.rows[x]
        return out

    def polar_left(self, z_mask: int) -> int:
        out = self.full_w
        for z in _indices(z_mask):
            out &= self.cols[z]
        return out

    def gamma(self, x_mask: int) -> int:
        return self.polar_left(self.polar_right(x_mask))

    def set_product(self, x_mask: int, y_mask: int) -> int:
        op = self.frame.op
        out = 0
        for x in _indices(x_mask):
            for y in _indices(y_mask):
                out |= 1 << int(op[x, y])
        return out


def triangles(f: ResiduatedFrame, x_indices) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(right polar of the set, its closure) as index tuples."""
    sets = FrameSets(f)
    mask = _mask_of(x_indices, f.w_size)
    right = sets.polar_right(mask)
    return tuple(_indices(right)), tuple(_indices(sets.polar_left(right)))


def gamma(f: ResiduatedFrame, x_indices) -> tuple[int, ...]:
    sets = FrameSets(f)
    return tuple(_indices(sets.gamma(_mask_of(x_indices, f.w_size))))


@dataclass
class DualAlgebra:
    """Closed sets with the induced operations, indexed for table lookups."""

    frame: ResiduatedFrame
    closed: list[int]                 # bitmasks, sorted
    index: dict[int, int]
    algebra: FiniteActionLattice      # explicit-table view of the same data


def dual_algebra(f: ResiduatedFrame, name: str | None = None) -> DualAlgebra:
    """Enumerate the closed sets and build the full operation tables.

    Star is the closure of the generated submonoid; the least element is the
    closure of the empty join, which for star frames must coincide with the
    polar of the zero constant (checked by the caller via validation).
    """
    nuclear = check_nuclear(f)
    if not nuclear.ok:
        raise FrameError(f"frame is not nuclear: {nuclear.violations[0]}")
    sets = FrameSets(f)
    basics = sorted({sets.cols[z] for z in range(f.wp_size)})
    closed = {sets.full_w}
    frontier = [sets.full_w]
    while frontier:
        cur = frontier.pop()
        for b in basics:
            nxt = cur & b
            if nxt not in closed:
                closed.add(nxt)
                frontier.append(nxt)
                if len(closed) > CLOSED_SET_CAP:
                    raise FrameError(f"more than {CLOSED_SET_CAP} closed sets")
    order = sorted(closed)
    index = {m: i for i, m in enumerate(order)}
    k = len(order)

    prodset: list[dict[int, int]] = [dict() for _ in range(f.w_size)]

    def set_product(x_mask: int, y_idx: int) -> int:
        out = 0
        for x in _indices(x_mask):
            table = prodset[x]
            if y_idx not in table:
                acc = 0
                for y in _indices(order[y_idx]):
                    acc |= 1 << int(f.op[x, y])
                table[y_idx] = acc
            out |= table[y_idx]
        return out

    le = np.zeros((k, k), dtype=bool)
    meet = np.zeros((k, k), dtype=int)
    join = np.zeros((k, k), dtype=int)
    prod = np.zeros((k, k), dtype=int)
    lres = np.zeros((k, k), dtype=int)
    rres = np.zeros((k, k), dtype=int)
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            le[i, j] = x & ~y == 0
            meet[i, j] = index[x & y]
            join[i, j] = index[sets.gamma(x | y)]
            prod[i, j] = index[sets.gamma(set_product(x, j))]
    # residuals: X \ Y = {w : X . {w} <= Y}, Y / X = {w : {w} . X <= Y}
    left_products = np.zeros((f.w_size, k), dtype=object)
    right_products = np.zeros((f.w_size, k), dtype=object)
    for w in range(f.w_size):
        for i, x in enumerate(order):
            acc_l = 0
            acc_r = 0
            for xx in _indices(x):
                acc_l |= 1 << int(f.op[xx, w])
                acc_r |= 1 << int(f.op[w, xx])
            left_products[w, i] = acc_l   # X . {w}
            right_products[w, i] = acc_r  # {w} . X
    for i in range(k):
        for j, y in enumerate(order):
            acc = 0
            for w in range(f.w_size):
                if left_products[w, i] & ~y == 0:
                    acc |= 1 << w
            lres[i, j] = index.get(acc, -1)
            acc = 0
            for w in range(f.w_size):
                if right_products[w, i] & ~y == 0:
                    acc |= 1 << w
            rres[j, i] = index.get(acc, -1)
    if (lres < 0).any() or (rres < 0).any():
        raise FrameError("a residual landed outside the closed sets; frame is not nuclear")

    # star: closure of the generated submonoid (the empty product included)
    star = np.zeros(k, dtype=int)
    for i, x in enumerate(order):
        sub = 1 << f.eps
        while True:
            nxt = sub
            for w in _indices(sub):
                for y in _indices(x):
                    nxt |= 1 << int(f.op[w, y])
            if nxt == sub:
                break
            sub = nxt
        star[i] = index[sets.gamma(sub)]

    one = index[sets.gamma(1 << f.eps)]
    # the least closed set is the intersection of all of them
    inter = sets.full_w
    for m in order:
        inter &= m
    zero = index[inter]
    algebra = FiniteActionLattice(
        name=name or f"{f.name}+",
        elements=tuple("{" + ",".join(f.w_names[i] for i in _indices(m)) + "}" for m in order),
        le=le, meet=meet, join=join, prod=prod, lres=lres, rres=rres,
        star=star, zero=zero, one=one,
    )
    return DualAlgebra(f, order, index, algebra)


# ---------------------------------------------------------------------------
# Gentzen frames: a frame together with an algebra embedded in both sorts.


@dataclass
class GentzenFrame:
    frame: ResiduatedFrame
    algebra: FiniteActionLattice
    to_w: np.ndarray    # carrier -> W index
    to_wp: np.ndarray   # carrier -> W' index


def frame_of_algebra(a: FiniteActionLattice) -> GentzenFrame:
    """The frame of an algebra over itself: both sorts are the carrier, the
    relation is the order, witnesses are the residuals."""
    n = a.size
    frame = ResiduatedFrame(
        name=f"W[{a.name}]",
        w_names=a.elements,
        wp_names=a.elements,
        n_rel=a.le.copy(),
        op=a.prod.copy(),
        eps=a.one,
        lres_w=a.lres.copy(),
        rres_w=a.rres.copy(),
        zero_wp=a.zero,
    )
    ident = np.arange(n)
    return GentzenFrame(frame, a, ident, ident)


def _quantify_pairs(cond, conseq, report, law):
    bad = cond & ~conseq
    if bad.any():
        report.add(law, tuple(int(v) for v in np.argwhere(bad)[0]))


def check_gentzen(gf: GentzenFrame, with_cut: bool = True) -> FrameReport:
    """The interaction laws between the relation and the algebra operations
    (identity, the two-sided rules for every connective, unit laws, and
    optionally cut), over all element tuples."""
    f, a = gf.frame, gf.algebra
    report = FrameReport()
    N = f.n_rel
    w_of = gf.to_w
    wp_of = gf.to_wp
    n = a.size
    wn = f.w_size
    # (Id)
    if not N[w_of, wp_of].all():
        report.add("(Id)", (int(np.flatnonzero(~N[w_of, wp_of])[0]),))
    # (Cut): x N a and a N z implies x N z
    if with_cut:
        cond = N[:, wp_of][:, :, None] & N[w_of, :][None, :, :]
        conseq = N[:, None, :]
        _quantify_pairs(cond, np.broadcast_to(conseq, cond.shape), report, "(Cut)")
    # (1L): eps N z -> 1 N z ; (1R): eps N 1
    one_l = ~N[f.eps, :] | N[w_of[a.one], :]
    if not one_l.all():
        report.add("(1L)", (int(np.flatnonzero(~one_l)[0]),))
    if not N[f.eps, wp_of[a.one]]:
        report.add("(1R)", ())
    # (.L): a o b N z -> a.b N z
    cond = N[f.op[w_of[:, None], w_of[None, :]], :]
    conseq = N[w_of[a.prod], :]
    _quantify_pairs(cond, conseq, report, "(.L)")
    # (.R): x N a and y N b -> x o y N a.b; chunked over a to bound memory
    B = N[:, wp_of]
    for ai in range(n):
        cond = B[:, ai][:, None, None] & B[None, :, :]
        got = N[f.op[:, :, None], wp_of[a.prod[ai]][None, None, :]]
        bad = cond & ~got
        if bad.any():
            x, y, bi = (int(v) for v in np.argwhere(bad)[0])
            report.add("(.R)", (x, y, ai, bi))
            break
    # (^L0)/(^L1): a_i N z -> a0 ^ a1 N z
    for side, law in ((0, "(^L0)"), (1, "(^L1)")):
        base = N[w_of, :]
        if side == 0:
            cond = base[:, None, :]
        else:
            cond = base[None, :, :]
        conseq = N[w_of[a.meet], :]
        _quantify_pairs(np.broadcast_to(cond, conseq.shape), conseq, report, law)
    # (^R): x N a and x N b -> x N a ^ b
    cond = N[:, wp_of][:, :, None] & N[:, wp_of][:, None, :]
    conseq = N[:, wp_of[a.meet]]
    _quantify_pairs(cond, conseq, report, "(^R)")
    # (vL): a N z and b N z -> a v b N z
    cond = N[w_of][:, None, :] & N[w_of][None, :, :]
    conseq = N[w_of[a.join], :]
    _quantify_pairs(cond, conseq, report, "(vL)")
    # (vR0)/(vR1): x N a_i -> x N a0 v a1
    for side, law in ((0, "(vR0)"), (1, "(vR1)")):
        base = N[:, wp_of]
        if side == 0:
            cond = base[:, :, None]
        else:
            cond = base[:, None, :]
        conseq = N[:, wp_of[a.join]]
        _quantify_pairs(np.broadcast_to(cond, conseq.shape), conseq, report, law)
    # (\L): x N a and b N z -> a\b N x lres z   (a, b algebra; x in W, z in W')
    lres_alg = w_of[a.lres]
    for ai in range(n):
        for bi in range(n):
            cond = N[:, wp_of[ai]][:, None] & N[w_of[bi], :][None, :]
            conseq = N[lres_alg[ai, bi], f.lres_w]
            bad = cond & ~conseq
            if bad.any():
                x, z = (int(v) for v in np.argwhere(bad)[0])
                report.add("(\\L)", (ai, bi, x, z))
                break
        else:
            continue
        break
    # (\R): x N a \ b (witness) -> x N a\b
    for ai in range(n):
        for bi in range(n):
            cond = N[:, f.lres_w[w_of[ai], wp_of[bi]]]
            conseq = N[:, wp_of[a.lres[ai, bi]]]
            bad = cond & ~conseq
            if bad.any():
                report.add("(\\R)", (ai, bi, int(np.flatnonzero(bad)[0])))
                break
        else:
            continue
        break
    # (/L): x N a and b N z -> b/a N z rres x
    rres_alg = w_of[a.rres]
    for ai in range(n):
        for bi in range(n):
            cond = N[:, wp_of[ai]][:, None] & N[w_of[bi], :][None, :]
            conseq = N[rres_alg[bi, ai], f.rres_w].T
            bad = cond & ~conseq
            if bad.any():
                x, z = (int(v) for v in np.argwhere(bad)[0])
                report.add("(/L)", (ai, bi, x, z))
                break
        else:
            continue
        break
    # (/R): x N b / a (witness) -> x N b/a
    for ai in range(n):
        for bi in range(n):
            cond = N[:, f.rres_w[wp_of[bi], w_of[ai]]]
            conseq = N[:, wp_of[a.rres[bi, ai]]]
            bad = cond & ~conseq
            if bad.any():
                report.add("(/R)", (ai, bi, int(np.flatnonzero(bad)[0])))
                break
        else:
            continue
        break
    return report


def check_star_gentzen(gf: GentzenFrame, with_cut: bool = True) -> FrameReport:
    """Gentzen laws plus the zero and star laws; the infinitary star premise
    family is checked over one full power cycle of each element."""
    report = check_gentzen(gf, with_cut)
    f, a = gf.frame, gf.algebra
    N = f.n_rel
    w_of, wp_of = gf.to_w, gf.to_wp
    # (0L): x N 0 -> x N z for all z
    if f.zero_wp is None:
        report.add("(0L)", ("frame has no zero constant",))
    else:
        cond = N[:, wp_of[a.zero]][:, None]
        conseq = N
        bad = np.broadcast_to(cond, N.shape) & ~conseq
        if bad.any():
            report.add("(0L)", tuple(int(v) for v in np.argwhere(bad)[0]))
    # (*R0): eps N a*
    star_wp = wp_of[a.star]
    if not N[f.eps, star_wp].all():
        report.add("(*R0)", (int(np.flatnonzero(~N[f.eps, star_wp])[0]),))
    # (*R1): x N a and y N a* -> x o y N a*
    for ai in range(a.size):
        cond = N[:, wp_of[ai]][:, None] & N[:, star_wp[ai]][None, :]
        conseq = N[f.op, star_wp[ai]]
        bad = cond & ~conseq
        if bad.any():
            x, y = (int(v) for v in np.argwhere(bad)[0])
            report.add("(*R1)", (ai, x, y))
            break
    # (*L): (a^(n) N z for all n) -> a* N z, powers over one cycle
    for ai in range(a.size):
        power = f.eps
        seen = set()
        holds_all = N[f.eps, :].copy()
        while power not in seen:
            seen.add(power)
            holds_all &= N[power, :]
            power = int(f.op[power, w_of[ai]])
        bad = holds_all & ~N[w_of[a.star[ai]], :]
        if bad.any():
            report.add("(*L)", (ai, int(np.flatnonzero(bad)[0])))
            break
    return report


def quasimorphism_check(gf: GentzenFrame, dual: DualAlgebra | None = None) -> FrameReport:
    """The set-valued map a -> {closed X : a in X, X below the polar of a}
    preserves the constants and every operation up to inclusion."""
    report = FrameReport()
    f, a = gf.frame, gf.algebra
    dual = dual or dual_algebra(f)
    alg = dual.algebra
    sets = FrameSets(f)
    n = a.size

    members: list[list[int]] = []
    for ai in range(n):
        polar = sets.cols[int(gf.to_wp[ai])]
        mine = [
            i for i, m in enumerate(dual.closed)
            if (m >> int(gf.to_w[ai])) & 1 and m & ~polar == 0
        ]
        members.append(mine)

    one_idx = alg.one
    if one_idx not in members[a.one]:
        report.add("unit membership", (int(one_idx),))
    if f.zero_wp is not None:
        zero_set = sets.cols[f.zero_wp]
        if dual.index[zero_set] not in members[a.zero]:
            report.add("zero membership", (dual.index[zero_set],))
    ops = {
        "meet": (a.meet, alg.meet),
        "join": (a.join, alg.join),
        "prod": (a.prod, alg.prod),
        "lres": (a.lres, alg.lres),
        "rres": (a.rres, alg.rres),
    }
    for law, (alg_op, dual_op) in ops.items():
        for ai in range(n):
            for bi in range(n):
                target = members[alg_op[ai, bi]]
                for x in members[ai]:
                    for y in members[bi]:
                        if int(dual_op[x, y]) not in target:
                            report.add(law, (ai, bi, x, y))
                            return report
    for ai in range(n):
        target = members[a.star[ai]]
        for x in members[ai]:
            if int(alg.star[x]) not in target:
                report.add("star", (ai, x))
                return report
    return report


def embedding_check(gf: GentzenFrame, dual: DualAlgebra | None = None) -> FrameReport:
    """a -> closure of a is a homomorphism; an embedding when the relation is
    antisymmetric."""
    report = FrameReport()
    f, a = gf.frame, gf.algebra
    dual = dual or dual_algebra(f)
    alg = dual.algebra
    sets = FrameSets(f)
    n = a.size
    image = np.array([dual.index[sets.cols[int(gf.to_wp[ai])]] for ai in range(n)])

    def expect(table, ai, bi):
        return image[table[ai, bi]]

    for law, (alg_op, dual_op) in {
        "meet": (a.meet, alg.meet),
        "join": (a.join, alg.join),
        "prod": (a.prod, alg.prod),
        "lres": (a.lres, alg.lres),
        "rres": (a.rres, alg.rres),
    }.items():
        got = dual_op[image[:, None], image[None, :]]
        want = image[alg_op]
        if not (got == want).all():
            report.add(f"homomorphism ({law})", tuple(int(v) for v in np.argwhere(got != want)[0]))
    if not (alg.star[image] == image[a.star]).all():
        report.add("homomorphism (star)", (int(np.flatnonzero(alg.star[image] != image[a.star])[0]),))
    if image[a.one] != alg.one:
        report.add("homomorphism (one)", ())
    if image[a.zero] != alg.zero:
        report.add("homomorphism (zero)", ())
    antisym = not (f.n_rel & f.n_rel.T & ~np.eye(f.w_size, dtype=bool)).any() \
        if f.w_size == f.wp_size else False
    if antisym and len(set(image.tolist())) != n:
        report.add("injectivity", ())
    return report


# ---------------------------------------------------------------------------
# Frame satisfaction of analytic quasiequations and its transfer to duals.


def _product_vars(term: Formula) -> list[str]:
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, One):
        return []
    if isinstance(term, Prod):
        return _product_vars(term.left) + _product_vars(term.right)
    raise FrameError(f"not a variable product: {term}")


def frame_satisfies_q(f: ResiduatedFrame, q: Quasiequation) -> bool:
    return frame_q_counterexample(f, q) is None


def frame_q_counterexample(f: ResiduatedFrame, q: Quasiequation):
    """Exhaustive valuation of the product variables into the monoid sort and
    the bound variable into the second sort."""
    if not is_analytic_quasiequation(q):
        raise FrameError("frame satisfaction is defined for analytic quasiequations")
    bound = q.conclusion.rhs.name
    names = sorted(set(_product_vars(q.conclusion.lhs)))
    terms = [_product_vars(p.lhs) for p in q.premises]
    concl = _product_vars(q.conclusion.lhs)
    n = f.w_size
    if n ** len(names) * f.wp_size > 64_000_000:
        raise FrameError(
            f"frame satisfaction over {len(names)} product variables on "
            f"{n} elements exceeds the exhaustive budget"
        )

    def eval_word(word, grids):
        out = None
        for v in word:
            cur = grids[v]
            out = cur if out is None else f.op[out, cur]
        if out is None:
            return np.full((), f.eps)
        return out

    k = len(names)
    grids = {}
    for axis, name in enumerate(names):
        shape = [1] * k
        shape[axis] = n
        grids[name] = np.arange(n).reshape(shape)
    # premise/conclusion values; broadcast against the bound variable axis
    concl_val = eval_word(concl, grids)
    ok = f.n_rel[concl_val][..., :]
    for word in terms:
        val = eval_word(word, grids)
        ok = ok | ~f.n_rel[val][..., :]
    if ok.all():
        return None
    idx = np.argwhere(~np.broadcast_to(ok, (n,) * k + (f.wp_size,)))[0]
    witness = {name: int(i) for name, i in zip(names, idx[:-1])}
    witness[bound] = int(idx[-1])
    return tuple(sorted(witness.items()))


@dataclass
class TransferReport:
    quasiequation: Quasiequation
    frame_holds: bool
    dual_holds: bool

    @property
    def ok(self) -> bool:
        return self.frame_holds == self.dual_holds


def verify_transfer(f: ResiduatedFrame, q: Quasiequation, dual: DualAlgebra | None = None) -> TransferReport:
    """The frame satisfies an analytic quasiequation exactly when its dual
    algebra does."""
    dual = dual or dual_algebra(f)
    return TransferReport(q, frame_satisfies_q(f, q), holds_quasieq(dual.algebra, q))


# ---------------------------------------------------------------------------
# Completion of a finite algebra through its frame.


@dataclass
class CompletionResult:
    gentzen: GentzenFrame
    dual: DualAlgebra
    embedding: np.ndarray
    is_isomorphism: bool
    star_gentzen: FrameReport


def macneille(a: FiniteActionLattice) -> CompletionResult:
    """Dual algebra of the algebra's own frame plus the down-set embedding;
    on a finite algebra the embedding is onto."""
    report = validate_algebra(a)
    if not report.ok:
        raise FrameError(f"not a valid algebra: {report.violations[0]}")
    gf = frame_of_algebra(a)
    star_report = check_star_gentzen(gf, with_cut=True)
    dual = dual_algebra(gf.frame, name=f"{a.name}^+")
    sets = FrameSets(gf.frame)
    embedding = np.array([dual.index[sets.cols[int(gf.to_wp[ai])]] for ai in range(a.size)])
    emb_report = embedding_check(gf, dual)
    iso = emb_report.ok and len(set(embedding.tolist())) == a.size == len(dual.closed)
    return CompletionResult(gf, dual, embedding, iso, star_report)


# ---------------------------------------------------------------------------
# The syntactic relation: membership is delegated to bounded proof search.


def syntactic_n(
    gamma_seq,
    ctx,
    user_rules=(),
    depth: int = 40,
    rules=None,
):
    """Does the calculus prove ``sigma_l, gamma, sigma_r |- alpha``?  Returns
    "proved" or "unknown"; never refutes."""
    from .search import SearchConfig, prove
    from .syntax import Sequent

    sigma_l, sigma_r, alpha = ctx
    goal = Sequent(tuple(sigma_l) + tuple(gamma_seq) + tuple(sigma_r), alpha)
    result = prove(goal, user_rules=user_rules, cfg=SearchConfig(depth=depth), rules=rules)
    return "proved" if result.found else "unknown"
