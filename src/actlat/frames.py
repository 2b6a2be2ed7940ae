"""Finite residuated frames and their dual algebras.

A frame is a two-sorted structure: a monoid on one sort, a relation into the
other, and residual witnesses making the relation nuclear.  The polarities of
the relation form a Galois connection whose composite is a nucleus; its
closed sets, with the induced operations, are the dual algebra, which is a
complete residuated lattice and (for star frames) a star-continuous action
lattice.

A subset of a sort is a row of packed bits, 64 elements a uint64 word
(:func:`models.pack`), and a family of subsets an array of such rows.  Every
subset test is word-wise, (X & ~Y) == 0 (:func:`models.outside`), in blocks
of bounded size: polars, closures, the order and residuals of the dual, and
the Gentzen-frame laws over triples, each a test of rows per pair.  The basic
closed sets are the columns of the relation; every closed set is an
intersection of basic ones, so the closed sets are enumerated by intersecting
rows with the basics until no new row appears.  A row's words are its key
(:func:`_keys`), so the distinct rows are a unique over keys, and a set known
to be closed (a meet, a residual of a nuclear frame) is found by its key.
(.R), (\\L) and (/L) quantify over two related pairs; :func:`_broken_rows`
tests them the same way, per pair of the first, the packed rows of the
second relation against rows of the law.  Frame satisfaction of an analytic
quasiequation is one such test per valuation of its product variables: the
packed row of the conclusion's product must contain the meet of the
premises' rows.

Frames, Gentzen frames and dual algebras are immutable values, as models are:
frozen dataclasses over read-only tables.  Each fact derived from one (a
model's frame, a frame's packed relation, nuclear report and dual, a Gentzen
frame's star-Gentzen report) is computed once and kept on it, so
:func:`macneille` reuses an audit's work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import models
from .models import (FiniteActionLattice, _open_grids, holds_quasieq, kept, outside, pack,
                     read_only, residuation_law, star_table, subset_law, validate_algebra)
from .rules import Quasiequation, is_analytic_quasiequation, product_vars

CLOSED_SET_CAP = 4096
BINARY_OPS = ("meet", "join", "prod", "lres", "rres")  # the tables the image maps must preserve


class FrameError(ValueError):
    pass


@dataclass(frozen=True)
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

    def __post_init__(self):
        read_only(self.n_rel, self.op, self.lres_w, self.rres_w)

    @property
    def w_size(self) -> int:
        return len(self.w_names)

    @property
    def wp_size(self) -> int:
        return len(self.wp_names)

    @cached_property
    def rows(self) -> np.ndarray:
        """The relation as packed rows: row x is {z : x N z}."""
        rows = pack(self.n_rel)
        read_only(rows)
        return rows

    @cached_property
    def cols(self) -> np.ndarray:
        """The relation as packed columns: row z is {x : x N z}."""
        cols = pack(self.n_rel.T)
        read_only(cols)
        return cols


@dataclass
class FrameReport:
    violations: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness: tuple) -> None:
        self.violations.append((law, witness))


def check_nuclear(f: ResiduatedFrame) -> FrameReport:
    """x.y N z iff y N x\\z iff x N z/y, over all triples, once per frame."""
    return FrameReport(list(kept(f, "_nuclear", _check_nuclear).violations))


def _check_nuclear(f: ResiduatedFrame) -> FrameReport:
    report = FrameReport()
    residuation_law(report, ("x.y N z iff y N x\\z", "x.y N z iff x N z/y"),
                    f.n_rel, f.op, f.lres_w, f.rres_w)
    return report


def polar_right(f: ResiduatedFrame, xs: np.ndarray) -> np.ndarray:
    """For each row of xs (a subset of W), the elements of W' related to all
    of it: the columns of the relation that contain it."""
    return ~outside(f.cols, pack(xs)[..., None, :])


def polar_left(f: ResiduatedFrame, zs: np.ndarray) -> np.ndarray:
    """For each row of zs (a subset of W'), the elements of W related to all
    of it: the rows of the relation that contain it."""
    return ~outside(f.rows, pack(zs)[..., None, :])


def gamma(f: ResiduatedFrame, xs: np.ndarray) -> np.ndarray:
    """The closure of each row of xs: the left polar of its right polar."""
    return polar_left(f, polar_right(f, xs))


def set_product(f: ResiduatedFrame, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The complex product {x.y : x in X, y in Y} of two subsets of W."""
    out = np.zeros(f.w_size, dtype=bool)
    out[f.op[np.ix_(xs, ys)]] = True
    return out


def _keys(words: np.ndarray) -> np.ndarray:
    """One key per packed row, ordered as the binary number whose bit x is
    column x: the row's one word, or its little-endian bytes read from the
    last, compared as one raw byte string."""
    if words.shape[-1] == 1:
        return words[..., 0]
    flat = words.reshape(-1, words.shape[-1]).view(np.uint8)[:, ::-1]
    keys = np.ascontiguousarray(flat).view(np.dtype((np.void, flat.shape[1])))
    return keys.reshape(words.shape[:-1])


def _distinct(words: np.ndarray) -> np.ndarray:
    """The distinct packed rows in the order of their :func:`_keys`, so a
    subset comes before its supersets."""
    return words[np.unique(_keys(words), return_index=True)[1]]


def _lookup(keys: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Index of each packed row of sets among the closed sets with the given
    sorted keys; -1 where a row is not closed.  The whole sort is closed and
    has the greatest key, so every row lands on some index."""
    probe = _keys(sets)
    found = np.searchsorted(keys, probe)
    return np.where(keys[found] == probe, found, -1)


def _locate(closed: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Index of the closure of each row of sets among the packed closed
    sets: the least closed set above it, which comes first among them
    because it is a subset of all of them."""
    return (~outside(closed, pack(sets)[..., None, :])).argmax(axis=-1)


@dataclass(frozen=True)
class DualStats:
    closed_sets: int = 0         # elements of the dual algebra
    rounds: int = 0              # intersection rounds, the last adding no set
    enumerate_seconds: float = 0.0
    tables_seconds: float = 0.0


@dataclass(frozen=True)
class DualAlgebra:
    """Closed sets with the induced operations, indexed for table lookups."""

    frame: ResiduatedFrame
    closed: np.ndarray                # (k, |W|) bool, in the order of the tables
    algebra: FiniteActionLattice      # explicit-table view of the same data
    stats: DualStats = field(default_factory=DualStats)

    def __post_init__(self):
        read_only(self.closed)

    @cached_property
    def packed(self) -> np.ndarray:
        """The closed sets as packed rows."""
        packed = pack(self.closed)
        read_only(packed)
        return packed


def dual_algebra(f: ResiduatedFrame) -> DualAlgebra:
    """Enumerate the closed sets and build the full operation tables, once per frame.

    Closed sets are ordered as by :func:`_distinct`, so the least one is
    first.  Products are read off the right residuals (X.Y <= Z iff
    X <= Z/Y), and star is the closure of the generated submonoid, grown in
    the algebra itself: by the nucleus law the closure of S u S.X is the join
    of the closure of S and its product with X.
    """
    return kept(f, "_dual", _dual_algebra)


def _dual_algebra(f: ResiduatedFrame) -> DualAlgebra:
    nuclear = check_nuclear(f)
    if not nuclear.ok:
        raise FrameError(f"frame is not nuclear: {nuclear.violations[0]}")
    start = time.perf_counter()
    n = f.w_size
    basics = f.cols
    bits = pack(np.ones((1, n), dtype=bool))
    rounds = 0
    while True:
        rounds += 1
        meets = (bits[:, None, :] & basics[None, :, :]).reshape(-1, bits.shape[1])
        grown = _distinct(np.concatenate([bits, meets]))
        if len(grown) > CLOSED_SET_CAP:
            raise FrameError(f"more than {CLOSED_SET_CAP} closed sets")
        if len(grown) == len(bits):
            break
        bits = grown
    k = len(bits)
    closed = np.unpackbits(bits.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    enumerated = time.perf_counter()
    keys = _keys(bits)

    le = ~outside(bits[None, :], bits[:, None])
    # an intersection of closed sets is closed, so it is found by its key; a
    # join is the first closed set above both, as :func:`_locate` reads it
    meet = _lookup(keys, bits[:, None] & bits[None, :])
    join = (le[:, None, :] & le[None, :, :]).argmax(axis=-1)

    def residual(op: np.ndarray) -> np.ndarray:
        # under[i, j, w]: X_i is inside {x : op[x, w] in X_j}, the packed
        # row (j, w) of closed[:, op.T]
        under = ~outside(pack(closed.take(op.T, axis=1)), bits[:, None, None])
        found = _lookup(keys, pack(under))
        if (found < 0).any():
            raise FrameError("a residual landed outside the closed sets; frame is not nuclear")
        return found

    # X \ Y = {w : X . {w} <= Y}, Y / X = {w : {w} . X <= Y}
    lres, rres = residual(f.op), residual(f.op.T).T
    # prod[i, j]: the first c with X_i <= X_c / X_j
    prod = le.take(rres.T, axis=1).argmax(axis=-1)

    eps = np.zeros(n, dtype=bool)
    eps[f.eps] = True
    one = int(_locate(bits, eps))
    rows, members = np.nonzero(closed)  # each closed set's name lists its members
    names = [f.w_names[x] for x in members.tolist()]
    cuts = np.searchsorted(rows, np.arange(k + 1)).tolist()
    algebra = FiniteActionLattice(
        name=f"{f.name}+",
        elements=tuple("{" + ",".join(names[lo:hi]) + "}" for lo, hi in zip(cuts, cuts[1:])),
        le=le, meet=meet, join=join, prod=prod, lres=lres, rres=rres,
        star=star_table(join, prod, one), zero=0, one=one,
    )
    stats = DualStats(k, rounds, enumerated - start, time.perf_counter() - enumerated)
    return DualAlgebra(f, closed, algebra, stats)


# ---------------------------------------------------------------------------
# Gentzen frames: a frame together with an algebra embedded in both sorts.


@dataclass(frozen=True)
class GentzenFrame:
    frame: ResiduatedFrame
    algebra: FiniteActionLattice
    to_w: np.ndarray    # carrier -> W index
    to_wp: np.ndarray   # carrier -> W' index

    def __post_init__(self):
        read_only(self.to_w, self.to_wp)


def frame_of_algebra(a: FiniteActionLattice) -> GentzenFrame:
    """The frame of an algebra over itself, once per model: both sorts are
    the carrier, the relation is the order, witnesses are the residuals.
    The frame shares the model's read-only tables."""
    return kept(a, "_frame", _frame_of_algebra)


def _frame_of_algebra(a: FiniteActionLattice) -> GentzenFrame:
    frame = ResiduatedFrame(name=f"W[{a.name}]", w_names=a.elements, wp_names=a.elements,
                            n_rel=a.le, op=a.prod, eps=a.one, lres_w=a.lres, rres_w=a.rres,
                            zero_wp=a.zero)
    ident = np.arange(a.size)
    return GentzenFrame(frame, a, ident, ident)


def _broken_rows(P, Q, f, g, R) -> np.ndarray:
    """Entry a is true when some x with P[a, x] and some (b, y) with Q[b, y]
    have R[f[a, b], g[x, y]] false: when, for some pair (a, x) with P[a, x],
    some packed row b of Q is not inside the row (x, f[a, b]) of U, where
    U[x, c] = {y : R[c, g[x, y]]}.  U is built, and the pairs' rows of U
    gathered, in blocks of at most BIT_BLOCK_BYTES."""
    rows = pack(Q)
    u = np.empty((len(g), len(R), rows.shape[-1]), dtype=rows.dtype)
    step = max(1, models.BIT_BLOCK_BYTES // g[0].size // len(R))
    for lo in range(0, len(g), step):
        u[lo:lo + step] = pack(R.T[g[lo:lo + step]].transpose(0, 2, 1))
    pa, px = np.nonzero(P)
    step = max(1, models.BIT_BLOCK_BYTES // max(8, rows.nbytes))
    out = np.zeros(len(P), dtype=bool)
    for lo in range(0, len(pa), step):
        a, x = pa[lo:lo + step], px[lo:lo + step]
        out[a[outside(u[x[:, None], f[a]], rows).any(axis=1)]] = True
    return out


def _first_break(P, Q, f, g, R):
    """None, or the first a that :func:`_broken_rows` finds broken, the x with
    P[a, x], and bad[i, y, b]: Q[b, y] and not R[f[a, b], g[xs[i], y]]."""
    broken = _broken_rows(P, Q, f, g, R)
    if not broken.any():
        return None
    a = int(broken.argmax())
    xs = np.flatnonzero(P[a])
    return a, xs, Q.T[None, :, :] & ~R[f[a]].T[g[xs]]


def check_gentzen(gf: GentzenFrame, with_cut: bool = True) -> FrameReport:
    """The interaction laws between the relation and the algebra operations
    (identity, the two-sided rules for every connective, unit laws, and
    optionally cut), each checked over its whole table of element tuples:
    a law over triples tests packed rows of N (``Nb``) or of its transpose
    (``Cb``) per pair.  (.R), (\\L) and (/L) find the broken algebra elements
    with :func:`_broken_rows` and read the first witness off the first one."""
    f, a = gf.frame, gf.algebra
    report = FrameReport()
    N = f.n_rel
    w_of, wp_of = gf.to_w, gf.to_wp
    Nb, Cb = f.rows, f.cols
    Nw, C = Nb[w_of], Cb[wp_of]
    # (Id)
    if not N[w_of, wp_of].all():
        report.add("(Id)", (int(np.flatnonzero(~N[w_of, wp_of])[0]),))
    # (Cut): x N a and a N z implies x N z
    if with_cut:
        subset_law(report, "(Cut)", Nb[:, None], Nw[None, :], where=N[:, wp_of])
    # (1L): eps N z -> 1 N z ; (1R): eps N 1
    one_l = ~N[f.eps, :] | N[w_of[a.one], :]
    if not one_l.all():
        report.add("(1L)", (int(np.flatnonzero(~one_l)[0]),))
    if not N[f.eps, wp_of[a.one]]:
        report.add("(1R)", ())
    # (.L): a o b N z -> a.b N z
    subset_law(report, "(.L)", Nw[a.prod], Nb[f.op[np.ix_(w_of, w_of)]])
    # (.R): x N a and y N b -> x o y N a.b
    B = N[:, wp_of].T
    if found := _first_break(B, B, a.prod, f.op, B):
        ai, xs, bad = found
        xi, y, bi = (int(v) for v in np.argwhere(bad)[0])
        report.add("(.R)", (int(xs[xi]), y, ai, bi))
    # (^L0)/(^L1): a_i N z -> a0 ^ a1 N z
    subset_law(report, "(^L0)", Nw[a.meet], Nw[:, None])
    subset_law(report, "(^L1)", Nw[a.meet], Nw[None, :])
    # (^R): x N a and x N b -> x N a ^ b
    subset_law(report, "(^R)", C[a.meet], C[:, None], C[None, :], member_first=True)
    # (vL): a N z and b N z -> a v b N z
    subset_law(report, "(vL)", Nw[a.join], Nw[:, None], Nw[None, :])
    # (vR0)/(vR1): x N a_i -> x N a0 v a1
    subset_law(report, "(vR0)", C[a.join], C[:, None], member_first=True)
    subset_law(report, "(vR1)", C[a.join], C[None, :], member_first=True)
    # (\L): x N a and b N z -> a\b N x lres z   (a, b algebra; x in W, z in W')
    # (\R): x N a \ b (witness) -> x N a\b
    # (/L): x N a and b N z -> b/a N z rres x, and (/R): x N b / a (witness)
    # -> x N b/a, are the same laws read through the transposed right
    # residual tables.
    for side, alg_res, wit in (("\\", a.lres, f.lres_w), ("/", a.rres.T, f.rres_w.T)):
        if found := _first_break(B, N[w_of], alg_res, wit, N[w_of]):
            ai, xs, bad = found
            bi, xi, z = (int(v) for v in np.argwhere(bad.transpose(2, 0, 1))[0])
            report.add(f"({side}L)", (ai, bi, int(xs[xi]), z))
        subset_law(report, f"({side}R)", C[alg_res], Cb[wit[np.ix_(w_of, wp_of)]])
    return report


def check_star_gentzen(gf: GentzenFrame, with_cut: bool = True) -> FrameReport:
    """Gentzen laws plus the zero and star laws; the infinitary star premise
    family is checked over one full power cycle of each element.  Checked once
    per Gentzen frame and value of with_cut; each call gets its own report."""
    report = kept(gf, f"_star_gentzen_{with_cut}", _star_gentzen, with_cut)
    return FrameReport(list(report.violations))


def _star_gentzen(gf: GentzenFrame, with_cut: bool) -> FrameReport:
    report = check_gentzen(gf, with_cut)
    f, a = gf.frame, gf.algebra
    N, Nb = f.n_rel, f.rows
    w_of, wp_of = gf.to_w, gf.to_wp
    # (0L): x N 0 -> x N z for all z
    if f.zero_wp is None:
        report.add("(0L)", ("frame has no zero constant",))
    else:
        every = pack(np.ones((1, f.wp_size), dtype=bool))
        subset_law(report, "(0L)", Nb, every, where=N[:, wp_of[a.zero]])
    # (*R0): eps N a*
    star_wp = wp_of[a.star]
    if not N[f.eps, star_wp].all():
        report.add("(*R0)", (int(np.flatnonzero(~N[f.eps, star_wp])[0]),))
    # (*R1): x N a and y N a* -> x o y N a*; over the distinct stars s, the
    # packed row (s, x) of after is {y : x o y N s}
    stars = np.flatnonzero(np.bincount(star_wp, minlength=f.wp_size))
    after = pack(N.T[stars].take(f.op, axis=1))[np.searchsorted(stars, star_wp)]
    subset_law(report, "(*R1)", after, f.cols[star_wp][:, None], where=N[:, wp_of].T)
    # (*L): (a^(n) N z for all n) -> a* N z, over the powers of all elements
    # at once, until every element's next power is one it has had
    rows, power = np.arange(a.size), np.full(a.size, f.eps)
    seen = np.zeros((a.size, f.w_size), dtype=bool)
    holds_all = np.ones((a.size, f.wp_size), dtype=bool)
    while not seen[rows, power].all():
        seen[rows, power] = True
        holds_all &= N[power]
        power = f.op[power, w_of]
    subset_law(report, "(*L)", Nb[w_of[a.star]], pack(holds_all))
    return report


def quasimorphism_check(gf: GentzenFrame, dual: DualAlgebra) -> FrameReport:
    """The set-valued map a -> {closed X : a in X, X below the polar of a}
    preserves the constants and every operation up to inclusion."""
    report = FrameReport()
    f, a = gf.frame, gf.algebra
    alg = dual.algebra
    # members[ai, i]: closed set i belongs to the image of ai
    inside = ~outside(f.cols[gf.to_wp], dual.packed[:, None])
    members = dual.closed[:, gf.to_w].T & inside.T
    if not members[a.one, alg.one]:
        report.add("unit membership", (int(alg.one),))
    if f.zero_wp is not None:
        zero_set = int(_locate(dual.packed, f.n_rel[:, f.zero_wp]))
        if not members[a.zero, zero_set]:
            report.add("zero membership", (zero_set,))
    # all member pairs (ai, x) against all (bi, y), in blocks of whole rows ai
    # of about models._BLOCK_CELLS pairs; a witness is the least (ai, bi, x, y)
    pa, px = np.nonzero(members)
    step = max(1, models._BLOCK_CELLS * a.size // max(1, len(pa)) ** 2)
    starts = np.searchsorted(pa, np.arange(0, a.size + step, step))
    for law in BINARY_OPS:
        alg_op, dual_op = getattr(a, law), getattr(alg, law)
        for lo, hi in zip(starts[:-1], starts[1:]):
            r, q = np.nonzero(~members[alg_op[pa[lo:hi, None], pa], dual_op[px[lo:hi, None], px]])
            if len(r):
                r += lo
                first = np.lexsort((px[q], px[r], pa[q], pa[r]))[0]
                i, j = r[first], q[first]
                report.add(law, (int(pa[i]), int(pa[j]), int(px[i]), int(px[j])))
                return report
    bad = members & ~members[a.star][:, alg.star]
    if bad.any():
        report.add("star", tuple(int(v) for v in np.argwhere(bad)[0]))
    return report


def embedding_check(gf: GentzenFrame, dual: DualAlgebra) -> FrameReport:
    """a -> closure of a is a homomorphism; an embedding when the relation is
    antisymmetric.  The image of an element is the basic closed set of its
    W' counterpart (for an algebra frame, its down-set)."""
    report = FrameReport()
    f, a = gf.frame, gf.algebra
    alg = dual.algebra
    image = _locate(dual.packed, f.n_rel[:, gf.to_wp].T)
    for law in BINARY_OPS:
        got = getattr(alg, law)[image[:, None], image[None, :]]
        want = image[getattr(a, law)]
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
    if antisym and len(set(image.tolist())) != a.size:
        report.add("injectivity", ())
    return report


# ---------------------------------------------------------------------------
# Frame satisfaction of analytic quasiequations and its transfer to duals.


def frame_satisfies_q(f: ResiduatedFrame, q: Quasiequation) -> bool:
    return frame_q_counterexample(f, q) is None


def frame_q_counterexample(f: ResiduatedFrame, q: Quasiequation):
    """Exhaustive valuation of the product variables into the monoid sort:
    at each, the packed row of the conclusion's product must contain the
    meet of the premises' rows, or the whole of W' without premises.  The
    witness is the first valuation, over the variables in sorted order, and
    the least z of the second sort that breaks it."""
    if not is_analytic_quasiequation(q):
        raise FrameError("frame satisfaction is defined for analytic quasiequations")
    names = sorted(set(product_vars(q.conclusion.lhs)))
    n = f.w_size
    if n ** len(names) * f.wp_size > 64_000_000:
        raise FrameError(
            f"frame satisfaction over {len(names)} product variables on "
            f"{n} elements exceeds the exhaustive budget"
        )
    grids = {name: plain for name, (plain, _) in zip(names, _open_grids(n, len(names)))}

    def row(term):
        # start from the first variable: a frame's eps need not be a unit
        word = product_vars(term)
        out = grids[word[0]] if word else f.eps
        for v in word[1:]:
            out = f.op[out, grids[v]]
        return f.rows[out]

    # the conclusion holds every variable, so its rows span the grid (given
    # one axis when there is none); no premises meet to the whole of W'
    premises = [row(p.lhs) for p in q.premises] or [pack(np.ones((1, f.wp_size), dtype=bool))]
    report = FrameReport()
    subset_law(report, "satisfaction", np.atleast_2d(row(q.conclusion.lhs)), *premises)
    if report.ok:
        return None
    *at, z = report.violations[0][1]
    return tuple(sorted({**dict(zip(names, at)), q.conclusion.rhs.name: z}.items()))


@dataclass
class TransferReport:
    quasiequation: Quasiequation
    frame_holds: bool
    dual_holds: bool

    @property
    def ok(self) -> bool:
        return self.frame_holds == self.dual_holds


def verify_transfer(f: ResiduatedFrame, q: Quasiequation, dual: DualAlgebra) -> TransferReport:
    """The frame satisfies an analytic quasiequation exactly when its dual
    algebra does."""
    return TransferReport(q, frame_satisfies_q(f, q), holds_quasieq(dual.algebra, q))


# ---------------------------------------------------------------------------
# Completion of a finite algebra through its frame.


@dataclass
class CompletionResult:
    gentzen: GentzenFrame
    dual: DualAlgebra
    embedding: FrameReport
    is_isomorphism: bool
    star_gentzen: FrameReport


def macneille(a: FiniteActionLattice) -> CompletionResult:
    """The algebra's own frame, its star-Gentzen laws, its dual algebra and
    the down-set embedding into it; on a finite algebra the embedding is
    onto.  The embedding check tests injectivity, as the order of a valid
    algebra is antisymmetric.  All but the embedding are facts kept on the
    model and its frames, so an earlier audit's are reused."""
    report = validate_algebra(a)
    if not report.ok:
        raise FrameError(f"not a valid algebra: {report.violations[0]}")
    gf = frame_of_algebra(a)
    star_report = check_star_gentzen(gf, with_cut=True)
    dual = dual_algebra(gf.frame)
    embedding = embedding_check(gf, dual)
    return CompletionResult(gf, dual, embedding, embedding.ok and a.size == len(dual.closed),
                            star_report)
