"""Finite action lattices as executable semantics.

A model is a finite carrier with explicit tables for the order, lattice
operations, monoid product, both residuals, and star.  Validation checks
every defining law exhaustively over whole tables, including
star-continuity: the star of each element must equal the join of its
finitely many distinct powers, walked for all elements at once.

Library models are built by one constructor from their order, lattice
tables and product: residuals are the greatest solutions of x.y <= z, found
for all fixed factors of one side in blocks of 64K cells, star the least
solution of x* = 1 | x*.x.  Relations and word sets are subsets of atoms
under a partial product, numbered by bitmask.

Validity queries evaluate formulas over all valuations at once.  Each model
keeps its tables raveled in the narrowest unsigned dtype that holds n*n,
once plain and once times n, so a binary connective (and the order) costs
one add of the times-n left operand to the right one and one flat ``take``.
The grid is walked in blocks of the first variable of at most 64K cells, so
index arrays stay small; within a block, and across one proof search's
pruning queries, each subformula is evaluated once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .rules import Inequation, Quasiequation, classify, q_a_of, q_of, qe_to_equation
from .syntax import (
    Formula,
    Join,
    LRes,
    Meet,
    One,
    Prod,
    RRes,
    Sequent,
    Star,
    Var,
    Zero,
    variables,
)

_GRID_LIMIT = 4_000_000   # beyond VAR_CAP variables, grids above this are refused
_BLOCK_CELLS = 1 << 16    # cells per block of the query kernel, the residual search and
                          # the member pairs of frames.quasimorphism_check
BIT_BLOCK_BYTES = 1 << 18  # bytes per temporary of a packed subset test
VAR_CAP = 4


class ModelError(ValueError):
    pass


def read_only(*tables: np.ndarray) -> None:
    """Forbid writes into the given tables."""
    for t in tables:
        t.setflags(write=False)


def kept(obj, key: str, make, *args):
    """make(obj, *args), computed on first use and kept on obj under key: a
    fact of an immutable object (a frozen dataclass with read-only tables)."""
    memo = obj.__dict__
    if key not in memo:
        memo[key] = make(obj, *args)
    return memo[key]


def pack(rows: np.ndarray) -> np.ndarray:
    """Bool rows as packed bits, the form of every subset test: column x is
    bit x % 64 of little-endian uint64 word x // 64; padding bits are 0."""
    pad = -rows.shape[-1] % 64
    rows = np.concatenate((rows, np.zeros(rows.shape[:-1] + (pad,), dtype=bool)), axis=-1) \
        if pad else np.ascontiguousarray(rows)
    return np.packbits(rows, axis=-1, bitorder="little").view("<u8")


def outside(ys: np.ndarray, *xs: np.ndarray) -> np.ndarray:
    """Where the meet of the packed rows xs has a member outside the packed
    row ys, over the leading axes they broadcast to (at least one), one word
    at a time in blocks of the first axis of at most BIT_BLOCK_BYTES per
    temporary.  The padding bits of ~ys are set, those of xs are not."""
    shape = np.broadcast(ys, *xs).shape
    step = max(1, BIT_BLOCK_BYTES // max(8, 8 * math.prod(shape[1:-1])))
    if step < shape[0]:  # by blocks; an operand short of the first axis is used whole
        cut = [t.ndim == len(shape) and len(t) > 1 for t in (ys, *xs)]
        return np.concatenate([outside(*(t[lo:lo + step] if c else t for t, c in zip((ys, *xs), cut)))
                               for lo in range(0, shape[0], step)])
    for w in range(shape[-1]):
        part = reduce(np.bitwise_and, [x[..., w] for x in xs], ~ys[..., w])
        out = part if w == 0 else out | part
    return out != 0


def subset_law(report, law: str, ys: np.ndarray, *xs: np.ndarray, where=None, member_first=False):
    """Report law at its first break, an index where ``where`` holds and the
    meet of xs is not inside ys (:func:`outside`): the first such index and
    its least member outside ys, or with member_first the least such member
    at any of them and its first index, as (member, *index)."""
    bad = outside(ys, *xs)
    if where is not None:
        bad &= where
    if np.count_nonzero(bad):
        at, shape = np.nonzero(bad), bad.shape + ys.shape[-1:]
        part = reduce(np.bitwise_and, (np.broadcast_to(x, shape)[at] for x in xs),
                      ~np.broadcast_to(ys, shape)[at])
        member = np.unpackbits(part.view(np.uint8), axis=-1, bitorder="little").argmax(axis=-1)
        i = int(member.argmin()) if member_first else 0
        index = tuple(int(v[i]) for v in at)
        report.add(law, (int(member[i]),) + index if member_first else index + (int(member[i]),))


@dataclass(frozen=True)
class FiniteActionLattice:
    """A finite action lattice given by its tables over elements 0..n-1.

    A model is immutable, its tables read-only, so each fact derived from
    it (validation, frame, the tables the queries read) is kept on it.  To
    change a table, build a new model, as ``dataclasses.replace`` does.
    """

    name: str
    elements: tuple[str, ...]
    le: np.ndarray          # (n, n) bool
    meet: np.ndarray        # (n, n) int
    join: np.ndarray        # (n, n) int
    prod: np.ndarray        # (n, n) int
    lres: np.ndarray        # (n, n) int;  lres[x, z] = x \ z
    rres: np.ndarray        # (n, n) int;  rres[z, y] = z / y
    star: np.ndarray        # (n,) int
    zero: int
    one: int

    def __post_init__(self):
        read_only(self.le, self.meet, self.join, self.prod, self.lres, self.rres, self.star)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def tables(self) -> _Tables:
        """The tables in the form the validity queries read."""
        return _Tables(self)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.le[x, y])


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.law} fails at {self.witness}"


@dataclass
class AlgebraReport:
    violations: list[LawViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness: tuple) -> None:
        self.violations.append(LawViolation(law, witness))


def _first_bad(mask: np.ndarray) -> tuple:
    idx = np.argwhere(~mask)
    return tuple(int(v) for v in idx[0])


def residuation_law(report, laws: tuple[str, str], rel: np.ndarray, op: np.ndarray,
                    lres: np.ndarray, rres: np.ndarray) -> None:
    """x.y rel z iff y rel lres[x, z] iff x rel rres[z, y], over all triples
    (x, y, z): report each of the two laws at its first broken triple.  For
    a model rel is its order, for a frame its relation."""
    lhs = rel[op]
    for law, via in zip(laws, (rel[:, lres].transpose(1, 0, 2), rel[:, rres.T])):
        if not (lhs == via).all():
            report.add(law, tuple(int(v) for v in np.argwhere(lhs != via)[0]))


def validate_algebra(a: FiniteActionLattice) -> AlgebraReport:
    """Check every defining law, reporting one witness per broken law.  The
    laws are checked once per model; each call gets its own report."""
    return AlgebraReport(list(kept(a, "_validation", _validate_algebra).violations))


def _validate_algebra(a: FiniteActionLattice) -> AlgebraReport:
    report = AlgebraReport()
    n = a.size
    le = a.le
    # partial order
    if not le.diagonal().all():
        report.add("reflexivity", _first_bad(le.diagonal()))
    anti = ~(le & le.T) | np.eye(n, dtype=bool)
    if not anti.all():
        report.add("antisymmetry", _first_bad(anti))
    up, down = pack(le), pack(le.T)  # laws over triples as row tests of these
    subset_law(report, "transitivity", up[:, None], up[None, :], where=le)
    # meet is the greatest lower bound, join the least upper bound
    m = a.meet
    lower = le[m, np.arange(n)[None, :]] & le[m, np.arange(n)[:, None]]
    if not lower.all():
        report.add("meet is a lower bound", _first_bad(lower))
    subset_law(report, "meet is greatest", down[m], down[:, None], down[None, :], member_first=True)
    j = a.join
    upper = le[np.arange(n)[:, None], j] & le[np.arange(n)[None, :], j]
    if not upper.all():
        report.add("join is an upper bound", _first_bad(upper))
    subset_law(report, "join is least", up[j], up[:, None], up[None, :])
    # monoid
    p = a.prod
    for x in range(n):  # (x.y).z == x.(y.z), one left factor x at a time
        assoc = p[p[x]] == p[x][p]
        if not assoc.all():
            report.add("product associativity", (x,) + _first_bad(assoc))
            break
    if not (p[a.one, :] == np.arange(n)).all() or not (p[:, a.one] == np.arange(n)).all():
        report.add("product unit", (a.one,))
    residuation_law(report, ("left residuation", "right residuation"), le, p, a.lres, a.rres)
    # least element
    if not le[a.zero, :].all():
        report.add("zero is least", _first_bad(le[a.zero, :]))
    # star axioms
    s = a.star
    ax1 = le[a.join[a.one, p[np.arange(n), s]], s]
    if not ax1.all():
        report.add("1 | x.x* <= x*", _first_bad(ax1))
    induct_l = ~le[p, np.arange(n)[None, :]] | le[p[s[:, None], np.arange(n)[None, :]], np.arange(n)[None, :]]
    if not induct_l.all():
        report.add("x.y <= y implies x*.y <= y", _first_bad(induct_l))
    yx = le[p, np.arange(n)[:, None]]
    yxs = le[p[np.arange(n)[:, None], s[None, :]], np.arange(n)[:, None]]
    induct_r = ~yx | yxs
    if not induct_r.all():
        report.add("y.x <= y implies y.x* <= y", _first_bad(induct_r))
    # star-continuity: star equals the join of all powers, over the powers of
    # all elements at once, each joined until its next power is one it has had
    xs, power, acc = np.arange(n), np.full(n, a.one), np.full(n, a.one)
    seen = np.zeros((n, n), dtype=bool)
    while (fresh := ~seen[xs, power]).any():
        seen[xs, power] = True
        acc = np.where(fresh, j[acc, power], acc)
        power = p[power, xs]
    if (acc != s).any():
        report.add("star is the join of the powers", (int(np.flatnonzero(acc != s)[0]),))
    return report


# ---------------------------------------------------------------------------
# Library models.


def star_table(join: np.ndarray, prod: np.ndarray, one: int) -> np.ndarray:
    """Star of every element at once: starting from 1, join x*.x into x*
    until no entry changes.  With a monotone product this is the least
    solution of x* = 1 | x*.x, the join of the powers of x."""
    xs = np.arange(len(join))
    star = np.full(len(join), one)
    while True:
        grown = join[star, prod[star, xs]]
        if (grown == star).all():
            return star
        star = grown


def _algebra(name, elements, le, meet, join, prod, one, zero) -> FiniteActionLattice:
    """A model from its order, lattice operations, product and constants.

    x \\ z and z / y are the greatest solutions of x.y <= z, found for all
    fixed left (then right) factors at once, in blocks of at most 64K cells:
    for fixed factor f, row z of the candidate matrix holds the solutions for
    z, and the residual is the candidate whose down-set holds the whole row.
    Star comes from :func:`star_table`.
    """
    n = len(elements)
    # candidates are tried largest down-set first: a greatest one comes first
    order = np.argsort(-le.sum(axis=0), kind="stable")
    above = np.ascontiguousarray(le.T)  # above[z, y]: y <= z
    below_order = above[:, order]

    def greatest(table: np.ndarray, out: np.ndarray, side: str) -> None:
        """Fill out[f, z] with the greatest y with table[f, y] <= z."""
        step = max(1, _BLOCK_CELLS // (n * n))
        for lo in range(0, n, step):
            cand = above[:, table[lo:lo + step, order]].transpose(1, 0, 2)  # [f, z, k]
            best = order[cand.argmax(axis=2)]
            ok = cand.any(axis=2) & (cand <= below_order[best]).all(axis=2)
            if not ok.all():
                f, z = (int(v) for v in np.argwhere(~ok)[0])
                fixed, z = elements[lo + f], elements[z]
                pair = f"{fixed} \\ {z}" if side == "left" else f"{z} / {fixed}"
                raise ModelError(f"{name}: missing {side} residual {pair}")
            out[lo:lo + step] = best

    lres, rres = np.empty((n, n), dtype=order.dtype), np.empty((n, n), dtype=order.dtype)
    greatest(prod, lres, "left")
    greatest(prod.T, rres.T, "right")
    a = FiniteActionLattice(
        name=name, elements=tuple(elements), le=le, meet=meet, join=join, prod=prod,
        lres=lres, rres=rres, star=star_table(join, prod, one), zero=zero, one=one,
    )
    a.__dict__["_lawful"] = True  # see _ranges; a dataclasses.replace copy is unmarked
    return a


def _chain(name: str, n: int) -> FiniteActionLattice:
    """The n-element chain 0 < ... < n-1 with product = meet, unit the top."""
    i = np.arange(n)
    low = np.minimum.outer(i, i)
    return _algebra(name, tuple(str(v) for v in i), i[:, None] <= i[None, :],
                    low, np.maximum.outer(i, i), low, one=n - 1, zero=0)


def two_chain() -> FiniteActionLattice:
    """The two-element chain with product = meet."""
    return _chain("two_chain", 2)


def three_chain() -> FiniteActionLattice:
    """The three-element chain with product = min and unit the top."""
    return _chain("three_chain", 3)


def _powerset(name: str, atoms, atom_prod: np.ndarray, unit: int) -> FiniteActionLattice:
    """The complex algebra of a partial product on atoms: all subsets, with
    X.Y = {a.b : a in X, b in Y, a.b defined}.  Subset x holds atom i when
    bit i of x is set; atom_prod[i, j] is the atom i.j, or -1 where it is
    undefined; unit is the subset that is the unit of the product."""
    m = len(atoms)
    n = 1 << m
    xs = np.arange(n)
    has = (xs[:, None] >> np.arange(m) & 1).astype(bool)  # has[x, i]
    prod = np.zeros((n, n), dtype=int)
    for i, j in zip(*np.nonzero(atom_prod >= 0)):
        prod[np.ix_(has[:, i], has[:, j])] |= 1 << int(atom_prod[i, j])
    elements = tuple("{" + ",".join(atoms[i] for i in np.flatnonzero(row)) + "}" for row in has)
    return _algebra(name, elements, (xs[:, None] & ~xs[None, :]) == 0,
                    xs[:, None] & xs[None, :], xs[:, None] | xs[None, :], prod,
                    one=unit, zero=0)


def rel_algebra(k: int) -> FiniteActionLattice:
    """All binary relations on k points: union, intersection, composition,
    relational residuals, reflexive-transitive closure."""
    if not 1 <= k <= 3:
        raise ModelError("relation algebras are supported for 1 <= k <= 3")
    pairs = [(i, j) for i in range(k) for j in range(k)]
    compose = np.array([[i * k + l if j == j2 else -1 for j2, l in pairs] for i, j in pairs])
    identity = sum(1 << (i * k + i) for i in range(k))
    return _powerset(f"rel{k}", [f"{i}{j}" for i, j in pairs], compose, identity)


def truncated_words(max_len: int = 3, alphabet: str = "ab") -> FiniteActionLattice:
    """Sets of words shorter than max_len; concatenations that reach the
    bound are dropped, star is the join of the truncated powers."""
    if max_len < 1:
        raise ModelError("truncated word models need max_len >= 1")
    words = ["".join(w) for size in range(max_len)
             for w in itertools.product(alphabet, repeat=size)]
    index = {w: i for i, w in enumerate(words)}
    concat = np.array([[index.get(u + v, -1) for v in words] for u in words])
    return _powerset("trunc_words", [w or "eps" for w in words], concat, 1 << index[""])


def library() -> dict[str, FiniteActionLattice]:
    """The bundled models used by the audits."""
    return {
        "two_chain": two_chain(),
        "three_chain": three_chain(),
        "rel1": rel_algebra(1),
        "rel2": rel_algebra(2),
        "trunc_words": truncated_words(),
    }


# ---------------------------------------------------------------------------
# Evaluation.


def eval_formula(a: FiniteActionLattice, valuation: dict[str, int], f: Formula) -> int:
    """Evaluate under a single valuation."""
    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise ModelError(f"valuation misses variable {f.name!r}")
    if isinstance(f, Zero):
        return a.zero
    if isinstance(f, One):
        return a.one
    if isinstance(f, Meet):
        return int(a.meet[eval_formula(a, valuation, f.left), eval_formula(a, valuation, f.right)])
    if isinstance(f, Join):
        return int(a.join[eval_formula(a, valuation, f.left), eval_formula(a, valuation, f.right)])
    if isinstance(f, Prod):
        return int(a.prod[eval_formula(a, valuation, f.left), eval_formula(a, valuation, f.right)])
    if isinstance(f, LRes):
        return int(a.lres[eval_formula(a, valuation, f.left), eval_formula(a, valuation, f.right)])
    if isinstance(f, RRes):
        return int(a.rres[eval_formula(a, valuation, f.left), eval_formula(a, valuation, f.right)])
    if isinstance(f, Star):
        return int(a.star[eval_formula(a, valuation, f.body)])
    raise ModelError(f"cannot evaluate {f!r}")


class _Tables(dict):
    """A model's tables as the query kernel reads them: raveled, in the
    narrowest unsigned dtype that holds n*n, each both plain and times n.

    Maps each connective to its (plain, times-n) pair, made on first use.
    For a binary connective, op[x, y] is ``flat.take(x*n + y)``, where x*n
    is read from the times-n copy of whatever produced x: a variable grid,
    a constant, star or another connective.  The order is read the same
    way.  One add and one take per connective; no index exceeds n*n - 1.
    """

    def __init__(self, a: FiniteActionLattice):
        n = a.size
        self.n, self.dtype = n, np.min_scalar_type(n * n - 1)
        self.source = {Meet: a.meet, Join: a.join, Prod: a.prod, LRes: a.lres, RRes: a.rres,
                       Star: a.star}
        # constants are scalars of the table dtype, so no add promotes it
        super().__init__({kind: (self.dtype.type(v), self.dtype.type(v * n))
                          for kind, v in ((Zero, a.zero), (One, a.one))})
        self.le = a.le.astype(bool).ravel()

    def __missing__(self, kind) -> tuple:
        pair = self[kind] = _pair(self.source[kind], self.n, self.dtype)
        return pair


def _pair(table: np.ndarray, n: int, dtype: np.dtype) -> tuple:
    return table.astype(dtype).ravel(), (table * n).astype(dtype).ravel()


@lru_cache(maxsize=64)
def _open_grids(n: int, k: int) -> tuple:
    """Open grids of k variables over n elements, each as its (plain,
    times-n) pair in the dtype of an n-element model's tables.  Shared by
    every such model, so they are read-only."""
    plain, times_n = _pair(np.arange(n), n, np.min_scalar_type(n * n - 1))
    plain.flags.writeable = times_n.flags.writeable = False
    shapes = [(1,) * i + (-1,) + (1,) * (k - 1 - i) for i in range(k)]
    return tuple((plain.reshape(shape), times_n.reshape(shape)) for shape in shapes)


def _ranges(a: FiniteActionLattice) -> dict:
    """The (plain, times-n) pairs of the ranges "J" and "M" of
    :func:`_polarity_reduction`: x != 0 is join-irreducible exactly when
    some y < x has one element fewer below it.  The lemmas need the laws: a
    library model (:func:`_algebra` marks it lawful) is trusted, any other is
    validated (the report is kept on it), and one that breaks the laws keeps
    every element in both ranges."""
    lt, down, up = a.le & ~np.eye(a.size, dtype=bool), a.le.sum(axis=0), a.le.sum(axis=1)
    lawless = not a.__dict__.get("_lawful") and not validate_algebra(a).ok
    joins = lawless | (lt & (down[:, None] == down - 1)).any(axis=0) | (np.arange(a.size) == a.zero)
    meets = lawless | (lt & (up == up[:, None] - 1)).any(axis=1) | (down == a.size)
    return {kind: _pair(np.flatnonzero(v), a.size, a.tables.dtype) for kind, v in (("J", joins), ("M", meets))}


class Evaluator:
    """Formula values over fixed open grids, given as each variable's
    (plain, times-n) pair.  Each formula's values, plain or times n, are
    computed once and kept in a dict keyed by ``(formula, scaled)``."""

    def __init__(self, t: _Tables, grids: dict):
        self.t, self.grids, self.values = t, grids, {}

    def __call__(self, f: Formula, scaled: bool):
        kind = type(f)
        if kind is Var:
            return self.grids[f.name][scaled]
        key = (f, scaled)
        out = self.values.get(key)
        if out is None:
            read = self.t[kind][scaled]
            if kind is Star:
                out = read.take(self(f.body, False))
            elif kind is Zero or kind is One:
                out = read
            else:
                out = read.take(self(f.left, True) + self(f.right, False))
            self.values[key] = out
        return out

    def holds(self, ineq: Inequation):
        return self.t.le.take(self(ineq.lhs, True) + self(ineq.rhs, False))

    def sequent(self, s: Sequent):
        """Where s holds: its antecedent folded through the product table,
        times n, read against the succedent in the order."""
        acc = self(s.antecedent[0], True) if s.antecedent else self.t[One][1]
        for f in s.antecedent[1:]:
            acc = self.t[Prod][1].take(acc + self(f, False))
        return self.t.le.take(acc + self(s.succedent, False))


def _names(*formulas: Formula) -> list[str]:
    return sorted(set().union(*map(variables, formulas)))


def evaluator(a: FiniteActionLattice, s: Sequent) -> Evaluator | None:
    """An evaluator over a's whole grid of the variables of s, for queries
    on sequents whose variables are among them; None when that grid exceeds
    one block of the query kernel."""
    names = _names(*s.antecedent, s.succedent)
    if a.size ** len(names) > _BLOCK_CELLS:
        return None
    return Evaluator(a.tables, dict(zip(names, _open_grids(a.size, len(names)))))


def _check_all_valuations(a: FiniteActionLattice, kinds: dict, predicate) -> tuple:
    """Run a vectorized predicate of an :class:`Evaluator` over the grid of
    the variables' ranges: all elements for kind "", else the model's
    :func:`_ranges` of that kind (the cap judges the whole grid); returns
    the first failing valuation or None, and the valuations evaluated.  The
    grid is walked in blocks of the first variable of at most _BLOCK_CELLS
    cells (one value, when the others alone exceed that), in increasing
    order, each with a fresh evaluator."""
    n, k = a.size, len(kinds)
    if k > VAR_CAP and n ** k > _GRID_LIMIT:
        raise ModelError(
            f"validity query over {k} variables on a carrier of size {n} "
            f"exceeds the exhaustive budget (cap {VAR_CAP} variables)"
        )
    ranges = kept(a, "_ranges", _ranges) if any(kinds.values()) else {}
    grids = {x: tuple(t.reshape((1,) * i + (-1,) + (1,) * (k - 1 - i)) for t in ranges[kind])
             if kind else whole  # the shared open grid of all elements
             for i, ((x, kind), whole) in enumerate(zip(kinds.items(), _open_grids(n, k)))}
    if not kinds:
        return (None if predicate(Evaluator(a.tables, grids)).all() else ()), 1
    first, sizes = next(iter(grids)), [plain.size for plain, _ in grids.values()]
    (plain, times_n), rest = grids[first], math.prod(sizes[1:])
    step = max(1, _BLOCK_CELLS // rest)
    for lo in range(0, sizes[0], step):
        block = {**grids, first: (plain[lo:lo + step], times_n[lo:lo + step])}
        ok = predicate(Evaluator(a.tables, block))
        if not ok.all():
            shape = (min(step, sizes[0] - lo), *sizes[1:])
            idx = np.argwhere(~np.broadcast_to(ok, shape))[0]
            idx[0] += lo
            witness = tuple((x, int(g[0].flat[i])) for (x, g), i in zip(grids.items(), idx))
            return witness, (lo + shape[0]) * rest
    return None, sizes[0] * rest


def sequent_inequation(s: Sequent) -> Inequation:
    """The inequation of a sequent: the antecedent product below the
    succedent (empty antecedent gives the unit)."""
    if not s.antecedent:
        lhs: Formula = One()
    else:
        lhs = s.antecedent[0]
        for f in s.antecedent[1:]:
            lhs = Prod(lhs, f)
    return Inequation(lhs, s.succedent)


def holds_sequent(a: FiniteActionLattice | Evaluator, s: Sequent) -> bool:
    """Whether s holds in model a, or over the grids of an :func:`evaluator`
    that cover the variables of s (reusing the values it holds)."""
    if isinstance(a, Evaluator):
        return bool(a.sequent(s).all())
    return find_sequent_counterexample(a, s) is None


def find_sequent_counterexample(a: FiniteActionLattice, s: Sequent):
    return _sequent_counterexample(a, s)[0]


def _polarity_reduction(s: Sequent) -> dict[str, str]:
    """Per variable x of s, in sorted order: "J" when s holds in a finite
    action lattice L if it does for x in J(L) + {0} (join-irreducibles and
    bottom), "M" for x in M(L) + {top}, "" for neither.  An occurrence's path
    from its formula's root takes j into an operand of product or join, m of
    meet or a numerator, d a denominator (negative under an odd number of
    d's), s a star body.  x != 0 is the join of the nonempty J(x) below it,
    x != top the meet of the nonempty M(x) above it; by the adjunctions j
    edges keep nonempty joins, m edges nonempty meets, d edges turn joins
    into meets.  With A(x) the antecedent's product and S(x) the succedent:
    (J1) x at most once in A, by j edges, only positive in S: A(x) = join
    A(J(x)), A(j) <= S(j) <= S(x).  (J2) x only negative in A, once in S, on
    m..m d j..j: S(x) = meet S(J(x)), A(x) <= A(j) <= S(j).  (M) x only
    positive in A, at most once in S, by m edges: S(x) = meet S(M(x)), A(x)
    <= A(m) <= S(m).  So every failure has one in the reduced grid."""
    edges = {Prod: "jj", Join: "jj", Meet: "mm", LRes: "dm", RRes: "md"}  # (left, right) operand
    paths: dict[str, tuple[list, list]] = {}  # x -> paths in the antecedent, the succedent
    stack = [(f, "", 0) for f in s.antecedent] + [(s.succedent, "", 1)]
    while stack:
        f, path, side = stack.pop()
        if type(f) is Var:
            paths.setdefault(f.name, ([], []))[side].append(path)
        elif type(f) is Star:
            stack.append((f.body, path + "s", side))
        elif type(f) in edges:
            left, right = edges[type(f)]
            stack += [(f.left, path + left, side), (f.right, path + right, side)]
    out = {}
    for x, (xa, xs) in sorted(paths.items()):
        neg_a, neg_s = [p.count("d") % 2 for p in xa], [p.count("d") % 2 for p in xs]
        j1 = len(xa) <= 1 and not "".join(xa).strip("j") and not any(neg_s)
        j2 = all(neg_a) and len(xs) == 1 and (t := xs[0].lstrip("m"))[:1] == "d" and not t[1:].strip("j")
        m = not any(neg_a) and len(xs) <= 1 and not "".join(xs).strip("m")
        out[x] = "J" if j1 or j2 else "M" if m else ""
    return out


def _sequent_counterexample(a: FiniteActionLattice, s: Sequent) -> tuple:
    """The first failing valuation of s in a, or None, and the valuations evaluated: s is decided
    on the grid :func:`_polarity_reduction` shrinks; a failure walks the whole grid."""
    kinds, evaluated = _polarity_reduction(s), 0
    if any(kind and kept(a, "_ranges", _ranges)[kind][0].size < a.size for kind in kinds.values()):
        witness, evaluated = _check_all_valuations(a, kinds, lambda ev: ev.sequent(s))
        if witness is None:
            return None, evaluated
    witness, more = _check_all_valuations(a, dict.fromkeys(kinds, ""), lambda ev: ev.sequent(s))
    return witness, evaluated + more


def holds_quasieq(a: FiniteActionLattice, q: Quasiequation) -> bool:
    return find_quasieq_counterexample(a, q) is None


def find_quasieq_counterexample(a: FiniteActionLattice, q: Quasiequation):
    names = _names(*(f for iq in (*q.premises, q.conclusion) for f in (iq.lhs, iq.rhs)))

    def predicate(ev):
        ok = ev.holds(q.conclusion)
        for p in q.premises:
            ok = ok | ~ev.holds(p)
        return ok

    return _check_all_valuations(a, dict.fromkeys(names, ""), predicate)[0]


# ---------------------------------------------------------------------------
# Soundness audit.


@dataclass
class AuditViolation:
    model: str
    sequent: Sequent
    valuation: tuple

    def __str__(self) -> str:
        return f"{self.sequent} fails in {self.model} at {dict(self.valuation)}"


def rule_models(models, rules) -> tuple[list[FiniteActionLattice], list[str], list[str]]:
    """The models in which every given rule is sound, then the names of those
    where one fails, then of those its query cannot decide (a ModelError).
    An analytic rule is judged by :func:`q_a_of`, any other structural rule
    by the equation form of :func:`q_of` (one variable fewer), or by q_of
    itself when it has none; a rule that is not structural leaves no model."""
    structural = all(classify(r).structural for r in rules)
    qs = [q_a_of(r) if classify(r).analytic else q_of(r) for r in rules] if structural else []
    qs = [q if classify(r).analytic or (eq := qe_to_equation(q)) is None else Quasiequation((), eq)
          for r, q in zip(rules, qs)]
    sound, skipped, undecided = [], [], []
    for a in models:
        verdict = structural
        for q in qs:
            try:
                if not holds_quasieq(a, q):
                    verdict = False
                    break
            except ModelError:
                verdict = None
        if verdict:
            sound.append(a)
        else:
            (undecided if verdict is None else skipped).append(a.name)
    return sound, skipped, undecided


@dataclass
class AuditReport:
    checked: int = 0
    valuations: int = 0     # valuations evaluated, over reduced and whole grids
    skipped_models: list[str] = field(default_factory=list)
    undecided_models: list[str] = field(default_factory=list)
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def soundness_audit(sequents, models, rules=()) -> AuditReport:
    """Every given sequent must hold in every model in which the given rules
    are sound (:func:`rule_models`); a hit flags a defect upstream (checker,
    search, or translation)."""
    report = AuditReport()
    sound, report.skipped_models, report.undecided_models = rule_models(models, rules)
    for a in sound:
        for s in sequents:
            witness, valuations = _sequent_counterexample(a, s)
            report.checked += 1
            report.valuations += valuations
            if witness is not None:
                report.violations.append(AuditViolation(a.name, s, witness))
    return report


# ---------------------------------------------------------------------------
# Model files.


def model_to_json(a: FiniteActionLattice) -> dict:
    return {
        "name": a.name,
        "elements": list(a.elements),
        "le": a.le.astype(int).tolist(),
        "meet": a.meet.tolist(),
        "join": a.join.tolist(),
        "prod": a.prod.tolist(),
        "lres": a.lres.tolist(),
        "rres": a.rres.tolist(),
        "star": a.star.tolist(),
        "zero": int(a.zero),
        "one": int(a.one),
    }


def model_from_json(data: dict) -> FiniteActionLattice:
    """Read a model file's tables, rejecting any table whose shape does not
    fit the carrier or whose entries, like zero and one, name no element."""
    try:
        a = FiniteActionLattice(
            name=data.get("name", "model"),
            elements=tuple(data["elements"]),
            le=np.array(data["le"], dtype=bool),
            meet=np.array(data["meet"]),
            join=np.array(data["join"]),
            prod=np.array(data["prod"]),
            lres=np.array(data["lres"]),
            rres=np.array(data["rres"]),
            star=np.array(data["star"]),
            zero=int(data["zero"]),
            one=int(data["one"]),
        )
    except KeyError as e:
        raise ModelError(f"model file misses field {e}")
    n = a.size
    for key in ("le", "meet", "join", "prod", "lres", "rres", "star", "zero", "one"):
        table = np.asarray(getattr(a, key))
        shape = {"star": (n,), "zero": (), "one": ()}.get(key, (n, n))
        if table.shape != shape:
            raise ModelError(f"model file: {key} has shape {table.shape}, expected {shape}")
        if key != "le" and not (np.issubdtype(table.dtype, np.integer)
                                and ((table >= 0) & (table < n)).all()):
            raise ModelError(f"model file: {key} names no element index 0..{n - 1}")
    return a


def load_model(path: str) -> FiniteActionLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def save_model(path: str, a: FiniteActionLattice) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(a), fh)
        fh.write("\n")
