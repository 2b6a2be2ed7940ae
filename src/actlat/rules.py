"""Schematic rules, instantiation and matching, and quasiequation forms.

A schematic rule is written over formula metavariables (FVar leaves inside
metaformulas) and sequence metavariables (SVar items).  Instantiating binds
every FVar to a formula and every SVar to a formula sequence; SVar images
splice into the surrounding item list.

Rule shapes fall into three nested classes.  A *structural* rule mentions
only bare metavariables (every antecedent item is an FVar or SVar and every
succedent is an FVar).  It is *linear* when the conclusion antecedent is a
repetition-free list of SVars, and *analytic* when additionally every premise
is the conclusion with its middle section replaced by SVars drawn from the
conclusion's middle section, keeping the outer context and succedent fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Sequence

from .syntax import (
    Formula,
    Join,
    Meet,
    LRes,
    One,
    Prod,
    RRes,
    Sequent,
    Star,
    Var,
    Zero,
    parse_formula,
    power_formula,
    print_formula,
    variables,
)


@dataclass(frozen=True)
class FVar(Formula):
    """Formula metavariable; a leaf of the metaformula algebra."""

    name: str


@dataclass(frozen=True)
class SVar:
    """Sequence metavariable; only valid as a whole antecedent item."""

    name: str


Item = object  # SVar | Formula (metaformula)


@dataclass(frozen=True)
class MetaSequent:
    lhs: tuple[Item, ...]
    rhs: Formula


class InstantiationError(ValueError):
    pass


class ClassificationError(ValueError):
    pass


class RuleError(ValueError):
    pass


class SplitCapExceeded(RuntimeError):
    pass


@dataclass
class Instantiation:
    """Binding of formula metavariables to formulas and sequence
    metavariables to formula sequences."""

    fmap: dict[str, Formula] = field(default_factory=dict)
    smap: dict[str, tuple[Formula, ...]] = field(default_factory=dict)

    def __eq__(self, other):
        return (
            isinstance(other, Instantiation)
            and self.fmap == other.fmap
            and self.smap == other.smap
        )

    def key(self) -> tuple:
        return (
            tuple(sorted(self.fmap.items(), key=lambda kv: kv[0])),
            tuple(sorted(self.smap.items(), key=lambda kv: kv[0])),
        )

    def copy(self) -> "Instantiation":
        return Instantiation(dict(self.fmap), dict(self.smap))


def metavariables(ms: MetaSequent) -> tuple[set[str], set[str]]:
    """(FVar names, SVar names) occurring in a metasequent."""
    fvars: set[str] = set()
    svars: set[str] = set()

    def walk(f: Formula) -> None:
        if isinstance(f, FVar):
            fvars.add(f.name)
        elif isinstance(f, (Meet, Join, Prod, LRes, RRes)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Star):
            walk(f.body)

    for item in ms.lhs:
        if isinstance(item, SVar):
            svars.add(item.name)
        else:
            walk(item)
    walk(ms.rhs)
    return fvars, svars


def subst_metaformula(f: Formula, inst: Instantiation) -> Formula:
    if isinstance(f, FVar):
        try:
            return inst.fmap[f.name]
        except KeyError:
            raise InstantiationError(f"no binding for formula metavariable {f.name!r}")
    if isinstance(f, (Meet, Join, Prod, LRes, RRes)):
        return type(f)(subst_metaformula(f.left, inst), subst_metaformula(f.right, inst))
    if isinstance(f, Star):
        return Star(subst_metaformula(f.body, inst))
    return f


def subst_metaseq(ms: MetaSequent, inst: Instantiation) -> Sequent:
    lhs: list[Formula] = []
    for item in ms.lhs:
        if isinstance(item, SVar):
            try:
                lhs.extend(inst.smap[item.name])
            except KeyError:
                raise InstantiationError(f"no binding for sequence metavariable {item.name!r}")
        else:
            lhs.append(subst_metaformula(item, inst))
    return Sequent(tuple(lhs), subst_metaformula(ms.rhs, inst))


@dataclass(frozen=True)
class SchematicRule:
    """A named rule schema.

    ``principal``/``auxiliary`` mark the introduced occurrence by conclusion
    item index (-1 for the succedent) and the occurrences it comes from by
    per-premise item indices; they are set exactly for the principal rules.
    ``var_only`` lists FVars restricted to propositional variables (the id
    axiom).  ``omega`` tags the two infinitary left star rules, whose premise
    families are built per child index by :meth:`premise_meta`.
    """

    name: str
    premises: tuple[MetaSequent, ...]
    conclusion: MetaSequent
    principal: int | None = None
    auxiliary: tuple[frozenset[int], ...] | None = None
    var_only: frozenset[str] = frozenset()
    omega: str | None = None  # None | "standard" | "modified"

    @property
    def is_omega(self) -> bool:
        return self.omega is not None

    @cached_property
    def flags(self) -> RuleFlags:
        """The :func:`classify` flags, computed once per schema."""
        return classify(self)

    def child_indices(self) -> tuple[int, ...] | None:
        """Valid child address components; None means every natural number.

        The one-sided product rule keeps its single premise at index 1.
        """
        if self.is_omega:
            return None
        if self.name == "prodL1":
            return (1,)
        return tuple(range(len(self.premises)))

    def premise_meta(self, child_index: int) -> tuple[MetaSequent, frozenset[int]]:
        """Premise schema and auxiliary item indices for one child slot."""
        if self.omega == "standard":
            # child n proves Gamma, a^(n) (n separate copies), Delta |- b
            if child_index < 0:
                raise RuleError("negative premise index")
            a = FVar("a")
            lhs = (SVar("Gamma"),) + (a,) * child_index + (SVar("Delta"),)
            aux = frozenset(range(1, 1 + child_index))
            return MetaSequent(lhs, FVar("b")), aux
        if self.omega == "modified":
            # child 0 proves Gamma, Delta |- b; child n+1 proves
            # Gamma, a, a^n (single formula power), Delta |- b
            if child_index == 0:
                return MetaSequent((SVar("Gamma"), SVar("Delta")), FVar("b")), frozenset()
            if child_index < 0:
                raise RuleError("negative premise index")
            a = FVar("a")
            lhs = (SVar("Gamma"), a, power_formula(a, child_index - 1), SVar("Delta"))
            return MetaSequent(lhs, FVar("b")), frozenset({1, 2})
        if self.name == "prodL1" and child_index == 1:
            child_index = 0
        if not 0 <= child_index < len(self.premises):
            raise RuleError(f"rule {self.name} has no premise at index {child_index}")
        aux = self.auxiliary[child_index] if self.auxiliary else frozenset()
        return self.premises[child_index], aux

    def metavariable_names(self) -> tuple[set[str], set[str]]:
        fvars, svars = metavariables(self.conclusion)
        sources = list(self.premises)
        if self.is_omega:
            sources.append(self.premise_meta(2)[0])
        for ms in sources:
            fv, sv = metavariables(ms)
            fvars |= fv
            svars |= sv
        return fvars, svars


def _check_var_only(rule: SchematicRule, inst: Instantiation) -> None:
    for name in rule.var_only:
        bound = inst.fmap.get(name)
        if bound is None:
            raise InstantiationError(f"no binding for formula metavariable {name!r}")
        if not isinstance(bound, Var):
            raise InstantiationError(
                f"rule {rule.name} requires a propositional variable for {name!r}, got {print_formula(bound)}"
            )


_UNSET = object()


class RuleInstance:
    """One application of a rule: its ground shape under one instantiation.

    This is the one place that works out a node's conclusion, premises,
    principal position, conclusion layout and immediate ancestry, each on
    first read.  Layout and ancestry depend only on the instance's *shape*:
    the rule schema, the image length of each sequence metavariable and the
    child index.  They come from :data:`_SHAPES`, computed once per shape
    and shared, so callers must not mutate them; the principal position is
    read off the shared layout.  The fields are plain
    properties over slots: a ``functools.cached_property`` costs more.
    """

    __slots__ = ("rule", "inst", "_conclusion", "_premises", "_layout", "_principal", "_shape")

    def __init__(self, rule: SchematicRule, inst: Instantiation):
        self.rule = rule
        self.inst = inst
        self._conclusion = self._premises = self._layout = self._shape = None
        self._principal = _UNSET  # None is a valid principal position

    @property
    def child_indices(self) -> tuple[int, ...] | None:
        """Valid child indices; None means every natural number."""
        return self.rule.child_indices()

    @property
    def conclusion(self) -> Sequent:
        if self._conclusion is None:
            self._conclusion = instantiate_conclusion(self.rule, self.inst)
        return self._conclusion

    def premise(self, child_index: int) -> Sequent:
        """The premise at one child index, for the infinitary rules too."""
        return instantiate_premise(self.rule, self.inst, child_index)

    @property
    def premises(self) -> tuple[Sequent, ...]:
        """The premises of a finitary rule, in child order."""
        if self._premises is None:
            self._premises = tuple(subst_metaseq(ms, self.inst) for ms in self.rule.premises)
        return self._premises

    @property
    def layout(self) -> tuple[list[Origin], Origin, dict[int, int]]:
        """Origins of the conclusion's occurrences, see :func:`layout`."""
        if self._layout is None:
            self._layout = self._shared("layout", lambda: layout(self.rule.conclusion, self.inst))
        return self._layout

    @property
    def principal(self) -> int | None:
        """Ground position of the principal occurrence, if any."""
        if self._principal is _UNSET:
            self._principal = principal_position(self)
        return self._principal

    def ancestry(self, child_index: int) -> frozenset[tuple[tuple[int, int], int]]:
        """Immediate-ancestor pairs between one premise and the conclusion.
        Children from SHAPE_CHILD_CAP on, which only an infinitary rule has
        and whose pairs grow with the index, are computed and not tabled."""
        if child_index >= SHAPE_CHILD_CAP:
            return ancestry_for_children(self, (child_index,))
        return self._shared(child_index, lambda: ancestry_for_children(self, (child_index,)))

    def _shared(self, fact, compute):
        """One fact of this instance's shape, computed on the shape's first read."""
        if self._shape is None:
            smap = self.inst.smap
            self._shape = (id(self.rule), *smap, *map(len, smap.values()))
        key = (fact, self._shape)
        entry = _SHAPES.get(key)
        if entry is None:
            # the entry holds the rule, so its id is not reused while the entry lives
            entry = (self.rule, compute())
            if len(_SHAPES) >= SHAPE_CAP:
                _SHAPES.clear()
            _SHAPES[key] = entry
        return entry[1]


def instantiate(rule: SchematicRule, inst: Instantiation) -> RuleInstance:
    """Instance of a finitary rule; rejects a non-variable for a
    variable-only metavariable at once."""
    if rule.is_omega:
        raise RuleError(f"rule {rule.name} has infinitely many premises; use instantiate_premise")
    _check_var_only(rule, inst)
    return RuleInstance(rule, inst)


def instantiate_premise(rule: SchematicRule, inst: Instantiation, child_index: int) -> Sequent:
    ms, _ = rule.premise_meta(child_index)
    return subst_metaseq(ms, inst)


def instantiate_conclusion(rule: SchematicRule, inst: Instantiation) -> Sequent:
    _check_var_only(rule, inst)
    return subst_metaseq(rule.conclusion, inst)


# ---------------------------------------------------------------------------
# Matching a rule conclusion against a goal sequent.


def _match_formula(mf: Formula, f: Formula, fmap: dict[str, Formula]) -> bool:
    """Bind FVars in mf so that substitution yields f; mutates fmap."""
    if isinstance(mf, FVar):
        bound = fmap.get(mf.name)
        if bound is None:
            fmap[mf.name] = f
            return True
        return bound == f
    if isinstance(mf, (Meet, Join, Prod, LRes, RRes)):
        return (
            type(mf) is type(f)
            and _match_formula(mf.left, f.left, fmap)
            and _match_formula(mf.right, f.right, fmap)
        )
    if isinstance(mf, Star):
        return isinstance(f, Star) and _match_formula(mf.body, f.body, fmap)
    return mf == f


def _match_items(
    items: tuple[Item, ...],
    forms: tuple[Formula, ...],
    fmap: dict[str, Formula],
    smap: dict[str, tuple[Formula, ...]],
    out: list[Instantiation],
    counter: list[int],
    cap: int,
) -> None:
    """Append to out every binding that matches items against forms,
    extending fmap and smap; both are as they were on return."""
    counter[0] += 1
    if counter[0] > cap:
        raise SplitCapExceeded(f"antecedent split enumeration exceeded {cap} candidates")
    if not items:
        if not forms:
            out.append(Instantiation(dict(fmap), dict(smap)))
        return
    head, rest = items[0], items[1:]
    if isinstance(head, SVar):
        bound = smap.get(head.name)
        if bound is not None:
            k = len(bound)
            if forms[:k] == bound:
                _match_items(rest, forms[k:], fmap, smap, out, counter, cap)
            return
        if not rest:
            # a final sequence metavariable takes the rest of the antecedent
            out.append(Instantiation(dict(fmap), {**smap, head.name: forms}))
            return
        for k in range(len(forms) + 1):
            smap[head.name] = forms[:k]
            _match_items(rest, forms[k:], fmap, smap, out, counter, cap)
        del smap[head.name]
    elif forms:
        # matching only adds bindings, so undoing it drops the newest keys
        n = len(fmap)
        if _match_formula(head, forms[0], fmap):
            _match_items(rest, forms[1:], fmap, smap, out, counter, cap)
        while len(fmap) > n:
            fmap.popitem()


def match_conclusion(
    rule: SchematicRule, goal: Sequent, split_cap: int = 10**6
) -> list[Instantiation]:
    """All instantiations of the conclusion's metavariables matching goal.

    Metavariables that occur only in premises stay unbound; exhaustive over
    antecedent splits, with a hard cap on the enumeration.  No instantiation
    is given twice: two enumeration paths first differ in the length they
    give one unbound sequence metavariable, and that binding is never
    rewritten.
    """
    fmap: dict[str, Formula] = {}
    if not _match_formula(rule.conclusion.rhs, goal.succedent, fmap):
        return []
    out: list[Instantiation] = []
    _match_items(rule.conclusion.lhs, goal.antecedent, fmap, {}, out, [0], split_cap)
    if rule.var_only:
        out = [inst for inst in out
               if all(isinstance(inst.fmap.get(n), Var) for n in rule.var_only)]
    return out


# ---------------------------------------------------------------------------
# Classification.


@dataclass(frozen=True)
class RuleFlags:
    structural: bool
    linear: bool
    analytic: bool


def _bare_items(ms: MetaSequent) -> bool:
    return all(isinstance(i, (SVar, FVar)) for i in ms.lhs) and isinstance(ms.rhs, FVar)


def classify(rule: SchematicRule) -> RuleFlags:
    """Structural / linear / analytic flags for a schematic rule."""
    if rule.is_omega or rule.var_only:
        return RuleFlags(False, False, False)
    structural = _bare_items(rule.conclusion) and all(_bare_items(p) for p in rule.premises)
    if not structural:
        return RuleFlags(False, False, False)
    lhs = rule.conclusion.lhs
    linear = all(isinstance(i, SVar) for i in lhs) and len({i.name for i in lhs}) == len(lhs)
    if not linear:
        return RuleFlags(True, False, False)
    analytic = False
    if len(lhs) >= 2:
        gamma, delta = lhs[0], lhs[-1]
        upsilon = lhs[1:-1]
        upsilon_names = {s.name for s in upsilon}
        beta = rule.conclusion.rhs
        analytic = True
        for p in rule.premises:
            if p.rhs != beta or len(p.lhs) < 2 or p.lhs[0] != gamma or p.lhs[-1] != delta:
                analytic = False
                break
            mid = p.lhs[1:-1]
            if not all(isinstance(s, SVar) and s.name in upsilon_names for s in mid):
                analytic = False
                break
    return RuleFlags(True, True, analytic)


def analytic_parts(rule: SchematicRule) -> tuple[SVar, SVar, tuple[SVar, ...], tuple[tuple[SVar, ...], ...], FVar]:
    """(Gamma, Delta, Upsilon, per-premise middles, succedent) of an analytic rule."""
    if not classify(rule).analytic:
        raise ClassificationError(f"rule {rule.name} is not analytic")
    lhs = rule.conclusion.lhs
    return (
        lhs[0],
        lhs[-1],
        tuple(lhs[1:-1]),
        tuple(tuple(p.lhs[1:-1]) for p in rule.premises),
        rule.conclusion.rhs,
    )


# ---------------------------------------------------------------------------
# Quasiequation translation.


@dataclass(frozen=True)
class Inequation:
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"{_compact(self.lhs)} <= {_compact(self.rhs)}"


@dataclass(frozen=True)
class Quasiequation:
    premises: tuple[Inequation, ...]
    conclusion: Inequation

    def __str__(self) -> str:
        if not self.premises:
            return f"() => {self.conclusion}"
        body = " & ".join(str(p) for p in self.premises)
        return f"({body}) => {self.conclusion}"


def _compact(f: Formula) -> str:
    """Variable products printed without spaces, e.g. ``z.y.w``."""
    if isinstance(f, Prod):
        return _compact(f.left) + "." + _compact(f.right)
    return print_formula(f)


def t_term(items: Sequence[object]) -> Formula:
    """Product of the variables standing for a metavariable sequence.

    Uses the fixed metavariable-to-variable bijection name -> x_name; the
    empty sequence maps to 1.  Products nest to the left.
    """
    vars_: list[Formula] = []
    for it in items:
        if isinstance(it, SVar):
            vars_.append(Var("x_" + it.name))
        elif isinstance(it, FVar):
            vars_.append(Var("x_" + it.name))
        else:
            raise ClassificationError(f"t-term requires bare metavariables, got {it!r}")
    if not vars_:
        return One()
    out = vars_[0]
    for v in vars_[1:]:
        out = Prod(out, v)
    return out


def _rename_canonical(qe: Quasiequation, order: list[str]) -> Quasiequation:
    """qe with each variable renamed by its place among the distinct names
    of order: x, y, z, w, u, v, then x1, y1, ..."""
    pool = ["x", "y", "z", "w", "u", "v"]
    names = {}
    for i, old in enumerate(dict.fromkeys(order)):
        names[old] = pool[i % len(pool)] + ("" if i < len(pool) else str(i // len(pool)))

    def ren(f: Formula) -> Formula:
        if isinstance(f, Var):
            return Var(names[f.name])
        if isinstance(f, Prod):
            return Prod(ren(f.left), ren(f.right))
        return f

    def ren_ineq(iq: Inequation) -> Inequation:
        return Inequation(ren(iq.lhs), ren(iq.rhs))

    return Quasiequation(tuple(ren_ineq(p) for p in qe.premises), ren_ineq(qe.conclusion))


def product_vars(term: Formula) -> list[str] | None:
    """The variables of a product of variables and 1, left to right with
    repeats; None when the term is not such a product."""
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, One):
        return []
    if isinstance(term, Prod):
        left, right = product_vars(term.left), product_vars(term.right)
        return None if left is None or right is None else left + right
    return None


def q_of(rule: SchematicRule) -> Quasiequation:
    """Quasiequation of a structural rule: each sequent becomes an
    inequation between the variable products of its two sides.

    Variables are letters x, y, z, w, u, v in order of first occurrence,
    premises first.
    """
    if not classify(rule).structural:
        raise ClassificationError(f"rule {rule.name} is not structural")
    prem = tuple(
        Inequation(t_term(p.lhs), t_term((p.rhs,))) for p in rule.premises
    )
    conc = Inequation(t_term(rule.conclusion.lhs), t_term((rule.conclusion.rhs,)))
    order: list[str] = []
    for iq in prem + (conc,):
        order += product_vars(iq.lhs) + product_vars(iq.rhs)
    return _rename_canonical(Quasiequation(prem, conc), order)


def q_a_of(rule: SchematicRule) -> Quasiequation:
    """Context-free quasiequation of an analytic rule.

    Variables are named from the conclusion: its middle SVars get x, y, ...
    left to right, then the succedent gets the next letter.
    """
    _, _, upsilon, mids, beta = analytic_parts(rule)
    prem = tuple(Inequation(t_term(m), t_term((beta,))) for m in mids)
    conc = Inequation(t_term(upsilon), t_term((beta,)))
    order: list[str] = []
    for iq in (conc,) + prem:
        order += product_vars(iq.lhs) + product_vars(iq.rhs)
    return _rename_canonical(Quasiequation(prem, conc), order)


def is_analytic_quasiequation(q: Quasiequation) -> bool:
    """Conclusion is a product of distinct variables below a fresh variable,
    premises are products of those variables below the same variable."""
    concl, z = product_vars(q.conclusion.lhs), q.conclusion.rhs
    if concl is None or len(set(concl)) != len(concl) or not isinstance(z, Var) or z.name in concl:
        return False
    for p in q.premises:
        inner = product_vars(p.lhs)
        if p.rhs != z or inner is None or not set(inner) <= set(concl):
            return False
    return True


def parse_inequation(text: str) -> Inequation:
    if "<=" not in text:
        raise RuleError(f"missing <= in inequation {text!r}")
    lhs, rhs = text.split("<=", 1)
    return Inequation(parse_formula(lhs.strip()), parse_formula(rhs.strip()))


def parse_quasiequation(text: str) -> Quasiequation:
    """Parse ``(p1 & p2) => lhs <= rhs``; premises optional as ``()``."""
    if "=>" not in text:
        raise RuleError(f"missing => in quasiequation {text!r}")
    prem_text, conc_text = text.split("=>", 1)
    prem_text = prem_text.strip()
    if prem_text.startswith("(") and prem_text.endswith(")"):
        prem_text = prem_text[1:-1].strip()
    premises = tuple(
        parse_inequation(p) for p in prem_text.split("&") if p.strip()
    )
    return Quasiequation(premises, parse_inequation(conc_text.strip()))


def qe_to_equation(q: Quasiequation) -> Inequation | None:
    """The equation form of a quasiequation whose right sides are all one
    variable z that occurs nowhere else, or None: (t1 <= z & ... & tk <= z)
    => t <= z holds for every z exactly when t <= t1 | ... | tk, the join
    being least; with no premises, t <= 0."""
    z = q.conclusion.rhs
    if not isinstance(z, Var) or any(p.rhs != z or z.name in variables(p.lhs) for p in q.premises) \
            or z.name in variables(q.conclusion.lhs):
        return None
    rhs = reduce(Join, (p.lhs for p in q.premises)) if q.premises else Zero()
    return Inequation(q.conclusion.lhs, rhs)


# ---------------------------------------------------------------------------
# Ground layout of an instance and the immediate-ancestor relation, computed
# once per shape: the formulas bound to the metavariables play no part.

# ("layout" or a child index below SHAPE_CHILD_CAP, (id(rule), svar names,
# image lengths)) -> (rule, fact); emptied when it holds SHAPE_CAP entries.
SHAPE_CAP = 512
SHAPE_CHILD_CAP = 32
_SHAPES: dict[tuple, tuple] = {}


@dataclass(frozen=True)
class Origin:
    """Where a ground occurrence comes from in the rule schema."""

    kind: str  # "svar" | "fvar" | "formula"
    name: str | None
    offset: int | None
    item: int


def layout(ms: MetaSequent, inst: Instantiation) -> tuple[list[Origin], Origin, dict[int, int]]:
    """Per-position origins of a ground sequent, plus item start positions."""
    origins: list[Origin] = []
    starts: dict[int, int] = {}
    pos = 0
    for idx, item in enumerate(ms.lhs):
        starts[idx] = pos
        if isinstance(item, SVar):
            image = inst.smap.get(item.name)
            if image is None:
                raise InstantiationError(f"no binding for sequence metavariable {item.name!r}")
            for off in range(len(image)):
                origins.append(Origin("svar", item.name, off, idx))
            pos += len(image)
        else:
            kind = "fvar" if isinstance(item, FVar) else "formula"
            name = item.name if isinstance(item, FVar) else None
            origins.append(Origin(kind, name, None, idx))
            pos += 1
    rhs_kind = "fvar" if isinstance(ms.rhs, FVar) else "formula"
    rhs_name = ms.rhs.name if isinstance(ms.rhs, FVar) else None
    return origins, Origin(rhs_kind, rhs_name, None, -1), starts


def principal_position(instance: RuleInstance) -> int | None:
    """Ground occurrence position of the principal formula of a rule
    instance, if any."""
    rule = instance.rule
    if rule.principal is None or rule.principal == -1:
        return rule.principal
    _, _, starts = instance.layout
    return starts[rule.principal]


def ancestry(instance: RuleInstance) -> frozenset[tuple[tuple[int, int], int]]:
    """Immediate-ancestor pairs (((premise index, premise position), conclusion position)).

    A premise occurrence is an immediate ancestor of a conclusion occurrence
    when it is auxiliary and the conclusion occurrence is principal, when both
    are the image of the same formula metavariable, or when both sit at the
    same offset inside images of the same sequence metavariable.
    """
    return ancestry_for_children(instance, range(len(instance.rule.premises)))


def _meta_items(ms: MetaSequent, starts: dict[int, int]) -> list[tuple[Item, int]]:
    """(item, first ground position) of each metavariable item, the succedent at -1."""
    return [(item, at) for item, at in (*zip(ms.lhs, starts.values()), (ms.rhs, -1))
            if isinstance(item, (SVar, FVar))]


def ancestry_for_children(
    instance: RuleInstance, child_indices
) -> frozenset[tuple[tuple[int, int], int]]:
    """Immediate-ancestor pairs of a rule instance for the given children:
    premise items are matched to conclusion items by metavariable, then each
    match is expanded to positions by the length of its image."""
    rule, smap = instance.rule, instance.inst.smap
    conclusion = _meta_items(rule.conclusion, instance.layout[2])
    principal = instance.principal
    pairs: set[tuple[tuple[int, int], int]] = set()
    for i in child_indices:
        ms, aux_items = rule.premise_meta(i)
        _, _, p_starts = layout(ms, instance.inst)
        # clause 1: auxiliary -> principal
        if principal is not None:
            pairs.update(((i, -1 if item == -1 else p_starts[item]), principal)
                         for item in aux_items)
        # clauses 2 and 3: same metavariable images
        for item, q in _meta_items(ms, p_starts):
            width = len(smap[item.name]) if isinstance(item, SVar) else 1
            pairs.update(((i, q + off), c + off)
                         for other, c in conclusion if other == item for off in range(width))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Built-in rules.


def _ms(lhs: tuple, rhs: Formula) -> MetaSequent:
    return MetaSequent(lhs, rhs)


def _fv(n: str) -> FVar:
    return FVar(n)


def _sv(n: str) -> SVar:
    return SVar(n)


def _principal_rule(name, premises, conclusion, principal, auxiliary):
    return SchematicRule(
        name,
        tuple(premises),
        conclusion,
        principal=principal,
        auxiliary=tuple(frozenset(a) for a in auxiliary),
    )


def builtin_rules() -> dict[str, SchematicRule]:
    """The principal rules, the id axiom, the right-child product variant,
    and the two infinitary left star rules."""
    G, D, S = _sv("Gamma"), _sv("Delta"), _sv("Sigma")
    a0, a1, b0, b1, a, b = _fv("a0"), _fv("a1"), _fv("b0"), _fv("b1"), _fv("a"), _fv("b")
    rules = [
        _principal_rule("zeroL", [], _ms((G, Zero(), D), b), 1, []),
        _principal_rule("oneL", [_ms((G, D), b)], _ms((G, One(), D), b), 1, [[]]),
        _principal_rule("oneR", [], _ms((), One()), -1, []),
        _principal_rule(
            "meetL0", [_ms((G, a0, D), b)], _ms((G, Meet(a0, a1), D), b), 1, [[1]]
        ),
        _principal_rule(
            "meetL1", [_ms((G, a1, D), b)], _ms((G, Meet(a0, a1), D), b), 1, [[1]]
        ),
        _principal_rule(
            "meetR",
            [_ms((G,), b0), _ms((G,), b1)],
            _ms((G,), Meet(b0, b1)),
            -1,
            [[-1], [-1]],
        ),
        _principal_rule(
            "joinL",
            [_ms((G, a0, D), b), _ms((G, a1, D), b)],
            _ms((G, Join(a0, a1), D), b),
            1,
            [[1], [1]],
        ),
        _principal_rule("joinR0", [_ms((G,), b0)], _ms((G,), Join(b0, b1)), -1, [[-1]]),
        _principal_rule("joinR1", [_ms((G,), b1)], _ms((G,), Join(b0, b1)), -1, [[-1]]),
        _principal_rule(
            "prodL", [_ms((G, a0, a1, D), b)], _ms((G, Prod(a0, a1), D), b), 1, [[1, 2]]
        ),
        _principal_rule(
            "prodR",
            [_ms((G,), b0), _ms((D,), b1)],
            _ms((G, D), Prod(b0, b1)),
            -1,
            [[-1], [-1]],
        ),
        _principal_rule(
            "lresL",
            [_ms((D,), a0), _ms((G, a1, S), b)],
            _ms((G, D, LRes(a0, a1), S), b),
            2,
            [[-1], [1]],
        ),
        _principal_rule(
            "lresR", [_ms((b0, G), b1)], _ms((G,), LRes(b0, b1)), -1, [[0, -1]]
        ),
        _principal_rule(
            "rresL",
            [_ms((D,), a0), _ms((G, a1, S), b)],
            _ms((G, RRes(a1, a0), D, S), b),
            1,
            [[-1], [1]],
        ),
        _principal_rule(
            "rresR", [_ms((G, b0), b1)], _ms((G,), RRes(b1, b0)), -1, [[1, -1]]
        ),
        _principal_rule("starR0", [], _ms((), Star(b)), -1, []),
        _principal_rule(
            "starR1",
            [_ms((G,), b), _ms((D,), Star(b))],
            _ms((G, D), Star(b)),
            -1,
            [[-1], [-1]],
        ),
        _principal_rule(
            "starL",
            [_ms((G, D), b), _ms((G, a, Star(a), D), b)],
            _ms((G, Star(a), D), b),
            1,
            [[], [1, 2]],
        ),
        _principal_rule(
            "prodL1", [_ms((G, a0, a1, D), b)], _ms((G, Prod(a0, a1), D), b), 1, [[1, 2]]
        ),
        SchematicRule(
            "id",
            (),
            _ms((a,), a),
            var_only=frozenset({"a"}),
        ),
        SchematicRule(
            "starLomega",
            (),
            _ms((G, Star(a), D), b),
            principal=1,
            omega="standard",
        ),
        SchematicRule(
            "starLomegaM",
            (_ms((G, D), b),),
            _ms((G, Star(a), D), b),
            principal=1,
            omega="modified",
        ),
    ]
    return {r.name: r for r in rules}


RULE_ALIASES = {
    "0L": "zeroL",
    "1L": "oneL",
    "1R": "oneR",
    "^L0": "meetL0",
    "^L1": "meetL1",
    "^R": "meetR",
    "&L0": "meetL0",
    "&L1": "meetL1",
    "&R": "meetR",
    "vL": "joinL",
    "vR0": "joinR0",
    "vR1": "joinR1",
    ".L": "prodL",
    ".R": "prodR",
    ".L+1": "prodL1",
    "\\L": "lresL",
    "\\R": "lresR",
    "/L": "rresL",
    "/R": "rresR",
    "*R0": "starR0",
    "*R1": "starR1",
    "*L": "starL",
    "*Lw": "starLomega",
    "*Lw'": "starLomegaM",
}


def example_structural_rules() -> dict[str, SchematicRule]:
    """The usual structural-rule examples: Cut, c, C, e, Wk."""
    return dict(_EXAMPLES)


def _example_rules() -> dict[str, SchematicRule]:
    G, D, P = _sv("Gamma"), _sv("Delta"), _sv("Pi")
    a, b, g = _fv("a"), _fv("b"), _fv("g")
    rules = [
        SchematicRule(
            "Cut",
            (_ms((D,), a), _ms((G, a, P), b)),
            _ms((G, D, P), b),
        ),
        SchematicRule("c", (_ms((G, a, a, D), b),), _ms((G, a, D), b)),
        SchematicRule("C", (_ms((G, P, P, D), b),), _ms((G, P, D), b)),
        SchematicRule("e", (_ms((G, a, b, D), g),), _ms((G, b, a, D), g)),
        SchematicRule("Wk", (_ms((G, D), b),), _ms((G, P, D), b)),
    ]
    return {r.name: r for r in rules}


# one read-only copy of each table, shared by every rule set of the process;
# every call of example_structural_rules shares its rule objects too, and so
# the facts kept per rule shape
_BUILTIN = MappingProxyType(builtin_rules())
_EXAMPLES = MappingProxyType(_example_rules())


def _check_user_name(name: str) -> None:
    """A user rule may not take the name of a built-in rule or an alias:
    it would shadow that rule wherever the rule is resolved by name."""
    if name in _BUILTIN or name in RULE_ALIASES:
        raise RuleError(f"user rule {name!r} has the name of a built-in rule")


# every name a rule set without user rules resolves: an alias names its
# built-in rule, and a built-in rule takes precedence over an example rule
_NAMES = MappingProxyType({**_EXAMPLES, **_BUILTIN,
                           **{alias: _BUILTIN[name] for alias, name in RULE_ALIASES.items()}})


class RuleSet:
    """Name-resolving view over built-in plus user rules."""

    def __init__(self, user: Sequence[SchematicRule] = ()):
        for r in user:
            _check_user_name(r.name)
        self.builtin = _BUILTIN
        self.examples = _EXAMPLES
        self.user = {r.name: r for r in user}
        # a user rule can take no built-in name or alias, so it only shadows an example rule
        self._names = {**_NAMES, **self.user} if self.user else _NAMES

    def resolve(self, name: str) -> SchematicRule:
        try:
            return self._names[name]
        except KeyError:
            raise RuleError(f"unknown rule {name!r}") from None

    def user_rules(self) -> list[SchematicRule]:
        return list(self.user.values())


# ---------------------------------------------------------------------------
# Rule files: one block per rule, premises, a dashed line, then the
# conclusion.  Uppercase identifiers are sequence metavariables, lowercase
# identifiers inside formulas are formula metavariables.


def _parse_metaseq(text: str, line_no: int) -> MetaSequent:
    if "|-" not in text:
        raise RuleError(f"line {line_no}: missing |- in rule line {text!r}")
    lhs_text, rhs_text = text.split("|-", 1)
    items: list[Item] = []
    chunk = lhs_text.strip()
    if chunk:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                raise RuleError(f"line {line_no}: empty item in {text!r}")
            if re.fullmatch(r"[A-Z][A-Za-z0-9_]*", part):
                items.append(SVar(part))
            else:
                items.append(parse_formula(part, atom_hook=_file_leaf))
    rhs = parse_formula(rhs_text.strip(), atom_hook=_file_leaf)
    return MetaSequent(tuple(items), rhs)


def _file_leaf(name: str) -> Formula:
    if name[0].isupper():
        raise RuleError(f"sequence metavariable {name!r} cannot occur inside a formula")
    return FVar(name)


def parse_rule_file(text: str) -> list[SchematicRule]:
    rules: list[SchematicRule] = []
    name: str | None = None
    premises: list[MetaSequent] = []
    conclusion: MetaSequent | None = None
    seen_dash = False

    def flush(line_no: int) -> None:
        nonlocal name, premises, conclusion, seen_dash
        if name is None:
            return
        if conclusion is None:
            raise RuleError(f"rule {name!r} has no conclusion")
        rule = SchematicRule(name, tuple(premises), conclusion)
        if not classify(rule).structural:
            raise RuleError(f"rule {name!r} is not a structural rule")
        rules.append(rule)
        name, premises, conclusion, seen_dash = None, [], None, False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("rule ") and line.strip().endswith(":"):
            flush(line_no)
            name = line.strip()[len("rule "):-1].strip()
            if not name:
                raise RuleError(f"line {line_no}: rule with empty name")
            _check_user_name(name)
            continue
        if name is None:
            raise RuleError(f"line {line_no}: content outside a rule block")
        if set(line.strip()) == {"-"}:
            seen_dash = True
            continue
        ms = _parse_metaseq(line.strip(), line_no)
        if seen_dash:
            if conclusion is not None:
                raise RuleError(f"line {line_no}: rule {name!r} has two conclusions")
            conclusion = ms
        else:
            premises.append(ms)
    flush(-1)
    return rules
