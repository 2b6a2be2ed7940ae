"""Per-layer spans for the traced run, recorded from outside the library.

The tracer replaces each function named in FUNCTIONS by a timing wrapper, in
the module that defines it and in every ``actlat`` module that imported it by
name (``search.instantiate``, ``proof_core.print_sequent`` and so on), and
puts the originals back on ``restore``.  A span is recorded for every call
made while an op is running: name, start, end, parent span and op id.  A
span's self time is its duration minus the time its direct child spans
cover, so time spent in functions that are not wrapped is charged to the
nearest wrapped caller.

Hot leaf helpers (substitution, formula evaluation, ``compose``) are left
unwrapped on purpose: wrapping them would make the overhead swamp the work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

LAYERS = ("syntax", "rules", "proof_core", "progress", "translate", "models", "frames", "search")

# layer -> {public function: metric group}.  Metric names are
# "<layer>.<group>.calls" and "<layer>.<group>.self_s".
FUNCTIONS: dict[str, dict[str, str]] = {
    "syntax": {
        "parse_formula": "parse", "parse_sequent": "parse",
        "print_formula": "print", "print_sequent": "print",
    },
    "rules": {
        "instantiate": "instantiate", "instantiate_premise": "instantiate",
        "instantiate_conclusion": "instantiate",
        "match_conclusion": "match_conclusion",
        "layout": "layout",
        "principal_position": "principal_position",
        "ancestry_for_children": "ancestry_for_children",
        "classify": "other", "builtin_rules": "other", "example_structural_rules": "other",
    },
    "proof_core": {
        "check_local": "check_local",
        "check_wf": "check_wf",
        "check_cyclic_local": "check_cyclic_local",
        "id_expand": "admissible", "zeroR_admit": "admissible", "tau_n": "admissible",
        "dotL_invert": "admissible", "oneL_invert": "admissible",
        "to_standard_omega": "admissible",
        "cyclic_to_json": "json", "cyclic_from_json": "json",
        "make_app": "other",
    },
    "progress": {"check_cyclic_progress": "check"},
    "translate": {
        "nwf_to_wf": "nwf_to_wf",
        "wf_to_nwf": "wf_to_nwf",
        "check_lazy_prefix": "check_lazy_prefix",
    },
    "models": {
        "find_sequent_counterexample": "query", "holds_sequent": "query",
        "find_quasieq_counterexample": "query", "holds_quasieq": "query",
        "two_chain": "build", "three_chain": "build", "rel_algebra": "build",
        "truncated_words": "build",
        "validate_algebra": "validate",
        "soundness_audit": "other",
    },
    "frames": {
        "check_gentzen": "gentzen", "check_star_gentzen": "gentzen",
        "dual_algebra": "dual",
        "verify_transfer": "transfer", "frame_satisfies_q": "transfer",
        "frame_q_counterexample": "transfer",
        "macneille": "macneille",
        "check_nuclear": "other", "frame_of_algebra": "other",
        "quasimorphism_check": "other", "embedding_check": "other",
    },
    "search": {"prove": "prove", "refute": "refute"},
}

# Counts read from return values, summed over the outermost span of a group:
# nodes a prefix check visited, closed sets of a dual algebra, accepted
# progress checks, and validity queries that found a counterexample.
_VALUES = {
    "check_lazy_prefix": lambda r: r[0],
    "dual_algebra": lambda r: len(r.closed),
    "check_cyclic_progress": lambda r: int(r.accepted),
    "find_sequent_counterexample": lambda r: int(r is not None),
    "find_quasieq_counterexample": lambda r: int(r is not None),
    "holds_sequent": lambda r: int(not r),
    "holds_quasieq": lambda r: int(not r),
}


class Tracer:
    """Installs the wrappers and keeps the spans of one traced run."""

    def __init__(self):
        self.groups: list[str] = []          # span name id -> "layer.group"
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.name = array("H")
        self.value = array("i")
        self.op_id = -1                      # -1 while no op runs
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, list[str]] = {}   # group -> wrapped functions

    def _wrap(self, fn, group: str, value_of):
        gid = len(self.groups)
        self.groups.append(group)
        start, end, parent, op, name, value = (
            self.start, self.end, self.parent, self.op, self.name, self.value)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            name.append(gid)
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if value_of is not None:
                value[idx] = value_of(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever an actlat module binds it."""
        originals: dict[int, object] = {}
        for layer, table in FUNCTIONS.items():
            mod = importlib.import_module(f"actlat.{layer}")
            for fname, group in table.items():
                fn = getattr(mod, fname)
                key = f"{layer}.{group}"
                originals[id(fn)] = self._wrap(fn, key, _VALUES.get(fname))
                self.wrapped.setdefault(key, []).append(fname)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "actlat" or modname.startswith("actlat.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, attr, val = self._saved.pop()
            setattr(mod, attr, val)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self, op_seconds: float, passes: int) -> dict[str, float]:
        """Per-pass self times and counts per group and per layer.

        A call is counted only when its parent span belongs to another
        group, so recursion and thin wrappers (``holds_sequent`` around
        ``find_sequent_counterexample``) count once.
        """
        n = len(self.start)
        groups = self.groups
        name, parent, value, start, end = self.name, self.parent, self.value, self.start, self.end
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out: dict[str, float] = {}

        def add(key: str, v: float) -> None:
            out[key] = out.get(key, 0.0) + v

        for key in self.wrapped:
            out[f"{key}.calls"] = 0.0
            out[f"{key}.self_s"] = 0.0
            out[f"{key}.value"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        candidates = 0
        for i in range(n):
            key = groups[name[i]]
            self_s = end[i] - start[i] - covered[i]
            add(f"{key}.self_s", self_s)
            add(key.split(".", 1)[0] + ".self_s", self_s)
            p = parent[i]
            pkey = groups[name[p]] if p >= 0 else None
            if pkey != key:
                add(f"{key}.calls", 1)
                add(f"{key}.value", value[i])
            if key == "proof_core.check_cyclic_local" and pkey == "search.prove":
                candidates += 1
        out["search.candidates"] = float(candidates)
        out = {k: v / passes for k, v in out.items()}
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] * passes / op_seconds if op_seconds else 0.0
        return out


# The per-layer metrics of BENCHMARK.json, in its order.  Counts and self
# times are per pass; "search.outcome.*" and "trace.overhead_frac" come from
# the run itself, not from spans.
PER_LAYER = (
    "syntax.parse.calls", "syntax.parse.self_s", "syntax.print.self_s",
    "rules.instantiate.calls", "rules.instantiate.self_s",
    "rules.match_conclusion.calls", "rules.match_conclusion.self_s",
    "rules.layout.calls", "rules.principal_position.calls", "rules.ancestry_for_children.calls",
    "proof_core.check_local.calls", "proof_core.check_local.self_s",
    "proof_core.check_wf.self_s", "proof_core.check_cyclic_local.self_s",
    "proof_core.admissible.self_s", "proof_core.json.self_s",
    "progress.check.calls", "progress.check.self_s", "progress.accept_ratio",
    "translate.nwf_to_wf.self_s", "translate.wf_to_nwf.self_s",
    "translate.check_lazy_prefix.self_s", "translate.nodes_checked",
    "models.query.calls", "models.query.self_s", "models.query.hit_ratio",
    "models.build.self_s", "models.validate.self_s",
    "frames.gentzen.self_s", "frames.dual.self_s", "frames.dual.closed_sets",
    "frames.transfer.self_s", "frames.macneille.self_s", "frames.other.self_s",
    "search.prove.calls", "search.prove.self_s", "search.refute.self_s", "search.candidates",
    "search.outcome.proved", "search.outcome.unknown", "search.outcome.refuted",
    "search.outcome.crashed",
) + tuple(f"{layer}.share" for layer in LAYERS) + ("trace.overhead_frac",)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", ".share")):
        return "ratio"
    return "count"


def derived(raw: dict[str, float]) -> dict[str, float]:
    """Add the ratios and the counts read from return values."""

    def ratio(num: str, den: str) -> float:
        return raw[num] / raw[den] if raw[den] else 0.0

    out = {k: v for k, v in raw.items() if not k.endswith(".value")}
    out["progress.accept_ratio"] = ratio("progress.check.value", "progress.check.calls")
    out["models.query.hit_ratio"] = ratio("models.query.value", "models.query.calls")
    out["translate.nodes_checked"] = raw["translate.check_lazy_prefix.value"]
    out["frames.dual.closed_sets"] = raw["frames.dual.value"]
    return out
