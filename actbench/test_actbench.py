"""Self-tests of the benchmark:  python3 -m pytest actbench -q"""

from __future__ import annotations

import json
import sys

import pytest

import run
import spans
import workloads as W
from actlat import proof_core, search
from actlat.corpus import canonical_star_id

BENCHMARK = json.loads((W.HERE.parent / "BENCHMARK.json").read_text())

# Small inputs that still reach every outcome: proved (one goal with a
# structural rule), crashed, unknown, and refuted.
TINY_GOALS = ("id_atom", "wk_extra", "star_unfold_right", "star_shift_left", "prod_swap", "star_drop")
TINY_FIXTURES = ("star_id", "corpus_wk_extra", "two_star_proj_0to1")
TINY_MODELS = ("two_chain", "rel2")


def tiny_inputs(workload: str):
    if workload == "prove":
        return W.setup_prove([g for g in W.load_goals() if g["name"] in TINY_GOALS])
    if workload == "pipeline":
        return [fx for fx in W.load_fixtures() if fx["name"] in TINY_FIXTURES]
    inputs = W.setup_semantics(1)
    inputs.models = tuple(m for m in W.MODELS if m[0] in TINY_MODELS)
    return inputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload):
    tally = run.run_passes(workload, tiny_inputs(workload), seed=7, passes=2)
    assert tally.error is None
    assert tally.passes == 2
    if workload == "prove":
        assert tally.outcomes == {"proved": 4, "crashed": 2, "unknown": 2, "refuted": 4}
    else:
        assert set(tally.outcomes) == {"checked"}
    tally.setup_s.append(0.1)
    metrics = run.end_to_end(tally)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_renaming_is_a_permutation():
    import random

    text = "(a | b)* , c |- a* . (b / c)"
    renamed = W.rename_atoms(text, random.Random(3))
    assert renamed.count("|-") == 1 and renamed != text
    assert len(set(W._ATOM.findall(renamed))) == 3


def _goals_with(name: str, **change) -> list[dict]:
    goals = [dict(g) for g in W.load_goals() if g["name"] == name]
    goals[0].update(change)
    return goals


@pytest.mark.parametrize("name, change, message", [
    ("id_atom", {"valid": False, "counter_model": "two_chain"}, "proof of the invalid goal"),
    ("star_drop", {"valid": True}, "refutation of the valid goal"),
])
def test_wrong_verdict_trips_gate(name, change, message, monkeypatch):
    # the reference check in setup would reject the flipped label first
    monkeypatch.setattr(W.models, "holds_sequent", lambda a, s: False)
    inputs = W.setup_prove(_goals_with(name, **change))
    monkeypatch.undo()
    tally = run.run_passes("prove", inputs, seed=1, passes=1)
    assert tally.error is not None and message in tally.error
    assert tally.outcomes["wrong"] == 1


def test_proof_of_another_sequent_trips_gate(monkeypatch):
    inputs = W.setup_prove(_goals_with("id_atom"))
    bogus = search.SearchResult(True, canonical_star_id())
    monkeypatch.setattr(search, "prove", lambda *a, **k: bogus)
    tally = run.run_passes("prove", inputs, seed=1, passes=1)
    assert tally.error is not None and "fails the local, progress or model check" in tally.error


def test_rejected_fixture_trips_gate(monkeypatch):
    report = proof_core.WfReport(False, 0, False)
    monkeypatch.setattr(proof_core, "check_wf", lambda *a, **k: report)
    tally = run.run_passes("pipeline", tiny_inputs("pipeline")[:1], seed=1, passes=1)
    assert tally.error is not None and "check_wf" in tally.error


def test_main_exits_nonzero_on_wrong_verdict(monkeypatch, capsys):
    flipped = _goals_with("id_atom", valid=False, counter_model="two_chain")
    monkeypatch.setattr(W, "load_goals", lambda: flipped)
    monkeypatch.setattr(W.models, "holds_sequent", lambda a, s: False)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    code = run.main(["--workload", "prove", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_wrappers_cover_every_binding():
    originals = {}
    for layer, table in spans.FUNCTIONS.items():
        mod = sys.modules[f"actlat.{layer}"]
        originals.update({id(getattr(mod, f)): f for f in table})
    actlat_modules = [m for n, m in sys.modules.items() if n == "actlat" or n.startswith("actlat.")]
    with spans.Tracer() as tracer:
        for mod in actlat_modules:
            stale = [a for a, v in vars(mod).items() if id(v) in originals]
            assert not stale, f"{mod.__name__} still binds the unwrapped {stale}"
        for metric in spans.PER_LAYER:
            layer, _, rest = metric.partition(".")
            group = rest.rsplit(".", 1)[0]
            if rest.endswith((".calls", ".self_s")):
                assert f"{layer}.{group}" in tracer.wrapped, metric
    restored = {id(v) for m in actlat_modules for v in vars(m).values()}
    assert set(originals) <= restored


def test_every_per_layer_metric_is_live():
    """A traced tiny run of each workload; every per-layer metric must
    read non-zero on at least one of them."""
    seen = {name: 0.0 for name in spans.PER_LAYER}
    for workload in run.WORKLOADS:
        inputs = tiny_inputs(workload)
        with spans.Tracer() as tracer:
            tally = run.run_passes(workload, inputs, seed=3, passes=1, tracer=tracer)
        assert tally.error is None
        metrics = run.layer_metrics(tracer, tally)
        metrics["trace.overhead_frac"] = 1.0
        for name in seen:
            seen[name] = max(seen[name], metrics[name])
        if workload != "semantics":
            assert metrics["frames.share"] == 0.0
        if workload != "prove":
            assert metrics["search.share"] == 0.0
    dead = [name for name, v in seen.items() if v <= 0]
    assert not dead, f"per-layer metrics that never moved: {dead}"


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert all(m["unit"] == spans.unit(m["name"]) for m in BENCHMARK["per_layer"])
