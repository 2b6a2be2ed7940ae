import json
import os

import pytest

from actlat.cli import main
from actlat.corpus import canonical_star_id, corrupted_variants
from actlat.proof_core import cyclic_to_json, save_proof
from actlat.rules import RuleSet


@pytest.fixture()
def star_id_file(tmp_path):
    path = tmp_path / "astar_id.cyclic"
    save_proof(str(path), cyclic_to_json(canonical_star_id(RuleSet())))
    return str(path)


@pytest.fixture()
def corrupted_file(tmp_path):
    path = tmp_path / "corrupted.cyclic"
    bad = corrupted_variants(RuleSet())["star_id_root_loop_C"]
    save_proof(str(path), cyclic_to_json(bad))
    return str(path)


def test_fmt(tmp_path, capsys):
    f = tmp_path / "seqs.txt"
    f.write_text("a ,b|-a.b   # comment\n\n|-1\n")
    assert main(["fmt", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["a, b |- a . b", "|- 1"]


def test_rules_quasieq_cut(capsys):
    assert main(["rules", "quasieq", "Cut"]) == 0
    assert capsys.readouterr().out.strip() == "(x <= y & z.y.w <= u) => z.x.w <= u"


def test_rules_classify(capsys):
    assert main(["rules", "classify", "C"]) == 0
    out = capsys.readouterr().out
    assert "analytic=True" in out
    assert main(["rules", "classify", "c"]) == 0
    assert "linear=False" in capsys.readouterr().out


def test_check_accepts_canonical(star_id_file, capsys):
    assert main(["check", star_id_file]) == 0
    assert "accepted" in capsys.readouterr().out


def test_check_rejects_corrupted_with_cycle(corrupted_file, capsys):
    assert main(["check", corrupted_file]) == 1
    out = capsys.readouterr().out
    assert "counterexample cycle" in out


def test_translate_rejects_corrupted_proof(corrupted_file, tmp_path, capsys):
    out = tmp_path / "out.womega"
    assert main(["translate", "--to", "wf", corrupted_file, str(out)]) == 1
    assert "branch condition" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    import actlat.cli as cli

    def crash(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "prove", crash)
    assert main(["prove", "a |- a"]) == 4
    assert "internal error: IndexError: list index out of range" in capsys.readouterr().err


def test_check_json_output(star_id_file, capsys):
    assert main(["--json", "check", star_id_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["system"] == "cyclic"


def test_prove_writes_proof(tmp_path, capsys):
    out = tmp_path / "two_star.cyclic"
    assert main(["prove", "a*, a* |- a*", "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0


def test_prove_star_of_star(capsys):
    assert main(["prove", "(a*)* |- a*"]) == 0


def test_prove_unknown_exit_code(capsys):
    assert main(["prove", "a |- b", "--depth", "6"]) == 2


def test_refute_exit_code(capsys):
    assert main(["refute", "a |- b"]) == 1
    assert "two_chain" in capsys.readouterr().out
    assert main(["refute", "a |- a"]) == 2


def test_translate_nested_families_round_trip(tmp_path, capsys):
    # the two-star proof translates to nested premise families; the file
    # loader replays the pipeline from the embedded source
    from actlat.corpus import canonical_two_star

    src = tmp_path / "two_star.cyclic"
    save_proof(str(src), cyclic_to_json(canonical_two_star(RuleSet())))
    wf = tmp_path / "two_star.womega"
    assert main(["translate", "--to", "wf", str(src), str(wf)]) == 0
    assert main(["check", str(wf), "--omega-fuel", "3"]) == 0


STATS_KEYS = {"expansions", "instances", "sequents", "model_queries", "model_seconds",
              "candidates", "visit_capped", "replayed", "budget", "seconds"}


def test_prove_json_schema(capsys):
    assert main(["--json", "prove", "a |- a"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True and payload["nodes"] == 1
    assert set(payload["stats"]) == STATS_KEYS
    assert payload["stats"]["candidates"] == 1
    assert main(["--json", "prove", "a |- b", "--depth", "6"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] and set(payload["stats"]) == STATS_KEYS


def test_corpus_run_json(monkeypatch, capsys):
    # smoke the runner shape only: the whole of stdout is one JSON document
    import actlat.corpus as corpus_mod

    monkeypatch.setattr(corpus_mod, "run_acceptance", lambda seed: [])
    assert main(["--json", "corpus", "run", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == {"seed": 7, "criteria": []}


def _subcommands() -> set[tuple[str, ...]]:
    """Every command of the parser, with each choice of its ``action``."""
    import argparse

    from actlat.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = set()
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.dest == "action"]
        out |= {(name, c) for c in actions[0].choices} if actions else {(name,)}
    return out


def test_every_json_subcommand_prints_one_document(star_id_file, tmp_path, monkeypatch, capsys):
    import actlat.corpus as corpus_mod

    # the criteria themselves run in test_acceptance.py
    one = corpus_mod.CriterionResult(1, "rule engine", True, "3 rules", 0.01)
    monkeypatch.setattr(corpus_mod, "run_acceptance", lambda seed: [one])
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("a |- a\na, b |- a . b\n")
    wf, nwf, proj = (str(tmp_path / n) for n in ("a.womega", "a.nwf", "p.cyclic"))
    runs = [
        ["fmt", str(seqs)],
        ["translate", "--to", "wf", star_id_file, wf],
        ["translate", "--to", "nwf", wf, nwf],
        ["check", star_id_file], ["check", wf], ["check", nwf],
        ["project", "--pos", "0", "--value", "2", star_id_file, proj],
        ["prove", "a |- a"], ["prove", "a |- b", "--depth", "6"],
        ["refute", "a |- b"], ["refute", "a |- a"],
        ["rules", "classify", "C"], ["rules", "quasieq", "Cut"],
        ["models", "validate", "rel2"], ["models", "eval", "two_chain", "a", "--env", "a=1"],
        ["models", "check-seq", "two_chain", "a |- b"],
        ["models", "check-qe", "rel2", "(x.x <= y) => x <= y"],
        ["models", "audit", "--seqs", str(seqs)],
        ["frames", "dual", "two_chain"], ["frames", "gentzen-check", "three_chain"],
        ["frames", "transfer", "two_chain", "--qe", "(x.x <= y) => x <= y"],
        ["frames", "macneille", "rel1"],
        ["corpus", "run"],
    ]
    for argv in runs:
        assert main(["--json"] + argv) in (0, 1, 2), argv
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict) and payload, argv
    covered = {tuple(argv[:2]) if argv[0] in ("rules", "models", "frames", "corpus")
               else (argv[0],) for argv in runs}
    assert covered == _subcommands()


def test_translate_round_trip(star_id_file, tmp_path, capsys):
    wf = tmp_path / "astar_id.womega"
    assert main(["translate", "--to", "wf", star_id_file, str(wf)]) == 0
    assert main(["check", str(wf)]) == 0
    out = capsys.readouterr().out
    assert "BOUNDED" in out
    nwf = tmp_path / "astar_id.nwf"
    assert main(["translate", "--to", "nwf", str(wf), str(nwf)]) == 0
    assert main(["check", str(nwf), "--unfold-depth", "4"]) == 0


def test_project_command(star_id_file, tmp_path, capsys):
    out = tmp_path / "projected.cyclic"
    assert main(["project", "--pos", "0", "--value", "2", star_id_file, str(out)]) == 0
    assert main(["check", str(out)]) == 0


def test_models_commands(capsys):
    assert main(["models", "validate", "two_chain"]) == 0
    assert main(["models", "check-seq", "two_chain", "a |- a"]) == 0
    assert main(["models", "check-seq", "two_chain", "a |- b"]) == 1
    assert "fails" in capsys.readouterr().out
    assert main(["models", "check-qe", "rel2", "(x.x <= y) => x <= y"]) == 1


def test_models_eval(capsys):
    assert main(["models", "eval", "two_chain", "a . b", "--env", "a=1,b=0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_models_audit(tmp_path, capsys):
    seqs = tmp_path / "goals.txt"
    seqs.write_text("a |- a\na, b |- a . b\n")
    assert main(["models", "audit", "--seqs", str(seqs)]) == 0


def test_models_audit_accepts_a_rule_that_is_not_analytic(tmp_path, capsys):
    seqs = tmp_path / "goals.txt"
    seqs.write_text("a, b |- b . a\n")
    rules = tmp_path / "rules.txt"
    rules.write_text("rule e:\n  G, a, b, D |- g\n  ----\n  G, b, a, D |- g\n")
    assert main(["--json", "models", "audit", "--seqs", str(seqs), "--rules", str(rules)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["skipped_models"], out["undecided_models"]) == (["rel2", "trunc_words"], [])
    assert out["valuations"] == 2 * 2 + 3 * 3 + 2 * 2  # the chains two_chain, three_chain, rel1


def test_model_file_breaking_the_laws_gets_its_whole_grid_witness(tmp_path, capsys):
    # rel2 with one product entry raised to the top: the reduced grid of the
    # polarity lemmas would call the sequent valid, the whole grid fails
    from actlat.models import model_to_json, rel_algebra

    data = model_to_json(rel_algebra(2))
    data["prod"][3][12] = 15
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    seq = "a . (b | 0), 1 |- a . (0 \\ b)"
    assert main(["models", "check-seq", "rel2", seq]) == 0
    capsys.readouterr()
    assert main(["--json", "models", "check-seq", str(path), seq]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valuation"] == {"a": "{00,01}", "b": "{10,11}"}
    seqs = tmp_path / "goals.txt"
    seqs.write_text(seq + "\n")
    assert main(["--json", "models", "audit", "--seqs", str(seqs), "--models", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"]


def test_frames_commands(capsys):
    assert main(["frames", "dual", "two_chain"]) == 0
    assert main(["frames", "gentzen-check", "three_chain"]) == 0
    assert main(["frames", "transfer", "two_chain", "--qe", "(x.x <= y) => x <= y"]) == 0
    assert main(["frames", "macneille", "rel1"]) == 0
    assert "isomorphic" in capsys.readouterr().out


def test_frames_json_stats(capsys):
    keys = {"closed_sets", "rounds", "enumerate_seconds", "tables_seconds"}
    assert main(["--json", "frames", "dual", "rel2"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert set(stats) == keys and stats["closed_sets"] == 16 and stats["rounds"] >= 1
    assert main(["--json", "frames", "macneille", "rel2"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert set(stats) == keys and stats["closed_sets"] == 16


def _break_prod(m):
    m["prod"][0][1] = 5


def _break_one(m):
    m["one"] = 7


def _break_elements(m):
    m["elements"].append("extra")


def _break_star(m):
    m["star"] = m["star"][:1]


@pytest.mark.parametrize("command", [["models", "validate"], ["frames", "dual"]])
@pytest.mark.parametrize("defect", [_break_prod, _break_one, _break_elements, _break_star])
def test_malformed_model_file_is_usage_error(tmp_path, capsys, command, defect):
    from actlat.models import model_to_json, two_chain

    data = model_to_json(two_chain())
    defect(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(command + [str(path)]) == 3
    assert "model file" in capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    assert main(["prove", "a |-"]) == 3


def test_usage_error_exit_code():
    assert main(["definitely-not-a-command"]) == 3


@pytest.mark.parametrize("argv, missing", [
    (["models", "validate"], "model"),
    (["models", "eval", "two_chain"], "expr"),
    (["models", "check-seq", "two_chain"], "expr"),
    (["models", "audit"], "--seqs"),
    (["frames", "transfer", "two_chain"], "--qe or --rule"),
])
def test_missing_argument_is_usage_error(capsys, argv, missing):
    assert main(argv) == 3
    assert capsys.readouterr().err.strip().endswith(f"needs {missing}")


def test_rules_quasieq_analytic_flag(capsys):
    assert main(["rules", "quasieq", "C", "--analytic"]) == 0
    assert capsys.readouterr().out.strip() == "(x.x <= y) => x <= y"


def test_translate_resource_limit_exit_code(tmp_path, capsys):
    from actlat.corpus import canonical_two_star

    src = tmp_path / "two_star.cyclic"
    save_proof(str(src), cyclic_to_json(canonical_two_star(RuleSet())))
    out = tmp_path / "out.womega"
    assert main(["translate", "--to", "wf", "--fuel", "2", str(src), str(out)]) == 2


def test_user_rule_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("rule e:\n  G, a, b, D |- g\n  ----\n  G, b, a, D |- g\n")
    assert main(["prove", "a . b |- b . a", "--rules", str(rules)]) == 0
    assert main(["rules", "classify", "e", "--rules", str(rules)]) == 0


def test_user_rule_named_like_a_builtin_is_usage_error(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("rule prodL:\n  G, a, b, D |- g\n  ----\n  G, b, a, D |- g\n")
    assert main(["prove", "a . b |- b . a", "--rules", str(rules)]) == 3
    assert "name of a built-in rule" in capsys.readouterr().err
