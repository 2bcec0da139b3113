import json

import pytest

from okh.cli import main
from okh.hypergraph import merge_facts


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> build -> train once and share the artifact paths."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    snapshot = root / "graph.snap"
    checkpoint = root / "model.okht"
    assert main(["synth", "--seed", "0", "--groups", "2", "--horizons", "2",
                 "--out", str(data)]) == 0
    assert main(["build", "--corpus", str(data / "facts.jsonl"),
                 "--snapshot", str(snapshot)]) == 0
    assert main(["train", "--snapshot", str(snapshot),
                 "--checkpoint", str(checkpoint),
                 "--dim", "32", "--rank", "4", "--epochs", "2"]) == 0
    return {
        "facts": data / "facts.jsonl",
        "qa": data / "qa.json",
        "snapshot": snapshot,
        "checkpoint": checkpoint,
    }


def test_synth_writes_corpus_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--seed", "1", "--groups", "1", "--horizons", "2",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 36 facts" in stdout
    facts = (out / "facts.jsonl").read_text(encoding="utf-8")
    assert len(facts.splitlines()) == 36
    qa = json.loads((out / "qa.json").read_text(encoding="utf-8"))
    assert len(qa) == 6
    assert {item["kind"] for item in qa} == {"final_value", "escalation", "at_horizon"}


def test_build_reports_graph_shape(pipeline, capsys):
    # Rebuild from the same facts to observe the summary line.
    snapshot = pipeline["snapshot"].parent / "again.snap"
    assert main(["build", "--corpus", str(pipeline["facts"]),
                 "--snapshot", str(snapshot)]) == 0
    stdout = capsys.readouterr().out
    assert "built hypergraph with" in stdout
    assert "2 groups" in stdout
    assert snapshot.exists()


def test_train_reports_parameter_count(pipeline, capsys):
    checkpoint = pipeline["checkpoint"].parent / "retrain.okht"
    assert main(["train", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(checkpoint),
                 "--dim", "32", "--rank", "4", "--epochs", "1"]) == 0
    stdout = capsys.readouterr().out
    # 2 * rank * dim = 2 * 4 * 32.
    assert "trained 256 parameters" in stdout
    assert checkpoint.exists()


def test_retrieve_prints_result_json_and_evidence(pipeline, capsys):
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32",
                 "--query", "What is the latest operation status?",
                 "--beam", "4", "--length", "4", "--paths", "2",
                 "--topk", "20", "--cap", "40"]) == 0
    stdout = capsys.readouterr().out
    json_part, _, evidence = stdout.partition("\n=== Trajectory 1 ===\n")
    result = json.loads(json_part)
    assert result["query"] == "What is the latest operation status?"
    assert result["trajectories"]
    first = result["trajectories"][0]
    assert set(first) == {"steps", "total", "breakdown"}
    assert "[Step 1]" in evidence
    assert "Relation:" in evidence


def test_retrieve_out_file_is_deterministic(pipeline, tmp_path):
    args = ["retrieve", "--snapshot", str(pipeline["snapshot"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--dim", "32",
            "--query", "gale probability",
            "--beam", "4", "--length", "4", "--paths", "2",
            "--topk", "20", "--cap", "40"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_retrieve_group_hint_and_variant(pipeline, capsys):
    qa = json.loads(pipeline["qa"].read_text(encoding="utf-8"))
    group = qa[0]["group"]
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32",
                 "--query", qa[0]["question"],
                 "--group", group,
                 "--variant", "heuristic_order",
                 "--beam", "4", "--length", "4", "--paths", "1",
                 "--topk", "20", "--cap", "40"]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.partition("\n=== Trajectory 1 ===\n")[0])
    assert len(result["trajectories"]) == 1
    steps = result["trajectories"][0]["steps"]
    assert steps
    # Every retrieved step must exist in the built graph.
    facts = [json.loads(line)
             for line in pipeline["facts"].read_text(encoding="utf-8").splitlines()]
    graph = merge_facts([facts])
    for step in steps:
        assert step in graph.hyperedges


def test_retrieve_embedding_cache_round_trip(pipeline, tmp_path):
    cache = tmp_path / "embeddings.okhe"
    args = ["retrieve", "--snapshot", str(pipeline["snapshot"]),
            "--checkpoint", str(pipeline["checkpoint"]),
            "--dim", "32", "--cache", str(cache),
            "--query", "surge forecast",
            "--beam", "4", "--length", "4", "--paths", "1",
            "--topk", "20", "--cap", "40"]
    out_cold = tmp_path / "cold.json"
    out_warm = tmp_path / "warm.json"
    assert main(args + ["--out", str(out_cold)]) == 0
    assert cache.exists()
    assert main(args + ["--out", str(out_warm)]) == 0
    assert out_cold.read_bytes() == out_warm.read_bytes()


def test_eval_writes_report_for_one_variant(pipeline, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32", "--qa", str(pipeline["qa"]),
                 "--variant", "full",
                 "--beam", "4", "--length", "4", "--paths", "1",
                 "--topk", "20", "--cap", "40",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "variant" in stdout.splitlines()[0]
    assert "full" in stdout
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert len(reports) == 1
    assert reports[0]["variant"] == "full"
    assert reports[0]["n_queries"] == 12


def test_eval_all_variants_produces_full_table(pipeline, capsys):
    assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32", "--qa", str(pipeline["qa"]),
                 "--beam", "2", "--length", "3", "--paths", "1",
                 "--topk", "10", "--cap", "20"]) == 0
    stdout = capsys.readouterr().out
    for name in ("full", "shuffled", "no_lambda", "no_mu", "no_nu", "no_rho",
                 "no_order", "heuristic_order"):
        assert name in stdout


def test_config_file_supplies_defaults_under_flags(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"groups": 2, "horizons": 2, "seed": 4,
                                  "out": str(tmp_path / "ignored")}),
                      encoding="utf-8")
    out = tmp_path / "actual"
    assert main(["synth", "--config", str(config), "--groups", "1",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # One group of two horizons: the flag beat the config's group count.
    assert "wrote 36 facts" in stdout
    assert (out / "facts.jsonl").exists()


def test_config_lambda_alias_is_accepted(pipeline, tmp_path):
    config = tmp_path / "retrieve.json"
    config.write_text(json.dumps({"lambda": 0.0, "beam": 4, "length": 3,
                                  "paths": 1, "topk": 10, "cap": 20}),
                      encoding="utf-8")
    assert main(["retrieve", "--config", str(config),
                 "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32", "--query", "advisory level"]) == 0


def test_unknown_config_key_fails_with_schema_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"grops": 2}), encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "unknown option" in capsys.readouterr().err


def test_malformed_config_json_fails(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json", encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_missing_required_flags_exit_with_usage_error(tmp_path, capsys):
    assert main(["build", "--corpus", str(tmp_path / "x.jsonl")]) == 2
    assert main(["retrieve", "--snapshot", "s", "--checkpoint", "c"]) == 2
    assert main(["eval", "--snapshot", "s", "--checkpoint", "c"]) == 2
    capsys.readouterr()


def test_missing_snapshot_file_exits_two(tmp_path, capsys):
    assert main(["retrieve", "--snapshot", str(tmp_path / "absent.snap"),
                 "--checkpoint", str(tmp_path / "absent.okht"),
                 "--query", "q"]) == 2
    capsys.readouterr()


def test_dimension_mismatch_between_checkpoint_and_store(pipeline, capsys):
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "16", "--query", "q"]) == 2
    assert "16-d" in capsys.readouterr().err


def test_eval_refuses_checkpoint_of_another_dimension(pipeline, capsys):
    assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "64", "--qa", str(pipeline["qa"]),
                 "--variant", "full"]) == 2
    err = capsys.readouterr().err
    assert "checkpoint is 32-d but embeddings are 64-d" in err
    assert "matmul" not in err


def test_eval_rejects_malformed_qa_items(pipeline, tmp_path, capsys):
    item = json.loads(pipeline["qa"].read_text(encoding="utf-8"))[0]
    for index, (field, key, value) in enumerate([
        ("qa[0].question", "question", 5),
        ("qa[0].horizon", "horizon", "3"),
        ("qa[0].horizon", "horizon", 0),
        ("qa[0].kind", "kind", "bogus"),
        ("qa[0].group", "group", "NOPE:nope"),
        ("qa[0].numeric", "numeric", "yes"),
        ("qa[0].expected", "expected", None),
    ]):
        path = tmp_path / f"qa{index}.json"
        path.write_text(json.dumps([{**item, key: value}]), encoding="utf-8")
        assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--dim", "32", "--qa", str(path), "--variant", "full"]) == 2, field
        assert f"{field}:" in capsys.readouterr().err
    for text, field in [("[5]", "qa[0]:"), ("{", "qa:")]:
        path = tmp_path / "qa_bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--dim", "32", "--qa", str(path), "--variant", "full"]) == 2
        assert field in capsys.readouterr().err


def test_eval_checks_qa_file_before_loading_artifacts(pipeline, tmp_path, capsys):
    for text, field in [("{", "qa:"), ("[5]", "qa[0]:")]:
        path = tmp_path / "qa_bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                     "--checkpoint", str(tmp_path / "missing.okht"),
                     "--dim", "32", "--qa", str(path), "--variant", "full"]) == 2
        assert field in capsys.readouterr().err


def test_non_finite_weights_exit_two_and_write_nothing(pipeline, tmp_path, capsys):
    common = ["--snapshot", str(pipeline["snapshot"]),
              "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32"]
    for flag, value, field in [
        ("--lambda", "nan", "lambda_coherence"),
        ("--mu", "inf", "mu_precedence"),
        ("--nu", "-inf", "nu_continuity"),
        ("--rho", "nan", "rho_coverage"),
    ]:
        out = tmp_path / "out.json"
        assert main(["retrieve", *common, "--query", "q", "--out", str(out), f"{flag}={value}"]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert main(["eval", *common, "--qa", str(pipeline["qa"]), "--variant", "full",
                     "--out", str(out), f"{flag}={value}"]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_retrieve_rejects_non_finite_checkpoint(pipeline, tmp_path, capsys):
    blob = pipeline["checkpoint"].read_bytes()
    broken = tmp_path / "broken.okht"
    # Four bytes of v, just before the trailing 8-byte seed, set to 0xff: a NaN.
    broken.write_bytes(blob[:-12] + b"\xff" * 4 + blob[-8:])
    out = tmp_path / "out.json"
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(broken), "--dim", "32", "--query", "q",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "non-finite value in v" in err
    assert not out.exists()


def test_config_values_of_the_wrong_type_exit_two(pipeline, tmp_path, capsys):
    common = ["--snapshot", str(pipeline["snapshot"]),
              "--checkpoint", str(pipeline["checkpoint"]), "--query", "q"]
    for document, field in [
        ({"dim": "abc"}, "config.dim"),
        ({"beam": 2.5}, "config.beam"),
        ({"beam": True}, "config.beam"),
        ({"lambda": "1"}, "config.lambda"),
        ({"mu": None}, "config.mu"),
        ({"provider": "elsewhere"}, "config.provider"),
        ({"query": 7}, "config.query"),
    ]:
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert main(["retrieve", "--config", str(config), *common]) == 2, document
        assert f"{field}: expected" in capsys.readouterr().err
    # json.load reads NaN and Infinity, which no float option accepts.
    config = tmp_path / "nan.json"
    config.write_text('{"rho": NaN}', encoding="utf-8")
    assert main(["retrieve", "--config", str(config), *common]) == 2
    assert "config.rho: expected a finite number" in capsys.readouterr().err
    config.write_text(json.dumps({"corpus": "facts.jsonl"}), encoding="utf-8")
    assert main(["build", "--config", str(config), "--snapshot", str(tmp_path / "g")]) == 2
    assert "config.corpus: expected a list of strings" in capsys.readouterr().err
    # Integers stand in for floats, and a well-typed config still runs.
    config.write_text(json.dumps({"lambda": 1, "dim": 32}), encoding="utf-8")
    assert main(["retrieve", "--config", str(config), *common]) == 0
    capsys.readouterr()


def test_retrieve_rejects_unknown_group(pipeline, capsys):
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32", "--query", "q", "--group", "NOPE:nope"]) == 2
    assert "unknown group 'NOPE:nope'" in capsys.readouterr().err


def test_retrieve_rejects_tampered_snapshot(pipeline, tmp_path, capsys):
    snapshot = json.loads(pipeline["snapshot"].read_text(encoding="utf-8"))
    index = next(i for i, edge in enumerate(snapshot["hyperedges"]) if edge["horizon"])
    for key, value in [("horizon", "24"), ("family", 99)]:
        tampered = json.loads(json.dumps(snapshot))
        tampered["hyperedges"][index][key] = value
        path = tmp_path / f"{key}.snap"
        path.write_text(json.dumps(tampered), encoding="utf-8")
        assert main(["retrieve", "--snapshot", str(path),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--dim", "32", "--query", "q"]) == 2
        assert f"hyperedges[{index}].{key}" in capsys.readouterr().err


def test_retrieve_rejects_malformed_snapshot_blocks(pipeline, tmp_path, capsys):
    snapshot = json.loads(pipeline["snapshot"].read_text(encoding="utf-8"))
    group = sorted(snapshot["precedence"])[0]
    edge = snapshot["hyperedges"][0]

    def tampered():
        return json.loads(json.dumps(snapshot))

    not_object, unknown_entity, one_id_pair, precedence_list = (tampered() for _ in range(4))
    not_object["hyperedges"][0] = 5
    unknown_entity["entities"] = [
        entity for entity in snapshot["entities"] if entity["id"] != edge["entities"][0]
    ]
    one_id_pair["precedence"][group] = [[edge["id"]]]
    precedence_list["precedence"] = []
    for index, (field, document) in enumerate([
        ("hyperedges[0]", not_object),
        ("hyperedges[0].entities", unknown_entity),
        (f"precedence.{group}[0]", one_id_pair),
        ("precedence", precedence_list),
    ]):
        path = tmp_path / f"tampered{index}.snap"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["retrieve", "--snapshot", str(path),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--dim", "32", "--query", "q"]) == 2
        assert f"{field}:" in capsys.readouterr().err


def test_train_rejects_out_of_range_hyperparameters(pipeline, tmp_path, capsys):
    for flags, field in [
        (["--batch", "0"], "batch_size"),
        (["--negatives", "0"], "negatives_per_example"),
        (["--step", "-1"], "step_size"),
        (["--alpha", "-0.5"], "alpha"),
        (["--epochs", "-1"], "epochs"),
        (["--rank", "-1"], "rank"),
    ]:
        checkpoint = tmp_path / "bad.okht"
        assert main(["train", "--snapshot", str(pipeline["snapshot"]),
                     "--checkpoint", str(checkpoint), "--dim", "32", *flags]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not checkpoint.exists()


def test_train_rejects_non_finite_step_and_alpha_before_loading(tmp_path, capsys):
    # The snapshot does not exist, so the error must name the field before
    # anything is read.
    missing = tmp_path / "missing.snap"
    checkpoint = tmp_path / "bad.okht"
    for flag, field in [("--step", "step_size"), ("--alpha", "alpha")]:
        for value in ("inf", "nan"):
            assert main(["train", "--snapshot", str(missing), "--checkpoint", str(checkpoint),
                         "--dim", "32", flag, value]) == 2
            err = capsys.readouterr().err
            assert f"{field} must be finite" in err
            assert "missing.snap" not in err
            assert not checkpoint.exists()


def test_invalid_synth_shape_exits_two(tmp_path, capsys):
    assert main(["synth", "--horizons", "9", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_argparse_errors_map_to_exit_codes(capsys):
    assert main(["not-a-command"]) == 2
    assert main(["--help"]) == 0
    assert main(["retrieve", "--variant", "bogus"]) == 2
    capsys.readouterr()
