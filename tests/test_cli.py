import gc
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from okh import cli
from okh.cli import main
from okh.corpus import QA_KINDS
from okh.errors import NonFiniteLoss
from okh.hypergraph import merge_facts
from okh.transition import TransitionModel


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


def test_retrieve_stdout_opens_with_the_out_file_bytes(pipeline, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32",
                 "--query", "gale probability",
                 "--beam", "4", "--length", "4", "--paths", "2",
                 "--topk", "20", "--cap", "40", "--out", str(out)]) == 0
    written = out.read_bytes()
    assert capsys.readouterr().out.encode("utf-8")[: len(written)] == written


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


def test_bad_checkpoint_exits_before_the_load_and_writes_no_cache(pipeline, tmp_path, capsys):
    truncated = tmp_path / "trunc.okht"
    truncated.write_bytes(pipeline["checkpoint"].read_bytes()[:100])
    # Ranks that `TransitionModel.create` refuses, saved all the same.
    too_wide, empty = tmp_path / "rank40.okht", tmp_path / "rank0.okht"
    TransitionModel(np.zeros((40, 32)), np.zeros((40, 32))).save(str(too_wide))
    TransitionModel(np.zeros((0, 32)), np.zeros((0, 32))).save(str(empty))
    for checkpoint, dim, message in [
        (truncated, "32", f"error: checkpoint: {truncated} has 100 bytes, expected "),
        (pipeline["checkpoint"], "64",
         f"error: checkpoint: {pipeline['checkpoint']} is 32-d but embeddings are 64-d\n"),
        (too_wide, "32", f"error: checkpoint: {too_wide} has rank 40 above its dimension 32\n"),
        (empty, "32", f"error: checkpoint: {empty} has rank 0 below 1\n"),
    ]:
        cache = tmp_path / "fresh.okhe"
        assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                     "--checkpoint", str(checkpoint), "--dim", dim,
                     "--cache", str(cache), "--query", "q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message), captured.err
        assert not cache.exists()


def test_eval_refuses_checkpoint_of_another_dimension(pipeline, capsys):
    assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "64", "--qa", str(pipeline["qa"]),
                 "--variant", "full"]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint: {pipeline['checkpoint']} is 32-d but embeddings are 64-d" in err
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


@st.composite
def _corrupted_checkpoints(draw, blob):
    """A saved checkpoint cut short, extended, with a header byte flipped, or
    with one float of u or v made non-finite."""
    kind = draw(st.sampled_from(["truncate", "extend", "header", "value"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + draw(st.binary(min_size=1, max_size=64))
    if kind == "header":
        at = draw(st.integers(0, 15))
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    # An all-ones exponent is infinity or NaN, whatever the sign and mantissa.
    at = 16 + 4 * draw(st.integers(0, (len(blob) - 16 - 8) // 4 - 1))
    mantissa = draw(st.integers(0, 2**23 - 1))
    word = (draw(st.integers(0, 1)) << 31 | 0xFF << 23 | mantissa).to_bytes(4, "little")
    return blob[:at] + word + blob[at + 4 :]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_checkpoint_exits_two_naming_the_file(pipeline, tmp_path, capsys, data):
    broken = tmp_path / "corrupted.okht"
    broken.write_bytes(data.draw(_corrupted_checkpoints(pipeline["checkpoint"].read_bytes())))
    assert main(["retrieve", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(broken), "--dim", "32", "--query", "q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: checkpoint: {broken} ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


_QA_TEXT_FIELDS = ("question", "group", "kind", "order_sensitivity", "attribute", "expected")
_NOT_A_STRING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def _corrupted_qa(draw, blob):
    """A valid QA file corrupted, and the field its error must name.

    Bytes: cut before the closing bracket, an undecodable byte inserted, or
    data after the array. Fields: the document or one item replaced by
    another JSON value, or one field of one item missing or invalid.
    """
    kind = draw(st.sampled_from(["truncate", "undecodable", "trailing", "top", "item", "field"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, blob.rindex(b"]") - 1))], "qa"
    if kind == "undecodable":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + blob[at:], "qa"
    if kind == "trailing":
        return blob + draw(st.sampled_from([b"x", b"]", b"{}", b"0", b'"'])), "qa"
    document = json.loads(blob)
    other = st.one_of(_NOT_A_STRING, st.text())
    if kind == "top":
        replacement = draw(other.filter(lambda value: not isinstance(value, list)))
        return json.dumps(replacement).encode(), "qa"
    index = draw(st.integers(0, len(document) - 1))
    path = f"qa[{index}]"
    if kind == "item":
        document[index] = draw(other.filter(lambda value: not isinstance(value, dict)))
        return json.dumps(document).encode(), path
    item = document[index]
    field = draw(st.sampled_from(_QA_TEXT_FIELDS + ("horizon", "numeric")))
    if field in _QA_TEXT_FIELDS and draw(st.booleans()):
        del item[field]
    elif field == "kind":
        item[field] = draw(st.one_of(_NOT_A_STRING, st.text().filter(lambda t: t not in QA_KINDS)))
    elif field == "group":
        groups = {other["group"] for other in document}
        item[field] = draw(st.one_of(_NOT_A_STRING, st.text().filter(lambda t: t not in groups)))
    elif field == "horizon":
        item[field] = draw(st.one_of(
            st.integers(max_value=0), st.booleans(), st.floats(), st.text(),
            st.lists(st.integers(), max_size=2),
        ))
    elif field == "numeric":
        item[field] = draw(_NOT_A_STRING.filter(lambda v: not isinstance(v, bool)) | st.text())
    else:
        item[field] = draw(_NOT_A_STRING)
    return json.dumps(document).encode(), f"{path}.{field}"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_qa_file_exits_two_naming_the_field(pipeline, tmp_path, capsys, data):
    blob, field = data.draw(_corrupted_qa(pipeline["qa"].read_bytes()))
    broken = tmp_path / "corrupted.json"
    broken.write_bytes(blob)
    assert main(["eval", "--snapshot", str(pipeline["snapshot"]),
                 "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32",
                 "--qa", str(broken), "--variant", "full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: "), (field, captured.err)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


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


def test_train_refuses_a_rank_above_the_dimension_before_loading(pipeline, tmp_path, capsys):
    missing = tmp_path / "missing.snap"
    checkpoint = tmp_path / "bad.okht"
    assert main(["train", "--snapshot", str(missing), "--checkpoint", str(checkpoint),
                 "--dim", "32", "--rank", "33"]) == 2
    assert capsys.readouterr().err == "error: rank must be <= dim (32), got 33\n"
    assert not checkpoint.exists()
    # A rank equal to the dimension is accepted.
    assert main(["train", "--snapshot", str(pipeline["snapshot"]), "--checkpoint", str(checkpoint),
                 "--dim", "32", "--rank", "32", "--epochs", "0"]) == 0
    capsys.readouterr()


def test_train_refuses_a_local_dimension_above_the_bound_before_loading(tmp_path, capsys):
    missing = tmp_path / "missing.snap"
    checkpoint = tmp_path / "wide.okht"
    assert main(["train", "--snapshot", str(missing), "--checkpoint", str(checkpoint),
                 "--dim", "4097"]) == 2
    assert capsys.readouterr().err == "error: local embedder dimension must be in [8, 4096], got 4097\n"
    assert not checkpoint.exists()


def test_remote_dimension_out_of_range_exits_two_naming_dim_before_loading(tmp_path, capsys):
    # 2**40 would fail to allocate at once if it reached the model; nothing
    # here is read, written or contacted.
    missing, qa = tmp_path / "missing", tmp_path / "qa.json"
    qa.write_text("[]", encoding="utf-8")
    remote = ["--provider", "remote", "--endpoint", "http://127.0.0.1:9", "--model-name", "m"]
    for command in (["train"], ["retrieve", "--query", "q"], ["eval", "--qa", str(qa)]):
        for dim in (2**40, -1):
            assert main([*command, "--snapshot", str(missing), "--checkpoint", str(missing),
                         *remote, "--dim", str(dim)]) == 2
            assert capsys.readouterr().err == (
                f"error: remote embedder dim must be in [1, 4096], got {dim}\n"
            ), (command, dim)
    assert not missing.exists()


def test_a_training_seed_outside_64_bits_exits_two_naming_seed_before_loading(tmp_path, capsys):
    # numpy refuses -1 and a checkpoint would record 2**64 as seed 0; both
    # are refused before the snapshot is read.
    missing, checkpoint = tmp_path / "missing", tmp_path / "model.okht"
    for seed in (-1, 2**64):
        assert main(["train", "--snapshot", str(missing), "--checkpoint", str(checkpoint),
                     "--dim", "32", "--rank", "4", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == f"error: --seed: seed must be in [0, 2**64), got {seed}\n"
    assert not missing.exists() and not checkpoint.exists()


def test_a_horizon_that_disagrees_with_its_anchors_exits_two_naming_the_edge(tmp_path, capsys):
    # The README quick-start snapshot, with edited copies of one family-6
    # edge at T-24 and of one change edge, which joins two anchors.
    data, snapshot = tmp_path / "data", tmp_path / "graph.snap"
    assert main(["synth", "--seed", "11", "--groups", "2", "--horizons", "3", "--out", str(data)]) == 0
    assert main(["build", "--corpus", str(data / "facts.jsonl"), "--snapshot", str(snapshot)]) == 0
    capsys.readouterr()
    document = json.loads(snapshot.read_text(encoding="utf-8"))
    edges = document["hyperedges"]
    index = next(i for i, edge in enumerate(edges) if edge["family"] == 6 and edge["horizon"] == 24)
    assert [entity for entity in edges[index]["entities"] if entity.startswith("horizon:")] == [
        "horizon:T-24"
    ]
    change = next(i for i, edge in enumerate(edges) if edge["family"] == 13)
    anchors = sorted(entity for entity in edges[change]["entities"] if entity.startswith("horizon:"))
    lead = int(anchors[0].removeprefix("horizon:T-"))
    checkpoint, refused = tmp_path / "model.okht", tmp_path / "refused.okht"
    assert main(["train", "--snapshot", str(snapshot), "--checkpoint", str(checkpoint),
                 "--dim", "32", "--rank", "4", "--epochs", "0"]) == 0
    capsys.readouterr()
    for position, horizon, message in [
        (index, 1, "1 is not the lead time of the edge's anchors ['horizon:T-24']"),
        (index, None, "null, but the edge's one anchor 'horizon:T-24' sets it"),
        (change, lead, f"{lead} is not the lead time of the edge's anchors {anchors}"),
    ]:
        edited = json.loads(json.dumps(document))
        edited["hyperedges"][position]["horizon"] = horizon
        path = tmp_path / "edited.snap"
        path.write_text(json.dumps(edited), encoding="utf-8")
        for command in (["train", "--checkpoint", str(refused), "--rank", "4"],
                        ["retrieve", "--checkpoint", str(checkpoint), "--query", "q"]):
            assert main([*command, "--snapshot", str(path), "--dim", "32"]) == 2
            assert capsys.readouterr().err == f"error: hyperedges[{position}].horizon: {message}\n"
        assert not refused.exists()
    # The unedited snapshot loads.
    assert main(["retrieve", "--snapshot", str(snapshot), "--checkpoint", str(checkpoint),
                 "--dim", "32", "--query", "q"]) == 0


def test_search_and_scope_refusals_name_their_field_and_value(pipeline, capsys):
    for flags, message in [
        (["--beam", "0"], "--beam: beam_width must be >= 1, got 0"),
        (["--beam", "1025"], "--beam: beam_width must be <= 1024, got 1025"),
        (["--length", "0"], "--length: trajectory_length must be >= 1, got 0"),
        (["--paths", "-2"], "--paths: num_trajectories must be >= 1, got -2"),
        (["--topk", "0"], "--topk: top_k must be >= 1, got 0"),
        (["--cap", "0"], "--cap: pool_cap must be >= 1, got 0"),
        (["--reserve", "1.5"], "--reserve: group_reserve_fraction must be in [0, 1], got 1.5"),
    ]:
        for command in (["retrieve", "--query", "q"], ["eval", "--qa", str(pipeline["qa"])]):
            assert main([*command, "--snapshot", str(pipeline["snapshot"]),
                         "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32",
                         *flags]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


def test_cyclic_precedence_in_a_snapshot_exits_two_naming_the_group(pipeline, tmp_path, capsys):
    snapshot = json.loads(pipeline["snapshot"].read_text(encoding="utf-8"))
    group = sorted(snapshot["precedence"])[0]
    src, dst = snapshot["precedence"][group][0]
    snapshot["precedence"][group].append([dst, src])
    path = tmp_path / "cyclic.snap"
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    assert main(["retrieve", "--snapshot", str(path),
                 "--checkpoint", str(pipeline["checkpoint"]),
                 "--dim", "32", "--query", "q"]) == 2
    err = capsys.readouterr().err
    # The reversed pair does not rise in lead time, then family; a cycle
    # always holds such a pair.
    index = len(snapshot["precedence"][group]) - 1
    assert err.startswith(f"error: precedence.{group}[{index}]: {dst!r} does not come before {src!r}")


def test_non_finite_cached_vector_exits_two_naming_the_cache(pipeline, tmp_path, capsys):
    cache = tmp_path / "emb.okhe"
    retrieve = ["retrieve", "--snapshot", str(pipeline["snapshot"]),
                "--checkpoint", str(pipeline["checkpoint"]),
                "--dim", "32", "--cache", str(cache), "--query", "q"]
    assert main(retrieve) == 0
    capsys.readouterr()
    blob = bytearray(cache.read_bytes())
    (identity_length,) = struct.unpack_from("<I", blob, 12)
    header, size = 16 + identity_length, 16 + 4 * 32
    for start in range(header, len(blob), size):
        blob[start + 16 : start + 20] = struct.pack("<f", math.nan)
    cache.write_bytes(bytes(blob))
    assert main(retrieve) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache: {cache}: the vector recorded for text ")
    assert err.endswith(" is not finite\n")
    assert cache.read_bytes() == bytes(blob)


def test_invalid_synth_shape_exits_two(tmp_path, capsys):
    assert main(["synth", "--horizons", "9", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_argparse_errors_map_to_exit_codes(capsys):
    assert main(["not-a-command"]) == 2
    assert main(["--help"]) == 0
    assert main(["retrieve", "--variant", "bogus"]) == 2
    capsys.readouterr()


def test_out_of_memory_exits_one_without_a_traceback(monkeypatch, capsys):
    def exhausted(values):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "synth", cli._COMMANDS["synth"]._replace(run=exhausted))
    assert main(["synth"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def _raise(error):
    def run(values):
        raise error

    return run


_EXITS = {
    "success": (["synth", "--groups", "1", "--horizons", "2"], None, 0),
    "schema error": (["synth", "--config", "missing.json"], None, 2),
    "okh error": (["synth"], _raise(NonFiniteLoss("loss is nan")), 1),
    "usage error": (["not-a-command"], None, 2),
    "help": (["--help"], None, 0),
    "out of memory": (["synth"], _raise(MemoryError()), 1),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit_kind", sorted(_EXITS))
def test_main_leaves_the_collector_as_it_found_it(
    monkeypatch, tmp_path, capsys, enabled, exit_kind
):
    argv, run, code = _EXITS[exit_kind]
    monkeypatch.chdir(tmp_path)
    if run is not None:
        monkeypatch.setitem(cli._COMMANDS, "synth", cli._COMMANDS["synth"]._replace(run=run))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_an_exception_main_does_not_handle_still_restores_the_collector(monkeypatch):
    monkeypatch.setitem(
        cli._COMMANDS, "synth", cli._COMMANDS["synth"]._replace(run=_raise(KeyboardInterrupt()))
    )
    assert gc.isenabled()
    with pytest.raises(KeyboardInterrupt):
        main(["synth"])
    assert gc.isenabled()


def test_a_command_runs_with_the_collector_paused(monkeypatch):
    seen = []

    def run(values):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(cli._COMMANDS, "synth", cli._COMMANDS["synth"]._replace(run=run))
    assert gc.isenabled()
    assert main(["synth"]) == 0
    assert seen == [False] and gc.isenabled()


def test_build_and_train_never_compute_a_closure(pipeline, tmp_path, monkeypatch, capsys):
    # `okh build` writes only the direct pairs, and pair mining reads only
    # the canonical order; a retrieve of the snapshot reads the closure.
    from okh.precedence import GroupPrecedence

    def refuse(self):
        raise AssertionError("a closure was computed")

    with monkeypatch.context() as patch:
        patch.setattr(GroupPrecedence, "closure", property(refuse))
        snapshot, checkpoint = tmp_path / "graph.snap", tmp_path / "model.okht"
        assert main(["build", "--corpus", str(pipeline["facts"]), "--snapshot", str(snapshot)]) == 0
        assert main(["train", "--snapshot", str(snapshot), "--checkpoint", str(checkpoint),
                     "--dim", "32", "--rank", "4", "--epochs", "2"]) == 0
        with pytest.raises(AssertionError, match="a closure was computed"):
            main(["retrieve", "--snapshot", str(snapshot), "--checkpoint", str(checkpoint),
                  "--dim", "32", "--query", "q"])
    assert snapshot.read_bytes() == pipeline["snapshot"].read_bytes()
    assert checkpoint.read_bytes() == pipeline["checkpoint"].read_bytes()
    outputs = []
    for path in (pipeline["snapshot"], snapshot):
        capsys.readouterr()
        assert main(["retrieve", "--snapshot", str(path),
                     "--checkpoint", str(checkpoint), "--dim", "32",
                     "--query", "Did the port operation status escalate before landfall?"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "=== Trajectory 1 ===" in outputs[0]


def test_one_parser_serves_every_command_of_a_process(pipeline, tmp_path, capsys):
    snapshot = tmp_path / "graph.snap"
    retrieve = ["retrieve", "--snapshot", str(pipeline["snapshot"]),
                "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32", "--query", "q"]
    runs = [
        [*retrieve, "--paths", "2", "--variant", "no_order"],
        ["build", "--corpus", str(pipeline["facts"]), "--snapshot", str(snapshot)],
        retrieve,
        ["retrieve", "--help"],
        ["build", "--snapshot", str(snapshot)],
        ["--help"],
    ]

    def run(argv):
        snapshot.unlink(missing_ok=True)
        code = main(argv)
        written = snapshot.read_bytes() if argv[0] == "build" and snapshot.exists() else None
        return code, capsys.readouterr(), written

    shared = [run(argv) for argv in runs]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]
    assert shared == fresh


def test_os_errors_exit_two_naming_the_path(pipeline, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    folder = tmp_path / "folder"
    folder.mkdir()
    retrieve = ["retrieve", "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32",
                "--query", "q"]
    for argv in [
        ["synth", "--groups", "1", "--horizons", "2", "--out", str(taken)],
        ["build", "--corpus", str(pipeline["facts"]), "--snapshot", str(folder)],
        [*retrieve, "--snapshot", str(folder)],
        [*retrieve, "--snapshot", str(pipeline["snapshot"]), "--cache", str(folder)],
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(str(taken if argv[0] == "synth" else folder)) in err


def test_retrieve_and_train_refuse_to_overwrite_a_file_that_is_not_a_cache(
    pipeline, tmp_path, capsys
):
    qa = tmp_path / "qa.json"
    qa.write_bytes(pipeline["qa"].read_bytes())
    digest = hashlib.sha256(qa.read_bytes()).hexdigest()
    out = tmp_path / "out.json"
    checkpoint = tmp_path / "never.okht"
    for argv in [
        ["retrieve", "--checkpoint", str(pipeline["checkpoint"]), "--query", "q",
         "--out", str(out)],
        ["train", "--checkpoint", str(checkpoint), "--rank", "4", "--epochs", "1"],
    ]:
        assert main([*argv, "--snapshot", str(pipeline["snapshot"]), "--dim", "32",
                     "--cache", str(qa)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cache: {qa} is not an embedding cache; refusing to overwrite it\n"
        assert hashlib.sha256(qa.read_bytes()).hexdigest() == digest
        assert not out.exists() and not checkpoint.exists()


def test_snapshot_that_cannot_be_decoded_exits_two_naming_the_file(pipeline, tmp_path, capsys):
    undecodable = tmp_path / "bom.snap"
    undecodable.write_bytes(b"\xff\xfe")
    mid_line = tmp_path / "mid-line.snap"
    mid_line.write_bytes(b'{\n  "version": "\xff"}\n')
    for path, message in [
        (pipeline["facts"], "line 2 column 1: Extra data"),
        (undecodable, "line 1 column 1: not valid UTF-8"),
        (mid_line, "line 2 column 15: not valid UTF-8"),
    ]:
        assert main(["retrieve", "--snapshot", str(path),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--dim", "32", "--query", "q"]) == 2
        assert capsys.readouterr().err == f"error: snapshot: {path} {message}\n"


def test_build_names_file_and_line_of_an_unreadable_jsonl_line(pipeline, tmp_path, capsys):
    good = pipeline["facts"].read_text(encoding="utf-8").splitlines()[0]
    broken = tmp_path / "broken.jsonl"
    for payload, message in [
        (f"{good}\n\n  {{\"relation\" 2}}\n".encode(), "line 3 column 15: Expecting ':' delimiter"),
        (f"{good}\n".encode() + b'{"relation": "\xff"}\n', "line 2: not valid UTF-8"),
    ]:
        broken.write_bytes(payload)
        snapshot = tmp_path / "never.snap"
        assert main(["build", "--corpus", str(pipeline["facts"]), str(broken),
                     "--snapshot", str(snapshot)]) == 2
        assert f"error: corpus[1]: {broken} {message}" in capsys.readouterr().err
        assert not snapshot.exists()


def test_config_variant_is_checked_before_loading(tmp_path, capsys):
    config = tmp_path / "variant.json"
    config.write_text(json.dumps({"variant": "bogus"}), encoding="utf-8")
    missing = str(tmp_path / "missing")
    for command, target in [("retrieve", "--query"), ("eval", "--qa")]:
        assert main([command, "--config", str(config), "--snapshot", missing,
                     "--checkpoint", missing, target, missing]) == 2
        err = capsys.readouterr().err
        assert 'config.variant: expected one of full, shuffled' in err
        assert "missing" not in err


_CHOICES = sorted({
    choice
    for command in cli._COMMANDS.values()
    for entry in command.options.values()
    if isinstance(entry, cli._Choice)
    for choice in entry.choices
})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _values_for(entry):
    """Values near the entry's declared type, or any JSON value."""
    if isinstance(entry, cli._Choice):
        near = st.sampled_from(entry.choices) | st.sampled_from(_CHOICES)
    elif type(entry) is float:
        near = st.floats() | st.integers() | st.sampled_from([math.nan, math.inf, -math.inf])
    elif type(entry) is list:
        near = st.lists(st.text(max_size=6), max_size=3)
    else:
        near = st.from_type(type(entry))
    return near | _JSON


def _fits(value, entry):
    """The declared type of a table entry, restated apart from the CLI's own check."""
    if isinstance(entry, cli._Choice):
        return type(value) is str and value in entry.choices
    if type(entry) is float:
        try:
            return type(value) in (int, float) and math.isfinite(float(value))
        except OverflowError:
            return False
    if type(entry) is list:
        return type(value) is list and all(type(item) is str for item in value)
    return type(value) is type(entry)


@st.composite
def _config_entries(draw):
    """A subcommand, one of its options, a config key for it and a value."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    dest = draw(st.sampled_from(list(cli._COMMANDS[name].options)))
    key = draw(st.sampled_from(sorted({dest, dest.rstrip("_")})))
    return name, dest, key, draw(_values_for(cli._COMMANDS[name].options[dest]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_config_entries())
@example(("retrieve", "lambda_", "lambda", 1))
@example(("eval", "lambda_", "lambda_", 2.5))
@example(("train", "dim", "dim", True))
@example(("train", "step", "step", math.nan))
@example(("build", "corpus", "corpus", ["a", 1]))
@example(("retrieve", "variant", "variant", "all"))
def test_config_value_is_accepted_exactly_when_it_fits_its_option(tmp_path, capsys, drawn):
    name, dest, key, value = drawn
    options = cli._COMMANDS[name].options
    entry = options[dest]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    parser = cli.build_parser()
    event(f"{type(entry).__name__} option, value {'fits' if _fits(value, entry) else 'does not fit'}")
    if not _fits(value, entry):
        assert main([name, "--config", str(config)]) == 2
        assert f"error: config.{key}: expected" in capsys.readouterr().err
        return
    merged = cli._merged(parser.parse_args([name, "--config", str(config)]), options)
    default = entry.default if isinstance(entry, cli._Choice) else entry
    assert merged[dest] == (float(value) if type(entry) is float else value)
    assert type(merged[dest]) is type(default)
    flag = f"--{dest.rstrip('_').replace('_', '-')}"
    if type(entry) is list:
        if not value or any(item.startswith("-") for item in value):
            return  # no flag spelling for an empty list or an option-like item
        argv = [flag, *value]
    else:
        argv = [f"{flag}={value!r}" if type(entry) is float else f"{flag}={value}"]
    assert cli._merged(parser.parse_args([name, *argv]), options)[dest] == merged[dest]


def test_misplaced_precedence_pairs_and_unknown_groups_exit_two(pipeline, tmp_path, capsys):
    snapshot = json.loads(pipeline["snapshot"].read_text(encoding="utf-8"))
    first, second = sorted(snapshot["precedence"])
    moved, invented, omitted = (json.loads(json.dumps(snapshot)) for _ in range(3))
    # A pair of the second group's edges, listed under the first group.
    moved["precedence"][first].append(moved["precedence"][second].pop(0))
    invented["precedence"]["NOBODY:nowhere"] = []
    del omitted["precedence"][second]
    index = len(moved["precedence"][first]) - 1
    for name, document, field in [
        ("moved", moved, f"precedence.{first}[{index}]"),
        ("invented", invented, "precedence.NOBODY:nowhere"),
        ("omitted", omitted, f"precedence.{second}"),
    ]:
        path = tmp_path / f"{name}.snap"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["retrieve", "--snapshot", str(path),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--dim", "32", "--query", "q"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_an_emptied_or_missing_precedence_block_exits_two(pipeline, tmp_path, capsys):
    # The block is read, never rebuilt from the rules: a graph with groups
    # needs every one of them listed.
    snapshot = json.loads(pipeline["snapshot"].read_text(encoding="utf-8"))
    first = min(snapshot["precedence"])
    emptied, unblocked = (json.loads(json.dumps(snapshot)) for _ in range(2))
    emptied["precedence"] = {}
    del unblocked["precedence"]
    for name, document in [("emptied", emptied), ("unblocked", unblocked)]:
        path = tmp_path / f"{name}.snap"
        path.write_text(json.dumps(document), encoding="utf-8")
        trained = tmp_path / f"{name}.okht"
        for command in (["retrieve", "--checkpoint", str(pipeline["checkpoint"]), "--query", "q"],
                        ["train", "--checkpoint", str(trained), "--epochs", "1"]):
            assert main([*command, "--snapshot", str(path), "--dim", "32"]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: precedence.{first}: the block omits this group of the graph"
            )
        assert not trained.exists()
    # A graph without groups needs no block.
    empty = tmp_path / "empty.snap"
    empty.write_text(json.dumps({**snapshot, "entities": [], "hyperedges": [], "precedence": {}}),
                     encoding="utf-8")
    graph, precedence = cli._load_graph({"snapshot": str(empty)})
    assert not graph.hyperedges and precedence.groups == {}


def test_build_and_one_question_retrieve_never_sort_the_canonical_order(
    pipeline, tmp_path, monkeypatch, capsys
):
    # The closure needs no canonical order; only readers of a trajectory
    # (pair mining, eval) compute one.
    from okh import precedence as precedence_module
    from okh.hypergraph import KnowledgeHypergraph
    from okh.precedence import PrecedenceIndex
    from okh.transition import build_pairs
    from test_precedence import _reference_build_group

    real = precedence_module._sort_key

    def refuse(edge):
        raise AssertionError("the canonical order was computed")

    monkeypatch.setattr(precedence_module, "_sort_key", refuse)
    snapshot = tmp_path / "graph.snap"
    assert main(["build", "--corpus", str(pipeline["facts"]), "--snapshot", str(snapshot)]) == 0
    assert snapshot.read_bytes() == pipeline["snapshot"].read_bytes()
    assert main(["retrieve", "--snapshot", str(snapshot),
                 "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32",
                 "--query", "What is the latest operation status?",
                 "--cache", str(tmp_path / "embed.cache")]) == 0

    calls = []

    def counted(edge):
        calls.append(edge.id)
        return real(edge)

    monkeypatch.setattr(precedence_module, "_sort_key", counted)
    graph, direct = KnowledgeHypergraph.load_snapshot(str(snapshot))
    index = PrecedenceIndex.from_direct_edges(graph, direct)
    build_pairs(graph, index)
    # One key per edge: each group is sorted once.
    assert sorted(calls) == sorted(graph.hyperedges)
    for group, prec in index.groups.items():
        edges = graph.group_edges(group)
        assert prec.trajectory == _reference_build_group(edges, prec.successors)[3]
    calls.clear()
    capsys.readouterr()
    assert main(["eval", "--snapshot", str(snapshot),
                 "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32",
                 "--qa", str(pipeline["qa"]), "--variant", "full",
                 "--beam", "2", "--length", "3", "--paths", "1"]) == 0
    assert sorted(calls) == sorted(graph.hyperedges)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(max_size=12),
        st.builds(lambda value, tail: json.dumps(value) + tail, _json_values, st.text(max_size=4)),
        st.builds(lambda value: "\ufeff" + json.dumps(value), _json_values),
    )
)
@example('{"a": 1} x')
@example('{"a": 1}{"b": 2}')
@example("1 2")
@example('\ufeff{"a": 1}')
@example("[1,")
@example("NaN")
def test_a_jsonl_line_decodes_as_json_loads_decodes_it(text):
    line = text.strip()
    if not line:
        return

    def outcome(decode):
        try:
            return "value", repr(decode(line))
        except json.JSONDecodeError as exc:
            return "error", exc.msg, exc.pos

    assert outcome(cli._json_line) == outcome(json.loads)


def test_settings_refusals_name_the_flag_then_the_field(pipeline, tmp_path, capsys):
    common = ["--snapshot", str(pipeline["snapshot"]),
              "--checkpoint", str(pipeline["checkpoint"]), "--dim", "32"]
    for flag, field in [("--lambda", "lambda_coherence"), ("--mu", "mu_precedence"),
                        ("--nu", "nu_continuity"), ("--rho", "rho_coverage")]:
        for command in (["retrieve", "--query", "q"], ["eval", "--qa", str(pipeline["qa"])]):
            assert main([*command, *common, f"{flag}=nan"]) == 2
            assert capsys.readouterr().err == (
                f"error: {flag}: {field} must be finite and non-negative, got nan\n"
            )
    # The training settings are checked before the snapshot is read.
    missing, checkpoint = tmp_path / "missing.snap", tmp_path / "model.okht"
    for flags, message in [
        (["--batch", "0"], "--batch: batch_size must be >= 1, got 0"),
        (["--negatives", "0"], "--negatives: negatives_per_example must be >= 1, got 0"),
        (["--step", "-1"], "--step: step_size must be finite and > 0, got -1.0"),
        (["--alpha", "-0.5"], "--alpha: alpha must be finite and >= 0, got -0.5"),
        (["--epochs", "-1"], "--epochs: epochs must be >= 0, got -1"),
    ]:
        assert main(["train", "--snapshot", str(missing), "--checkpoint", str(checkpoint),
                     "--dim", "32", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not checkpoint.exists()
    # A value from `--config` names the flag it stands in for.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"beam": 1025}), encoding="utf-8")
    assert main(["retrieve", "--config", str(config), *common, "--query", "q"]) == 2
    assert capsys.readouterr().err == "error: --beam: beam_width must be <= 1024, got 1025\n"


def test_build_reports_a_bad_fact_of_an_earlier_file_before_a_bad_line_of_a_later_one(
    pipeline, tmp_path, capsys
):
    # Each file is merged as it is read, so the fact's refusal comes first.
    lines = pipeline["facts"].read_text(encoding="utf-8").splitlines()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    first.write_text(f"{lines[0]}\n{{\"relation\": 5}}\n", encoding="utf-8")
    second.write_text(f"{lines[1]}\n{{\"relation\" 2}}\n", encoding="utf-8")
    snapshot = tmp_path / "never.snap"
    assert main(["build", "--corpus", str(first), str(second), "--snapshot", str(snapshot)]) == 2
    assert capsys.readouterr().err == (
        "error: batch[0].fact[1].relation: expected str, got int\n"
    )
    assert main(["build", "--corpus", str(second), str(first), "--snapshot", str(snapshot)]) == 2
    assert capsys.readouterr().err == (
        f"error: corpus[0]: {second} line 2 column 13: Expecting ':' delimiter\n"
    )
    assert not snapshot.exists()


def test_build_with_a_missing_second_file_exits_two_and_writes_no_snapshot(
    pipeline, tmp_path, capsys
):
    missing, snapshot = tmp_path / "missing.jsonl", tmp_path / "never.snap"
    assert main(["build", "--corpus", str(pipeline["facts"]), str(missing),
                 "--snapshot", str(snapshot)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not snapshot.exists()
