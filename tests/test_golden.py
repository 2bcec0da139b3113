"""Golden outputs of ``okh retrieve`` and ``okh eval`` on one small seeded corpus.

The files under ``tests/golden/`` pin the exact bytes the CLI prints and
writes for a few questions under three variants and for the full ablation
table. A change to retrieval that is meant to preserve behaviour must leave
every one of them unchanged. Rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` only when an output change is
intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from okh.cli import main
from okh.relations import CROSS_HORIZON_FAMILY

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
VARIANTS = ("full", "no_order", "heuristic_order")
QUESTIONS = (0, 5, 9)
# Small enough that scoping, not the whole graph, decides the pool.
SEARCH_FLAGS = ["--topk", "20", "--cap", "40"]
GOLDEN_NAMES = [
    f"retrieve-{variant}-q{index}.{suffix}"
    for variant in VARIANTS
    for index in QUESTIONS
    for suffix in ("json", "stdout")
] + ["eval.json", "eval.stdout"]


def _run(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"okh {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def golden_outputs(root: pathlib.Path) -> dict[str, bytes]:
    """Run synth, build, train, retrieve and eval; return every pinned output."""
    data = root / "data"
    snapshot = str(root / "graph.snap")
    checkpoint = str(root / "model.okht")
    _run(["synth", "--seed", "5", "--groups", "2", "--horizons", "2", "--out", str(data)])
    _run(["build", "--corpus", str(data / "facts.jsonl"), "--snapshot", snapshot])
    _run(["train", "--snapshot", snapshot, "--checkpoint", checkpoint,
          "--dim", "32", "--rank", "4", "--epochs", "1"])
    common = ["--snapshot", snapshot, "--checkpoint", checkpoint, "--dim", "32", *SEARCH_FLAGS]
    qa = json.loads((data / "qa.json").read_text(encoding="utf-8"))

    outputs: dict[str, bytes] = {}
    for variant in VARIANTS:
        for index in QUESTIONS:
            name = f"retrieve-{variant}-q{index}"
            out = root / f"{name}.json"
            printed = _run(["retrieve", *common, "--query", qa[index]["question"],
                            "--group", qa[index]["group"], "--variant", variant,
                            "--out", str(out)])
            outputs[f"{name}.json"] = out.read_bytes()
            outputs[f"{name}.stdout"] = printed.encode("utf-8")
    out = root / "eval.json"
    printed = _run(["eval", *common, "--qa", str(data / "qa.json"), "--variant", "all",
                    "--out", str(out)])
    outputs["eval.json"] = out.read_bytes()
    outputs["eval.stdout"] = printed.encode("utf-8")
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_names_cover_every_output(outputs):
    assert sorted(outputs) == sorted(GOLDEN_NAMES)
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == sorted(GOLDEN_NAMES)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_output_matches_golden_bytes(outputs, name):
    assert outputs[name] == (GOLDEN_DIR / name).read_bytes()


# Artifacts too large to keep as golden files are pinned by sha256; a faster
# code path must keep every byte.
SNAPSHOT_SHA256 = "4adb79e7404f4ee506bc70ebe068cd72bbee321918867faca79d990e96f6bdfa"
TWO_BATCH_SNAPSHOT_SHA256 = "f267dce6966b2f35c89240c8b5d638561dfffe5aac64b2874577bc892d3c194d"
CACHE_SHA256 = "df4bf67f3137c6a1f5ac8125f69d20340a22d800a7b3a2561567009fbfb74d14"


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict:
    """The golden corpus's snapshot, a two-batch snapshot, and a retrieve cache."""
    root = tmp_path_factory.mktemp("artifacts")
    data = root / "data"
    _run(["synth", "--seed", "5", "--groups", "2", "--horizons", "2", "--out", str(data)])
    snapshot = root / "graph.snap"
    _run(["build", "--corpus", str(data / "facts.jsonl"), "--snapshot", str(snapshot)])

    # The middle third of the facts arrives in both batches. Every other fact
    # of the first batch is mentioned later than its copy in the second, so
    # duplicates resolve both by position and by content.
    facts = [json.loads(line) for line in (data / "facts.jsonl").read_text().splitlines()]
    third = len(facts) // 3
    first = [
        {**fact, "text_position": fact["text_position"] + 5} if index % 2 else fact
        for index, fact in enumerate(facts[: 2 * third])
    ]
    batches = [first, facts[third:]]
    paths = []
    for index, batch in enumerate(batches):
        path = root / f"batch{index}.jsonl"
        path.write_text("".join(json.dumps(fact) + "\n" for fact in batch), encoding="utf-8")
        paths.append(str(path))
    two_batch = root / "two-batch.snap"
    _run(["build", "--corpus", *paths, "--snapshot", str(two_batch)])

    checkpoint = root / "model.okht"
    cache = root / "embeddings.okhe"
    _run(["train", "--snapshot", str(snapshot), "--checkpoint", str(checkpoint),
          "--dim", "32", "--rank", "4", "--epochs", "0"])
    question = json.loads((data / "qa.json").read_text(encoding="utf-8"))[0]["question"]
    _run(["retrieve", "--snapshot", str(snapshot), "--checkpoint", str(checkpoint),
          "--dim", "32", "--cache", str(cache), "--query", question, *SEARCH_FLAGS])
    return {
        "snapshot": snapshot,
        "two_batch": two_batch,
        "cache": cache,
        "fact_count": sum(len(batch) for batch in batches),
    }


def test_golden_corpus_snapshot_bytes_are_pinned(artifacts):
    assert _sha256(artifacts["snapshot"]) == SNAPSHOT_SHA256


def test_two_batch_snapshot_bytes_are_pinned(artifacts):
    edges = json.loads(artifacts["two_batch"].read_text(encoding="utf-8"))["hyperedges"]
    assert any(edge["family"] == CROSS_HORIZON_FAMILY for edge in edges)
    facts = [edge for edge in edges if edge["family"] != CROSS_HORIZON_FAMILY]
    assert len(facts) < artifacts["fact_count"]
    assert _sha256(artifacts["two_batch"]) == TWO_BATCH_SNAPSHOT_SHA256


def test_retrieve_cache_bytes_are_pinned(artifacts):
    assert _sha256(artifacts["cache"]) == CACHE_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        fresh = golden_outputs(pathlib.Path(scratch))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.iterdir():
        stale.unlink()
    for name, blob in fresh.items():
        (GOLDEN_DIR / name).write_bytes(blob)
    print(f"wrote {len(fresh)} files to {GOLDEN_DIR}", file=sys.stderr)
