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
import io
import json
import pathlib
import sys
import tempfile

import pytest

from okh.cli import main

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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        fresh = golden_outputs(pathlib.Path(scratch))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.iterdir():
        stale.unlink()
    for name, blob in fresh.items():
        (GOLDEN_DIR / name).write_bytes(blob)
    print(f"wrote {len(fresh)} files to {GOLDEN_DIR}", file=sys.stderr)
