import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from okh.errors import ProviderError, UnknownEdge, UnparseableNumeric
from okh.evidence import (
    AnswerRecord,
    ChatCompletionClient,
    aggregate_answers,
    assemble_prompt,
    build_evidence_steps,
    format_trajectory,
)
from okh.hypergraph import merge_facts
from okh.retrieval import Trajectory


def _fact(relation, state_kind, state_type, horizon, position):
    return {
        "relation": relation,
        "entities": [
            {"id": "port:pa", "name": "Port Arthur", "type": "port"},
            {
                "id": f"{state_kind}:IRMA:pa:T-{horizon}",
                "name": f"{state_kind} {horizon}",
                "type": state_type,
            },
        ],
        "evidence": f"{state_kind} at T-{horizon}",
        "attributes": {},
        "confidence": 1.0,
        "group": "IRMA:pa",
        "horizon": horizon,
        "text_position": position,
    }


def _story_graph():
    # Two horizons of the same forecast stem produce a synthesized change
    # edge; the rest form a single-horizon causal chain.
    facts = [
        _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 96, 0),
        _fact("has_watch_status", "advisory", "advisory_status", 48, 1),
        _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 48, 2),
        _fact("has_operation_status", "ops", "operation_status", 48, 3),
        _fact("has_impact_prediction", "impact", "impact_prediction", 48, 4),
        _fact("has_recovery_status", "recovery", "recovery_status", 48, 5),
    ]
    return merge_facts([facts])


def _eid(graph, relation, horizon=None):
    matches = [
        e.id
        for e in graph.hyperedges.values()
        if e.relation == relation and (horizon is None or horizon in _anchors(e))
    ]
    assert len(matches) == 1, (relation, horizon, matches)
    return matches[0]


def _anchors(edge):
    return {edge.horizon} if edge.horizon is not None else set(edge.anchor_horizons())


def test_first_step_reasoning_is_none():
    graph = _story_graph()
    steps = build_evidence_steps([_eid(graph, "has_watch_status")], graph)
    assert steps[0].index == 1
    assert steps[0].reasoning == ("none",)


def test_within_horizon_causal_tags():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    ops = _eid(graph, "has_operation_status")
    imp = _eid(graph, "has_impact_prediction")
    rec = _eid(graph, "has_recovery_status")
    steps = build_evidence_steps([adv, fc48, ops, imp, rec], graph)
    assert steps[1].reasoning == ("within_horizon", "advisory_to_hazard")
    assert steps[2].reasoning == ("within_horizon", "hazard_to_operation")
    # No causal rule covers operations -> impact.
    assert steps[3].reasoning == ("within_horizon",)
    assert steps[4].reasoning == ("within_horizon", "impact_to_recovery")


def test_cross_horizon_and_change_tags():
    graph = _story_graph()
    fc96 = _eid(graph, "forecasts_hazard_at_horizon", 96)
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    change = _eid(graph, "forecast_updates_to")
    steps = build_evidence_steps([fc96, fc48], graph)
    assert steps[1].reasoning == ("cross_horizon",)
    steps = build_evidence_steps([fc96, change], graph)
    # The change edge spans both anchors, so the horizon set differs too.
    assert steps[1].reasoning == ("cross_horizon", "family_to_change")


def test_hazard_to_impact_tag_requires_same_horizon():
    graph = _story_graph()
    fc96 = _eid(graph, "forecasts_hazard_at_horizon", 96)
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    imp = _eid(graph, "has_impact_prediction")
    assert build_evidence_steps([fc48, imp], graph)[1].reasoning == (
        "within_horizon",
        "hazard_to_impact",
    )
    assert build_evidence_steps([fc96, imp], graph)[1].reasoning == ("cross_horizon",)


def test_build_evidence_steps_rejects_unknown_ids():
    graph = _story_graph()
    with pytest.raises(UnknownEdge):
        build_evidence_steps(["not-a-real-id"], graph)


def test_evidence_entities_sorted_by_entity_id():
    graph = _story_graph()
    steps = build_evidence_steps([_eid(graph, "has_watch_status")], graph)
    # Entity ids sort advisory < horizon anchor < port.
    assert steps[0].entities == (
        ("advisory 48", "advisory_status"),
        ("T-48", "horizon_time"),
        ("Port Arthur", "port"),
    )


def test_format_trajectory_layout_and_score_header():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    trajectory = Trajectory(
        [adv, fc48],
        1.2345,
        {
            "relevance": 1.0,
            "coherence": -0.5,
            "precedence": 1.0,
            "continuity": 0.5,
            "coverage": 1 / 3,
        },
    )
    text = format_trajectory(trajectory, graph)
    lines = text.splitlines()
    assert lines[0] == (
        "[Trajectory] total=1.2345 relevance=1.0000 coherence=-0.5000"
        " precedence=1.0000 continuity=0.5000 coverage=0.3333"
    )
    assert lines[1] == "[Step 1] [T-48] [phase=advisory] [family=4]"
    assert lines[2] == "  Relation: has_watch_status"
    assert lines[3] == "  Evidence: advisory at T-48"
    assert lines[4] == "  Reasoning: none"
    assert lines[5] == (
        "  Entities: advisory 48 [advisory_status]; T-48 [horizon_time];"
        " Port Arthur [port]"
    )
    assert lines[6].startswith("[Step 2] [T-48] [phase=hazard_forecast]")
    assert len(lines) == 1 + 2 * 5


def test_format_trajectory_change_edge_has_no_single_horizon():
    graph = _story_graph()
    change = _eid(graph, "forecast_updates_to")
    text = format_trajectory(Trajectory([change], 0.0, {}), graph)
    assert text.splitlines()[0] == "[Step 1] [—] [phase=other] [family=13]"


def test_format_trajectory_without_scores_omits_header():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    trajectory = Trajectory([adv], 1.0, {"relevance": 1.0})
    text = format_trajectory(trajectory, graph, include_scores=False)
    assert text.startswith("[Step 1]")


def test_format_trajectory_depends_on_step_order():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    ops = _eid(graph, "has_operation_status")
    forward = format_trajectory(Trajectory([adv, fc48, ops], 0.0, {}), graph)
    swapped = format_trajectory(Trajectory([fc48, adv, ops], 0.0, {}), graph)
    assert forward != swapped


def test_assemble_prompt_merges_duplicate_paths():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    ops = _eid(graph, "has_operation_status")
    same = Trajectory([adv, ops], 1.0, {})
    same_again = Trajectory([adv, ops], 0.9, {})
    other = Trajectory([ops], 0.5, {})
    prompt = assemble_prompt("Is the port open?", [same, same_again, other], graph)
    assert "Question: Is the port open?" in prompt
    assert "Path 1 [x2]:" in prompt
    assert "Path 2:" in prompt
    assert "Path 3" not in prompt
    assert prompt.startswith("Read every evidence path")
    assert prompt.rstrip().endswith('"rationale": "<one sentence>"}.')
    # Paths render without score headers.
    assert "[Trajectory]" not in prompt


def test_assemble_prompt_single_path_has_no_multiplicity():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    prompt = assemble_prompt("q", [Trajectory([adv], 1.0, {})], graph)
    assert "Path 1:" in prompt
    assert "[x" not in prompt


def test_answer_record_validates_confidence():
    with pytest.raises(ValueError):
        AnswerRecord("x", 1.2)
    with pytest.raises(ValueError):
        AnswerRecord("x", -0.1)


def test_aggregate_categorical_votes_by_confidence_mass():
    records = [
        AnswerRecord("closed_all", 0.6),
        AnswerRecord("open", 0.3),
        AnswerRecord("closed_all", 0.2),
    ]
    answer, confidence = aggregate_answers(records)
    assert answer == "closed_all"
    assert confidence == pytest.approx(0.8 / 1.1)


def test_aggregate_categorical_is_order_invariant():
    records = [
        AnswerRecord("a", 0.1),
        AnswerRecord("b", 0.7),
        AnswerRecord("a", 0.4),
    ]
    expected = aggregate_answers(records)
    assert aggregate_answers(list(reversed(records))) == expected


def test_aggregate_categorical_ties_break_lexicographically():
    records = [AnswerRecord("beta", 0.5), AnswerRecord("alpha", 0.5)]
    answer, confidence = aggregate_answers(records)
    assert answer == "alpha"
    assert confidence == pytest.approx(0.5)


def test_aggregate_categorical_zero_mass_has_zero_confidence():
    answer, confidence = aggregate_answers([AnswerRecord("only", 0.0)])
    assert answer == "only"
    assert confidence == 0.0


def test_aggregate_numeric_confidence_weighted_mean():
    records = [AnswerRecord("10", 0.5), AnswerRecord("20", 0.5)]
    assert aggregate_answers(records, numeric=True) == ("15", pytest.approx(0.5))
    skewed = [AnswerRecord("10", 0.8), AnswerRecord("20", 0.2)]
    assert aggregate_answers(skewed, numeric=True) == ("12", pytest.approx(0.5))


def test_aggregate_numeric_zero_mass_uses_plain_mean():
    records = [AnswerRecord("10", 0.0), AnswerRecord("30", 0.0)]
    assert aggregate_answers(records, numeric=True) == ("20", 0.0)


def test_aggregate_numeric_rejects_unparseable_values():
    with pytest.raises(UnparseableNumeric):
        aggregate_answers([AnswerRecord("lots", 0.9)], numeric=True)


def test_aggregate_requires_at_least_one_record():
    with pytest.raises(ValueError):
        aggregate_answers([])


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list[tuple[int, dict]] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = self.script.pop(0) if self.script else (500, {})
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(payload).encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    # shutdown() waits out one poll interval; the 0.5 s default dominates teardown.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}", _ScriptedHandler
    server.shutdown()
    thread.join()


def test_chat_client_posts_prompt_and_parses_answer(http_server):
    url, handler = http_server
    handler.script.append(
        (200, {"answer": "closed_all", "confidence": 0.9, "rationale": "the last step"})
    )
    client = ChatCompletionClient(url, model="chat-small", api_key="k123")
    record = client.complete("Is the port open?")
    assert record == AnswerRecord("closed_all", 0.9, "the last step")
    seen = handler.requests_seen[0]
    assert seen["path"] == "/chat"
    assert seen["auth"] == "Bearer k123"
    assert seen["body"]["model"] == "chat-small"
    assert seen["body"]["messages"] == [
        {"role": "user", "content": "Is the port open?"}
    ]


def test_chat_client_reads_key_from_environment(http_server, monkeypatch):
    url, handler = http_server
    monkeypatch.setenv("OKH_CHAT_API_KEY", "env-key")
    handler.script.append((200, {"answer": "open", "confidence": 0.5}))
    record = ChatCompletionClient(url, model="m").complete("q")
    assert record.rationale == ""
    assert handler.requests_seen[0]["auth"] == "Bearer env-key"


def test_chat_client_rejects_malformed_reply(http_server):
    url, handler = http_server
    handler.script.append((200, {"unexpected": "shape"}))
    client = ChatCompletionClient(url, model="m", api_key="k")
    with pytest.raises(ProviderError) as err:
        client.complete("q")
    assert err.value.status == 200


def test_chat_client_rejects_out_of_range_confidence(http_server):
    url, handler = http_server
    handler.script.append((200, {"answer": "x", "confidence": 3.0}))
    client = ChatCompletionClient(url, model="m", api_key="k")
    with pytest.raises(ProviderError):
        client.complete("q")
