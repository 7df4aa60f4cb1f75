"""Backend tests: synthetic world statistics and HTTP transport behavior."""

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest

from btevolve.backends import (
    PURPOSES,
    CompletionRequest,
    HttpBackend,
    SyntheticBackend,
    SyntheticWorldConfig,
    format_candidate,
    parse_theta,
    synthetic_mutate,
)
from btevolve.btrank import LEFT_WINS, RIGHT_WINS, TIE
from btevolve.errors import BackendError
from btevolve.judging import canonicalize, parse_judge_reply, render_comparison_prompt
from btevolve.pipeline import RunConfig, compute_budget, derive_seed, run_pipeline
from btevolve.population import render_mutation_prompt
from btevolve.prompts import POINTWISE_TEMPLATE, SELF_REFINE_TEMPLATE, render
from conftest import sampled

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def judge_once(backend, theta_left, theta_right, seed):
    # order and verdict need independent streams, as the pipeline derives them
    left = sampled("L", format_candidate(theta_left))
    right = sampled("R", format_candidate(theta_right))
    task = render_comparison_prompt("p", left, right, seed=derive_seed(seed, 0))
    reply = backend.complete(
        CompletionRequest(user_prompt=task.prompt_text, seed=derive_seed(seed, 1))
    )
    return canonicalize(task, *parse_judge_reply(reply))


def test_world_config_validation():
    with pytest.raises(ValueError):
        SyntheticWorldConfig(judge_mode="oracle")
    with pytest.raises(ValueError):
        SyntheticWorldConfig(judge_accuracy=0.3)
    with pytest.raises(ValueError):
        SyntheticWorldConfig(theta_std=-1.0)
    with pytest.raises(ValueError):
        SyntheticWorldConfig(pointwise_recall_accepted=1.5)
    SyntheticWorldConfig(judge_mode="logistic", judge_accuracy=0.0)  # unused in this mode


def test_theta_round_trip():
    text = format_candidate(-1.234567891)
    assert parse_theta(text) == pytest.approx(-1.234567891, abs=1e-9)
    with pytest.raises(ValueError):
        parse_theta("no marker")


def test_completion_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest("p", temperature=3.0)
    with pytest.raises(ValueError, match="purpose"):
        CompletionRequest("p", purpose="summarize")


def test_purpose_picks_the_templates_the_prompt_is_read_with():
    backend = SyntheticBackend()
    pointwise = render(POINTWISE_TEMPLATE, problem="x", code=format_candidate(9.0))
    # without a purpose the prompt is read as what it looks like
    assert backend.complete(CompletionRequest(pointwise, seed=3)).endswith("VERDICT: YES")
    # a generation request parses nothing: the whole prompt is its problem
    generated = backend.complete(CompletionRequest(pointwise, seed=3, purpose="generate"))
    assert generated == backend.complete(CompletionRequest("plain problem", seed=3, purpose="generate"))
    assert generated == backend.complete(CompletionRequest("plain problem", seed=3))
    # a prompt that is not of its purpose's templates is an error, not a guess
    for purpose in set(PURPOSES) - {"generate", "pointwise"}:
        with pytest.raises(BackendError, match=purpose):
            backend.complete(CompletionRequest(pointwise, seed=3, purpose=purpose))


def test_generation_draws_configured_distribution():
    world = SyntheticWorldConfig(theta_mean=2.0, theta_std=0.25)
    backend = SyntheticBackend(world)
    thetas = [
        parse_theta(backend.complete(CompletionRequest("solve this", seed=s)))
        for s in range(400)
    ]
    assert abs(np.mean(thetas) - 2.0) < 0.05
    assert abs(np.std(thetas) - 0.25) < 0.03


def test_same_seed_same_reply():
    backend = SyntheticBackend()
    a = backend.complete(CompletionRequest("problem text", seed=42))
    b = backend.complete(CompletionRequest("problem text", seed=42))
    assert a == b


def test_perfect_judge_always_picks_higher_theta():
    backend = SyntheticBackend(SyntheticWorldConfig(judge_accuracy=1.0))
    for seed in range(40):
        judgment = judge_once(backend, 0.8, -0.2, seed)
        assert judgment.outcome == LEFT_WINS
        judgment = judge_once(backend, -0.8, 1.4, seed)
        assert judgment.outcome == RIGHT_WINS


def test_equal_thetas_tie_in_fixed_mode():
    backend = SyntheticBackend(SyntheticWorldConfig(judge_accuracy=1.0))
    assert judge_once(backend, 0.5, 0.5, 7).outcome == TIE


def test_fixed_accuracy_frequency():
    backend = SyntheticBackend(SyntheticWorldConfig(judge_accuracy=0.862))
    wins = sum(judge_once(backend, 1.0, 0.0, seed).outcome == LEFT_WINS for seed in range(2000))
    # 3.3 sigma window around 0.862 at 2000 draws
    assert abs(wins / 2000 - 0.862) < 0.026


def test_logistic_judge_frequency():
    backend = SyntheticBackend(SyntheticWorldConfig(judge_mode="logistic"))
    expected = 1.0 / (1.0 + np.exp(-1.0))
    wins = sum(judge_once(backend, 1.0, 0.0, seed).outcome == LEFT_WINS for seed in range(2000))
    assert abs(wins / 2000 - expected) < 0.033


def test_judge_feedback_mentions_labels():
    backend = SyntheticBackend(SyntheticWorldConfig(judge_accuracy=1.0))
    judgment = judge_once(backend, 1.0, 0.0, 3)
    assert "Solution A" in judgment.rationale_for_left + judgment.rationale_for_right


def test_pointwise_recalls():
    world = SyntheticWorldConfig(
        acceptance_threshold=0.0, pointwise_recall_accepted=0.9, pointwise_recall_rejected=0.7
    )
    backend = SyntheticBackend(world)

    def verdict(theta, seed):
        prompt = render(POINTWISE_TEMPLATE, problem="p", code=format_candidate(theta))
        return backend.complete(CompletionRequest(prompt, seed=seed)).endswith("VERDICT: YES")

    yes_on_accepted = sum(verdict(1.0, s) for s in range(1500)) / 1500
    yes_on_rejected = sum(verdict(-1.0, s) for s in range(1500)) / 1500
    assert abs(yes_on_accepted - 0.9) < 0.03
    assert abs((1.0 - yes_on_rejected) - 0.7) < 0.04


def test_mutation_shift_and_feedback_bonus():
    world = SyntheticWorldConfig(
        mutation_shift_mean=0.3, mutation_shift_std=0.05, feedback_bonus=0.25
    )
    backend = SyntheticBackend(world)
    base = sampled("c", format_candidate(0.5))
    plain_prompt = render_mutation_prompt("p", base, "")
    fed_prompt = render_mutation_prompt("p", base, "stuff")
    for seed in (1, 2, 3):
        plain = parse_theta(backend.complete(CompletionRequest(plain_prompt, seed=seed)))
        fed = parse_theta(backend.complete(CompletionRequest(fed_prompt, seed=seed)))
        assert plain == pytest.approx(synthetic_mutate(0.5, False, world, seed), abs=1e-9)
        assert fed == pytest.approx(plain + 0.25, abs=1e-9)


def test_refine_prompt_mutates_without_bonus():
    world = SyntheticWorldConfig(mutation_shift_mean=0.1, mutation_shift_std=0.02, feedback_bonus=0.9)
    backend = SyntheticBackend(world)
    prompt = render(SELF_REFINE_TEMPLATE, problem="p", code=format_candidate(0.0))
    child = parse_theta(backend.complete(CompletionRequest(prompt, seed=5)))
    assert child == pytest.approx(synthetic_mutate(0.0, False, world, 5), abs=1e-9)


class _Script(BaseHTTPRequestHandler):
    """Serves queued (status, body) entries; records request bodies and headers."""

    script = []
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        _Script.seen.append(
            {"body": body, "auth": self.headers.get("Authorization"), "peer": self.client_address}
        )
        status, payload = _Script.script.pop(0) if _Script.script else (500, "{}")
        data = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveScript(_Script):
    protocol_version = "HTTP/1.1"  # keeps the connection open between requests


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Script.script = []
    _Script.seen = []
    yield f"http://127.0.0.1:{server.server_port}", _Script
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


@pytest.fixture()
def http_server():
    yield from _serve(HTTPServer(("127.0.0.1", 0), _Script))


@pytest.fixture()
def keep_alive_server():
    # one thread per connection, so a connection held open blocks nothing
    yield from _serve(ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveScript))


class _SyntheticReplies(BaseHTTPRequestHandler):
    """Keep-alive stand-in model: answers like the synthetic backend and records
    the client address of every request."""

    protocol_version = "HTTP/1.1"
    backend = SyntheticBackend()
    lock = threading.Lock()
    peers = []

    def setup(self):
        super().setup()
        # a keep-alive client otherwise waits on delayed ACKs between requests
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        with _SyntheticReplies.lock:
            # the wire carries no seed, so each request gets the next one
            seed = len(_SyntheticReplies.peers)
            _SyntheticReplies.peers.append(self.client_address)
        request = CompletionRequest(body["user"], body["system"], body["temperature"], seed)
        data = json.dumps({"text": self.backend.complete(request)}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_run_keeps_one_connection_per_worker():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SyntheticReplies)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _SyntheticReplies.peers = []
    try:
        backend = HttpBackend(f"http://127.0.0.1:{server.server_port}", timeout=5)
        config = RunConfig(problem="Sort the list.")
        run_pipeline(config, backend=backend, parallelism=2)
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert len(_SyntheticReplies.peers) == compute_budget(config.n, config.k, config.generations, config.final_k)
    # one pool for the whole run: its two threads keep their sessions across barriers
    assert len(set(_SyntheticReplies.peers)) <= 2


def test_http_success_and_payload_shape(http_server):
    url, script = http_server
    script.script.append((200, json.dumps({"text": "hello"})))
    backend = HttpBackend(url, timeout=5)
    reply = backend.complete(CompletionRequest("user text", system_prompt="sys", temperature=0.5))
    assert reply == "hello"
    sent = script.seen[0]["body"]
    assert sent == {"system": "sys", "user": "user text", "temperature": 0.5}


def test_http_wire_body_ignores_purpose(http_server):
    url, script = http_server
    backend = HttpBackend(url, timeout=5)
    for purpose in (None, *PURPOSES):
        script.script.append((200, json.dumps({"text": "hello"})))
        backend.complete(CompletionRequest("user text", system_prompt="sys", temperature=0.5, purpose=purpose))
    bodies = [seen["body"] for seen in script.seen]
    assert bodies == [{"system": "sys", "user": "user text", "temperature": 0.5}] * (1 + len(PURPOSES))


def test_http_retries_server_errors_then_succeeds(http_server):
    url, script = http_server
    script.script.extend([(500, "{}"), (429, "{}"), (200, json.dumps({"text": "ok"}))])
    backend = HttpBackend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    assert backend.complete(CompletionRequest("u")) == "ok"
    assert len(script.seen) == 3


def test_http_gives_up_after_budget(http_server):
    url, script = http_server
    script.script.extend([(503, "{}")] * 3)
    backend = HttpBackend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="3 attempts"):
        backend.complete(CompletionRequest("u"))


def test_http_client_errors_fail_immediately(http_server):
    url, script = http_server
    script.script.extend([(400, "{}"), (200, json.dumps({"text": "never"}))])
    backend = HttpBackend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="HTTP error"):
        backend.complete(CompletionRequest("u"))
    assert len(script.seen) == 1


def test_http_missing_text_field(http_server):
    url, script = http_server
    script.script.append((200, json.dumps({"output": "x"})))
    backend = HttpBackend(url, timeout=5)
    with pytest.raises(BackendError, match="missing 'text'"):
        backend.complete(CompletionRequest("u"))


def test_http_auth_token_read_from_env(http_server, monkeypatch):
    url, script = http_server
    script.script.extend([(200, json.dumps({"text": "a"})), (200, json.dumps({"text": "b"}))])
    backend = HttpBackend(url, auth_token_env="TEST_JUDGE_TOKEN", timeout=5)
    monkeypatch.delenv("TEST_JUDGE_TOKEN", raising=False)
    backend.complete(CompletionRequest("u"))
    monkeypatch.setenv("TEST_JUDGE_TOKEN", "sekret")
    backend.complete(CompletionRequest("u"))
    assert script.seen[0]["auth"] is None
    assert script.seen[1]["auth"] == "Bearer sekret"


def test_http_connection_refused():
    backend = HttpBackend("http://127.0.0.1:9", timeout=0.2, transport_retries=1, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="2 attempts"):
        backend.complete(CompletionRequest("u"))


@pytest.mark.parametrize(
    ("body", "message"),
    [
        (json.dumps(["text", "hello"]), "not a JSON object"),
        (json.dumps("hello"), "not a JSON object"),
        (json.dumps({"text": 42}), "'text' is not a string"),
        (json.dumps({"text": None}), "'text' is not a string"),
    ],
)
def test_http_rejects_malformed_reply(http_server, body, message):
    url, script = http_server
    script.script.extend([(200, body), (200, json.dumps({"text": "never"}))])
    backend = HttpBackend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match=message):
        backend.complete(CompletionRequest("u"))
    assert len(script.seen) == 1


def test_http_reuses_connection(keep_alive_server):
    url, script = keep_alive_server
    script.script.extend([(200, json.dumps({"text": str(i)})) for i in range(3)])
    backend = HttpBackend(url, timeout=5)
    assert [backend.complete(CompletionRequest("u")) for _ in range(3)] == ["0", "1", "2"]
    assert len({seen["peer"] for seen in script.seen}) == 1


def test_http_sessions_are_per_thread(keep_alive_server):
    url, script = keep_alive_server
    script.script.extend([(200, json.dumps({"text": "x"}))] * 2)
    backend = HttpBackend(url, timeout=5)
    backend.complete(CompletionRequest("u"))
    worker = threading.Thread(target=backend.complete, args=(CompletionRequest("u"),))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert len({seen["peer"] for seen in script.seen}) == 2


def test_requests_is_imported_only_when_a_request_is_sent():
    # offline commands (simulate, elo) import btevolve without paying for requests and urllib3
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, btevolve\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('requests', 'urllib3')))\n"
        "btevolve.HttpBackend('http://127.0.0.1:9')._session()\n"
        "print('requests' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True
    )
    assert done.stdout.split("\n")[:2] == ["[]", "True"]
