"""Backend tests: synthetic world statistics and HTTP transport behavior."""

import io
import json
import math
import os
import resource
import re
import socket
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
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
from btevolve.errors import BackendError, ConfigError
from btevolve.judging import canonicalize, parse_judge_reply, render_comparison_prompt
from btevolve import cli, pipeline
from btevolve.pipeline import RunConfig, compute_budget, derive_seed, make_backend, run_pipeline
from btevolve.seeds import derive_seeds, seed_uniform
from btevolve.population import render_mutation_prompt
from btevolve.prompts import POINTWISE_TEMPLATE, SELF_REFINE_TEMPLATE, render
from conftest import judge_reply, sampled

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
    with pytest.raises(ConfigError, match="judge_accuracy must be a finite number"):
        SyntheticWorldConfig(judge_mode="logistic", judge_accuracy=float("nan"))  # but still a number


@pytest.mark.parametrize("name", [name for name in vars(SyntheticWorldConfig()) if name != "judge_mode"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "0.5"])
def test_world_field_must_be_a_finite_number(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
        SyntheticWorldConfig(**{name: value})


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


# the seeds a run hands the backend: derived child seeds, not small consecutive ones
LAW_SEEDS = derive_seeds(2024, 1, 5, np.arange(4000)).tolist()


def test_mutation_shift_keeps_its_configured_mean_and_sd():
    world = SyntheticWorldConfig()  # shift N(0.2, 0.1^2)
    shifts = np.array([synthetic_mutate(1.0, False, world, seed) - 1.0 for seed in LAW_SEEDS])
    # 4-sigma intervals at 4000 draws: the mean's sd is 0.1 / sqrt(4000), the sd's about 0.1 / sqrt(8000)
    assert abs(shifts.mean() - 0.2) < 4 * 0.1 / math.sqrt(4000)
    assert abs(shifts.std() - 0.1) < 4 * 0.1 / math.sqrt(8000)


def test_generation_theta_passes_a_ks_test_against_its_normal():
    backend = SyntheticBackend(SyntheticWorldConfig(theta_mean=0.5, theta_std=2.0))
    thetas = np.sort([parse_theta(backend.complete(CompletionRequest("p", seed=seed))) for seed in LAW_SEEDS])
    cdf = np.array([0.5 * (1.0 + math.erf((theta - 0.5) / (2.0 * math.sqrt(2.0)))) for theta in thetas])
    ranks = np.arange(1, len(thetas) + 1) / len(thetas)
    statistic = max((ranks - cdf).max(), (cdf - (ranks - 1 / len(thetas))).max())
    # Kolmogorov's 0.1% critical value is 1.95 / sqrt(N); theta carries 9 decimals, far below it
    assert statistic < 1.95 / math.sqrt(len(thetas))


def test_uniforms_of_consecutive_small_seeds_are_uncorrelated():
    # tests and the CLI hand the backend seeds 0, 1, 2, ...: draw 0 of one seed
    # must not track draw 0 of the next, nor its own draw 1 (Box-Muller's pair)
    count = 20000
    first = np.array([seed_uniform(seed) for seed in range(count + 1)])
    second = np.array([seed_uniform(seed, 1) for seed in range(count)])
    bound = 4 / math.sqrt(count)  # 4 sd of a sample correlation of independent draws
    assert abs(np.corrcoef(first[:-1], first[1:])[0, 1]) < bound
    assert abs(np.corrcoef(first[:-1], second)[0, 1]) < bound
    assert abs(first.mean() - 0.5) < 4 * math.sqrt(1 / 12 / count)


@pytest.mark.parametrize(
    "prompt",
    [
        "plain problem",
        render(POINTWISE_TEMPLATE, problem="p", code=format_candidate(0.5)),
        render(SELF_REFINE_TEMPLATE, problem="p", code=format_candidate(0.5)),
    ],
    ids=["generate", "pointwise", "refine"],
)
def test_a_request_without_a_seed_answers_as_seed_0(prompt):
    backend = SyntheticBackend(SyntheticWorldConfig(pointwise_recall_accepted=0.5, pointwise_recall_rejected=0.5))
    assert backend.complete(CompletionRequest(prompt)) == backend.complete(CompletionRequest(prompt, seed=0))


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


class _CloseAfterReply(_Script):
    """Replies as HTTP/1.1 without `Connection: close`, then closes the connection anyway."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _Rendezvous(_KeepAliveScript):
    """Keep-alive script that holds each request until `barrier`, when set, lets it through."""

    barrier = None

    def do_POST(self):
        if _Rendezvous.barrier is not None:
            _Rendezvous.barrier.wait(timeout=5)
        super().do_POST()


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


@pytest.fixture()
def closing_server():
    yield from _serve(ThreadingHTTPServer(("127.0.0.1", 0), _CloseAfterReply))


@pytest.fixture()
def rendezvous_server():
    # the first two requests pass the barrier together, later ones pass alone
    _Rendezvous.barrier = threading.Barrier(2, action=lambda: setattr(_Rendezvous, "barrier", None))
    yield from _serve(ThreadingHTTPServer(("127.0.0.1", 0), _Rendezvous))
    _Rendezvous.barrier = None


@pytest.fixture()
def http_backend():
    """HttpBackend, each one it builds closed when the test ends."""
    built = []

    def build(*args, **kwargs):
        built.append(HttpBackend(*args, **kwargs))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


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
    backend = HttpBackend(f"http://127.0.0.1:{server.server_port}", timeout=5)
    try:
        config = RunConfig(problem="Sort the list.")
        run_pipeline(config, backend=backend, parallelism=2)
    finally:
        backend.close()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert len(_SyntheticReplies.peers) == compute_budget(config.n, config.k, config.generations, config.final_k)
    # at most two calls at a time, so the backend never needs a third connection
    assert len(set(_SyntheticReplies.peers)) <= 2


def test_runs_sharing_a_backend_reuse_its_connections():
    # the backend's idle connections outlive each run's worker threads; more workers
    # than cores and frequent thread switches stress the shared idle list
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SyntheticReplies)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _SyntheticReplies.peers = []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    backend = HttpBackend(f"http://127.0.0.1:{server.server_port}", timeout=5)
    try:
        config = RunConfig(problem="Sort the list.", n=8, k=2, generations=1, final_k=3)
        for _ in range(3):
            run_pipeline(config, backend=backend, parallelism=8)
        idle = list(backend._idle)
    finally:
        sys.setswitchinterval(switch_interval)
        backend.close()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert len(_SyntheticReplies.peers) == 3 * compute_budget(config.n, config.k, config.generations, config.final_k)
    assert len(set(_SyntheticReplies.peers)) <= 8
    assert 1 <= len(idle) <= 8
    assert backend._idle == [] and all(connection.sock is None for connection in idle)


def test_batch_keeps_one_connection_per_worker(tmp_path):
    # btevolve run shares one backend and one pool across a batch, so the backend
    # keeps its connections from one problem to the next
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SyntheticReplies)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _SyntheticReplies.peers = []
    problems = tmp_path / "problems"
    problems.mkdir()
    (problems / "a.txt").write_text("Sort the list.")
    (problems / "b.txt").write_text("Reverse the list.")
    config = tmp_path / "run.yaml"
    backend = {"kind": "http", "base_url": f"http://127.0.0.1:{server.server_port}", "timeout": 5}
    payload = {"problem": str(problems), "n": 8, "k": 3, "generations": 1, "final_k": 5, "backend": backend}
    config.write_text(json.dumps(payload))
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--parallelism", "2"])
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert code == 0
    assert len(_SyntheticReplies.peers) == 2 * compute_budget(8, 3, 1, 5) == 92
    assert len(set(_SyntheticReplies.peers)) == 2


def test_run_closes_the_backend_it_builds(keep_alive_server, monkeypatch):
    url, script = keep_alive_server
    built, idle = [], []

    def make_and_keep(kind, options):
        built.append(make_backend(kind, options))
        # `close` swaps this list out and closes what it holds
        idle.append(built[-1]._idle)
        return built[-1]

    monkeypatch.setattr(pipeline, "make_backend", make_and_keep)
    options = {"base_url": url}
    config = RunConfig(problem="p", n=4, k=1, generations=0, final_k=1, backend="http", backend_options=options)
    script.script.extend([(200, json.dumps({"text": "candidate"}))] * 4)
    script.script.extend([(200, json.dumps({"text": judge_reply("A")}))] * 2)
    selected, _ = run_pipeline(config)
    assert selected.content == "candidate"
    (backend,), ((connection,),) = built, idle
    assert backend._idle == [] and connection.sock is None


def test_http_close_closes_held_connections_and_a_later_call_reopens(keep_alive_server, http_backend):
    url, script = keep_alive_server
    script.script.extend([(200, json.dumps({"text": str(i)})) for i in range(3)])
    backend = http_backend(url, timeout=5)
    backend.complete(CompletionRequest("u"))
    worker = threading.Thread(target=backend.complete, args=(CompletionRequest("u"),))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    # the worker took the connection the main thread's call gave back, and gave it back in turn
    (connection,) = backend._idle
    assert connection.sock is not None
    backend.close()
    assert connection.sock is None
    assert backend.complete(CompletionRequest("u")) == "2"
    assert len({seen["peer"] for seen in script.seen}) == 2


def test_http_success_and_payload_shape(http_server, http_backend):
    url, script = http_server
    script.script.append((200, json.dumps({"text": "hello"})))
    backend = http_backend(url, timeout=5)
    reply = backend.complete(CompletionRequest("user text", system_prompt="sys", temperature=0.5))
    assert reply == "hello"
    sent = script.seen[0]["body"]
    assert sent == {"system": "sys", "user": "user text", "temperature": 0.5}


def test_http_wire_body_ignores_purpose(http_server, http_backend):
    url, script = http_server
    backend = http_backend(url, timeout=5)
    for purpose in (None, *PURPOSES):
        script.script.append((200, json.dumps({"text": "hello"})))
        backend.complete(CompletionRequest("user text", system_prompt="sys", temperature=0.5, purpose=purpose))
    bodies = [seen["body"] for seen in script.seen]
    assert bodies == [{"system": "sys", "user": "user text", "temperature": 0.5}] * (1 + len(PURPOSES))


def test_http_retries_server_errors_then_succeeds(http_server, http_backend):
    url, script = http_server
    script.script.extend([(500, "{}"), (429, "{}"), (200, json.dumps({"text": "ok"}))])
    backend = http_backend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    assert backend.complete(CompletionRequest("u")) == "ok"
    assert len(script.seen) == 3


def test_http_gives_up_after_budget(http_server, http_backend):
    url, script = http_server
    script.script.extend([(503, "{}")] * 3)
    backend = http_backend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="3 attempts"):
        backend.complete(CompletionRequest("u"))


def test_http_client_errors_fail_immediately(http_server, http_backend):
    url, script = http_server
    script.script.extend([(400, "{}"), (200, json.dumps({"text": "never"}))])
    backend = http_backend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="HTTP error"):
        backend.complete(CompletionRequest("u"))
    assert len(script.seen) == 1


def test_http_missing_text_field(http_server, http_backend):
    url, script = http_server
    script.script.append((200, json.dumps({"output": "x"})))
    backend = http_backend(url, timeout=5)
    with pytest.raises(BackendError, match="missing 'text'"):
        backend.complete(CompletionRequest("u"))


def test_http_auth_token_read_from_env(http_server, monkeypatch, http_backend):
    url, script = http_server
    script.script.extend([(200, json.dumps({"text": "a"})), (200, json.dumps({"text": "b"}))])
    backend = http_backend(url, auth_token_env="TEST_JUDGE_TOKEN", timeout=5)
    monkeypatch.delenv("TEST_JUDGE_TOKEN", raising=False)
    backend.complete(CompletionRequest("u"))
    monkeypatch.setenv("TEST_JUDGE_TOKEN", "sekret")
    backend.complete(CompletionRequest("u"))
    assert script.seen[0]["auth"] is None
    assert script.seen[1]["auth"] == "Bearer sekret"


def test_http_connection_refused(http_backend):
    backend = http_backend("http://127.0.0.1:9", timeout=0.2, transport_retries=1, backoff_seconds=0.0)
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
def test_http_rejects_malformed_reply(http_server, body, message, http_backend):
    url, script = http_server
    script.script.extend([(200, body), (200, json.dumps({"text": "never"}))])
    backend = http_backend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match=message):
        backend.complete(CompletionRequest("u"))
    assert len(script.seen) == 1


def test_http_reuses_connection(keep_alive_server, http_backend):
    url, script = keep_alive_server
    script.script.extend([(200, json.dumps({"text": str(i)})) for i in range(3)])
    backend = http_backend(url, timeout=5)
    assert [backend.complete(CompletionRequest("u")) for _ in range(3)] == ["0", "1", "2"]
    assert len({seen["peer"] for seen in script.seen}) == 1


def test_http_reuses_a_connection_numbered_above_select_s_limit(keep_alive_server, http_backend):
    # select.select refuses a file descriptor of 1024 or more; the idle check must not
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("needs a limit of at least 1200 open files")
    url, script = keep_alive_server
    script.script.extend([(200, json.dumps({"text": str(i)})) for i in range(2)])
    backend = http_backend(url, timeout=5)
    held = []
    try:
        for _ in range(1100):  # the lowest free numbers first, so the connection's socket comes above them
            held.append(os.open(os.devnull, os.O_RDONLY))
        assert backend.complete(CompletionRequest("u")) == "0"
        assert backend._idle[0].sock.fileno() >= 1024
        assert backend.complete(CompletionRequest("u")) == "1"
    finally:
        for fd in held:
            os.close(fd)
    assert len({seen["peer"] for seen in script.seen}) == 1


def test_http_overlapping_calls_use_two_connections_and_a_later_thread_reuses_one(rendezvous_server, http_backend):
    url, script = rendezvous_server
    script.script.extend([(200, json.dumps({"text": "x"}))] * 3)
    backend = http_backend(url, timeout=5)

    def call_at_once(count):
        """`count` calls, each from a thread of its own."""
        threads = [threading.Thread(target=backend.complete, args=(CompletionRequest("u"),)) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    # the server answers neither of the first two requests before both have arrived
    call_at_once(2)
    assert len({seen["peer"] for seen in script.seen}) == len(backend._idle) == 2
    call_at_once(1)
    assert len(script.seen) == 3
    assert len({seen["peer"] for seen in script.seen}) == len(backend._idle) == 2


def test_http_calls_need_no_requests_and_import_loads_no_http_client(http_server):
    # offline commands (simulate, elo) import btevolve without paying for http.client
    url, script = http_server
    script.script.append((200, json.dumps({"text": "hello"})))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "sys.modules['requests'] = sys.modules['urllib3'] = None\n"
        "import btevolve\n"
        "print('http.client' in sys.modules)\n"
        f"backend = btevolve.HttpBackend({url!r}, timeout=5)\n"
        "print(backend.complete(btevolve.CompletionRequest('u')))\n"
        "backend.close()"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True
    )
    assert done.stdout.split("\n")[:2] == ["False", "hello"]
    assert script.seen[0]["body"] == {"system": None, "user": "u", "temperature": 1.0}


def test_http_reopens_a_connection_the_server_closed_while_idle(closing_server, http_backend):
    # without the idle check the second call would go out on the closed socket and fail
    url, script = closing_server
    script.script.extend([(200, json.dumps({"text": str(i)})) for i in range(3)])
    backend = http_backend(url, timeout=5, transport_retries=0)
    replies = []
    for _ in range(3):
        replies.append(backend.complete(CompletionRequest("u")))
        time.sleep(0.05)
    assert replies == ["0", "1", "2"]
    assert len({seen["peer"] for seen in script.seen}) == 3


@pytest.mark.parametrize(
    ("status", "body", "message"),
    [(302, "{}", r"HTTP error from .*: 302"), (200, "<html>busy</html>", "not JSON")],
    ids=["redirect", "not-json"],
)
def test_http_redirects_and_non_json_replies_fail_immediately(http_server, status, body, message, http_backend):
    url, script = http_server
    script.script.extend([(status, body), (200, json.dumps({"text": "never"}))])
    backend = http_backend(url, timeout=5, transport_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match=message):
        backend.complete(CompletionRequest("u"))
    assert len(script.seen) == 1


@pytest.mark.parametrize(
    "base_url", ["example.invalid/v1", "ftp://example.invalid/v1", "http:///v1", "http://example.invalid:port/v1"]
)
def test_http_rejects_a_malformed_base_url(base_url):
    with pytest.raises(ValueError):
        HttpBackend(base_url)
    with pytest.raises(ConfigError, match="bad backend options"):
        make_backend("http", {"base_url": base_url})


HTTP_OPTION_ERRORS = {
    "string-timeout": ({"timeout": "30"}, "timeout must be a finite number above 0, got '30'"),
    "zero-timeout": ({"timeout": 0}, "timeout must be a finite number above 0, got 0"),
    "infinite-timeout": ({"timeout": float("inf")}, "timeout must be a finite number above 0, got inf"),
    "bool-timeout": ({"timeout": True}, "timeout must be a finite number above 0, got True"),
    "string-retries": ({"transport_retries": "2"}, "transport_retries must be an integer of at least 0, got '2'"),
    "negative-retries": ({"transport_retries": -1}, "transport_retries must be an integer of at least 0, got -1"),
    "float-retries": ({"transport_retries": 2.0}, "transport_retries must be an integer of at least 0, got 2.0"),
    "negative-backoff": ({"backoff_seconds": -1.0}, "backoff_seconds must be a finite number of at least 0, got -1.0"),
    "nan-backoff": ({"backoff_seconds": float("nan")}, "backoff_seconds must be a finite number of at least 0, got nan"),
    "null-backoff": ({"backoff_seconds": None}, "backoff_seconds must be a finite number of at least 0, got None"),
}


@pytest.mark.parametrize(("options", "message"), list(HTTP_OPTION_ERRORS.values()), ids=list(HTTP_OPTION_ERRORS))
def test_http_rejects_bad_transport_options(options, message):
    # checked when the backend is built, not on its first call
    with pytest.raises(ConfigError, match=re.escape(message)):
        HttpBackend("http://127.0.0.1:9", **options)
    with pytest.raises(ConfigError, match=re.escape(f"bad backend options: {message}")):
        make_backend("http", {"base_url": "http://127.0.0.1:9", **options})
