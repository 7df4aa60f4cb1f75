"""Completion backends: a real HTTP endpoint and a deterministic synthetic world.

The synthetic backend stands in for the model during tests and simulations.
Each candidate it emits embeds a latent quality theta; it reads each prompt
back through the template that rendered it (`prompts.parse`), chosen among
the templates of the request's purpose, and answers
from the theta in its candidate fields plus the request seed, never from the
problem text, so whole runs are reproducible and ground truth stays
available to the harness.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from . import prompts
from .errors import BackendError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

JUDGE_MODE_FIXED = "fixed-accuracy"
JUDGE_MODE_LOGISTIC = "logistic"

# what a completion call is for; the prompt of each is rendered from its own templates
PURPOSE_GENERATE = "generate"
PURPOSE_JUDGE = "judge"
PURPOSE_MUTATE = "mutate"
PURPOSE_POINTWISE = "pointwise"
PURPOSE_REFINE = "refine"
PURPOSES = (PURPOSE_GENERATE, PURPOSE_JUDGE, PURPOSE_MUTATE, PURPOSE_POINTWISE, PURPOSE_REFINE)


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call; `seed` and `purpose` are honored by the synthetic
    backend only.  A `purpose` of None leaves the synthetic backend to tell
    the prompt's kind from the prompt itself."""

    user_prompt: str
    system_prompt: str | None = None
    temperature: float = 1.0
    seed: int | None = None
    purpose: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} out of range [0, 2]")
        if self.purpose is not None and self.purpose not in PURPOSES:
            raise ValueError(f"unknown purpose {self.purpose!r}")


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...


class HttpBackend:
    """POSTs {system, user, temperature} to a single endpoint, expects {text}.

    Transport failures (connection errors, timeouts, HTTP 429/5xx) are
    retried `transport_retries` times with exponential backoff starting at
    `backoff_seconds`; other HTTP errors, and replies that are not a JSON
    object with a string `text`, fail immediately.  Each thread keeps its own
    `requests.Session`, so calls reuse keep-alive connections.  The auth
    token is read from the environment at call time so configs never hold
    secrets.  `requests` is imported on the first call, so importing
    btevolve for offline work does not load it.
    """

    def __init__(
        self,
        base_url: str,
        auth_token_env: str | None = None,
        timeout: float = 600.0,
        transport_retries: int = 2,
        backoff_seconds: float = 1.0,
    ) -> None:
        self.base_url = base_url
        self.auth_token_env = auth_token_env
        self.timeout = timeout
        self.transport_retries = transport_retries
        self.backoff_seconds = backoff_seconds
        self._local = threading.local()

    def _session(self) -> requests.Session:
        import requests

        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return session

    def complete(self, request: CompletionRequest) -> str:
        import requests

        headers = {}
        if self.auth_token_env:
            token = os.environ.get(self.auth_token_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        body = {
            "system": request.system_prompt,
            "user": request.user_prompt,
            "temperature": request.temperature,
        }
        last_error: Exception | None = None
        for attempt in range(self.transport_retries + 1):
            if attempt:
                time.sleep(self.backoff_seconds * 2 ** (attempt - 1))
            try:
                response = self._session().post(self.base_url, json=body, headers=headers, timeout=self.timeout)
                if response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendError(f"HTTP {response.status_code} from {self.base_url}")
                    logger.warning("retryable status %s (attempt %d)", response.status_code, attempt + 1)
                    continue
                response.raise_for_status()
                payload = response.json()
                if not isinstance(payload, dict):
                    raise BackendError(f"endpoint reply is not a JSON object: {payload!r:.200}")
                if "text" not in payload:
                    raise BackendError(f"endpoint reply is missing 'text': {payload!r:.200}")
                if not isinstance(payload["text"], str):
                    raise BackendError(f"endpoint reply 'text' is not a string: {payload['text']!r:.200}")
                return payload["text"]
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                logger.warning("transport failure (attempt %d): %s", attempt + 1, exc)
            except requests.HTTPError as exc:
                raise BackendError(f"HTTP error from {self.base_url}: {exc}") from exc
            except ValueError as exc:  # not JSON
                raise BackendError(f"endpoint reply is not JSON: {exc}") from exc
        raise BackendError(
            f"backend unavailable after {self.transport_retries + 1} attempts: {last_error}"
        ) from last_error


@dataclass(frozen=True)
class SyntheticWorldConfig:
    """Ground truth for the synthetic world.

    Latent quality theta is drawn from N(theta_mean, theta_std^2) per
    candidate; a candidate is accepted iff theta >= acceptance_threshold.
    The pairwise judge either picks the higher-theta side with probability
    judge_accuracy (fixed-accuracy mode, ties only on exactly equal theta)
    or samples the winner from sigmoid(theta_a - theta_b) (logistic mode).
    Mutation shifts theta by N(mutation_shift_mean, mutation_shift_std^2)
    plus feedback_bonus when feedback is present.  The pointwise judge says
    YES to accepted candidates with probability pointwise_recall_accepted
    and NO to rejected ones with probability pointwise_recall_rejected.
    """

    theta_mean: float = 0.0
    theta_std: float = 1.0
    judge_mode: str = JUDGE_MODE_FIXED
    judge_accuracy: float = 0.862
    mutation_shift_mean: float = 0.2
    mutation_shift_std: float = 0.1
    feedback_bonus: float = 0.0
    acceptance_threshold: float = 1.2815515655446004  # 90th percentile of N(0, 1)
    pointwise_recall_accepted: float = 0.964
    pointwise_recall_rejected: float = 0.622

    def __post_init__(self) -> None:
        if self.judge_mode not in (JUDGE_MODE_FIXED, JUDGE_MODE_LOGISTIC):
            raise ValueError(f"unknown judge_mode {self.judge_mode!r}")
        if self.judge_mode == JUDGE_MODE_FIXED and not 0.5 <= self.judge_accuracy <= 1.0:
            raise ValueError("judge_accuracy must be in [0.5, 1]")
        if self.theta_std < 0 or self.mutation_shift_std < 0:
            raise ValueError("standard deviations must be non-negative")
        for name in ("pointwise_recall_accepted", "pointwise_recall_rejected"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


_THETA_RE = re.compile(r"theta=([-+]?\d+\.\d+)")


def format_candidate(theta: float) -> str:
    """Candidate text carrying its latent quality where a code block would be."""
    return (
        "Synthetic reasoning about the problem.\n"
        "```cpp\n"
        f"// theta={theta:.9f}\n"
        "int main() { return 0; }\n"
        "```"
    )


def parse_theta(text: str) -> float:
    """Recover the latent quality embedded in synthetic candidate text."""
    match = _THETA_RE.search(text)
    if match is None:
        raise ValueError("no theta marker in candidate text")
    return float(match.group(1))


def synthetic_mutate(parent_theta: float, feedback_present: bool, world: SyntheticWorldConfig, seed: int) -> float:
    """Child quality after one mutation, deterministic in seed."""
    rng = np.random.default_rng(seed)
    shift = rng.normal(world.mutation_shift_mean, world.mutation_shift_std)
    if feedback_present:
        shift += world.feedback_bonus
    return parent_theta + shift


def judge_outcome(theta_a: float, theta_b: float, world: SyntheticWorldConfig, rng: np.random.Generator) -> str:
    """The synthetic judge's verdict ("A", "B" or "TIE") on one pair.

    Logistic mode draws once from sigmoid(theta_a - theta_b); fixed-accuracy
    mode ties equal thetas without a draw, else draws once to pick the
    higher-theta side with probability judge_accuracy.
    """
    if world.judge_mode == JUDGE_MODE_LOGISTIC:
        return "A" if rng.random() < 1.0 / (1.0 + np.exp(theta_b - theta_a)) else "B"
    if theta_a == theta_b:
        return "TIE"
    better_a = theta_a > theta_b
    return "A" if (rng.random() < world.judge_accuracy) == better_a else "B"


# the synthetic judge's reply for each verdict, built once
_JUDGE_REPLIES = {
    winner: json.dumps({"feedback_a": feedback_a, "feedback_b": feedback_b, "winner": winner})
    for winner, feedback_a, feedback_b in (
        (
            "A",
            "Solution A handles the decisive cases more convincingly.",
            "Solution B looks more fragile than Solution A on edge inputs.",
        ),
        (
            "B",
            "Solution A looks more fragile than Solution B on edge inputs.",
            "Solution B handles the decisive cases more convincingly.",
        ),
        (
            "TIE",
            "Solution A and Solution B appear equally likely to be Accepted.",
            "Solution A and Solution B appear equally likely to be Accepted.",
        ),
    )
}


class SyntheticBackend:
    """Deterministic test double answering each prompt from the template it matches.

    A request with a purpose is parsed only with that purpose's templates, and
    a generation request with none: it is answered as a generation even when
    the problem is itself a whole rendered prompt.  A request without one is
    tried against every template, and one matching none is a generation.
    """

    def __init__(self, world: SyntheticWorldConfig | None = None) -> None:
        self.world = world if world is not None else SyntheticWorldConfig()

    def complete(self, request: CompletionRequest) -> str:
        seed = 0 if request.seed is None else request.seed
        purpose = request.purpose
        for template, answer in _PROMPT_TABLE if purpose is None else _PURPOSE_TABLES[purpose]:
            fields = prompts.parse(template, request.user_prompt)
            if fields is not None:
                return answer(self, fields, seed)
        if purpose not in (None, PURPOSE_GENERATE):
            raise BackendError(f"the {purpose} prompt matches none of its templates")
        rng = np.random.default_rng(seed)
        return format_candidate(float(rng.normal(self.world.theta_mean, self.world.theta_std)))

    def _judge(self, fields: dict, seed: int) -> str:
        theta_a = parse_theta(fields["code_a"])
        theta_b = parse_theta(fields["code_b"])
        return _JUDGE_REPLIES[judge_outcome(theta_a, theta_b, self.world, np.random.default_rng(seed))]

    def _pointwise(self, fields: dict, seed: int) -> str:
        draw = np.random.default_rng(seed).random()
        if parse_theta(fields["code"]) >= self.world.acceptance_threshold:
            say_yes = draw < self.world.pointwise_recall_accepted
        else:
            say_yes = draw >= self.world.pointwise_recall_rejected
        return "Synthetic assessment of the solution.\n" + (prompts.VERDICT_YES if say_yes else prompts.VERDICT_NO)

    def _mutate(self, fields: dict, seed: int) -> str:
        # self-refine is a mutation without feedback
        parent = parse_theta(fields["code"])
        feedback_present = "feedback_sections" in fields
        return format_candidate(synthetic_mutate(parent, feedback_present, self.world, seed))


# The prompts the synthetic world answers, by purpose, each tried in order: a
# feedback-free mutation template closes with its feedback variant's closing
# literal, so it goes first; no other two templates share an opening and a
# closing.  A generation prompt is the problem itself, so it has no template.
_PURPOSE_TABLES = {
    PURPOSE_JUDGE: ((prompts.COMPARISON_TEMPLATE, SyntheticBackend._judge),),
    PURPOSE_POINTWISE: ((prompts.POINTWISE_TEMPLATE, SyntheticBackend._pointwise),),
    PURPOSE_REFINE: ((prompts.SELF_REFINE_TEMPLATE, SyntheticBackend._mutate),),
    PURPOSE_MUTATE: (
        (prompts.MUTATION_WITHOUT_FEEDBACK_TEMPLATE, SyntheticBackend._mutate),
        (prompts.MUTATION_WITHOUT_FEEDBACK_NO_RESTART_TEMPLATE, SyntheticBackend._mutate),
        (prompts.MUTATION_WITH_FEEDBACK_TEMPLATE, SyntheticBackend._mutate),
        (prompts.MUTATION_WITH_FEEDBACK_NO_RESTART_TEMPLATE, SyntheticBackend._mutate),
    ),
    PURPOSE_GENERATE: (),
}
# every template, for requests without a purpose
_PROMPT_TABLE = tuple(entry for table in _PURPOSE_TABLES.values() for entry in table)
