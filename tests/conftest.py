"""Scripted test doubles shared across the suite."""

import json

from btevolve.backends import SyntheticBackend
from btevolve.population import Candidate


class ScriptedBackend:
    """Plays back a fixed reply queue and records every request it saw.

    Queue entries may be strings (returned as-is), exceptions (raised), or
    callables taking the request.  Running past the end is a test bug.
    """

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if not self.replies:
            raise AssertionError("scripted backend ran out of replies")
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        if callable(reply):
            return reply(request)
        return reply


class CountingBackend:
    """Delegates to another backend while counting completion calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)


class ClosingBackend(SyntheticBackend):
    """The synthetic backend, counting its close calls."""

    closed = 0

    def close(self):
        ClosingBackend.closed += 1


class EmptyReplyBackend:
    """Synthetic replies, except an empty completion for the listed request seeds."""

    def __init__(self, empty_seeds):
        self.inner = SyntheticBackend()
        self.empty_seeds = set(empty_seeds)

    def complete(self, request):
        if request.seed in self.empty_seeds:
            return ""
        return self.inner.complete(request)

    def close(self):
        self.inner.close()


def judge_reply(winner, feedback_a="critique of A", feedback_b="critique of B"):
    return json.dumps({"feedback_a": feedback_a, "feedback_b": feedback_b, "winner": winner})


def sampled(cid, content):
    return Candidate(cid, content, 0, "sampled")
