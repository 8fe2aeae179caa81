"""The coordinator↔worker pipe protocol of the sharded fleet.

Every worker reply is ``(command, payload)`` or ``("error", (message,
traceback))``, and one pure function, ``_payload``, validates them all.
The first class checks it without spawning a process: the matching reply
yields its payload, anything else raises naming the shard and the
command. The second counts what crosses the pipes of a real run: one
tick token out and one ack in per tick and live worker, barrier and
pipelined alike.
"""

import numpy as np
import pytest

from repro.obs.registry import MetricRegistry
from repro.streaming import ShardedFleetPredictor
from repro.streaming.shard import _payload

#: every command a worker answers (``ready`` is implicit at start-up)
COMMANDS = ("ready", "tick", "history", "state", "check", "load", "stats", "metrics", "stop")

FLEET_KW = dict(
    forecaster_name="holt",
    window=8,
    buffer_capacity=48,
    refit_interval=16,
    min_fit_size=12,
)


def _failure(command):
    """How a rejected reply to ``command`` names the command."""
    return "failed to start" if command == "ready" else f"failed {command!r}"


@pytest.mark.parametrize("command", COMMANDS)
class TestPayload:
    def test_matching_reply_yields_its_payload(self, command):
        payload = {"any": ["payload"]}
        assert _payload(3, command, (command, payload)) is payload
        assert _payload(3, command, (command, None)) is None

    @pytest.mark.parametrize(
        "kind",
        ("wrong tag", "other command", "too short", "too long", "list", "non-tuple", "bad error"),
    )
    def test_malformed_reply_raises_naming_shard_and_command(self, command, kind):
        other = "stats" if command != "stats" else "state"
        reply = {
            "wrong tag": ("garbage", 1),
            "other command": (other, 1),
            "too short": (command,),
            "too long": (command, 1, 2),
            "list": [command, 1],
            "non-tuple": "ok",
            "bad error": ("error", "message without traceback"),
        }[kind]
        with pytest.raises(RuntimeError) as err:
            _payload(3, command, reply)
        message = str(err.value)
        assert message.startswith(f"shard 3 {_failure(command)}: ")
        assert f"corrupt {command} reply {reply!r}" in message

    def test_error_reply_raises_with_the_workers_message_and_traceback(self, command):
        reply = ("error", ("ValueError: boom", "Traceback (most recent call last): ..."))
        with pytest.raises(RuntimeError) as err:
            _payload(3, command, reply)
        message = str(err.value)
        assert message.startswith(f"shard 3 {_failure(command)}: ValueError: boom\n")
        assert message.endswith("Traceback (most recent call last): ...")


def test_chaos_corrupt_reply_is_a_corrupt_tick_reply():
    with pytest.raises(RuntimeError, match="shard 1 failed 'tick': corrupt tick reply"):
        _payload(1, "tick", ("garbage", 5, "chaos: corrupted tick reply"))


class _CountingConn:
    """A pipe end that records every object sent and received through it."""

    def __init__(self, conn):
        self._conn = conn
        self.sent = []
        self.received = []

    def send(self, obj):
        self.sent.append(obj)
        self._conn.send(obj)

    def recv(self):
        obj = self._conn.recv()
        self.received.append(obj)
        return obj

    def poll(self, timeout=0.0):
        return self._conn.poll(timeout)

    def fileno(self):
        return self._conn.fileno()

    def close(self):
        self._conn.close()


@pytest.mark.parametrize("pipeline", (False, True), ids=("barrier", "pipelined"))
def test_each_tick_is_one_token_out_and_one_ack_in_per_worker(pipeline):
    n, shards, n_ticks = 6, 2, 12
    ticks = 50.0 + 10.0 * np.random.default_rng(0).standard_normal((n_ticks, n))
    pred = ShardedFleetPredictor(
        n, shards, pipeline=pipeline, registry=MetricRegistry(), **FLEET_KW
    )
    try:
        conns = [_CountingConn(h.conn) for h in pred._handles]
        for h, conn in zip(pred._handles, conns):
            h.conn = conn
        out = pred.run(ticks)
        traffic = [(list(c.sent), list(c.received)) for c in conns]
    finally:
        pred.close(collect_metrics=False)
    assert [tick.step for tick in out] == list(range(n_ticks))
    assert pred.worker_failures == 0
    for sent, received in traffic:
        assert sent == [("tick", t) for t in range(n_ticks)]
        assert len(received) == n_ticks
        assert [tag for tag, _ in received] == ["tick"] * n_ticks
        assert [ack[0] for _, ack in received] == list(range(n_ticks))
