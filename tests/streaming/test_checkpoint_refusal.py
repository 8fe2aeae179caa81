"""A refused checkpoint changes nothing: a property over real, mutated states.

Each predictor is driven to a real state and handed an earlier real
state with one fault in it:

* a key dropped at any depth;
* an array of the wrong shape, or a scalar in place of an array;
* a number of the wrong dtype kind (complex where a float, int or bool
  belongs);
* an out-of-range ring cursor;
* truncated model bytes.

Either the load succeeds and the next tick serves, or it raises
:class:`CheckpointError` and the pickled ``state_dict()`` (sharded: the
``save()``d states) is byte-identical before and after. No other
exception type may escape. The predictors are ``OnlinePredictor``, a
sync ``FleetPredictor``, an async ``FleetPredictor`` whose state holds a
pending refit task, and a 2-shard ``ShardedFleetPredictor``.

Also here: the sharded envelope (a snapshot without ``step`` loads on no
shard), a respawned shard worker refusing a checksum-intact but corrupt
background checkpoint, and ``restore`` of an artifact of the right kind
whose ``state`` or ``config`` is missing.
"""

import copy
import inspect
import multiprocessing
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricRegistry
from repro.streaming import (
    ChaosSchedule,
    CheckpointError,
    FleetPredictor,
    OnlinePredictor,
    PageHinkley,
    RespawnPolicy,
    ShardedFleetPredictor,
    read_checkpoint,
    shard_boundaries,
    write_checkpoint,
)

MUTATIONS = ("drop", "shape", "scalar", "dtype", "cursor", "truncate")

KW = dict(
    forecaster_name="holt",
    window=4,
    buffer_capacity=12,
    refit_interval=6,
    min_fit_size=8,
)


def _ticks(n_ticks, n_streams, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_ticks)[:, None]
    wave = 50.0 + 10.0 * np.sin(t / 3 + np.arange(n_streams))
    return wave + rng.normal(0, 1, (n_ticks, n_streams))


def _paths(node, prefix=()):
    """Every ``(path, value)`` below ``node``, through dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = (*prefix, key)
        yield path, value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def _eligible(state, mutation):
    """The paths of ``state`` that ``mutation`` can break."""
    out = []
    for path, value in _paths(state):
        numeric = isinstance(value, (bool, int, float)) or (
            isinstance(value, np.ndarray) and value.dtype.kind in "biuf"
        )
        if (
            mutation == "drop"
            or (mutation in ("shape", "scalar") and isinstance(value, np.ndarray) and value.ndim)
            or (mutation == "dtype" and numeric)
            or (mutation == "cursor" and path[-1] in ("head", "size") and "buffer" in path)
            or (mutation == "truncate" and isinstance(value, bytes))
        ):
            out.append(path)
    return out


def _mutate(state, mutation, path):
    """A deep copy of ``state`` with ``mutation`` applied at ``path``."""
    state = copy.deepcopy(state)
    *head, last = path
    parent = state
    for key in head:
        parent = parent[key]
    value = parent[last]
    if mutation == "drop":
        del parent[last]
    elif mutation == "shape":
        parent[last] = np.concatenate([value, value[:1]])
    elif mutation == "scalar":
        parent[last] = value.reshape(-1)[0].item()
    elif mutation == "dtype":
        parent[last] = np.asarray(value) + 0j if isinstance(value, np.ndarray) else complex(value)
    elif mutation == "cursor":
        capacity = KW["buffer_capacity"]
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[0] = capacity + 1
            parent[last] = value
        else:
            parent[last] = capacity + 1
    else:
        parent[last] = value[: len(value) // 2]
    return state


def _draw_mutated(data, state):
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    path = data.draw(st.sampled_from(_eligible(state, mutation)), label="path")
    return _mutate(state, mutation, path)


def _load_or_refuse(pred, bad, serve):
    """Either ``pred`` adopts ``bad`` and ``serve()`` runs, or nothing changed."""
    before = pickle.dumps(pred.state_dict())
    try:
        pred.load_state_dict(bad)
    except CheckpointError:
        assert pickle.dumps(pred.state_dict()) == before
    else:
        serve()


# -- scalar and single-process fleets --------------------------------------------------


def _online():
    pred = OnlinePredictor(
        detector=PageHinkley(threshold=5.0, min_instances=10),
        registry=MetricRegistry(),
        **KW,
    )
    pred.run(_ticks(40, 1)[:, 0])
    return pred


def _fleet(refit_mode="sync"):
    fleet = FleetPredictor(3, registry=MetricRegistry(), refit_mode=refit_mode, **KW)
    for row in _ticks(30, 3):
        fleet.process_tick(row)
    if fleet.refit_engine is not None:
        fleet.refit_engine.wait(timeout=60)
    return fleet


def _async_state_with_pending_task():
    """An async fleet's state taken while a second submitted fit waits to be adopted."""
    fleet = FleetPredictor(3, registry=MetricRegistry(), refit_mode="async", **KW)
    try:
        for row in _ticks(40, 3, seed=1):
            fleet.process_tick(row)
            if fleet.refit_engine.busy:
                fleet.refit_engine.wait(timeout=60)
                state = fleet.state_dict()
                if state["model"] is not None:
                    assert state["pending_refit"] is not None
                    return state
    finally:
        fleet.close()
    raise AssertionError("no refit was submitted")  # pragma: no cover


ONLINE_STATE = _online().state_dict()
FLEET_STATE = _fleet().state_dict()
ASYNC_STATE = _async_state_with_pending_task()


class TestRefusedLoadChangesNothing:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_online_predictor(self, data):
        bad = _draw_mutated(data, ONLINE_STATE)
        pred = _online()
        _load_or_refuse(pred, bad, lambda: pred.process(np.array([50.0])))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sync_fleet(self, data):
        bad = _draw_mutated(data, FLEET_STATE)
        fleet = _fleet()
        _load_or_refuse(fleet, bad, lambda: fleet.process_tick(np.full(3, 50.0)))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_async_fleet_with_a_pending_task(self, data):
        bad = _draw_mutated(data, ASYNC_STATE)
        fleet = _fleet("async")
        try:
            _load_or_refuse(fleet, bad, lambda: fleet.process_tick(np.full(3, 50.0)))
        finally:
            fleet.close()


# -- sharded fleet ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    """One 2-shard fleet at step 30 and its composed step-15 snapshot."""
    path = tmp_path_factory.mktemp("sharded") / "fleet.ckpt"
    ticks = _ticks(31, 4, seed=2)
    with ShardedFleetPredictor(4, shards=2, registry=MetricRegistry(), **KW) as fleet:
        fleet.run(ticks[:15])
        fleet.save(path)
        base = read_checkpoint(path)["state"]
        fleet.run(ticks[15:30])
        yield fleet, base, path, ticks[30]


def _saved(fleet, path):
    fleet.save(path)
    return path.read_bytes()


class TestShardedRefusedLoadChangesNothing:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_sharded_fleet(self, sharded, data):
        fleet, base, path, tick = sharded
        bad = _draw_mutated(data, base)
        before = _saved(fleet, path)
        try:
            fleet.load_state(bad)
        except CheckpointError:
            assert _saved(fleet, path) == before
        else:
            fleet.process_tick(tick)

    def test_snapshot_without_step_loads_on_no_shard(self, sharded):
        fleet, base, path, _ = sharded
        bad = copy.deepcopy(base)
        del bad["step"]
        before = _saved(fleet, path)
        with pytest.raises(CheckpointError, match="step"):
            fleet.load_state(bad)
        assert _saved(fleet, path) == before


def test_respawned_worker_refuses_a_corrupt_checkpoint_and_serves_cold(tmp_path):
    """A checksum-intact shard checkpoint whose ring head is out of range.

    The respawned worker refuses it, comes back cold (``restored_step is
    None``) and serves every later tick exactly as a fresh cold shard.
    """
    n, kill_tick = 4, 12
    ticks = _ticks(40, n, seed=3)
    lo, hi = shard_boundaries(n, 2)[:2]
    source = FleetPredictor(hi - lo, registry=MetricRegistry(), **KW)
    for row in ticks[:10]:
        source.process_tick(row[lo:hi])
    bad = source.state_dict()
    bad["buffer"]["size"][0] = bad["buffer"]["head"][0] = KW["buffer_capacity"]
    write_checkpoint(
        tmp_path / "shard-000.ckpt",
        {"kind": "fleet_shard", "shard": 0, "lo": lo, "hi": hi, "step": 9, "bank": 1,
         "state": bad},
    )  # fmt: skip
    pred = ShardedFleetPredictor(
        n,
        2,
        registry=MetricRegistry(),
        chaos=ChaosSchedule.kill_at(kill_tick, shard=0),
        respawn=RespawnPolicy(backoff_ticks=1),
        checkpoint_dir=tmp_path,
        checkpoint_interval=1000,
        tick_timeout=30.0,
        **KW,
    )
    try:
        served = {}
        for t, row in enumerate(ticks):
            got = pred.process_tick(row)
            if t > kill_tick and (got.health[lo:hi] != 3).all():
                served[t] = got
            if pred.recovering_shards:
                time.sleep(0.15)
        entry = pred.stats()["per_shard"][0]
    finally:
        pred.close(collect_metrics=False)
    assert pred.respawns == 1
    assert entry["restored_step"] is None
    first = min(served)
    assert sorted(served) == list(range(first, len(ticks)))
    cold = FleetPredictor(hi - lo, registry=MetricRegistry(), **KW)
    for t in range(first, len(ticks)):
        want = cold.process_tick(ticks[t, lo:hi])
        assert served[t].predictions[lo:hi].tobytes() == want.predictions.tobytes()
        assert served[t].health[lo:hi].tobytes() == want.health.tobytes()
    assert np.isfinite(want.predictions).all()


@pytest.mark.parametrize(
    "cls, kind",
    [
        (OnlinePredictor, "online_predictor"),
        (FleetPredictor, "fleet_predictor"),
        (ShardedFleetPredictor, "sharded_fleet_predictor"),
    ],
)
@pytest.mark.parametrize(
    "envelope",
    [{}, {"state": None}, {"state": {}}, {"state": {"config": None}}, {"state": {"config": []}}],
    ids=["no state", "state None", "no config", "config None", "config a list"],
)
def test_restore_refuses_an_artifact_without_state_or_config(tmp_path, cls, kind, envelope):
    path = tmp_path / "artifact.ckpt"
    write_checkpoint(path, {"kind": kind, **envelope})
    with pytest.raises(CheckpointError):
        cls.restore(path)


# -- restore: every saved option is checked before anything is built -------------------

#: a value of the wrong type for an option whose constructor default is a str, a
#: bool or a number (a bool is no number to a config)
WRONG_TYPE = {str: [6], bool: ["yes", 1], int: ["six", True, 2.5], float: ["six", True]}


def _typed_options(fn, names):
    """``(option, wrong value)`` for each of ``names`` whose default in ``fn`` is typed."""
    params = inspect.signature(fn).parameters
    return [
        (name, wrong)
        for name in names
        if name in params and type(params[name].default) in WRONG_TYPE
        for wrong in WRONG_TYPE[type(params[name].default)]
    ]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One saved checkpoint per predictor (the sharded one: 1 shard, async fleets)."""
    root = tmp_path_factory.mktemp("artifacts")
    _online().save(root / "online.ckpt")
    _fleet().save(root / "fleet.ckpt")
    with ShardedFleetPredictor(2, shards=1, registry=MetricRegistry(), pipeline=True,
                               refit_mode="async", **KW) as fleet:
        fleet.run(_ticks(20, 2))
        fleet.save(root / "sharded.ckpt")
    return root


def _cases():
    """``(predictor, artifact, where, option, wrong value)`` for every typed saved option."""
    cases = []
    for cls, name, state in (
        (OnlinePredictor, "online", ONLINE_STATE),
        (FleetPredictor, "fleet", FLEET_STATE),
    ):
        for option, wrong in _typed_options(cls, state["config"]):
            cases.append((cls, name, (), option, wrong))
    own = ("shards", "tick_timeout", "control_timeout", "pipeline")
    derived = ("features", "window", "buffer_capacity", "forecaster_name")
    fleet_kwargs = (*KW, "refit_mode")
    for option, wrong in _typed_options(ShardedFleetPredictor, own):
        cases.append((ShardedFleetPredictor, "sharded", (), option, wrong))
    for option, wrong in _typed_options(FleetPredictor, derived):
        cases.append((ShardedFleetPredictor, "sharded", (), option, wrong))
    for option, wrong in _typed_options(FleetPredictor, fleet_kwargs):
        cases.append((ShardedFleetPredictor, "sharded", ("fleet_kwargs",), option, wrong))
    return cases


def _edited(artifacts, tmp_path, name, where, edit):
    """A copy of artifact ``name`` whose config, or its dict at ``where``, ``edit`` changed."""
    artifact = read_checkpoint(artifacts / f"{name}.ckpt")
    config = artifact["state"]["config"]
    for key in where:
        config = config[key]
    edit(config)
    path = tmp_path / f"{name}.ckpt"
    write_checkpoint(path, artifact)
    return path


def _refused_before_building(cls, path, match):
    children = set(multiprocessing.active_children())
    with pytest.raises(CheckpointError, match=match):
        cls.restore(path, registry=MetricRegistry())
    assert set(multiprocessing.active_children()) == children


@pytest.mark.parametrize(
    "cls, name, where, option, wrong",
    _cases(),
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_restore_refuses_an_option_of_the_wrong_type(artifacts, tmp_path, cls, name, where,
                                                     option, wrong):
    path = _edited(artifacts, tmp_path, name, where, lambda cfg: cfg.update({option: wrong}))
    _refused_before_building(cls, path, f"option {option}=")


@pytest.mark.parametrize(
    "cls, name, where",
    [
        (OnlinePredictor, "online", ()),
        (FleetPredictor, "fleet", ()),
        (ShardedFleetPredictor, "sharded", ()),
        (ShardedFleetPredictor, "sharded", ("fleet_kwargs",)),
    ],
)
def test_restore_refuses_an_unknown_option(artifacts, tmp_path, cls, name, where):
    path = _edited(artifacts, tmp_path, name, where, lambda cfg: cfg.update(bogus=1))
    _refused_before_building(cls, path, "no option 'bogus'")


@pytest.mark.parametrize(
    "cls, name, identity",
    [
        (OnlinePredictor, "online", "window"),
        (FleetPredictor, "fleet", "n_streams"),
        (ShardedFleetPredictor, "sharded", "n_streams"),
        (ShardedFleetPredictor, "sharded", "boundaries"),
    ],
)
def test_restore_refuses_a_missing_identity_entry(artifacts, tmp_path, cls, name, identity):
    path = _edited(artifacts, tmp_path, name, (), lambda cfg: cfg.pop(identity))
    _refused_before_building(cls, path, "config lacks")


@pytest.mark.parametrize(
    "cls, name, option, default",
    [
        (OnlinePredictor, "online", "refit_interval", 100),
        (FleetPredictor, "fleet", "refit_streams", 8),
        (ShardedFleetPredictor, "sharded", "control_timeout", 60.0),
    ],
)
def test_a_missing_option_takes_the_constructor_default(artifacts, tmp_path, cls, name, option,
                                                        default):
    path = _edited(artifacts, tmp_path, name, (), lambda cfg: cfg.pop(option))
    restored = cls.restore(path, registry=MetricRegistry())
    try:
        assert getattr(restored, option) == default
    finally:
        if cls is ShardedFleetPredictor:
            restored.close(collect_metrics=False)


def test_restore_drops_retired_options_and_keeps_a_saved_detector(artifacts, tmp_path):
    def retire(cfg):
        cfg.update(error_history=64, span_sample=8)
        cfg["detector_params"]["threshold"] = 7.5

    path = _edited(artifacts, tmp_path, "fleet", (), retire)
    restored = FleetPredictor.restore(path, registry=MetricRegistry())
    assert restored.detector.threshold == 7.5


def test_restore_refuses_detector_params_of_the_wrong_type(artifacts, tmp_path):
    path = _edited(artifacts, tmp_path, "fleet", ("detector_params",),
                   lambda cfg: cfg.update(min_instances="ten"))
    _refused_before_building(FleetPredictor, path, "min_instances")
