"""Checksummed checkpoint artifacts for the serving layer.

A restarted serving process must resume mid-stream exactly where its
predecessor died, which puts two demands on the artifact format beyond
what bare ``pickle`` offers:

* **atomicity** — the file is staged next to its destination and
  published with ``os.replace`` (via :mod:`repro.ioutil`), so a crash
  mid-checkpoint leaves the previous checkpoint intact;
* **integrity** — an 8-byte magic, a format version, the payload length
  and a SHA-256 digest precede the payload, so truncated or bit-rotted
  files fail loudly with :class:`CheckpointError` instead of unpickling
  garbage into a live predictor.

The payload itself is a pickled plain-python/NumPy state mapping —
checkpoints are trusted local artifacts written by this process (the
usual pickle caveat: never load one from an untrusted source).

Loading a state is **parse, then commit** (:class:`Stateful`): a
predictor parses every part before it runs any commit, so a refused
state changes nothing. Every predictor is rebuilt from its artifact by
one path, :meth:`Restorable.restore`, which checks the saved options
against the constructor before it builds anything.
"""

from __future__ import annotations

import hashlib
import inspect
import numbers
import pickle
import struct
import types
import typing
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from ..ioutil import atomic_write_bytes

__all__ = ["CheckpointError", "write_checkpoint", "read_checkpoint", "try_read_checkpoint"]

_MAGIC = b"RPTCNCKP"
_VERSION = 1
#: magic + u32 version + u64 payload length + sha256 digest
_HEADER = struct.Struct("<8sIQ32s")
#: constructor options older checkpoints may still carry; restore drops them
_RETIRED_OPTIONS = ("error_history", "refit_backend", "serve_dtype", "span_sample")
#: a config number must be a number of this kind, and not a bool
_NUMBERS = {int: numbers.Integral, float: numbers.Real}

_R = TypeVar("_R", bound="Restorable")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, corrupt or incompatible."""


class Stateful:
    """A part whose checkpoint state loads in two phases.

    :meth:`parse_state` reads and checks every key it needs, touching
    nothing, and returns a commit of attribute stores and in-place copies
    of checked arrays, which cannot raise; :meth:`load_state_dict` runs
    both. A part listing its state in ``_STATE`` inherits all three.
    """

    #: state key -> the attribute holding it
    _STATE: dict[str, str] = {}
    #: keys whose saved value must equal the live one (sizes)
    _FIXED: tuple[str, ...] = ()
    #: values of the keys that older checkpoints lack
    _DEFAULTS: dict[str, Any] = {}
    #: the part's name in error messages
    _WHAT = "part"

    def _live(self) -> dict[str, Any]:
        return {key: getattr(self, attr) for key, attr in self._STATE.items()}

    def state_dict(self) -> dict:
        return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in self._live().items()}

    def parse_state(self, state: Any) -> Callable[[], None]:
        live = self._live()
        saved = parse_fields({**self._DEFAULTS, **state}, live, self._WHAT)
        if any(saved.pop(key) != live[key] for key in self._FIXED):  # all popped unless raising
            raise ValueError(f"{self._WHAT} shape mismatch: live {[live[k] for k in self._FIXED]}")
        self._check_state(saved)
        return lambda: self._adopt(saved)

    def _check_state(self, saved: dict[str, Any]) -> None:
        """Raise unless the parsed values are consistent with each other."""

    def _adopt(self, saved: dict[str, Any]) -> None:
        """The commit: copy arrays in place, store scalars; never raises."""
        for key, value in saved.items():
            if isinstance(live := getattr(self, self._STATE[key]), np.ndarray):
                live[...] = value
            else:
                setattr(self, self._STATE[key], value)

    def load_state_dict(self, state: Any) -> None:
        """Adopt a :meth:`state_dict`; a refused one raises and changes nothing."""
        self.parse_state(state)()


def parse_fields(state: Any, live: Mapping[str, Any], what: str) -> dict[str, Any]:
    """Check the entries of ``state`` against the ``live`` values they replace.

    Each key of ``live`` must be in ``state`` with the same ``np.shape``
    and a dtype that casts to the live one within its kind: an int may
    fill a float slot, not a float an int slot, nor a scalar an array.
    Returns fresh values (arrays of the live dtype, Python scalars for
    0-d entries); raises ``KeyError``/``ValueError``/``TypeError``.
    """
    if not isinstance(state, Mapping):
        raise TypeError(f"{what} state must be a mapping, got {type(state).__name__}")
    out: dict[str, Any] = {}
    for key, value in live.items():
        if key not in state:
            raise KeyError(f"{what} state lacks {key!r}")
        saved, want = np.asarray(state[key]), np.asarray(value)
        if saved.shape != want.shape:
            raise ValueError(
                f"{what} {key} shape mismatch: expected {want.shape}, got {saved.shape}"
            )
        if not np.can_cast(saved.dtype, want.dtype, "same_kind"):
            raise TypeError(f"{what} {key} holds {saved.dtype}, expected {want.dtype}")
        fresh = saved.astype(want.dtype)
        out[key] = fresh if fresh.ndim else fresh.item()
    return out


def _admits(hint: Any, value: Any) -> bool:
    """Whether ``value`` fits a parameter annotated ``hint`` (a bool is no number here)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_admits(arg, value) for arg in typing.get_args(hint))
    if hint in _NUMBERS:
        return isinstance(value, _NUMBERS[hint]) and not isinstance(value, (bool, np.bool_))
    if hint is bool:
        return isinstance(value, (bool, np.bool_))
    kind = typing.get_origin(hint) or hint
    if kind is inspect.Parameter.empty or not isinstance(kind, type):  # unannotated, or Any
        return True
    return isinstance(value, kind)


def parse_options(fn: Callable[..., Any], options: Any) -> dict[str, Any]:
    """The ``options`` a checkpoint saved for ``fn``, checked against its signature.

    Drops the retired options; raises ``KeyError`` for an option ``fn``
    does not name and ``TypeError`` for a value its annotation refuses.
    """
    if not isinstance(options, Mapping):
        raise TypeError(f"options must be a mapping, got {type(options).__name__}")
    params = inspect.signature(fn, eval_str=True).parameters
    out: dict[str, Any] = {}
    for key, value in options.items():
        if key in _RETIRED_OPTIONS:
            continue
        param = params.get(key)
        if param is None or param.kind is param.VAR_KEYWORD:
            raise KeyError(f"{fn.__name__} takes no option {key!r}")
        if not _admits(param.annotation, value):
            raise TypeError(f"{fn.__name__} option {key}={value!r} is not {param.annotation}")
        out[key] = value
    return out


class Restorable:
    """A predictor that :meth:`restore` rebuilds from the artifact its ``save`` wrote."""

    #: ``kind`` tag of the artifacts ``save`` writes and :meth:`restore` reads
    _CHECKPOINT_KIND = ""
    #: config entries a checkpoint must hold, equal to the live predictor's
    _IDENTITY: tuple[str, ...] = ()

    def _check_identity(self, saved: Any) -> None:
        """Raise unless the saved config ``saved`` has this predictor's identity."""
        config = self._config()  # type: ignore[attr-defined]
        saved = {key: saved[key] for key in self._IDENTITY}
        live = {key: config[key] for key in self._IDENTITY}
        if saved != live:
            raise ValueError(f"config mismatch: saved {saved} vs live {live}")

    @classmethod
    def _options(cls, config: dict[str, Any]) -> dict[str, Any]:
        """The checked constructor arguments a saved config (a copy) rebuilds."""
        return parse_options(cls, config)

    def _load(self, state: dict[str, Any]) -> None:
        """Parse, then commit ``state``; a refusal raises :class:`CheckpointError`."""
        self.load_state_dict(state)  # type: ignore[attr-defined]

    def _discard(self) -> None:
        """Release what the constructor started, after a refused load."""

    @classmethod
    def restore(cls: type[_R], path: str | Path, **overrides: Any) -> _R:
        """Rebuild a predictor from a checkpoint and resume mid-stream.

        Before anything is built, the kind, the envelope and every saved
        option are checked: a retired option is dropped, an unknown one,
        a value of the wrong type or a missing identity entry refuses the
        artifact, and any other option left out takes the constructor
        default (older checkpoints lack the options added since). A load
        refused after the build releases the predictor. ``overrides``
        patch process-local constructor arguments that are deliberately
        not persisted (``refit_fault_hook``, ``registry``, ...).
        """
        artifact = read_checkpoint(path)
        if not isinstance(artifact, dict) or artifact.get("kind") != cls._CHECKPOINT_KIND:
            raise CheckpointError(f"{path} does not hold a checkpoint of {cls.__name__}")
        state = artifact.get("state")
        if not isinstance(state, dict) or not isinstance(state.get("config"), dict):
            raise CheckpointError(f"{path} holds no state and config of {cls.__name__}")
        try:
            if missing := [key for key in cls._IDENTITY if key not in state["config"]]:
                raise KeyError(f"config lacks {missing}")
            options = cls._options(dict(state["config"]))
        except Exception as exc:  # noqa: BLE001 — nothing is built yet: any fault refuses
            raise CheckpointError(f"{path} config refused: {type(exc).__name__}: {exc}") from exc
        predictor = cls(**{**options, **overrides})
        try:
            predictor._load(state)
        except BaseException:
            predictor._discard()
            raise
        return predictor


def write_checkpoint(path: str | Path, state: Any) -> None:
    """Serialize ``state`` to ``path`` atomically with an integrity header."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, _VERSION, len(payload), hashlib.sha256(payload).digest())
    atomic_write_bytes(path, header + payload)


def read_checkpoint(path: str | Path) -> Any:
    """Load and verify a checkpoint written by :func:`write_checkpoint`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated (no header)")
    magic, version, length, digest = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointError(f"{path} is not a serving checkpoint (bad magic)")
    if version != _VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, expected {_VERSION}"
        )
    payload = raw[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint {path} is truncated: header promises {length} bytes, "
            f"found {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"checkpoint {path} failed its integrity check (bad digest)")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types on bad input
        raise CheckpointError(f"checkpoint {path} payload failed to deserialize: {exc}") from exc


def try_read_checkpoint(path: str | Path) -> Any | None:
    """:func:`read_checkpoint`, but missing/corrupt artifacts return ``None``.

    The recovery path wants exactly this shape: a respawned shard worker
    restores from its background checkpoint when one is intact and cold-
    starts when it is absent, truncated, or bit-rotted — a damaged
    snapshot must degrade the restart, never abort it.
    """
    try:
        return read_checkpoint(path)
    except CheckpointError:
        return None
