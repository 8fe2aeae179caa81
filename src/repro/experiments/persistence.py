"""Convert experiment results to plain JSON types.

:func:`to_jsonable` turns result objects (dataclasses, numpy scalars and
arrays, tuple keys) into JSON-ready values. The result cache
(:mod:`repro.experiments.cache`) keys tasks by the converted parameters
and stores converted results.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from typing import Any

import numpy as np

__all__ = ["to_jsonable"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert results (dataclasses, numpy, tuples) to JSON types."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, slice):
        return {"__slice__": [obj.start, obj.stop, obj.step]}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__, **to_jsonable(asdict(obj))}
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            key = "|".join(map(str, k)) if isinstance(k, tuple) else str(k)
            out[key] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")

