"""Import hygiene: a process loads only the code it runs.

Every spawned process — a shard worker at start and on each respawn,
every parallel-runner worker — imports its
entry module in a fresh interpreter. scipy alone is ~530 modules and well
over a second to import, and the serving paths never call it, so these
entry points must not load it. Each check runs in its own subprocess:
``sys.modules`` of this test process already holds whatever earlier tests
imported.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter with ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.streaming.shard",
        "repro.streaming.refit",
        "repro.models",
        "repro.cluster",
        "repro.experiments.parallel",
    ],
)
def test_entry_module_loads_no_scipy(module):
    run_fresh(
        f"""
        import sys
        import {module}
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:10]
        """
    )


def test_subpackages_resolve_on_attribute_access():
    run_fresh(
        """
        import sys
        import repro
        assert "repro.nn" not in sys.modules
        assert repro.nn is sys.modules["repro.nn"]
        assert hasattr(repro.nn, "Module")
        """
    )


def test_dir_lists_every_exported_subpackage():
    import repro

    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_attribute_raises():
    import repro

    with pytest.raises(AttributeError, match="nope"):
        repro.nope  # noqa: B018


def test_sharded_close_does_not_load_experiments():
    """Merging worker spans on ``close()`` must not pull in ``repro.experiments``."""
    run_fresh(
        """
        import sys
        import numpy as np
        from repro.streaming.shard import ShardedFleetPredictor

        if __name__ == "__main__":
            ticks = np.random.default_rng(0).random((24, 8))
            with ShardedFleetPredictor(8, shards=2, forecaster_name="holt", window=4,
                                       buffer_capacity=32, refit_interval=8,
                                       min_fit_size=8) as sp:
                sp.run(ticks)
            loaded = sorted(m for m in sys.modules
                            if m == "repro.experiments" or m.startswith("repro.experiments."))
            assert not loaded, loaded
            assert not any(m.startswith("scipy") for m in sys.modules)
        """
    )


def test_holt_serving_loads_no_nn():
    """Serving Holt, refits included, imports neither ``repro.nn`` nor another model."""
    run_fresh(
        """
        import sys
        import numpy as np
        import repro.cluster
        from repro.streaming import FleetPredictor, OnlinePredictor

        series = np.sin(np.arange(240) / 9.0)
        OnlinePredictor("holt", window=12, buffer_capacity=80, refit_interval=30,
                        min_fit_size=24).run(series)
        fleet = FleetPredictor(4, forecaster_name="holt", window=12, buffer_capacity=80,
                               refit_interval=30, min_fit_size=24)
        for row in np.stack([series] * 4, axis=1):
            fleet.process_tick(row)
        assert fleet.stats.n_refits > 0
        loaded = sorted(m for m in sys.modules
                        if m.startswith(("repro.nn", "repro.training.trainer"))
                        or m.startswith("repro.models.")
                        and m not in ("repro.models.base", "repro.models.exponential"))
        assert not loaded, loaded
        """
    )
