"""The engine's three layers: executor, cache resolution, scheduler.

``repro.core.executor`` runs one unit of work, ``repro.core.cache_resolution``
knows what is already banked, and ``repro.core.scheduler`` decides what
runs.  These tests pin the layering (the lower layers never import the
scheduler) and the live ``prepare_workload`` patch seam that fresh
builds in the sharded chain go through.
"""

import subprocess
import sys

import repro.core.scheduler as scheduler
from repro.core.executor import RunSpec


class TestLayering:
    def test_layers_import_without_the_facade(self):
        # Only the scheduler depends on the layers below it, never the
        # reverse: importing the executor or the cache-resolution layer
        # in a fresh interpreter must not pull the scheduler in.
        for module in ("repro.core.executor", "repro.core.cache_resolution"):
            probe = (
                "import sys\n"
                "import {}\n"
                "assert 'repro.core.scheduler' not in sys.modules, 'cycle'\n"
            ).format(module)
            subprocess.run(
                [sys.executable, "-c", probe], check=True, timeout=120
            )

    def test_prepare_workload_seam_is_live(self, monkeypatch):
        # The sharded chain opener resolves prepare_workload through the
        # scheduler module at call time; patching it there must intercept
        # every fresh build.
        calls = []
        real = scheduler.prepare_workload

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler, "prepare_workload", spy)
        run = scheduler.execute_spec_sharded(
            RunSpec(
                workload="educational", instructions=600, warmup_instructions=100
            ),
            shards=2,
        )
        assert calls, "the prepare_workload seam was bypassed"
        assert run.result.instructions > 0
