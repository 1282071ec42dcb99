import subprocess
import sys

import numpy as np
import pytest

import mmfusion.bench as bench
from mmfusion.bench import bench_attention, topology_parameter_count
from mmfusion.fusion import build_interaction_path
from test_notebooks import package_env

HOME_SCRIPT = """
import sys
import mmfusion.model
print("mmfusion.bench" in sys.modules)
import mmfusion.bench, mmfusion.fusion
print(mmfusion.bench.topology_parameter_count is mmfusion.fusion.topology_parameter_count)
"""


class TestCountLivesWithTheTopologies:
    """The closed-form count lives in ``fusion`` beside the topologies it
    counts, so the model's config validation does not load the timing module;
    ``bench`` re-exports it for the callers that compare topologies."""

    def test_model_import_leaves_bench_unloaded(self):
        proc = subprocess.run([sys.executable, "-c", HOME_SCRIPT], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


def test_parameter_count_formulas_track_built_modules():
    for d, ffn in ((8, 16), (32, 64)):
        for topology in ("hybrid", "merged", "interaction"):
            built = build_interaction_path(topology, d, 2, ffn,
                                           np.random.default_rng(0))
            assert built.parameter_count() == topology_parameter_count(topology, d, ffn)


def test_rows_cover_all_topologies():
    rows = bench_attention(d=8, n_heads=2, ffn_width=16, batch=2, text_len=4,
                           image_len=4, repeats=10, seed=0)
    assert [r["topology"] for r in rows] == ["hybrid", "merged", "interaction"]
    for r in rows:
        assert r["median_ms"] > 0.0
        assert r["p95_ms"] >= r["median_ms"]


def test_warmup_passes_are_excluded_from_samples(monkeypatch):
    counts = {}

    class CountingPath:
        def __init__(self, topology):
            self.topology = topology

        def __call__(self, *a, **kw):
            counts[self.topology] = counts.get(self.topology, 0) + 1

        def parameter_count(self):
            return 1

    monkeypatch.setattr(bench, "build_interaction_path",
                        lambda topology, *a, **kw: CountingPath(topology))
    rows = bench_attention(d=8, n_heads=2, ffn_width=16, batch=2, repeats=11,
                           warmup=3, seed=0)
    # 3 warmup + 11 timed invocations, but only 11 samples in the statistics
    assert all(c == 14 for c in counts.values())
    assert len(rows) == 3


def test_repeats_floor():
    with pytest.raises(ValueError, match=">= 10"):
        bench_attention(repeats=9)


def test_unresolvable_timer_raises(monkeypatch):
    t = [0.0]

    def frozen_clock():
        return 0.0

    monkeypatch.setattr(bench.time, "perf_counter", frozen_clock)
    with pytest.raises(RuntimeError, match="batch"):
        bench_attention(d=8, n_heads=2, ffn_width=16, batch=2, text_len=4,
                        image_len=4, repeats=10, seed=0)
