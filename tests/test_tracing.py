"""The benchmark tracer's contract with the package, checked on a tiny model.

`perfbench/tracing.py` patches the package from outside and reads tape
nodes (`node.out.data`, `node.bwd.__qualname__`) before every backward. A
tape or module change that breaks it otherwise shows only in a traced
benchmark run; this runs one traced train step instead. The tracer is
imported from its file and left unchanged.
"""

import importlib.util
import json
import os

import numpy as np

import mxt.train as TR
from mxt.losses import LossWeights
from mxt.model import ModelConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOAD = "train-paper-32"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected_on(name: str, table: list) -> bool:
    """Whether predictions.json expects samples of `name` on WORKLOAD: the
    longest entry that names the metric or a dotted prefix of it decides."""
    best = max((e for e in table if name == e["metric"] or name.startswith(e["metric"] + ".")),
               key=lambda e: len(e["metric"]))
    return WORKLOAD not in best["zero_on"]


def test_traced_train_step_samples_every_expected_metric(tmp_path):
    tracing = _load_tracing()
    with open(os.path.join(PERFBENCH, "predictions.json"), encoding="utf-8") as f:
        table = json.load(f)["layers"]
    # the four levels of the paper layout at a quarter of its width, default losses
    cfg = ModelConfig(base_channels=4, hm_counts=(1,) * 7, state_dim=2, pooled_spatial=4)
    tracer = tracing.Tracer(cfg.base_channels)
    tracer.install()
    try:
        tracer.op = tracing.SETUP
        # through module attributes, which the tracer patches
        state = TR.init_train_state(cfg, TR.TrainConfig(batch_size=2, image_size=16,
                                                        data_count=2, seed=3), LossWeights())
        samples = TR.build_samples(state.tcfg)
        tracer.op = 0
        ckpt = str(tmp_path / "traced.ckpt")
        parts = TR.train_loop(state, samples, 1, checkpoint_path=ckpt)
        tracer.op = tracing.OTHER
    finally:
        tracer.uninstall()
    assert state.step == 1 and all(np.isfinite(v) for v in parts.values())
    metrics, counts = tracer.metrics(1, 1)
    missing = [n for n, k in counts.items() if k == 0 and _expected_on(n, table)]
    assert not missing, f"no samples for expected metrics {missing}"
    assert metrics["tensor.tape_nodes"] > 0 and metrics["tensor.tape_mib"] > 0
    assert metrics["checkpoint.mib"] == os.path.getsize(ckpt) / 2**20
