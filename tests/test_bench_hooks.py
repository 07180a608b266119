"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps names in
semoff by module or class attribute. A deletion or rename that drops one
of them must fail here, in tier-1, and not first in the benchmark."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from semoff import critic, engine, oracle
from semoff.config import SlotState, SystemConfig, TrainingParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # worker.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, worker)   # for its dataclasses
    spec.loader.exec_module(worker)
    import spans
    return worker, spans.Tracer()


def test_benchmark_spans_resolve_and_record(bench, tmp_path):
    worker, tracer = bench
    cfg = SystemConfig(training=TrainingParams(train_start_slot=0, train_interval=1,
                                               batch_size=4, memory_size=16))
    cfg = engine.scenario_one().apply(cfg)
    try:
        worker.install_spans(tracer)     # AttributeError on a name that is gone
        wrapped = list(tracer._undo)
        for policy in ("drlh:8", "exhaustive", "random"):
            sim = engine.Simulation(cfg, policy, seed=1)
            log = engine.MetricsLog(8, cfg.system.num_devices)
            for t in range(8):
                sim.run_slot(t, log)
            if policy == "drlh:8":
                net = sim.net
        # what the slot path no longer calls, called once by hand
        log.to_csv(tmp_path / "metrics.csv")
        net.loss(np.zeros(6 * 8), np.zeros(2 * 8))
        critic.evaluate_policy(oracle.random_policy(np.random.default_rng(0), 8, 4, 2),
                               SlotState.initial(8), cfg)
        oracle.policy_table(4, 2, 1)
    finally:
        tracer.unwrap_all()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
    recorded = set(tracer.arrays()["name"].tolist())
    silent = [name for i, name in enumerate(tracer.names) if i not in recorded]
    assert not silent, f"spans installed but never entered: {silent}"
