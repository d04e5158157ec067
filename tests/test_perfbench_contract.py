"""The benchmark's view of the package: every name it wraps or hooks exists.

``perfbench/`` patches package functions by name and counts frames with
``len()`` of a generated dataset.  These tests only read ``perfbench/``,
so a renamed function or a changed dataset length fails here instead of
in a benchmark run.
"""

import importlib
import importlib.util
import os
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and spans modules, imported as run.py imports them."""
    env = dict(os.environ)  # run.py pins BLAS threads in os.environ on import
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
        spec.loader.exec_module(run)
        yield run, sys.modules["spans"]
    finally:
        for name in ("perfbench_run", "spans", "layers"):
            sys.modules.pop(name, None)
        sys.path.remove(str(PERFBENCH))
        os.environ.clear()
        os.environ.update(env)


def test_every_traced_target_resolves(bench):
    _, spans = bench
    for target, _, _ in spans.TRACED:
        spans.resolve(target)
    for target in spans.RNG_DRAWS:
        spans.resolve(target)
    assert callable(importlib.import_module("distill_ssl.tensor").record)


def test_every_stage_hook_resolves(bench, tmp_path):
    run, spans = bench
    for workload in run.WORKLOADS:
        for stage in run.stages_for(workload, 1, tmp_path / "inputs", tmp_path / "run"):
            spans.resolve(stage.main)
            if stage.step is not None:
                spans.resolve(stage.step)


def test_every_stage_parses_with_the_cli(bench, tmp_path):
    # a removed flag or a renamed command would fail every benchmark run of its workload
    run, _ = bench
    from distill_ssl import cli

    parser = cli.build_parser()
    for workload in run.WORKLOADS:
        for stage in run.stages_for(workload, 1, tmp_path / "inputs", tmp_path / "run"):
            try:
                args, unknown = parser.parse_known_args(stage.argv)
            except SystemExit:
                pytest.fail(f"{workload}/{stage.name}: the CLI refuses {stage.argv}")
            assert args.command == stage.argv[0]
            assert unknown == [], f"{workload}/{stage.name}: unknown arguments {unknown}"


def test_eval_sweep_inputs_count_every_frame(bench, tmp_path):
    run, _ = bench
    assert run.build_inputs("eval_sweep", 1, tmp_path) == 1200


def test_eval_sweep_checkpoints_match_the_package_layout(bench, tmp_path):
    # run.py names the checkpoint sets itself; they must stay the ones
    # load_encoders reads and save_model writes
    run, _ = bench
    from distill_ssl import cli, contrastive, data

    run.build_inputs("eval_sweep", 1, tmp_path / "inputs")
    enc_cfg = cli.encoder_config({key: spec[1] for key, spec in cli.CONFIG_SCHEMA.items()})
    for name in run.CHECKPOINT_INPUTS["eval_sweep"]:
        written = tmp_path / "inputs" / name
        query, key = contrastive.load_encoders(written, 1)
        assert query.cfg == key.cfg == enc_cfg  # the architecture run.py wrote
        state = contrastive.MoCoState(query, key, contrastive.KeyQueue(32, enc_cfg.d),
                                      contrastive.TrainConfig())
        _, config = data.load_checkpoint(written)
        contrastive.save_model(state, tmp_path / "saved" / name, config)
        for suffix in (".bin", ".json"):
            saved = (tmp_path / "saved" / name).with_suffix(suffix)
            assert saved.read_bytes() == written.with_suffix(suffix).read_bytes(), name + suffix


def _weighted_sum(t, weights):
    """A recorded op whose backward closure alone holds ``weights``."""
    from distill_ssl import tensor as T

    out = T.Tensor((t.data * weights).sum())
    T.record(out, lambda g: T.accumulate(t, g * weights))
    return out


def test_backward_keeps_the_op_count_and_frees_saved_buffers(bench, monkeypatch):
    # spans._tape_ops reads len(graph) once Graph.backward has returned, so a
    # tape that dropped its entries would read tensor.tape_ops_per_step as 0
    _, spans = bench
    from distill_ssl import tensor as T

    recorded, record = [], T.record
    monkeypatch.setattr(T, "record", lambda out, fn: (recorded.append(out), record(out, fn)))
    x = T.parameter(np.array([1.0, -2.0, 3.0]))
    weights = np.array([0.5, 1.0, 2.0])
    saved = weakref.ref(weights)
    graph = T.Graph()
    with graph:
        loss = T.scale(_weighted_sum(T.relu(x), weights), 2.0)
    del weights
    assert saved() is not None  # only the tape holds it now
    recorder = spans.Recorder(traced=True)
    backward = recorder.wrap("tensor.graph_backward", T.Graph.backward,
                             spans.MEASURES["tensor.graph_backward"])
    backward(graph, loss)
    assert recorder.spans[-1][-1] == len(recorded) == 3
    assert saved() is None
    assert x.grad.tolist() == [1.0, 0.0, 4.0]
