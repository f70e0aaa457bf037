"""Tests for the benchmark's own helpers, plus a tiny smoke run of every
workload through the real command line."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import types

import numpy as np
import pytest

from perfbench import measure
from perfbench.spans import Span, Tracer, self_times, totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("cifar-tta-thread", "mlp-wide-process", "translation-socket")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- percentiles and sample counts ---------------------------------------------


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_percentile_matches_numpy_linear_rule(q, n):
    values = list(np.random.default_rng(n).normal(size=n))
    assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_latency_summary_reports_milliseconds_and_sample_count():
    s = measure.latency_summary([0.001 * i for i in range(1, 11)])
    assert s["n"] == 10
    assert s["p50_ms"] == pytest.approx(5.5)
    assert s["p90_ms"] == pytest.approx(9.1)


def test_schedule_ceiling_matches_the_known_p4_n8_value():
    assert measure.schedule_ceiling("pipemare", 4, 8) == pytest.approx(32 / 11)


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.0, parent=1),
        Span("child", 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    agg = totals(spans)
    assert agg["child"]["count"] == 2
    assert agg["child"]["self_s"] == pytest.approx(4.0)
    assert agg["child"]["total_s"] == pytest.approx(5.0)


def test_totals_roll_bytes_up_to_every_ancestor():
    spans = [
        Span("publish", 0.0, 1.0),
        Span("send", 0.1, 0.2, parent=0, nbytes=100),
        Span("send", 0.3, 0.4, parent=0, nbytes=20),
    ]
    agg = totals(spans)
    assert agg["publish"]["nbytes"] == 120
    assert agg["send"]["nbytes"] == 120


def test_tracer_nests_per_thread_and_restores_every_patch():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    mod = types.ModuleType("fake")
    mod.fn = lambda n: n * 2
    obj = Layer()
    original_outer, original_fn = Layer.outer, mod.fn
    tracer = Tracer()
    tracer.patch(Layer, "outer", "outer")
    tracer.patch(Layer, "inner", "inner")
    tracer.patch(mod, "fn", "fn", nbytes=lambda a, k, r: r)
    tracer.patch(obj, "inner", "inner.instance")
    assert obj.outer() == 2
    assert mod.fn(21) == 42
    worker = threading.Thread(target=Layer().outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.restore()

    assert Layer.outer is original_outer and mod.fn is original_fn
    assert "inner" not in obj.__dict__
    names = [(s.name, s.parent) for s in tracer.spans]
    # Main thread: outer(0) -> inner.instance(1), which wraps the
    # class-level wrapper -> inner(2); fn(3) is a root.  The worker
    # thread's outer(4) is a root of its own and parents inner(5).
    assert names == [("outer", -1), ("inner.instance", 0), ("inner", 1), ("fn", -1),
                     ("outer", -1), ("inner", 4)]
    assert tracer.spans[3].nbytes == 42
    assert tracer.spans[4].thread != tracer.spans[0].thread


def test_tracer_writes_chrome_trace_events(tmp_path):
    tracer = Tracer()
    idx = tracer.open("a")
    tracer.close(tracer.open("b"), nbytes=8)
    tracer.close(idx)
    path = tmp_path / "trace.json"
    tracer.write(str(path), {"seed": 1})
    data = json.loads(path.read_text())
    assert [e["name"] for e in data["traceEvents"]] == ["a", "b"]
    assert data["traceEvents"][1]["args"] == {"id": 1, "parent": 0, "bytes": 8}
    assert data["otherData"] == {"seed": 1}


# -- names and BENCHMARK.json -----------------------------------------------------


@pytest.mark.parametrize("name,ok", [
    ("samples_per_s", True), ("plan.fold_s_per_step", True), ("mlp-wide-process", True),
    ("9lives", True), ("_private", False), (".hidden", False), ("has space", False),
    ("slash/name", False), ("x" * 64, True), ("x" * 65, False), ("", False),
])
def test_name_validity(name, ok):
    assert measure.valid_name(name) is ok


def test_benchmark_json_matches_the_harness():
    from perfbench.harness import END_TO_END, PER_LAYER

    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    names = [w["name"] for w in spec["workloads"]] + [n for n, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(measure.valid_name(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- smoke runs ---------------------------------------------------------------------


def _run(args, cwd):
    """Run the benchmark as the leader of a new session, so every process
    it starts, at any depth, can be found afterwards by its session id."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # run.py finds src/ itself
    # Output goes to files, not pipes: reading a pipe to its end would also
    # wait for any straggler that inherited it, and hide it.
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
            cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True,
        )
        proc.wait(timeout=300)
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read()), proc.pid


def _session_members(sid: int) -> list[str]:
    """``pid state command`` of every process in session ``sid``, zombies
    included: an orphan that ended is a process nobody waited for."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited meanwhile
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid:
            found.append(f"{pid} {state} {stat[:stat.rindex(')') + 1]}")
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_smoke_run(workload, trace, tmp_path):
    proc, sid = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                      "--trace", trace, "--tiny"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Nothing it started (workers, multiprocessing's resource tracker) may
    # still run once the command has exited.
    assert _session_members(sid) == []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "'nproc'" in proc.stdout and "'seed': 3" in proc.stdout
    if trace == "1":
        assert (tmp_path / ".perfbench" / f"trace-{workload}-seed3.json").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, the command fails
    fast and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp-wide-process", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
