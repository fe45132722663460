"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from beliefmerge import cli  # noqa: E402

SAMPLE = 6   # requests per workload in the slower tests


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_writes_identical_files_for_a_seed(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path / "a")
    second = workloads.generate(workload, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    strip = lambda reqs, d: [[a.replace(str(d), "") for a in r.argv] for r in reqs]
    assert strip(first, tmp_path / "a") == strip(second, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert strip(other, tmp_path / "c") != strip(first, tmp_path / "a") \
        or _files(tmp_path / "c") != _files(tmp_path / "a")


def test_one_corrupted_golden_byte_fails_a_request(tmp_path):
    requests = workloads.generate("merge-distance", run.DEFAULT_SEED, tmp_path)
    golden = run.load_golden("merge-distance", run.DEFAULT_SEED, len(requests))
    answers = [(i, run.call(cli, requests[i].argv)) for i in range(3)]
    assert run.verify(requests, answers, golden) == []

    corrupted = list(golden)
    digest = corrupted[1]
    corrupted[1] = digest[:10] + ("0" if digest[10] != "0" else "1") + digest[11:]
    problems = run.verify(requests, answers, corrupted)
    assert len(problems) == 1 and "request 1 " in problems[0]
    assert len(problems) / len(answers) > 0     # failed_share


def test_a_wrong_answer_fails_its_independent_check(tmp_path):
    requests = workloads.generate("merge-forget", 3, tmp_path)
    code, out, err = run.call(cli, requests[0].argv)
    assert requests[0].check(code, out, err) is None
    assert requests[0].check(code, out.replace("!", "", 1), err) is not None
    assert requests[0].check(1, out, err) is not None


def _bindings():
    """Every attribute of every beliefmerge module, class dict and
    module-level dict, by identity."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "beliefmerge" or name.startswith("beliefmerge.")):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = id(value)
            if isinstance(value, type):
                for attr, item in vars(value).items():
                    seen[(name, key, attr)] = id(item)
            elif isinstance(value, dict) and not key.startswith("__"):
                for entry, item in value.items():
                    seen[(name, key, repr(entry))] = id(item)
    return seen


def test_traced_run_keeps_outputs_and_restores_every_name(tmp_path):
    before = _bindings()
    for workload in run.WORKLOADS:
        requests = workloads.generate(workload, 5, tmp_path / workload)[:SAMPLE]
        plain = [run.call(cli, r.argv) for r in requests]
        tracer = tracing.Tracer()
        with tracer:
            assert _bindings() != before
            traced = [run.call(cli, r.argv) for r in requests]
        assert traced == plain
        assert sum(tracer.calls.values()) > 0
        assert _bindings() == before


def test_every_wrap_point_exists_and_is_wrapped():
    with tracing.Tracer():
        for layer, (module_name, attr) in tracing.FUNCTIONS.items():
            if (layer, module_name) not in tracing.SKIP:
                assert hasattr(getattr(sys.modules[module_name], attr), "__wrapped__")
        for module_name, cls_name, attr in tracing.METHODS.values():
            cls = getattr(sys.modules[module_name], cls_name)
            assert hasattr(vars(cls)[attr], "__wrapped__")
        _, module_name, table = tracing.OPERATOR_TABLE
        assert all(hasattr(fn, "__wrapped__")
                   for fn in getattr(sys.modules[module_name], table).values())
        assert not hasattr(sys.modules["beliefmerge.formula"].format_formula, "__wrapped__")
        assert hasattr(cli.format_formula, "__wrapped__")


def test_count_metrics_repeat_exactly(tmp_path, capsys):
    def counts():
        out = {}
        for workload in run.WORKLOADS:
            requests = workloads.generate(workload, 11, tmp_path / workload)[:SAMPLE]
            _, failed, _, metrics, _, _ = run.run_traced(cli, workload, 11, 0, requests, None)
            assert failed == 0
            out[workload] = {name: value for name, (value, unit) in metrics.items()
                             if unit == "count"}
        return out
    first, second = counts(), counts()
    assert first == second
    assert first["merge-distance"]["merging.pair_evals"] > 0
    assert first["merge-forget"]["merging.subsets_bound"] > 0
    assert first["wide-results"]["result_models"] >= 1000
    assert first["check-matrix"]["postulates.instance_calls"] > 0


def test_golden_covers_every_workload():
    table = json.loads(run.GOLDEN.read_text())
    assert set(table) == set(run.WORKLOADS)
