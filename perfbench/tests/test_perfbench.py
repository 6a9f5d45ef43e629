"""Fast tests of the benchmark itself, at the tiny size.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=1):
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace),
                           "--size", "tiny"])
    return run.run(args)


def assert_metrics(result, declared):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], float)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_every_check(workload, seed):
    out = bench(workload, seed=seed)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, SPEC["end_to_end"])
    for name in ("failed_op_share", "setup_s", "peak_rss_mb"):
        assert name in out["record"]["workload_metrics"]
    assert out["record"]["provenance"]["seed"] == seed
    json.dumps(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    out = bench(workload, trace=1)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    assert_metrics(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "select-train":
        assert m["features.frames"] == 0
        assert m["features.extract_features.us_per_frame"] == 0
        assert m["mlp.train.calls"] > 0
        assert m["selection.candidates"] + 10 == m["mlp.train.calls"]
    else:
        assert m["mlp.train.calls"] == 0
        assert m["features.frames"] > 0
    assert m["cli.build_parser.us_per_call"] > 0
    assert (ROOT / out["record"]["spans_file"]).is_file()


def test_work_counts_repeat_exactly():
    first = bench("select-train", trace=1)["result"]["metrics"]
    again = bench("select-train", trace=1)["result"]["metrics"]
    for name in ("mlp.train.epochs", "selection.candidates", "mlp.train.calls",
                 "mlp.train.stop.TestWorsening", "mlp.train.stop.EpochCap"):
        assert first[name]["value"] == again[name]["value"]


def test_corrupted_cache_row_counts_as_failure(monkeypatch):
    from vocalnet import dataset
    write = dataset.write_feature_cache

    def corrupting(corpus, path):
        write(corpus, path)
        lines = Path(path).read_text().splitlines()
        fields = lines[1].split(",")
        fields[5] = "nan"
        lines[1] = ",".join(fields)
        Path(path).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(dataset, "write_feature_cache", corrupting)
    out = bench("extract-long")
    assert out["result"]["failed"] >= 1
    assert not out["result"]["correct"]
    assert out["record"]["workload_metrics"]["failed_op_share"][0] > 0


def test_wrong_exit_code_counts_as_failure(monkeypatch):
    from vocalnet import cli
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: main(argv) and 0)
    out = bench("classify-short")
    assert out["result"]["failed"] >= 2  # the tiny size has 2 malformed clips
    assert out["record"]["workload_metrics"]["failed_op_share"][0] > 0


def test_evaluate_mismatch_fails_the_pass(monkeypatch):
    import workloads
    monkeypatch.setattr(workloads.SelectTrain, "_recompute_accuracy",
                        lambda self, path: -1.0)
    out = bench("select-train")
    assert out["result"]["failed"] == out["result"]["attempted"]


def test_tracer_wraps_imported_bindings_and_restores_them():
    from vocalnet import audio_io, cli, features, mlp, pipeline, selection
    originals = {(m.__name__, k): getattr(m, k) for m, k in (
        (selection, "train"), (selection, "mse"), (pipeline, "train"),
        (pipeline, "classify"), (features, "frame_clip"), (cli, "build_parser"),
        (mlp, "train"), (audio_io, "frame_clip"))}
    command = cli.COMMANDS["classify"]
    tracer = Tracer()
    tracer.install([audio_io, cli, features, mlp, pipeline, selection])
    try:
        for (mod, key), fn in originals.items():
            assert getattr(sys.modules[mod], key) is not fn, (mod, key)
        assert cli.COMMANDS["classify"] is not command
        assert mlp.sigmoid.__module__ == "vocalnet.mlp"
        assert not hasattr(mlp.sigmoid, "__wrapped_by_tracer__")
    finally:
        tracer.uninstall()
    for (mod, key), fn in originals.items():
        assert getattr(sys.modules[mod], key) is fn
    assert cli.COMMANDS["classify"] is command


def test_self_time_subtracts_children():
    tracer = Tracer()
    child = tracer._wrap(lambda: sum(range(20000)), "m.child")
    parent = tracer._wrap(lambda: child() + child(), "m.parent")
    parent()
    s = tracer.summary()
    assert s["m.child"]["calls"] == 2
    assert s["m.parent"]["total_s"] == pytest.approx(
        s["m.parent"]["self_s"] + s["m.child"]["total_s"])
    assert list(tracer.parent) == [-1, 0, 0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_reference_factor_uses_bursts_near_the_interval():
    from calibrate import REFERENCE_S, Reference
    ref = Reference()
    ref.samples = [(0.0, 4 * REFERENCE_S), (10.0, REFERENCE_S / 2),
                   (10.5, REFERENCE_S / 2), (11.2, REFERENCE_S)]
    assert ref.factor(10.0, 10.6) == 2.0  # median of the three near samples
    assert ref.factor(0.0, 0.1) == 0.25
    assert ref.factor(50.0, 51.0) == 1.0  # none near: the closest one
