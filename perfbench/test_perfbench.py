"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import pytest

import bench
import spans
import workloads

cli = bench.import_cli()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_config_is_deterministic_in_the_seed(name):
    for seed in (0, 1, 2024):
        assert workloads.make_config(name, seed) == workloads.make_config(name, seed)
    if "noise" in workloads.make_config(name, 0):
        seeds = {workloads.make_config(name, s)["noise"]["seed"] for s in range(20)}
        assert len(seeds) == 20


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generated_configs_validate(name, small):
    for seed in (0, 1, 2024, 987654321):
        config = workloads.make_config(name, seed, small=small)
        resolved = cli.validate_config(config)
        assert resolved["experiment"] == config["experiment"]
        assert workloads.sizes(config)["scheme"] == resolved.get("scheme", "product")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_traced_run_accounts_for_wall_time(name):
    config = workloads.make_config(name, 3, small=True)
    plain = bench.run_repeats(cli, name, config, 0.0, 1)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        traced = bench.run_repeats(cli, name, config, 0.0, 2, recorder)
    assert "error" not in plain[0] and all("error" not in r for r in traced)
    # wrappers are gone again and left the outputs unchanged
    assert cli.compute_resolvent.__module__ == "stochvolterra.resolvent"
    assert not hasattr(cli.compute_resolvent, "__wrapped__")
    assert {r["digest"] for r in traced} == {plain[0]["digest"]}
    for i, r in enumerate(traced):
        summary = spans.summarize(recorder.spans, i)
        assert bench.self_times_account_for(r["wall"], summary)
        assert summary["root"] == pytest.approx(sum(summary["layer_self"].values()), rel=1e-9)
        assert summary["span_calls"]["cli.run_experiment"] == 1
        metrics = bench.layer_metrics(summary, workloads.sizes(config))
        assert set(metrics) | {"cli.bytes_written", "noise.thread_speedup", "trace.overhead_s"} == set(
            bench.PER_LAYER_UNITS
        )


def test_self_time_subtracts_children():
    recorder = spans.Recorder()
    recorder.experiment = 0
    inner = recorder.wrap("noise", "inner", lambda: None)
    outer = recorder.wrap("cli", "outer", lambda: inner())
    outer()
    # replace the clock readings with known ones: outer [0, 10], inner [2, 5]
    recorder.spans[0][2:4] = [0.0, 10.0]
    recorder.spans[1][2:4] = [2.0, 5.0]
    summary = spans.summarize(recorder.spans, 0)
    assert summary["layer_self"]["cli"] == 7.0
    assert summary["layer_self"]["noise"] == 3.0
    assert summary["root"] == 10.0
