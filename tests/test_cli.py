import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stochvolterra
from stochvolterra import ExponentialKernel, ScalarTypeKernel, TimeGrid, cli, compute_resolvent
from stochvolterra.cli import main

# a child interpreter imports the same package as this process, installed or not
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(stochvolterra.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
)

OU_SCALAR = {
    "experiment": "scalar_resolvent",
    "kernel": {"variant": "constant", "c": 1.0},
    "mu": 1.0,
    "grid": {"T": 1.0, "N": 1024},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(tmp_path, config, *extra, name="config.json"):
    cfg = write_config(tmp_path, config, name=name)
    out = tmp_path / "out"
    return main(["--config", cfg, "--out", str(out)] + list(extra)), out


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --- the scalar-resolvent experiment -----------------------------------------


def test_scalar_resolvent_output(tmp_path):
    code, out = run(tmp_path, OU_SCALAR)
    assert code == 0
    header, rows = read_csv(out / "scalar_resolvent.csv")
    assert header == ["t", "s"]
    assert len(rows) == 1025
    assert float(rows[-1][1]) == pytest.approx(math.exp(-1.0), abs=1e-5)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "scalar_resolvent"
    assert manifest["config"]["mu"] == 1.0
    assert manifest["outputs"] == ["scalar_resolvent.csv"]


# --- validation and exit codes -------------------------------------------------


def test_unknown_experiment_exits_3_writes_nothing(tmp_path):
    config = dict(OU_SCALAR, experiment="frobnicate")
    code, out = run(tmp_path, config)
    assert code == 3
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    config = dict(OU_SCALAR, typo_key=1)
    code, out = run(tmp_path, config)
    assert code == 3


def test_unknown_nested_key_rejected(tmp_path):
    config = json.loads(json.dumps(OU_SCALAR))
    config["kernel"]["gamma"] = 2.0
    code, out = run(tmp_path, config)
    assert code == 3


def test_missing_required_key_rejected(tmp_path):
    config = {k: v for k, v in OU_SCALAR.items() if k != "grid"}
    code, _ = run(tmp_path, config)
    assert code == 3


def test_bad_json_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


COVARIANCE = {
    "experiment": "covariance",
    "kernel": {"variant": "constant", "c": 1.0},
    "operator": {"benchmark": "ou1"},
    "grid": {"T": 1.0, "N": 16},
    "noise": {"q": [1.0], "seed": 7},
    "psi": {"variant": "constant", "matrix": [[1.0]]},
    "mc": {"n_paths": 200},
    "t_index": 16,
}


def edited(config, section, key, value):
    out = json.loads(json.dumps(config))
    (out if section is None else out[section])[key] = value
    return out


@pytest.mark.parametrize(
    "config",
    [
        edited(COVARIANCE, "mc", "n_paths", 50),
        edited(COVARIANCE, "mc", "n_paths", "many"),
        edited(COVARIANCE, "mc", "n_paths", 150.5),
        edited(COVARIANCE, "noise", "seed", "abc"),
        edited(COVARIANCE, "noise", "seed", 2**64),
        edited(COVARIANCE, None, "t_index", "end"),
        edited(COVARIANCE, None, "t_index", 8.5),
        edited(COVARIANCE, "grid", "N", 16.7),
        edited(OU_SCALAR, "grid", "N", True),
        {
            "experiment": "convolve",
            **{k: COVARIANCE[k] for k in ("kernel", "operator", "grid", "noise", "psi")},
            "path_id": -1,
        },
    ],
    ids=[
        "covariance-50-paths",
        "n_paths-string",
        "n_paths-fraction",
        "seed-string",
        "seed-2**64",
        "t_index-string",
        "t_index-fraction",
        "N-fraction",
        "N-bool",
        "path_id-negative",
    ],
)
def test_bad_integer_fields_exit_3_and_write_nothing(tmp_path, capsys, config):
    code, out = run(tmp_path, config)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: validation:")
    assert not out.exists()


def test_integral_floats_resolve_to_integers(tmp_path):
    config = edited(edited(COVARIANCE, "grid", "N", 16.0), "mc", "n_paths", 200.0)
    code, out = run(tmp_path, config)
    assert code == 0
    resolved = json.loads((out / "manifest.json").read_text())["config"]
    assert resolved["grid"]["N"] == 16 and isinstance(resolved["grid"]["N"], int)
    assert resolved["mc"]["n_paths"] == 200 and isinstance(resolved["mc"]["n_paths"], int)


# small valid configurations of every experiment
SMALL = {
    "scalar_resolvent": edited(OU_SCALAR, "grid", "N", 16),
    "cp_check": {
        "experiment": "cp_check",
        "kernel": {"variant": "linear"},
        "grid": {"T": 1.0, "N": 16},
        "mu_list": [1.0],
        "tol": 1e-3,
    },
    "resolvent": {
        "experiment": "resolvent",
        "kernel": {"variant": "exponential", "c": 1.0, "b": 1.0},
        "operator": {"matrix": [[-1.0, 0.5], [0.0, -2.0]]},
        "grid": {"T": 1.0, "N": 16},
    },
    "convolve": {
        "experiment": "convolve",
        **{k: COVARIANCE[k] for k in ("kernel", "operator", "grid", "noise", "psi")},
        "path_id": 3,
        "x0": [1.0],
    },
    "covariance": edited(COVARIANCE, "mc", "n_paths", 100),
    "verify_ito": {
        "experiment": "verify_ito",
        "kernel": {"variant": "exponential"},
        "operator": {"benchmark": "ou1"},
        "grid": {"T": 1.0, "N": 16},
        "noise": {"q": [1.0], "seed": 11},
        "psi": {"variant": "constant", "matrix": [[1.0]]},
        "xi": {"xi0": [1.0], "phi": "exp"},
        "x0": [1.0],
        "mc": {"n_paths": 4},
    },
    "verify_volterra": {
        "experiment": "verify_volterra",
        **{k: COVARIANCE[k] for k in ("kernel", "operator", "grid", "noise", "psi")},
        "mc": {"n_paths": 3},
    },
    "yosida": {
        "experiment": "yosida",
        "kernel": {"variant": "exponential"},
        "operator": {"benchmark": "ou1"},
        "grid": {"T": 1.0, "N": 16},
        "noise": {"cylindrical": 1, "seed": 21},
        "psi": {"variant": "step", "breakpoints": [0.0, 0.5], "matrices": [[[1.0]], [[0.5]]]},
        "lambdas": [0.2, 0.1],
        "mc": {"n_paths": 4},
    },
}

STEP_PSI = {"variant": "step", "breakpoints": [0.0], "matrices": [[[1.0]]]}


@pytest.mark.parametrize(
    "config",
    [
        edited(SMALL["scalar_resolvent"], None, "mu", "abc"),
        edited(SMALL["scalar_resolvent"], None, "mu", True),
        edited(SMALL["cp_check"], None, "tol", "abc"),
        edited(SMALL["cp_check"], None, "mu_list", []),
        edited(SMALL["cp_check"], None, "mu_list", [-1.0]),
        edited(SMALL["cp_check"], None, "mu_list", ["a"]),
        edited(SMALL["cp_check"], None, "mu_list", [1.0, True]),
        edited(SMALL["cp_check"], None, "mu_list", 5),
        edited(SMALL["yosida"], None, "lambdas", 5),
        edited(SMALL["yosida"], None, "lambdas", ["a"]),
        edited(SMALL["resolvent"], "operator", "matrix", "abc"),
        edited(SMALL["resolvent"], "operator", "matrix", [[-1.0, math.nan], [0.0, -2.0]]),
        edited(SMALL["resolvent"], "operator", "matrix", [[-1.0, False], [0.0, -2.0]]),
        edited(SMALL["convolve"], None, "x0", "ab"),
        edited(SMALL["verify_ito"], "xi", "xi0", "ab"),
        edited(SMALL["convolve"], "operator", "benchmark", ["x"]),
        edited(SMALL["verify_ito"], "xi", "phi", ["x"]),
        # sizes that disagree across sections, or that the library calls refuse
        edited(SMALL["convolve"], None, "x0", [1.0, 2.0]),
        edited(SMALL["convolve"], "psi", "matrix", [[1.0], [1.0]]),
        edited(SMALL["convolve"], "psi", "matrix", [[1.0, 1.0]]),
        dict(SMALL["verify_ito"], kernel={"variant": "fractional", "alpha": 0.5}),
        edited(SMALL["verify_ito"], "xi", "xi0", [1.0, 0.0]),
        edited(SMALL["resolvent"], "grid", "N", 1),
        edited(SMALL["convolve"], "grid", "N", 1),
        edited(SMALL["resolvent"], "grid", "N", 4),
        edited(SMALL["yosida"], "grid", "N", 4),
        edited(SMALL["covariance"], None, "psi", STEP_PSI),
        edited(SMALL["verify_ito"], None, "psi", STEP_PSI),
        edited(SMALL["verify_ito"], "mc", "n_paths", 1),
    ],
    ids=[
        "mu-string",
        "mu-bool",
        "tol-string",
        "mu_list-empty",
        "mu_list-negative",
        "mu_list-string-entry",
        "mu_list-bool-entry",
        "mu_list-number",
        "lambdas-number",
        "lambdas-string-entry",
        "matrix-string",
        "matrix-nan",
        "matrix-bool-entry",
        "x0-string",
        "xi0-string",
        "benchmark-list",
        "phi-list",
        "x0-length",
        "psi-rows",
        "psi-columns",
        "verify_ito-fractional-kernel",
        "xi0-length",
        "resolvent-N-1",
        "convolve-N-1",
        "resolvent-N-4",
        "yosida-N-4",
        "covariance-step-psi",
        "verify_ito-step-psi",
        "verify_ito-1-path",
    ],
)
def test_malformed_config_exits_3_before_running(tmp_path, capsys, monkeypatch, config):
    def never(**kwargs):
        raise AssertionError("an experiment started on a malformed configuration")

    for name, experiment in cli.EXPERIMENTS.items():
        monkeypatch.setitem(cli.EXPERIMENTS, name, dataclasses.replace(experiment, run=never))
    code, out = run(tmp_path, config)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: validation:")
    assert not out.exists()


def _cp_probe(**kwargs):
    return stochvolterra.check_complete_positivity(stochvolterra.LinearKernel(), N=16, **kwargs)


def _yosida_family(lambdas):
    return stochvolterra.make_yosida([[-1.0]], lambdas)


# (experiment, key, value, the section named in the message, the library call refusing it)
@pytest.mark.parametrize(
    "experiment, key, value, section, library",
    [
        ("yosida", "lambdas", [0.1, 0.2], "lambdas", _yosida_family),
        ("yosida", "lambdas", [0.2, 0.0], "lambdas", _yosida_family),
        ("cp_check", "mu_list", [], "cp_check", lambda v: _cp_probe(mu_list=v)),
        ("cp_check", "mu_list", [1.0, -0.5], "cp_check", lambda v: _cp_probe(mu_list=v)),
        ("cp_check", "tol", -1, "cp_check", lambda v: _cp_probe(tol=v)),
    ],
    ids=["lambdas-increasing", "lambdas-zero", "mu_list-empty", "mu_list-negative", "tol-negative"],
)
def test_lambda_mu_and_tol_faults_exit_3_with_the_library_message(
    tmp_path, capsys, experiment, key, value, section, library
):
    with pytest.raises(ValueError) as refused:
        library(value)
    code, out = run(tmp_path, edited(SMALL[experiment], None, key, value))
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == f"error: validation: invalid {section}: {refused.value}\n"


def test_a_top_level_that_is_not_an_object_exits_3(tmp_path, capsys):
    code, out = run(tmp_path, [SMALL["cp_check"]])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == (
        "error: validation: top-level configuration must be an object\n"
    )


def test_a_manifest_without_config_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, {"manifest_version": 1, "experiment": "cp_check"})
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == "error: parse: manifest file has no 'config' section\n"


# each kernel and psi variant with its own keys, in a config that runs, and a key that only
# another variant of the same section takes
VARIANTS = {
    "kernel-fractional": ("resolvent", "kernel", {"variant": "fractional", "alpha": 0.5}, "c"),
    "kernel-exponential": ("resolvent", "kernel", {"variant": "exponential", "c": 2.0}, "alpha"),
    "kernel-constant": ("resolvent", "kernel", {"variant": "constant", "c": 1.0}, "b"),
    "kernel-linear": ("resolvent", "kernel", {"variant": "linear"}, "c"),
    "kernel-tabulated": (
        "resolvent",
        "kernel",
        {"variant": "tabulated", "times": [0.0, 0.5, 1.0], "values": [1.0, 0.5, 0.25]},
        "alpha",
    ),
    "psi-constant": ("convolve", "psi", {"variant": "constant", "matrix": [[1.0]]}, "breakpoints"),
    "psi-step": ("convolve", "psi", STEP_PSI, "matrix"),
}
FOREIGN_VALUES = {"c": 1.0, "b": 1.0, "alpha": 0.5, "breakpoints": [0.0], "matrix": [[1.0]]}


def assert_validation_error(tmp_path, capsys, config, match):
    code, out = run(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: validation:") and err.count("\n") == 1 and match in err
    assert not out.exists()


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_variant_runs_on_its_own_keys(tmp_path, variant):
    experiment, section, keys, _ = VARIANTS[variant]
    assert run(tmp_path, dict(SMALL[experiment], **{section: keys}))[0] == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_key_of_another_variant_exits_3(tmp_path, capsys, variant):
    # accepted and ignored before each variant had its own key table
    experiment, section, keys, foreign = VARIANTS[variant]
    config = dict(SMALL[experiment], **{section: dict(keys, **{foreign: FOREIGN_VALUES[foreign]})})
    assert_validation_error(tmp_path, capsys, config, f"unknown key '{foreign}' in section")


@pytest.mark.parametrize(
    "experiment, section, keys",
    [
        ("resolvent", "kernel", {"variant": "fractional"}),
        ("resolvent", "kernel", {"variant": "tabulated", "times": [0.0, 1.0]}),
        ("convolve", "psi", {"variant": "constant"}),
        ("convolve", "psi", {"variant": "step", "breakpoints": [0.0]}),
        ("convolve", "psi", {"matrix": [[1.0]]}),
    ],
    ids=["fractional", "tabulated", "psi-constant", "psi-step", "psi-no-variant"],
)
def test_a_missing_required_key_exits_3(tmp_path, capsys, experiment, section, keys):
    config = dict(SMALL[experiment], **{section: keys})
    assert_validation_error(tmp_path, capsys, config, "missing key '")


@pytest.mark.parametrize(
    "config, match",
    [
        (edited(SMALL["resolvent"], "operator", "matrix", [[-1.0, 0.0]]), "must be square"),
        (edited(SMALL["convolve"], "psi", "matrix", [[1.0, 1.0]]), "integrand vs (state, noise)"),
        (edited(SMALL["convolve"], None, "x0", [1.0, 2.0]), "x0 shape"),
        (edited(SMALL["verify_ito"], "xi", "xi0", [1.0, 0.0]), "xi.xi0 shape"),
    ],
    ids=["operator-not-square", "psi-shape", "x0-length", "xi0-length"],
)
def test_cross_section_faults_report_the_library_check(tmp_path, capsys, config, match):
    assert_validation_error(tmp_path, capsys, config, match)


def test_non_string_out_dir_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, dict(SMALL["scalar_resolvent"], out_dir=5))
    assert main(["--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("error: validation:")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_unusable_out_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def never(**kwargs):
        raise AssertionError("an experiment started with an unusable output location")

    monkeypatch.setitem(
        cli.EXPERIMENTS, "cp_check", dataclasses.replace(cli.EXPERIMENTS["cp_check"], run=never)
    )
    cfg = write_config(tmp_path, SMALL["cp_check"])
    taken = tmp_path / "taken"
    taken.write_text("keep")
    # an existing file, a path through one, and a name with a NUL byte
    for out in (taken, taken / "below", tmp_path / "o\x00x"):
        assert main(["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: output:")
        assert "Traceback" not in err
    assert taken.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_failed_write_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)  # a directory where the manifest goes
    cfg = write_config(tmp_path, SMALL["cp_check"])
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: output:")
    assert [p.name for p in out.iterdir()] == ["manifest.json"]  # no cp_check.csv


def test_failed_write_removes_manifest_and_written_files(tmp_path, capsys, monkeypatch):
    code, out = run(tmp_path, SMALL["cp_check"])  # a finished run
    assert code == 0
    cp_check = cli.EXPERIMENTS["cp_check"]

    def with_extra_file(**kwargs):
        files, results = cp_check.run(**kwargs)
        return dict(files, **{"z.csv": (["x"], [(1.0,)])}), results

    monkeypatch.setitem(
        cli.EXPERIMENTS, "cp_check", dataclasses.replace(cp_check, run=with_extra_file)
    )
    (out / "z.csv").mkdir()  # the rerun writes cp_check.csv, then fails on z.csv
    code, out = run(tmp_path, SMALL["cp_check"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: output:")
    assert [p.name for p in out.iterdir()] == ["z.csv"]


@pytest.mark.parametrize("name", list(SMALL))
def test_small_configs_run(tmp_path, name):
    """Every CSV keeps the contract: as many cells as header names in each
    row, and each nonempty cell is its own 17-significant-digit form."""
    code, out = run(tmp_path, SMALL[name])
    assert code == 0
    for csv_name in json.loads((out / "manifest.json").read_text())["outputs"]:
        header, rows = read_csv(out / csv_name)
        assert rows
        for row in rows:
            assert len(row) == len(header)
            assert all(c == "" or format(float(c), ".17g") == c for c in row)
    if name == "resolvent":
        kernel = ScalarTypeKernel(ExponentialKernel(1.0, 1.0), [[-1.0, 0.5], [0.0, -2.0]])
        table = compute_resolvent(kernel, TimeGrid(1.0, 16))
        data = np.array(rows, dtype=float)
        assert (data[:, 1:5] == table.S.reshape(17, 4)).all()
        assert (data[:, 5:] == table.U.reshape(17, 4)).all()


POOL = [None, True, "x", [], {}, [[1.0]], -1, 0, 0.5, 2, math.nan, math.inf]


def _paths(node, prefix=()):
    """Every position below the root: (path, node at that path)."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,), child
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_config_exits_cleanly(data):
    config = json.loads(json.dumps(SMALL[data.draw(st.sampled_from(sorted(SMALL)))]))
    paths = list(_paths(config))
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        path, _ = data.draw(st.sampled_from(paths))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from(POOL))
    else:
        dicts = [(), *(p for p, node in paths if isinstance(node, dict))]
        path = data.draw(st.sampled_from(dicts))
        node = config
        for key in path:
            node = node[key]
        if action == "delete":
            del node[data.draw(st.sampled_from(sorted(node)))]
        else:
            node["unknown_key"] = 1.0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        code = main(["--config", str(cfg), "--out", str(out)])
        assert code in (0, 3, 4)
        if code == 0:
            json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
        else:
            assert not out.exists()


def _sweep(config):
    """(label, config) for each key of the top level and of each section deleted in turn,
    and for each such key's value swapped for each other key's value."""
    keys = [(k,) for k in config]
    keys += [(k, j) for k, v in config.items() if isinstance(v, dict) for j in v]

    def parent(node, key):
        return node if len(key) == 1 else node[key[0]]

    for key in keys:
        out = json.loads(json.dumps(config))
        del parent(out, key)[key[-1]]
        yield f"del {'.'.join(key)}", out
        for other in keys:
            if other != key:
                out = json.loads(json.dumps(config))
                parent(out, key)[key[-1]] = parent(config, other)[other[-1]]
                yield f"{'.'.join(key)} = {'.'.join(other)}", out


@pytest.mark.parametrize("name", list(SMALL))
def test_swept_small_config_exits_0_3_or_4_with_one_error_line(tmp_path, capsys, name):
    for i, (label, config) in enumerate(_sweep(SMALL[name])):
        cfg = write_config(tmp_path, config, name=f"{i}.json")
        code = main(["--config", cfg, "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err
        assert code in (0, 3, 4), label
        assert "Traceback" not in err, label
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (label, err)


def test_memory_error_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    # an array too large for the machine: numpy raises MemoryError (_ArrayMemoryError)
    def exhausted(self, h, n):
        raise MemoryError(f"Unable to allocate array for {n} cells")

    monkeypatch.setattr(stochvolterra.kernels.ScalarKernel, "cell_moments", exhausted)
    code, out = run(tmp_path, SMALL["resolvent"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == [err.strip()] and err.startswith("error: numerical: Unable")
    assert "Traceback" not in err and not out.exists()


def test_growing_scalar_path_exits_0(tmp_path):
    # mu < 0: s grows to 1.6e4 and carries roundoff of that size; the construction
    # tolerance is relative to max|s|
    config = {
        "experiment": "scalar_resolvent",
        "kernel": {"variant": "fractional", "alpha": 0.5},
        "mu": -3.0,
        "grid": {"T": 1.0, "N": 1024},
    }
    code, out = run(tmp_path, config)
    assert code == 0
    _, rows = read_csv(out / "scalar_resolvent.csv")
    assert 1.5e4 < max(float(r[1]) for r in rows) < 1.7e4


def test_numerical_failure_exits_4(tmp_path):
    config = {
        "experiment": "resolvent",
        "kernel": {"variant": "constant", "c": 1.0},
        "operator": {"matrix": [[5.0]]},
        "grid": {"T": 50.0, "N": 512},
    }
    code, _ = run(tmp_path, config)
    assert code == 4


@pytest.mark.parametrize(
    "kernel, mu, N",
    [
        ({"variant": "fractional", "alpha": 0.5}, 100.0, 256),
        ({"variant": "fractional", "alpha": 0.5}, 100.0, 1024),
        ({"variant": "constant", "c": 1.0}, 1000.0, 256),
    ],
)
def test_cp_check_refuses_a_ringing_first_step(tmp_path, capsys, kernel, mu, N):
    # the probe's product march would give a witness against a completely positive kernel
    config = {"experiment": "cp_check", "kernel": kernel, "grid": {"T": 1.0, "N": N}}
    code, out = run(tmp_path, dict(config, mu_list=[1.0, mu]))
    err = capsys.readouterr().err
    assert code == 4 and not out.exists()
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: numerical: product's first step -0.") and f"mu={mu:g}" in err


@pytest.mark.parametrize(
    "operator", [[[-1e4, 1e4], [-1e4, -1e4]], np.diag([-1.0, -30.0, -100.0])],
    ids=["complex-pair", "diagonal"],
)
def test_resolvent_refuses_a_ringing_product_table(tmp_path, capsys, operator):
    # on 256 cells |z| = w0 |lam| is 997 for the complex pair and 7.05 for mu = 100: the
    # product table would alternate in sign; conv takes the same config
    config = {
        "experiment": "resolvent",
        "kernel": {"variant": "fractional", "alpha": 0.5},
        "operator": {"matrix": np.asarray(operator).tolist()},
        "grid": {"T": 1.0, "N": 256},
    }
    code, out = run(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 4 and not out.exists()
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: numerical: the product scheme rings") and "'conv'" in err
    assert run(tmp_path, dict(config, scheme="conv"))[0] == 0


@pytest.mark.filterwarnings("ignore:A is not dissipative")
@pytest.mark.parametrize("experiment", ["resolvent", "yosida"])
def test_alternating_channel_of_a_nonsymmetric_operator_exits_4(tmp_path, capsys, experiment):
    # on 8 cells the real eigenvalue 50 of A has step coefficient 1 - theta 50 h <= 0:
    # S_00 = e^(50 t) would come out alternating in sign
    config = dict(
        SMALL[experiment], operator={"matrix": [[50.0, 1.0], [0.0, 50.0]]}, grid={"T": 1.0, "N": 8}
    )
    if experiment == "yosida":
        identity = {"variant": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        config.update(noise={"cylindrical": 2, "seed": 21}, psi=identity)
    code, out = run(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 4 and not out.exists()
    assert err.splitlines() == [err.strip()] and err.startswith("error: numerical: nonpositive")


# --- determinism ------------------------------------------------------------------


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, OU_SCALAR)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "scalar_resolvent.csv").read_bytes() == (
        out2 / "scalar_resolvent.csv"
    ).read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_threads_do_not_change_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the threads asked for, on any machine
    config = {
        "experiment": "covariance",
        "kernel": {"variant": "constant", "c": 1.0},
        "operator": {"benchmark": "ou1"},
        "grid": {"T": 1.0, "N": 64},
        "noise": {"q": [1.0], "seed": 7},
        "psi": {"variant": "constant", "matrix": [[1.0]]},
        "mc": {"n_paths": 400},
        "t_index": 64,
    }
    cfg = write_config(tmp_path, config)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["--config", cfg, "--out", str(out4), "--threads", "4"]) == 0
    assert (out1 / "covariance.csv").read_bytes() == (out4 / "covariance.csv").read_bytes()
    # path batches through tiled lag sums, residuals by FFT, probes by the channel march
    for name in ("verify_ito", "verify_volterra", "yosida", "resolvent", "cp_check"):
        cfg = write_config(tmp_path, SMALL[name], name=f"{name}.json")
        outs = [tmp_path / f"{name}-{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert main(["--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        for f in (f"{name}.csv", "manifest.json"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_seed_override_changes_output_and_is_echoed(tmp_path):
    config = {
        "experiment": "convolve",
        "kernel": {"variant": "constant", "c": 1.0},
        "operator": {"benchmark": "ou1"},
        "grid": {"T": 1.0, "N": 32},
        "noise": {"q": [1.0], "seed": 7},
        "psi": {"variant": "constant", "matrix": [[1.0]]},
    }
    cfg = write_config(tmp_path, config)
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seed", "8"]) == 0
    assert (out1 / "convolve.csv").read_bytes() != (out2 / "convolve.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["noise"]["seed"] == 8


def test_manifest_roundtrip_reproduces_outputs(tmp_path):
    cfg = write_config(tmp_path, OU_SCALAR)
    out1 = tmp_path / "first"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    out2 = tmp_path / "second"
    assert main(["--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "scalar_resolvent.csv").read_bytes() == (
        out2 / "scalar_resolvent.csv"
    ).read_bytes()


def test_csv_template_prints_what_format_prints(tmp_path):
    edge = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0, 2.0**70]
    rows = [np.array(edge[:7]), tuple(np.float64(x) for x in edge[:6]) + (2**70,)]
    rows.append((1.5, None, 7, 0.0, -0.0, np.float64(0.1), 2**70))
    path = tmp_path / "edge.csv"
    cli._write_csv(path, [f"c{i}" for i in range(7)], rows)
    cells = [[format(float(x), ".17g") for x in row] for row in rows[:2]]
    cells.append(["1.5", "", "7", "0", "-0", "0.10000000000000001", "1.1805916207174113e+21"])
    lines = [",".join(f"c{i}" for i in range(7))] + [",".join(row) for row in cells]
    assert path.read_text() == "\n".join(lines) + "\n"
    assert cells[0][:5] == ["-0", "nan", "inf", "-inf", "4.9406564584124654e-324"]


def reference_csv(header, rows):
    """The CSV text of header and rows, each cell formatted on its own."""
    lines = [",".join(header)] + [",".join(format(float(x), ".17g") for x in r) for r in rows]
    return "\n".join(lines) + "\n"


EDGE = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1.0 / 3.0, 1e300]


@st.composite
def csv_arrays(draw):
    """2-D float64 arrays of 0 to 5 rows whose columns are constant (often an edge
    value), a mix of +0.0 and -0.0, or any floats."""
    n = draw(st.integers(0, 5))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["constant", "signed zeros", "any"]))
        if kind == "constant":
            columns.append([draw(st.sampled_from(EDGE) | st.floats())] * n)
        else:
            cells = st.sampled_from([0.0, -0.0]) if kind == "signed zeros" else st.floats()
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return np.array(columns, dtype=np.float64).reshape(len(columns), n).T


@settings(max_examples=300, deadline=None)
@given(csv_arrays())
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))  # +0.0 and -0.0 in one column
@example(np.array([EDGE]))  # one row: every column is constant
@example(np.zeros((0, 3)))
def test_array_rows_print_what_format_prints(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    header = [f"c{i}" for i in range(rows.shape[1])]
    cli._write_csv(path, header, rows)
    assert path.read_text() == reference_csv(header, rows)


def per_row_csv(header, rows):
    """The CSV text of an array of rows, each row through one "%.17g,..." template."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows.tolist())


def chunk_rows(varying):
    """Rows of the array body's chunks for an array with that many varying columns."""
    return cli._CSV_CELLS // max(1, varying)


def signed_table(n):
    """n rows: a varying column, +0.0 and -0.0 alternating, a constant column, nan and
    +-inf in turn, and a constant -0.0 column."""
    i = np.arange(n, dtype=float)
    special = np.array([math.nan, math.inf, -math.inf, 1.0 / 3.0])[np.arange(n) % 4]
    zeros = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
    return np.column_stack([i / 7.0, zeros, np.full(n, 2.5), special, np.full(n, -0.0)])


@pytest.mark.parametrize(
    "rows",
    [
        signed_table(0),
        signed_table(1),
        signed_table(5),
        np.full((4, 3), math.nan),  # every column constant: the template alone
        signed_table(3 * chunk_rows(3) + 11),  # 3 varying columns: 3 full chunks, a ragged 4th
        np.random.default_rng(1).standard_normal((chunk_rows(40) * 2 + 1, 40)),
    ],
    ids=["0-rows", "1-row", "5-rows", "all-constant", "ragged-chunks", "wide"],
)
def test_chunked_array_rows_have_the_per_row_templates_bytes(tmp_path, rows):
    header = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path / "rows.csv"
    cli._write_csv(path, header, rows)
    assert path.read_bytes() == per_row_csv(header, rows).encode()


def test_resolvent_rows_print_what_format_prints(tmp_path):
    """The rows of the resolvent experiment on diag5 (40 constant zero columns) and on
    a rotated operator (none), and the same rows negated below row 0, which makes
    diag5's zero columns mix +0.0 and -0.0."""
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
    rotated = Q @ np.diag(-np.arange(1.0, 6.0)) @ Q.T
    path = tmp_path / "resolvent.csv"
    for operator in ({"benchmark": "diag5"}, {"matrix": (0.5 * (rotated + rotated.T)).tolist()}):
        config = dict(SMALL["resolvent"], operator=operator, grid={"T": 1.0, "N": 64})
        files, _ = cli._run_resolvent(threads=1, **cli._resolve(config, None)[1])
        header, rows = files["resolvent.csv"]
        bits = rows.view(np.uint64)
        constant = np.all(bits == bits[0], axis=0).sum()
        assert constant == (40 if "benchmark" in operator else 0)
        for table in (rows, np.vstack([rows[:1], -rows[1:]])):
            cli._write_csv(path, header, table)
            assert path.read_text() == reference_csv(header, table)


# --- remaining experiments, smoke level --------------------------------------------


def test_cp_check_experiment(tmp_path):
    config = {
        "experiment": "cp_check",
        "kernel": {"variant": "linear"},
        "grid": {"T": 4.0, "N": 512},
        "mu_list": [1.0],
    }
    code, out = run(tmp_path, config)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "not completely positive" in manifest["results"]["verdict"]
    header, rows = read_csv(out / "cp_check.csv")
    assert header == ["mu", "min_s", "t_at_min", "first_violation_t"]
    assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-2)


def test_resolvent_experiment(tmp_path):
    config = {
        "experiment": "resolvent",
        "kernel": {"variant": "exponential", "c": 1.0, "b": 1.0},
        "operator": {"benchmark": "diag5"},
        "grid": {"T": 1.0, "N": 64},
    }
    code, out = run(tmp_path, config)
    assert code == 0
    header, rows = read_csv(out / "resolvent.csv")
    assert header[0] == "t" and "S_0_0" in header and "U_4_4" in header
    assert len(rows) == 65
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["res_second"] < 1e-12


def test_verify_volterra_experiment(tmp_path):
    config = {
        "experiment": "verify_volterra",
        "kernel": {"variant": "constant", "c": 1.0},
        "operator": {"benchmark": "ou1"},
        "grid": {"T": 1.0, "N": 64},
        "noise": {"q": [1.0], "seed": 3},
        "psi": {"variant": "constant", "matrix": [[1.0]]},
        "mc": {"n_paths": 5},
    }
    code, out = run(tmp_path, config)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scheme"] == "conv"  # verify defaults to exact scheme
    assert manifest["results"]["max_sup_residual"] < 1e-10


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_verify_volterra_overflowing_path_exits_4(tmp_path, capsys):
    # S grows to about cosh(sqrt(30)); with a psi of 1e308 the paths pass the largest double
    config = edited(edited(SMALL["verify_volterra"], "psi", "matrix", [[1e308]]), "grid", "N", 128)
    code, out = run(tmp_path, dict(config, operator={"matrix": [[30.0]]}))
    assert code == 4
    assert capsys.readouterr().err == "error: numerical: convolution path contains nonfinite values\n"
    assert not out.exists()


def test_covariance_past_the_float_range_exits_4(tmp_path, capsys):
    # B Q B' = 1e400: both covariances were [[inf]], written with exit 0
    code, out = run(tmp_path, edited(SMALL["covariance"], "psi", "matrix", [[1e200]]))
    assert code == 4 and not out.exists()
    assert capsys.readouterr().err.startswith("error: numerical: covariance quadrature contains")


@pytest.mark.filterwarnings("error")
def test_yosida_gaps_past_the_float_range_exit_4(tmp_path, capsys):
    # psi = 1e200: e_W and e_AW were written as nan with exit 0
    code, out = run(tmp_path, edited(SMALL["yosida"], "psi", "matrices", [[[1e200]]] * 2))
    assert code == 4 and not out.exists()
    err = capsys.readouterr().err
    assert err == "error: numerical: Yosida study gaps contains nonfinite values\n"


def test_verify_ito_experiment(tmp_path):
    config = {
        "experiment": "verify_ito",
        "kernel": {"variant": "exponential"},
        "operator": {"matrix": [[-1.0]]},
        "grid": {"T": 1.0, "N": 64},
        "noise": {"q": [1.0], "seed": 11},
        "psi": {"variant": "constant", "matrix": [[1.0]]},
        "xi": {"xi0": [1.0], "phi": "exp"},
        "x0": [1.0],
        "mc": {"n_paths": 50},
    }
    code, out = run(tmp_path, config)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["results"]["mean"]) <= 6.0 * manifest["results"]["std_error"]


def test_yosida_experiment(tmp_path):
    config = {
        "experiment": "yosida",
        "kernel": {"variant": "exponential"},
        "operator": {"benchmark": "diag5"},
        "grid": {"T": 1.0, "N": 32},
        "noise": {"q": [1.0, 1.0, 1.0, 1.0, 1.0], "seed": 21},
        "psi": {"variant": "constant", "matrix": [
            [1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0], [0, 0, 1.0, 0, 0],
            [0, 0, 0, 1.0, 0], [0, 0, 0, 0, 1.0]]},
        "lambdas": [0.2, 0.1],
        "mc": {"n_paths": 40},
    }
    code, out = run(tmp_path, config)
    assert code == 0
    header, rows = read_csv(out / "yosida.csv")
    assert header == ["lambda", "e_S", "e_W", "e_AW"]
    assert float(rows[0][1]) > float(rows[1][1])


def test_step_psi_accepted(tmp_path):
    config = {
        "experiment": "convolve",
        "kernel": {"variant": "constant", "c": 1.0},
        "operator": {"benchmark": "ou1"},
        "grid": {"T": 1.0, "N": 16},
        "noise": {"q": [1.0], "seed": 2},
        "psi": {
            "variant": "step",
            "breakpoints": [0.0, 0.5],
            "matrices": [[[1.0]], [[0.0]]],
        },
        "x0": [1.0],
    }
    code, out = run(tmp_path, config)
    assert code == 0
    header, rows = read_csv(out / "convolve.csv")
    assert header == ["t", "X_0"]
    assert float(rows[0][1]) == 1.0


def test_verify_ito_exp_profile_on_a_long_horizon_exits_0(tmp_path):
    # exp(t) reaches 2981 by T = 8, where a forward difference errs by about 1.5e-3
    cfg = write_config(tmp_path, dict(SMALL["verify_ito"], grid={"T": 8.0, "N": 64}))
    proc = subprocess.run(
        [sys.executable, "-m", "stochvolterra", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, OU_SCALAR)
    out = tmp_path / "proc"
    proc = subprocess.run(
        [sys.executable, "-m", "stochvolterra", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert (out / "scalar_resolvent.csv").exists()
    proc2 = subprocess.run(
        [sys.executable, "-m", "stochvolterra", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert "scalar_resolvent.csv" in proc2.stdout
