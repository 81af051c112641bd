"""Command-line surface: the full pipeline run end to end on a tiny split."""

import argparse
import dataclasses
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from seglang.cli import _add_config_flags, build_parser, main
from seglang.config import RunConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """gen-data + both training stages, shared by the downstream commands."""
    root = tmp_path_factory.mktemp("cli_flow")
    data = str(root / "data")
    ck1 = str(root / "s1" / "model.ckpt")
    ck2 = str(root / "s2" / "model.ckpt")
    assert main(["gen-data", "--out", data, "--seed", "5",
                 "--n-train", "4", "--n-eval", "2"]) == 0
    assert main(["train", "--data-dir", data, "--stage", "1", "--steps", "2",
                 "--lr", "0.05", "--checkpoint", ck1,
                 "--out-dir", str(root / "s1")]) == 0
    assert main(["train", "--data-dir", data, "--stage", "2", "--steps", "2",
                 "--lr", "0.05", "--init-checkpoint", ck1,
                 "--checkpoint", ck2, "--out-dir", str(root / "s2")]) == 0
    return {"root": root, "data": data, "ck": ck2}


def test_gen_data_wrote_split(flow):
    assert os.path.exists(os.path.join(flow["data"], "vocab.txt"))
    for split in ("train", "eval"):
        d = os.path.join(flow["data"], split)
        assert os.path.exists(os.path.join(d, "samples.jsonl"))
        assert glob.glob(os.path.join(d, "images", "*.ppm"))
        assert glob.glob(os.path.join(d, "masks", "*.pgm"))


def test_train_wrote_checkpoints_and_logs(flow):
    assert os.path.exists(flow["ck"])
    assert os.path.exists(str(flow["root"] / "s1" / "train_stage1.jsonl"))
    assert os.path.exists(str(flow["root"] / "s2" / "train_stage2.jsonl"))


def test_eval_gradcheck(flow, capsys):
    out = str(flow["root"] / "gc")
    assert main(["eval", "--task", "gradcheck", "--n-configs", "2",
                 "--sample-per-param", "1", "--out-dir", out]) == 0
    report = json.load(open(os.path.join(out, "report_gradcheck.json")))
    assert report["n_configs"] == 2
    assert report["max_rel_err"] < 1e-4
    assert "max rel err" in capsys.readouterr().out


def test_eval_conformance(flow):
    out = str(flow["root"] / "conf")
    assert main(["eval", "--task", "conformance", "--n-streams", "10",
                 "--out-dir", out]) == 0
    report = json.load(open(os.path.join(out, "report_conformance.json")))
    assert report["agreements"] == report["n_streams"] == 10


def test_eval_refseg_writes_reports(flow):
    out = str(flow["root"] / "rs")
    rc = main(["eval", "--task", "refseg", "--data-dir", flow["data"],
               "--checkpoint", flow["ck"], "--out-dir", out,
               "--max-steps", "8"])
    assert rc in (0, 1)  # a barely trained model may still protocol-error
    report = json.load(open(os.path.join(out, "report_refseg.json")))
    assert 0.0 <= report["metrics"]["giou"] <= 1.0
    lines = open(os.path.join(out, "refseg_samples.csv")).read().splitlines()
    assert len(lines) == 1 + report["n_samples"]


def test_generate_writes_trace(flow):
    image = sorted(glob.glob(os.path.join(flow["data"], "eval", "images",
                                          "*.ppm")))[0]
    out = str(flow["root"] / "gen")
    rc = main(["generate", "--image", image, "--task", "refseg",
               "--text", "the red square", "--data-dir", flow["data"],
               "--checkpoint", flow["ck"], "--out-dir", out,
               "--max-steps", "8"])
    assert rc in (0, 1)
    trace = [json.loads(l) for l in open(os.path.join(out, "trace.jsonl"))]
    assert trace, "empty trace"


def test_attr_build_and_score(flow, capsys):
    probes = str(flow["root"] / "probes.txt")
    assert main(["attr-build", "--data-dir", flow["data"],
                 "--seed", "3", "--out", probes]) == 0
    assert os.path.getsize(probes) > 0
    out = str(flow["root"] / "attr")
    assert main(["attr-score", "--probes", probes, "--data-dir", flow["data"],
                 "--checkpoint", flow["ck"], "--out-dir", out]) == 0
    report = json.load(open(os.path.join(out, "report_attr.json")))
    assert report["acc1"] <= report["acc3"] + 1e-12
    assert "vqa" in capsys.readouterr().out


def test_attr_build_refuses_a_split_without_probes(tmp_path):
    # an empty probe file would only fail later, in attr-score, after the
    # model loads and without naming the split
    data = str(tmp_path / "data")
    assert main(["gen-data", "--out", data, "--seed", "5",
                 "--n-train", "1", "--n-eval", "0"]) == 0
    probes = tmp_path / "probes.json"
    with pytest.raises(ValueError, match=r"eval: its attribute records yield no probe"):
        main(["attr-build", "--data-dir", data, "--out", str(probes)])
    assert not probes.exists()


def test_eval_attr_task_is_gone():
    # AttrEval runs only as attr-build then attr-score
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--task", "attr"])
    assert exc.value.code == 2


def test_config_file_with_flag_override(flow, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_dir": flow["data"], "steps": 1,
                                    "lr": 0.01, "stage": 1,
                                    "checkpoint": str(tmp_path / "m.ckpt"),
                                    "out_dir": str(tmp_path)}))
    assert main(["train", "--config", str(cfg_path), "--steps", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 2  # flag beats the file


def test_config_file_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(ValueError, match="nonsense"):
        main(["train", "--config", str(cfg_path)])


@pytest.mark.parametrize("flags, name", [
    (["--task", "gradcheck", "--n-configs", "0"], "n_configs"),
    (["--task", "gradcheck", "--sample-per-param", "0"], "sample_per_param"),
    (["--task", "conformance", "--n-streams", "-3"], "n_streams"),
    (["--task", "refseg", "--max-steps", "0"], "max_steps"),
])
def test_eval_refuses_counts_below_one(tmp_path, flags, name):
    # a zero count would report a vacuous pass (or crash in max()), so it is
    # refused by name before any suite runs or report is written
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=name):
        main(["eval", *flags, "--out-dir", str(out)])
    assert not out.exists()


def test_loss_weight_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--alpha", "1"])
    assert exc.value.code == 2


def test_ilvc_flag_mapping():
    parser = build_parser()
    from seglang.cli import _config_from
    args = parser.parse_args(["eval", "--task", "refseg", "--ilvc", "off"])
    assert _config_from(args).ilvc_enabled is False
    args = parser.parse_args(["eval", "--task", "refseg", "--ilvc", "on"])
    assert _config_from(args).ilvc_enabled is True
    args = parser.parse_args(["eval", "--task", "refseg"])
    assert _config_from(args).ilvc_enabled is True  # config default


def test_config_flags_name_runconfig_fields():
    """`_config_from` reads only field names, so a flag whose dest is not a
    field would be parsed and then silently dropped."""
    parser = argparse.ArgumentParser(add_help=False)
    _add_config_flags(parser)
    dests = {a.dest for a in parser._actions} - {"config"}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert sorted(dests - fields) == []


def _declared_console_script():
    """The `seglang` target as `module:attr`: from the repo's pyproject.toml,
    or from the installed distribution where tomllib (3.11+) is missing."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = None
    pyproject = os.path.join(REPO, "pyproject.toml")
    if tomllib is not None and os.path.exists(pyproject):
        with open(pyproject, "rb") as f:
            return tomllib.load(f)["project"]["scripts"]["seglang"]
    from importlib.metadata import entry_points
    for ep in entry_points(group="console_scripts", name="seglang"):
        return ep.value
    pytest.skip("no tomllib to read pyproject.toml and no installed seglang "
                "distribution declaring the console script")


def _assert_help_runs(cmd, env=None):
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "gen-data" in proc.stdout, proc.stderr


def test_console_script_installed():
    # start the declared target the way pip's generated wrapper does
    module, _, attr = _declared_console_script().partition(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'seglang'; sys.exit({attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    _assert_help_runs([sys.executable, "-c", code], env)
    # and the installed script itself, wherever there is one
    exe = shutil.which("seglang")
    if exe:
        _assert_help_runs([exe])
