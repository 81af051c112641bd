"""Command-line surface.

Subcommands: gen-data, train, eval, generate; AttrEval is attr-build, then
attr-score on its file. A JSON config file seeds every run; long-form flags
override individual fields. Exit code 0 means the report/outputs were written
and no protocol error occurred.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import engine, suites, training
from .attreval import load_probes, save_probes, build_probes
from .config import RunConfig, write_json
from .images import read_ppm, to_unit_float, write_pgm, write_pgm_prob
from .maskdec import binarize
from .scenes import load_attr_records, make_split
from .vocab import Vocab


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--vocab", dest="vocab_path")
    p.add_argument("--checkpoint")
    p.add_argument("--init-checkpoint", dest="init_checkpoint")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--stage", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--interleave-boost", dest="interleave_boost", type=float)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--ilvc", dest="ilvc_enabled",
                   choices=("on", "off"))


def _config_from(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None)
                 for f in dataclasses.fields(RunConfig)}
    if overrides.get("ilvc_enabled") is not None:
        overrides["ilvc_enabled"] = overrides["ilvc_enabled"] == "on"
    return RunConfig.load(getattr(args, "config", None), overrides)


def _write_report(cfg: RunConfig, name: str, payload: dict) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    write_json(path, payload, sort_keys=True)
    print(f"wrote {path}")
    return path


def cmd_gen_data(args) -> int:
    meta = make_split(args.seed, args.n_train, args.n_eval, args.out,
                      canvas=args.canvas, patch=args.patch)
    print(json.dumps(meta, indent=2))
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    summary = training.train(cfg)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    if args.task == "refseg":
        model = training.load_model(cfg)
        report = training.eval_refseg(model, cfg.data_dir, cfg.ilvc_enabled,
                                      cfg.max_steps)
        rows = report.pop("rows")
        path = _write_report(cfg, "report_refseg.json", report)
        training.write_refseg_csv(rows, os.path.join(cfg.out_dir,
                                                     "refseg_samples.csv"))
        print(f"gIoU {report['metrics']['giou']:.4f}  "
              f"cIoU {report['metrics']['ciou']:.4f}  "
              f"desc acc {report['desc_token_acc']:.4f}")
        bad = [r for r in rows if r["protocol_error"]]
        return 1 if bad else 0
    if args.task == "gradcheck":
        reports = suites.grad_check_suite(args.n_configs, args.sample_per_param,
                                          cfg.seed)
        worst = max(r["max_rel_err"] for r in reports)
        payload = {"n_configs": len(reports), "max_rel_err": worst,
                   "reports": [{k: v for k, v in r.items() if k != "worst_param"}
                               for r in reports]}
        _write_report(cfg, "report_gradcheck.json", payload)
        print(f"max rel err {worst:.2e} over {len(reports)} configs")
        return 0 if worst < 1e-4 else 1
    report = suites.conformance_suite(args.n_streams, cfg.seed)   # --task conformance
    _write_report(cfg, "report_conformance.json", report)
    print(f"{report['agreements']}/{report['n_streams']} traces agree")
    return 0 if not report["failures"] else 1


def cmd_generate(args) -> int:
    cfg = _config_from(args)
    model = training.load_model(cfg)
    image = to_unit_float(read_ppm(args.image))
    instruction = engine.prompt_template(args.task, cfg.ilvc_enabled,
                                         model.vocab)
    if args.text:
        instruction = instruction + model.vocab.encode(args.text)
    result = engine.generate(model, image, instruction, cfg.ilvc_enabled,
                             max_steps=cfg.max_steps)
    os.makedirs(cfg.out_dir, exist_ok=True)
    engine.dump_trace(result, os.path.join(cfg.out_dir, "trace.jsonl"))
    for i, m in enumerate(result.masks):
        write_pgm_prob(os.path.join(cfg.out_dir, f"mask_{i}.pgm"), m)
        write_pgm(os.path.join(cfg.out_dir, f"mask_{i}_bin.pgm"),
                  binarize(m, cfg.threshold))
    print(result.token_text(model.vocab))
    print(f"{len(result.masks)} masks -> {cfg.out_dir}")
    if result.protocol_error:
        print(f"protocol error: {result.protocol_error}", file=sys.stderr)
        return 1
    return 0


def cmd_attr_build(args) -> int:
    split_dir = os.path.join(args.data_dir, args.split)
    vocab = Vocab.load(args.vocab or os.path.join(args.data_dir, "vocab.txt"))
    probes = build_probes(load_attr_records(split_dir), vocab, args.seed)
    if not probes:
        raise ValueError(f"{split_dir}: its attribute records yield no probe")
    save_probes(probes, args.out)
    print(f"{len(probes)} probes -> {args.out}")
    return 0


def cmd_attr_score(args) -> int:
    cfg = _config_from(args)
    model = training.load_model(cfg)
    payload = training.score_probes(model, load_probes(args.probes),
                                    os.path.join(cfg.data_dir, args.split))
    _write_report(cfg, "report_attr.json", payload)
    print(f"vqa {payload['vqa_acc']:.4f}  acc1 {payload['acc1']:.4f}  "
          f"acc3 {payload['acc3']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seglang",
        description="referring segmentation language model, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic train/eval splits")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=512)
    p.add_argument("--n-eval", type=int, default=64)
    p.add_argument("--canvas", type=int, default=64)
    p.add_argument("--patch", type=int, default=8)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run one training stage")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or run a suite")
    p.add_argument("--task", required=True,
                   choices=("refseg", "gradcheck", "conformance"))
    p.add_argument("--n-configs", type=int, default=20)
    p.add_argument("--n-streams", type=int, default=50)
    p.add_argument("--sample-per-param", type=int, default=2)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("generate", help="decode one image + instruction")
    p.add_argument("--image", required=True, help="PPM image path")
    p.add_argument("--task", default="refseg",
                   choices=("refseg", "gcg", "vqa"))
    p.add_argument("--text", default="", help="instruction content")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("attr-build", help="build attribute probes")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", default="eval")
    p.add_argument("--vocab", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_attr_build)

    p = sub.add_parser("attr-score", help="score probes against a checkpoint")
    p.add_argument("--probes", required=True)
    p.add_argument("--split", default="eval")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_attr_score)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
