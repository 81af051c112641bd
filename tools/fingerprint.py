"""Print sha256 digests of every artefact a fixed seglang protocol writes.

    PYTHONPATH=src python tools/fingerprint.py

A refactor that claims to change no output should print the same JSON object
before and after. The protocol, driven step by step through `seglang.cli.main`
in a temporary directory that is removed afterwards:

- `gen-data` for the training corpus (seed 1, 16 train scenes, no eval
  scenes) and for the eval data (seed 0, 24 train and 16 eval scenes);
- a seeded initial checkpoint (`train --steps 0 --seed 11`, i.e. the
  parameters of `RunConfig(seed=11)` with an empty Adam state);
- a 64-step stage-2 run from it with train seed 7 (checkpoint and JSONL);
- on that checkpoint, with the eval data: `eval --task refseg --max-steps 40`
  with ILVC on and off (report and per-sample CSV), `attr-build` and
  `attr-score` on the probe file it wrote, and
  `eval --task gradcheck --n-configs 3`;
- `eval --task conformance`: 50 scripted streams through
  `engine.run_scripted`, checked against the reference interpreter; the
  report holds the agreement count, the event kinds and end reasons covered,
  and the projected traces of any stream that disagrees. Since an agreeing
  stream leaves no mark in the report, `conformance_streams` digests every
  stream's result as well: its trace, output tokens, end reason, protocol
  error and the bytes of each mask.

The CLI's own console output goes to stderr; stdout carries only the JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from seglang import cli, engine


def _file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _tree(root: str) -> str:
    """One digest over every file's relative path and contents."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            h.update(_file(path).encode("ascii") + b"\n")
    return h.hexdigest()


def _result_bytes(result) -> bytes:
    head = json.dumps([result.trace, result.output_tokens, result.end_reason,
                       result.protocol_error]).encode("utf-8")
    return head + b"".join(np.ascontiguousarray(m).tobytes() for m in result.masks)


@contextlib.contextmanager
def _digesting_scripted_runs(h):
    """Feed each `engine.run_scripted` result into `h` while in the block."""
    run_scripted = engine.run_scripted

    def wrapped(*args, **kwargs):
        result = run_scripted(*args, **kwargs)
        h.update(hashlib.sha256(_result_bytes(result)).digest())
        return result

    engine.run_scripted = wrapped
    try:
        yield
    finally:
        engine.run_scripted = run_scripted


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        cli.main(list(argv))


def fingerprint(work: str) -> dict[str, str]:
    corpus, data = os.path.join(work, "corpus"), os.path.join(work, "data")
    init, ckpt = os.path.join(work, "init.ckpt"), os.path.join(work, "stage2.ckpt")
    out = os.path.join(work, "out")
    _run("gen-data", "--out", corpus, "--seed", "1", "--n-train", "16",
         "--n-eval", "0")
    _run("gen-data", "--out", data, "--seed", "0", "--n-train", "24",
         "--n-eval", "16")
    _run("train", "--data-dir", corpus, "--seed", "11", "--steps", "0",
         "--checkpoint", init, "--out-dir", os.path.join(work, "init"))
    _run("train", "--data-dir", corpus, "--stage", "2", "--steps", "64",
         "--seed", "7", "--init-checkpoint", init, "--checkpoint", ckpt,
         "--out-dir", out)
    digests = {"corpus_tree": _tree(corpus), "eval_data_tree": _tree(data),
               "init_ckpt": _file(init), "stage2_ckpt": _file(ckpt),
               "stage2_jsonl": _file(os.path.join(out, "train_stage2.jsonl"))}
    on_data = ("--data-dir", data, "--checkpoint", ckpt)
    for ilvc in ("on", "off"):
        rdir = os.path.join(work, f"refseg_{ilvc}")
        _run("eval", "--task", "refseg", "--max-steps", "40", "--ilvc", ilvc,
             *on_data, "--out-dir", rdir)
        digests[f"refseg_{ilvc}_report"] = _file(os.path.join(rdir, "report_refseg.json"))
        digests[f"refseg_{ilvc}_csv"] = _file(os.path.join(rdir, "refseg_samples.csv"))
    probes, adir = os.path.join(work, "probes.json"), os.path.join(work, "attr")
    _run("attr-build", "--data-dir", data, "--out", probes)
    _run("attr-score", "--probes", probes, *on_data, "--out-dir", adir)
    digests["attr_report"] = _file(os.path.join(adir, "report_attr.json"))
    digests["attr_probes"] = _file(probes)
    gdir = os.path.join(work, "gradcheck")
    _run("eval", "--task", "gradcheck", "--n-configs", "3", "--out-dir", gdir)
    digests["gradcheck_report"] = _file(os.path.join(gdir, "report_gradcheck.json"))
    cdir = os.path.join(work, "conformance")
    streams = hashlib.sha256()
    with _digesting_scripted_runs(streams):
        _run("eval", "--task", "conformance", "--out-dir", cdir)
    digests["conformance_report"] = _file(os.path.join(cdir, "report_conformance.json"))
    digests["conformance_streams"] = streams.hexdigest()
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="seglang-fp-") as work:
        print(json.dumps(fingerprint(work), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
