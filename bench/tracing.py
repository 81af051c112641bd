"""Outside-in layer tracing for the benchmark.

The tracer swaps public seglang functions and methods for thin wrappers
that record one span per call: (name, start, end, parent span, op id). The
program is not edited; a wrapper replaces every module attribute that holds
the original function, so `from .x import f` copies are wrapped too. Spans
stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the time covered by its direct
children (calls are nested on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# (label, module, attribute); a dotted attribute names a method on a class
TRACED = (
    ("scenes.make_split", "seglang.scenes", "make_split"),
    ("scenes.load_split", "seglang.scenes", "load_split"),
    ("store.save", "seglang.store", "ParamStore.save"),
    ("store.load", "seglang.store", "ParamStore.load"),
    ("attreval.build_probes", "seglang.attreval", "build_probes"),
    ("sefe.sefe_forward", "seglang.sefe", "sefe_forward"),
    ("sefe.encode_local", "seglang.sefe", "encode_local"),
    ("sequence.crop_region", "seglang.sequence", "crop_region"),
    ("sequence.build_training_sequence", "seglang.sequence",
     "build_training_sequence"),
    ("lm.forward", "seglang.lm", "forward"),
    ("lm.next_token_loss", "seglang.lm", "next_token_loss"),
    ("maskdec.decode_mask", "seglang.maskdec", "decode_mask"),
    ("losses.combined_loss", "seglang.losses", "combined_loss"),
    ("tensor.Tensor.backward", "seglang.tensor", "Tensor.backward"),
    ("store.adam_step", "seglang.store", "ParamStore.adam_step"),
    ("engine.run_scripted", "seglang.engine", "run_scripted"),
    ("training.answer_question", "seglang.training", "answer_question"),
    ("training.seg_state_for", "seglang.training", "seg_state_for"),
)

# layers whose cost lands in set-up; reported per set-up, not per op
SETUP_LABELS = ("scenes.make_split", "scenes.load_split", "store.save",
                "store.load", "attreval.build_probes")

# layers reported per op of the timed phase
OP_LABELS = tuple(label for label, _, _ in TRACED
                  if label not in ("scenes.make_split", "attreval.build_probes"))

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def resident_kb() -> int:
    """Current resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * _PAGE_KB


class Tracer:
    """Span recorder. `op` is stamped on every span: "setup" during set-up,
    the op index during the timed phase. Recording happens only while
    `active` is true, so correctness checks between rounds leave no spans."""

    def __init__(self, gap_split_rows: int):
        self.spans: list[list] = []     # [name, start, end, parent, op, info]
        self.stack: list[int] = []
        self.op: object = "setup"
        self.active = False
        self.gap_split_rows = gap_split_rows
        self.token_gaps: list[tuple[int, float]] = []   # (context rows, s)
        self._emits: list[list] | None = None           # [time, rows] per token
        self._decoding = False    # the episode's first lm.forward has run
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for label, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, meth)
                self._swap(owner, meth, self._wrapper(label, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrapper(label, original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("seglang"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, name, wrapper)
        seq_cls = sys.modules["seglang.sequence"].InterleavedSequence
        for meth in ("append_text", "append_seg", "append_feat"):
            self._swap(seq_cls, meth, self._emit_wrapper(getattr(seq_cls, meth),
                                                         meth == "append_feat"))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _swap(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, label: str, fn):
        tracer = self
        rows = label == "lm.forward"
        rss = label == "training.seg_state_for"
        episode = label == "engine.run_scripted"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [label, 0.0, 0.0, parent, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            if rows:
                rec[5] = len(args[0])
                tracer._decoding = True
            if rss:
                before = resident_kb()
            if episode:
                tracer._emits = []
                tracer._decoding = False
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
                if rss:
                    rec[5] = resident_kb() - before
                if episode:
                    tracer._close_episode(rec[2])
        return traced

    def _emit_wrapper(self, fn, is_feat: bool):
        """Token emission times inside a scripted episode.

        Every decoded token except the end token appends one text or seg
        element; a crop appends a feature block right after its marker, which
        only widens the context of the marker's emission. The end of the
        episode stands for the end token. Appends before the episode's first
        lm.forward build the instruction prefix and are not decoded tokens.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(seq, *args, **kwargs):
            out = fn(seq, *args, **kwargs)
            emits = tracer._emits
            if tracer.active and emits is not None and tracer._decoding:
                if is_feat:
                    if emits:
                        emits[-1][1] = len(seq)
                else:
                    emits.append([time.perf_counter(), len(seq)])
            return out
        return traced

    def _close_episode(self, end: float) -> None:
        emits = self._emits or []
        self._emits = None
        if not emits:
            return
        emits.append([end, emits[-1][1]])
        for (t0, rows), (t1, _) in zip(emits, emits[1:]):
            self.token_gaps.append((rows, t1 - t0))

    # -- reports -------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - covered[i] for i, rec in enumerate(self.spans)]

    def per_layer(self, n_setups: int, n_ops: int, timed_s: float,
                  op_ms: list[float]) -> tuple[dict[str, float], list[tuple]]:
        """Per-layer metrics and the per-op table rows.

        Table rows are (label, calls per op, self ms per op); the rows plus
        the unaccounted remainder add up to the traced op time, which is the
        timed phase divided by the ops completed in it.
        """
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        setup_s: dict[str, float] = {}
        rows: list[int] = []
        rss: list[int] = []
        for rec, s in zip(self.spans, selfs):
            name, op = rec[0], rec[4]
            if op == "setup":
                setup_s[name] = setup_s.get(name, 0.0) + s
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s
            if name == "lm.forward":
                rows.append(rec[5])
            elif name == "training.seg_state_for":
                rss.append(rec[5])
        ops = max(n_ops, 1)
        metrics: dict[str, float] = {}
        table = []
        for label in OP_LABELS:
            metrics[f"{label}.calls"] = calls.get(label, 0) / ops
            metrics[f"{label}.self_ms"] = 1000.0 * self_s.get(label, 0.0) / ops
            if calls.get(label):
                table.append((label, metrics[f"{label}.calls"],
                              metrics[f"{label}.self_ms"]))
        for label in SETUP_LABELS:
            metrics[f"setup.{label}.self_ms"] = \
                1000.0 * setup_s.get(label, 0.0) / max(n_setups, 1)
        op_time_ms = 1000.0 * timed_s / ops
        accounted = sum(ms for _, _, ms in table)
        metrics["lm.forward.rows"] = float(np.mean(rows)) if rows else 0.0
        short = [g for r, g in self.token_gaps if r < self.gap_split_rows]
        long_ = [g for r, g in self.token_gaps if r >= self.gap_split_rows]
        metrics["engine.token_gap_ms.short"] = \
            1000.0 * float(np.median(short)) if short else 0.0
        metrics["engine.token_gap_ms.long"] = \
            1000.0 * float(np.median(long_)) if long_ else 0.0
        # the largest growth of one call: freed pages are reused once the
        # first round's held states are dropped, so later calls grow by ~0
        metrics["training.seg_state_for.rss_delta_kb"] = \
            float(max(rss)) if rss else 0.0
        metrics["trace.op_ms"] = op_time_ms
        metrics["trace.op_ms_p50"] = float(np.percentile(op_ms, 50)) if op_ms else 0.0
        metrics["trace.unaccounted_ms"] = op_time_ms - accounted
        table.sort(key=lambda row: -row[2])
        table.append(("(unaccounted)", float("nan"), op_time_ms - accounted))
        return metrics, table

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op,
                                    "info": info}) + "\n")


def format_table(table: list[tuple], op_time_ms: float, title: str) -> str:
    lines = [title,
             f"{'layer':36s} {'calls/op':>9s} {'self ms/op':>11s} {'share':>7s}"]
    for label, calls, ms in table:
        calls_s = "" if calls != calls else f"{calls:9.2f}"
        lines.append(f"{label:36s} {calls_s:>9s} {ms:11.3f} "
                     f"{100.0 * ms / op_time_ms:6.1f}%")
    total = sum(ms for _, _, ms in table)
    lines.append(f"{'total (= traced op time)':36s} {'':>9s} {total:11.3f} "
                 f"{100.0 * total / op_time_ms:6.1f}%")
    return "\n".join(lines)
