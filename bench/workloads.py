"""The benchmark's three workloads: set-up, timed closed loop, checks.

One process, one caller, closed loop: the next op starts when the previous
one returns. Every workload repeats whole rounds of the same ops until the
run's seconds are spent, so every run does the same mix of work whatever
its length. The program is driven only through the functions the CLI uses:
training.train, training.load_model, engine.run_scripted,
training.answer_question and training.seg_state_for.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from seglang import attreval, engine, lm, scenes, training
from seglang.attreval import probe_key, score_logits, score_vqa
from seglang.config import RunConfig
from seglang.images import read_ppm, to_unit_float
from seglang.maskdec import decode_mask
from seglang.model import STAGE_PREFIXES, Model
from seglang.sequence import SegSlot, build_training_sequence
from seglang.store import ParamStore
from seglang.vocab import Vocab

import checks
from tracing import Tracer

WORKLOADS = ("train", "replay", "probe")

# what the program raises on bad shapes, empty masks or a failed run; an op
# that raises one of these counts as failed and the run goes on
OP_ERRORS = (ValueError, RuntimeError, FloatingPointError)

SETUP_REPEATS = 11
FROZEN = ("sem_enc.", "pix_enc.")


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark configuration."""
    name: str
    model: dict                 # RunConfig fields over the defaults
    model_seed: int             # seeded init of every checkpoint
    canvas: int
    align_patch: int            # make_split's square-alignment patch
    train_scenes: int
    train_steps: int            # optimizer steps per train() round
    replay_scenes: int
    replay_per_count: int       # episodes per region count (1, 2, 3) a round
    probe_scenes: int           # one-object scenes; three probes each a round
    gap_split_rows: int         # token-gap bucket boundary, in context rows
    grad_coords_per_group: int


# The model init does not follow --seed. At init seed 0 the untrained seg
# projector decodes an empty mask for many scripted replay regions and the
# engine aborts the crop (protocol error empty_mask; 83 of 180 episodes over
# corpus seeds 0-29), so the amount of replay work would depend on the corpus.
# At init seed 11 every scripted region of corpus seeds 0-69 decoded a
# non-empty mask: its largest patch logit had mean 1.24, sd 0.29, minimum 0.51.
FULL = Profile("full", {}, model_seed=11, canvas=64, align_patch=8, train_scenes=16,
               train_steps=32, replay_scenes=48, replay_per_count=2,
               probe_scenes=3, gap_split_rows=170, grad_coords_per_group=2)

# make_toy_config's canvas-16 shape. make_split aligns squares to its patch
# argument, and at patch 8 a canvas-16 square is wider than its layout cell
# and rasterizes empty, so the toy corpus is aligned to patch 2.
SMOKE = Profile("smoke", dict(canvas=16, patch=8, local_res=8, max_seq=96,
                              d_model=16, n_heads=2, d_sem=8, d_pix=8,
                              lm_layers=1, enc_blocks=1),
                model_seed=2, canvas=16, align_patch=2, train_scenes=6, train_steps=8,
                replay_scenes=24, replay_per_count=1, probe_scenes=1,
                gap_split_rows=30, grad_coords_per_group=1)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    op_ms: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)   # check failures
    notes: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        done = self.attempted - self.failed
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (done / self.timed_s, "op/s"),
            "op_ms_p50": (float(np.percentile(self.op_ms, 50)), "ms"),
            "op_ms_p90": (float(np.percentile(self.op_ms, 90)), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- set-up ----------------------------------------------------------------

@dataclass
class Setup:
    dir: str
    vocab: Vocab
    cfg: RunConfig              # seeded-init checkpoint, data dir
    model: Model                # the init checkpoint, reloaded
    init: dict[str, np.ndarray]
    extra: dict


def _base_setup(profile: Profile, seed: int, workdir: str, n_train: int,
                n_eval: int) -> Setup:
    data = os.path.join(workdir, "data")
    scenes.make_split(seed, n_train, n_eval, data, canvas=profile.canvas,
                      patch=profile.align_patch)
    vocab = Vocab.load(os.path.join(data, "vocab.txt"))
    cfg = RunConfig(**profile.model, seed=profile.model_seed, data_dir=data,
                    checkpoint=os.path.join(workdir, "init.ckpt"),
                    out_dir=os.path.join(workdir, "out"))
    Model(cfg, vocab).save(cfg.checkpoint)
    model = training.load_model(cfg)
    init = {n: p.data.copy() for n, p in model.store.params.items()}
    return Setup(workdir, vocab, cfg, model, init, {})


def setup_train(profile: Profile, seed: int, workdir: str) -> Setup:
    s = _base_setup(profile, seed, workdir, profile.train_scenes, 0)
    s.extra["train_cfg"] = dataclasses.replace(
        s.cfg, stage=2, steps=profile.train_steps, seed=seed,
        init_checkpoint=s.cfg.checkpoint,
        checkpoint=os.path.join(workdir, "out", "stage2.ckpt"))
    return s


@dataclass
class Episode:
    sample_id: str
    image: np.ndarray
    instruction: list[int]
    regions: list
    script: list[int]


def describe_script(regions, vocab: Vocab) -> list[int]:
    """Ground-truth stream of a `describe interleaved` sample: per region
    seg, marker, bracketed description; then the end token."""
    script: list[int] = []
    for _, description in regions:
        script += [vocab.seg, vocab.image_id, vocab.p_open, *description,
                   vocab.p_close]
    return script + [vocab.eos]


def setup_replay(profile: Profile, seed: int, workdir: str) -> Setup:
    s = _base_setup(profile, seed, workdir, profile.replay_scenes, 0)
    samples = scenes.load_split(os.path.join(s.cfg.data_dir, "train"), s.vocab)
    by_count: dict[int, list] = {1: [], 2: [], 3: []}
    for sample in samples:
        if sample.task == "gcg":
            by_count[len(sample.regions)].append(sample)
    for n, found in by_count.items():
        if len(found) < profile.replay_per_count:
            raise RuntimeError(f"corpus has {len(found)} {n}-region describe "
                               f"samples, need {profile.replay_per_count}")
    s.extra["episodes"] = [
        Episode(x.sample_id, x.image, x.instruction, x.regions,
                describe_script(x.regions, s.vocab))
        for i in range(profile.replay_per_count) for n in (1, 2, 3)
        for x in [by_count[n][i]]]
    return s


def setup_probe(profile: Profile, seed: int, workdir: str) -> Setup:
    s = _base_setup(profile, seed, workdir, 0, profile.probe_scenes)
    eval_dir = os.path.join(s.cfg.data_dir, "eval")
    probes = attreval.build_probes(scenes.load_attr_records(eval_dir), s.vocab,
                                   seed)
    s.extra["probes"] = probes
    s.extra["images"] = {
        p.image: to_unit_float(read_ppm(os.path.join(eval_dir, p.image)))
        for p in probes}
    return s


SETUPS = {"train": setup_train, "replay": setup_replay, "probe": setup_probe}


# ---- train -----------------------------------------------------------------

class StepClock:
    """Timestamps the return of every ParamStore.adam_step: the only hook in
    an untraced train run. Consecutive stamps delimit optimizer steps."""

    def __init__(self, on_step=None):
        self.stamps: list[float] = []
        self.on_step = on_step
        self._original = None

    def install(self) -> None:
        original = self._original = ParamStore.adam_step
        stamps, on_step = self.stamps, self.on_step
        clock = time.perf_counter

        def adam_step(store, *args, **kwargs):
            out = original(store, *args, **kwargs)
            stamps.append(clock())
            if on_step is not None:
                on_step()
            return out
        ParamStore.adam_step = adam_step

    def uninstall(self) -> None:
        ParamStore.adam_step = self._original


def hook_cost_us(calls: int = 20000) -> float:
    """Extra wall time per call that StepClock adds to adam_step, measured on
    an empty store so the step itself costs next to nothing."""
    store = ParamStore()
    start = time.perf_counter()
    for _ in range(calls):
        store.adam_step(1e-3)
    bare = time.perf_counter() - start
    clock = StepClock()
    clock.install()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            store.adam_step(1e-3)
        hooked = time.perf_counter() - start
    finally:
        clock.uninstall()
    return 1e6 * (hooked - bare) / calls


def _read_log(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def run_train(profile: Profile, s: Setup, seconds: float,
              tracer: Tracer | None, out: Outcome) -> None:
    """Rounds of training.train from the seeded init. Round r draws its
    samples with seed `seed * 1000 + r`, so a run times distinct steps."""
    base = s.extra["train_cfg"]
    steps = base.steps

    def next_op():
        tracer.op += 1
    clock = StepClock(next_op if tracer is not None else None)
    clock.install()
    if tracer is not None:
        tracer.op = 0
    logs = []
    try:
        while out.timed_s < seconds or not logs:
            cfg = dataclasses.replace(base, seed=base.seed * 1000 + len(logs))
            log_path = os.path.join(s.dir, "out", f"round{len(logs)}.jsonl")
            clock.stamps.clear()
            start = time.perf_counter()
            try:
                training.train(cfg, log_path=log_path)
            except OP_ERRORS as exc:
                out.failed += steps
                out.notes.append(f"round {len(logs)} failed: {exc!r}")
            out.timed_s += time.perf_counter() - start
            out.attempted += steps
            out.op_ms.extend(1000.0 * np.diff(clock.stamps))
            logs.append((cfg, log_path))
    finally:
        clock.uninstall()
    out.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.active = False
    out.notes.append(f"step-clock hook: {hook_cost_us():.3f} us per step")
    if out.failed:
        return
    for r, (_, path) in enumerate(logs):
        out.failures += [f"round {r}: {m}"
                         for m in checks.check_loss_trend(_read_log(path))]
    first_cfg, first_path = logs[0]
    out.failures += train_model_checks(profile, s, first_cfg,
                                       _read_log(first_path))


def train_model_checks(profile: Profile, s: Setup, cfg: RunConfig,
                       log: list[dict]) -> list[str]:
    failures = []
    model = Model(s.cfg, s.vocab)
    model.load(s.cfg.checkpoint)
    samples = {x.sample_id: x for x in
               scenes.load_split(os.path.join(cfg.data_dir, "train"), s.vocab)}

    # step 0, forward only: nothing is trainable, so no tape is recorded
    model.store.set_trainable(())
    scale = 1.0 / cfg.batch
    means: dict[str, float] = {}
    for sid in log[0]["samples"]:
        for k, v in model.sample_loss(samples[sid]).scalars().items():
            means[k] = means.get(k, 0.0) + v * scale
    failures += checks.check_step0_losses(log[0], means)

    # one sample through the tape against central differences
    model.configure_trainable(cfg.stage)
    ids = log[0]["samples"]
    sample = next((samples[i] for i in ids if samples[i].ilvc
                   and samples[i].regions), samples[ids[0]])
    model.store.zero_grad()
    model.sample_loss(sample).total.backward()
    analytic = {n: p.grad.copy() for n, p in model.store.params.items()
                if p.requires_grad and p.grad is not None}
    coords = []
    for prefix in STAGE_PREFIXES[cfg.stage]:
        group = sorted((n for n in analytic if n.startswith(prefix)),
                       key=lambda n: -float(np.max(np.abs(analytic[n]))))
        for name in group[:profile.grad_coords_per_group]:
            index = int(np.argmax(np.abs(analytic[name])))
            coords.append((name, index,
                           float(model.store[name].data.flat[index])))

    def loss_at(name, index, value):
        data = model.store[name].data
        keep = data.flat[index]
        data.flat[index] = value
        try:
            return model.sample_loss(sample).total.item()
        finally:
            data.flat[index] = keep
    failures += checks.check_gradients(analytic, loss_at, coords)

    trained = Model(s.cfg, s.vocab)
    trained.load(cfg.checkpoint)
    failures += checks.check_checkpoint(
        s.init, {n: p.data for n, p in trained.store.params.items()},
        FROZEN, STAGE_PREFIXES[cfg.stage])
    return failures


# ---- replay ----------------------------------------------------------------

def run_replay(profile: Profile, s: Setup, seconds: float,
               tracer: Tracer | None, out: Outcome) -> None:
    episodes = s.extra["episodes"]
    first: list = []
    while out.timed_s < seconds or not first:
        results = []
        if tracer is not None:
            tracer.active = True
        for ep in episodes:
            if tracer is not None:
                tracer.op = out.attempted
            start = time.perf_counter()
            try:
                result = engine.run_scripted(s.model, ep.image, ep.instruction,
                                             ep.script, ilvc_enabled=True)
            except OP_ERRORS as exc:
                result = None
                out.notes.append(f"{ep.sample_id} failed: {exc!r}")
            elapsed = time.perf_counter() - start
            out.timed_s += elapsed
            out.attempted += 1
            if result is None or result.protocol_error is not None:
                out.failed += 1
            else:
                out.op_ms.append(1000.0 * elapsed)
            results.append(result)
        if tracer is not None:
            tracer.active = False
        if not first:
            first = results
            continue
        for ep, a, b in zip(episodes, first, results):
            if a is None or b is None:
                continue
            if a.trace != b.trace or not all(
                    np.array_equal(x, y) for x, y in zip(a.masks, b.masks)):
                out.failures.append(f"{ep.sample_id}: replay not repeatable")
    out.peak_rss_mb = peak_rss_mb()
    vocab, cfg = s.vocab, s.cfg
    for ep, result in zip(episodes, first):
        if result is None:
            continue
        want = checks.expected_kinds(ep.script, vocab.seg, vocab.image_id,
                                     vocab.eos)
        out.failures += [f"{ep.sample_id}: {m}" for m in checks.check_events(
            result.trace, len(result.masks), result.protocol_error, want)]
        out.failures += [f"{ep.sample_id}: {m}" for m in checks.check_crop_boxes(
            result.trace, result.masks, cfg.threshold)]
        if result.protocol_error is None:
            out.failures += [f"{ep.sample_id}: {m}" for m in checks.check_masks_match(
                result.masks, recompute_masks(s, ep, result.masks))]


def recompute_masks(s: Setup, ep: Episode, masks: list[np.ndarray]) -> list[np.ndarray]:
    """Each SEG mask from one full lm.forward over the prefix that ends at its
    seg slot, rebuilt with build_training_sequence from the engine's own
    binarized masks (the crops the engine spliced in)."""
    model, cfg = s.model, s.cfg
    f_g, f_p_raw = model.encode_image(ep.image)
    regions = [(m > cfg.threshold, desc)
               for m, (_, desc) in zip(masks, ep.regions)]
    out = []
    for k in range(len(regions)):
        seq = build_training_sequence(f_g, ep.instruction, regions[:k + 1],
                                      ep.image, model.store, cfg, s.vocab,
                                      ilvc=True)
        cut = next(i for i, e in enumerate(seq.elements)
                   if isinstance(e, SegSlot) and e.index == k + 1)
        del seq.elements[cut + 1:]
        _, states = lm.forward(seq, model.store, cfg)
        out.append(decode_mask(states[-1].hidden, f_p_raw, ep.image.shape[:2],
                               model.store).data)
    return out


# ---- probe -----------------------------------------------------------------

def run_probe(profile: Profile, s: Setup, seconds: float,
              tracer: Tracer | None, out: Outcome) -> None:
    probes, images, model = s.extra["probes"], s.extra["images"], s.model
    vocab = s.vocab
    head_w, head_b = model.store["lm.head.w"].data, model.store["lm.head.b"].data
    lexicons = {c: vocab.lexicon(c) for c in ("category", "color", "location")}
    first = None
    rounds = 0
    while out.timed_s < seconds or not rounds:
        answers, states = {}, {}
        if tracer is not None:
            tracer.active = True
        round_start = time.perf_counter()
        for p in probes:
            if tracer is not None:
                tracer.op = out.attempted
            image = images[p.image]
            start = time.perf_counter()
            out.attempted += 1
            try:
                pair = (training.answer_question(model, image, p.question_pos),
                        training.answer_question(model, image, p.question_neg))
                state = training.seg_state_for(model, image, p.referring)
            except OP_ERRORS as exc:
                out.failed += 1
                out.notes.append(f"probe {probe_key(p)} failed: {exc!r}")
                continue
            out.op_ms.append(1000.0 * (time.perf_counter() - start))
            answers[probe_key(p)] = pair
            states[probe_key(p)] = state
        complete = len(answers) == len(probes)
        if complete:
            vqa = score_vqa(probes, answers)
            acc1, acc3 = score_logits(probes, states, vocab)
        out.timed_s += time.perf_counter() - round_start
        if tracer is not None:
            tracer.active = False
        rounds += 1
        if not complete:
            continue
        out.failures += checks.check_answers(answers, vocab.tokens)
        logits = {k: st.logits.data for k, st in states.items()}
        counted = checks.recount(probes, answers, logits, vocab.id_of, lexicons)
        out.failures += checks.check_scores((vqa, acc1, acc3), counted)
        out.failures += checks.check_seg_logits(
            {k: (st.hidden.data, st.logits.data) for k, st in states.items()},
            head_w, head_b)
        summary = (answers, {k: v.copy() for k, v in logits.items()},
                   (vqa, acc1, acc3))
        if first is None:
            first = summary
        elif summary[0] != first[0] or summary[2] != first[2] or any(
                not np.array_equal(first[1][k], v) for k, v in summary[1].items()):
            out.failures.append(f"probe round {rounds - 1} differs from round 0")
        del answers, states, logits
    out.peak_rss_mb = peak_rss_mb()
    if first is not None:
        out.notes.append(f"probe scores (each round): vqa {first[2][0]:.4f} "
                         f"acc1 {first[2][1]:.4f} acc3 {first[2][2]:.4f}")


RUNS = {"train": run_train, "replay": run_replay, "probe": run_probe}


# ---- one run -----------------------------------------------------------------

def run(workload: str, profile: Profile, seed: int, seconds: float,
        workroot: str, tracer: Tracer | None = None) -> Outcome:
    """Set up SETUP_REPEATS times (median is setup_s), then time rounds of
    the workload for `seconds` and check the outputs."""
    out = Outcome()
    os.makedirs(workroot, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
            tracer.active = True
        s = None
        for k in range(SETUP_REPEATS):
            workdir = os.path.join(workroot, f"setup{k}")
            start = time.perf_counter()
            s = SETUPS[workload](profile, seed, workdir)
            out.setup_s.append(time.perf_counter() - start)
            if k + 1 < SETUP_REPEATS:
                shutil.rmtree(workdir)
        if tracer is not None:
            tracer.op = 0
        RUNS[workload](profile, s, seconds, tracer, out)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    return out
