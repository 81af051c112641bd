"""Print the cost of one cached 1-row decode step against the context length.

    PYTHONPATH=src python tools/decode_cost.py

Builds the seeded `RunConfig(seed=11)` model at the default shape, frozen as
`training.load_model` leaves it, prefills a random image with the `describe
interleaved` prompt through `engine.prefill`, and fills the context with text
rows up to one row short of each length. A step appends one text row and runs
`lm.forward` for it on that length's cache, as a decoding episode does; then
the row is cut from the sequence and the cache's filled count set back, so
every step of a round runs at the same length. Each round works on a fresh
fork of the cache, made outside the timed region, and the lengths alternate
in rounds so that drift hits them alike.

Prints one JSON line: the median microseconds of a step at 140, 250 and 350
context rows, the 350/140 ratio, and the machine, the Python, numpy and BLAS
versions and the BLAS thread count.
"""

from __future__ import annotations

import os

# OpenBLAS reads its thread count once, when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from seglang import engine, lm  # noqa: E402
from seglang.config import RunConfig  # noqa: E402
from seglang.model import Model  # noqa: E402
from seglang.scenes import default_vocab  # noqa: E402
from seglang.sequence import InterleavedSequence  # noqa: E402

LENGTHS = (140, 250, 350)
ROUNDS = 20
STEPS = 50   # per length and round


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> None:
    cfg = RunConfig(seed=11)
    vocab = default_vocab()
    model = Model(cfg, vocab)
    model.store.set_trainable(())
    image = np.random.default_rng(cfg.seed).random((cfg.canvas, cfg.canvas, 3))
    word = vocab.encode("the")[0]
    seq, _, cache, _ = engine.prefill(
        model, image, engine.prompt_template("gcg", True, vocab))
    filled = {}   # context length -> a sequence and cache of its first length - 1 rows
    for n in LENGTHS:
        while len(seq) < n - 1:
            seq.append_text(word, supervised=False)
        lm.forward(seq, model.store, cfg, cache, rows=[len(seq) - 1])
        own = InterleavedSequence(vocab)
        own.elements = list(seq.elements)
        len(own)   # its views are built here, outside the timed region
        filled[n] = (own, cache.fork())
    times: dict[int, list[float]] = {n: [] for n in LENGTHS}
    for _ in range(ROUNDS):
        for n in LENGTHS:
            own, base = filled[n]
            step_cache = base.fork()
            for _ in range(STEPS):
                start = time.perf_counter()
                own.append_text(word, supervised=False)
                lm.forward(own, model.store, cfg, step_cache, rows=[len(own) - 1])
                times[n].append(1e6 * (time.perf_counter() - start))
                del own.elements[-1:]
                step_cache.length = n - 1   # the next step overwrites the row
    step_us = {str(n): round(statistics.median(times[n]), 1) for n in LENGTHS}
    print(json.dumps({
        "step_us": step_us,
        "ratio_350_140": round(step_us["350"] / step_us["140"], 3),
        "steps_per_length": ROUNDS * STEPS,
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, {platform.system()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }))


if __name__ == "__main__":
    main()
