"""Named parameter store: trainability masks, Adam, checkpoints, grad checking.

Parameters live in an insertion-ordered dict of name -> Tensor. Name prefixes
partition the model into groups (``sem_enc.``, ``lm.``, ...), which is what
the stage schedule toggles via `set_trainable`.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .tensor import Tensor

_CKPT_MAGIC = b"SLCK0001"
_ADAM_MAGIC = b"ADAM0001"


class CheckpointError(ValueError):
    """A checkpoint file that is malformed, truncated or does not match the
    registered parameters."""


class ParamStore:
    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t = 0
        self._memo: dict[tuple[str, ...], dict] = {}   # see `frozen_memo`

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self.params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return list(self.params.keys())

    def frozen_memo(self, prefixes: tuple[str, ...]) -> dict | None:
        """The memo for outputs that depend only on the parameters under
        `prefixes`, or None while any of them requires grad. That call also
        drops the group's entries, so none is read after its parameters
        could train, even when `requires_grad` was set directly;
        `set_trainable` and `load` drop every group."""
        if any(p.requires_grad and n.startswith(prefixes)
               for n, p in self.params.items()):
            self._memo.pop(prefixes, None)
            return None
        return self._memo.setdefault(prefixes, {})

    # -- trainability / optimization ----------------------------------------

    def set_trainable(self, prefixes: list[str] | tuple[str, ...]) -> list[str]:
        """Mark exactly the params whose name starts with any prefix trainable.

        Every other parameter gets requires_grad=False so the tape never
        reaches it. Returns the trainable names, in insertion order.
        """
        self._memo.clear()   # a parameter may train now
        chosen = []
        for name, p in self.params.items():
            on = any(name.startswith(pre) for pre in prefixes)
            p.requires_grad = on
            if not on:
                p.grad = None
            if on:
                chosen.append(name)
        return chosen

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def adam_step(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
        """Adam update over trainable params that received a gradient.

        One shared step counter drives bias correction; moment buffers are
        lazily created per parameter and never touch frozen ones.
        """
        self._adam_t += 1
        c1 = 1.0 - beta1 ** self._adam_t
        c2 = 1.0 - beta2 ** self._adam_t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            m = self._adam_m.get(name)
            if m is None:
                m = self._adam_m[name] = np.zeros_like(p.data)
                self._adam_v[name] = np.zeros_like(p.data)
            v = self._adam_v[name]
            m *= beta1
            m += (1.0 - beta1) * p.grad
            v *= beta2
            v += (1.0 - beta2) * p.grad * p.grad
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

    # -- checkpoint codec ----------------------------------------------------

    def save(self, path: str) -> None:
        """Binary dump: magic, count, then (name, shape, raw f64le) records.

        The Adam section always follows: its magic, the shared step counter
        and the per-parameter moment pairs (0 and none before the first
        step), so a warm start continues the optimizer exactly where it
        stopped. The file is written beside `path` and renamed over it, so a
        failed write never leaves a half-written checkpoint under that name.
        """
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(_CKPT_MAGIC)
                f.write(struct.pack("<I", len(self.params)))
                for name, p in self.params.items():
                    nb = name.encode("utf-8")
                    f.write(struct.pack("<I", len(nb)))
                    f.write(nb)
                    f.write(struct.pack("<I", p.data.ndim))
                    for d in p.data.shape:
                        f.write(struct.pack("<I", d))
                    f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
                f.write(_ADAM_MAGIC)
                f.write(struct.pack("<I", self._adam_t))
                f.write(struct.pack("<I", len(self._adam_m)))
                for name, m in self._adam_m.items():
                    nb = name.encode("utf-8")
                    f.write(struct.pack("<I", len(nb)))
                    f.write(nb)
                    f.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
                    f.write(np.ascontiguousarray(self._adam_v[name],
                                                 dtype="<f8").tobytes())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):   # the write failed: drop the partial file
                os.unlink(tmp)

    def load(self, path: str) -> None:
        """Restore parameters and the Adam state bit-exactly into
        already-registered parameters.

        The whole file is read and checked before anything is assigned, so a
        malformed file, or one cut at any byte, raises CheckpointError and
        leaves every parameter and the optimizer state as they were.
        """
        with open(path, "rb") as f:
            def read(n: int) -> bytes:
                raw = f.read(n)
                if len(raw) != n:
                    raise CheckpointError(f"{path}: truncated, wanted {n} "
                                          f"bytes, found {len(raw)}")
                return raw

            def u32() -> int:
                return struct.unpack("<I", read(4))[0]

            def values(shape: tuple[int, ...]) -> np.ndarray:
                size = int(np.prod(shape)) if shape else 1
                return np.frombuffer(read(8 * size), dtype="<f8").reshape(shape).copy()

            if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
                raise CheckpointError(f"not a checkpoint file: {path}")
            params: dict[str, np.ndarray] = {}
            for _ in range(u32()):
                name = read(u32()).decode("utf-8", "replace")
                shape = tuple(u32() for _ in range(u32()))
                if name not in self.params:
                    raise CheckpointError(f"checkpoint has unknown parameter {name}")
                if name in params:
                    raise CheckpointError(f"checkpoint repeats parameter {name}")
                if self.params[name].data.shape != shape:
                    raise CheckpointError(
                        f"checkpoint shape mismatch for {name}: "
                        f"{shape} vs {self.params[name].data.shape}")
                params[name] = values(shape)
            missing = set(self.params) - set(params)
            if missing:
                raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)}")
            if f.read(len(_ADAM_MAGIC)) != _ADAM_MAGIC:
                raise CheckpointError(f"{path}: no optimizer state after the parameters")
            adam_t, adam_m, adam_v = u32(), {}, {}
            for _ in range(u32()):
                name = read(u32()).decode("utf-8", "replace")
                if name not in self.params:
                    raise CheckpointError(
                        f"checkpoint optimizer state for unknown parameter {name}")
                if name in adam_m:
                    raise CheckpointError(f"checkpoint repeats Adam state for {name}")
                shape = self.params[name].data.shape
                adam_m[name], adam_v[name] = values(shape), values(shape)
            if f.read(1):
                raise CheckpointError(f"{path}: bytes after the optimizer state")
        for name, arr in params.items():
            self.params[name].data = arr
        self._adam_t, self._adam_m, self._adam_v = adam_t, adam_m, adam_v
        self._memo.clear()   # memoized outputs would be stale


def grad_check(store: ParamStore, loss_fn, h: float = 1e-5,
               sample_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> dict:
    """Compare tape gradients against central finite differences.

    loss_fn: () -> Tensor scalar, re-run from scratch each call so the
    perturbed parameter value is actually consulted.

    sample_per_param=None checks every scalar; an integer checks that many
    randomly chosen coordinates per parameter tensor (still touching every
    tensor). Returns {"max_rel_err", "worst_param", "checked"}.
    """
    store.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in store.params.items() if p.requires_grad}

    max_rel = 0.0
    worst = None
    checked = 0
    for name, p in store.params.items():
        if not p.requires_grad:
            continue
        flat = p.data.reshape(-1)
        n = flat.size
        if sample_per_param is None or sample_per_param >= n:
            coords = range(n)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=sample_per_param, replace=False)
        ga = analytic[name].reshape(-1)
        for i in coords:
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn().item()
            flat[i] = keep - h
            down = loss_fn().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(ga[i]), abs(numeric), 1e-4)
            rel = abs(ga[i] - numeric) / denom
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, int(i), float(ga[i]), float(numeric))
    store.zero_grad()
    return {"max_rel_err": max_rel, "worst_param": worst, "checked": checked}
