"""Parameter store: trainability, Adam, checkpoint codec, grad_check."""

import numpy as np
import pytest

from seglang.store import CheckpointError, ParamStore, grad_check
from seglang.tensor import Tensor, add, mul, tsum


def small_store():
    store = ParamStore()
    store.add("enc.w", Tensor(np.arange(6, dtype=np.float64).reshape(2, 3)))
    store.add("enc.b", Tensor(np.zeros(3)))
    store.add("head.w", Tensor(np.ones((3, 1))))
    store.add("head.s", Tensor(2.5))  # 0-d parameter must survive the codec
    return store


def test_add_marks_trainable_and_rejects_duplicates():
    store = small_store()
    assert all(p.requires_grad for p in store.params.values())
    with pytest.raises(ValueError, match="duplicate"):
        store.add("enc.w", Tensor(np.zeros(2)))
    assert store.names() == ["enc.w", "enc.b", "head.w", "head.s"]


def test_set_trainable_prefix_partition():
    store = small_store()
    store["head.w"].grad = np.ones((3, 1))
    chosen = store.set_trainable(("enc.",))
    assert chosen == ["enc.w", "enc.b"]
    assert not store["head.w"].requires_grad
    assert store["head.w"].grad is None  # frozen params drop stale grads
    assert store["enc.w"].requires_grad


def test_frozen_memo_serves_a_group_only_while_it_is_frozen(tmp_path):
    store = small_store()
    path = str(tmp_path / "s.ckpt")
    store.save(path)
    store.set_trainable(("head.",))
    enc = store.frozen_memo(("enc.",))
    enc["out"] = 1
    assert store.frozen_memo(("enc.",)) is enc
    assert store.frozen_memo(("head.",)) is None
    assert store.frozen_memo(("enc.", "head.")) is None
    store["enc.b"].requires_grad = True      # set directly: the call drops it
    assert store.frozen_memo(("enc.",)) is None
    store["enc.b"].requires_grad = False
    assert store.frozen_memo(("enc.",)) == {}
    for drop in (lambda: store.set_trainable(("head.",)), lambda: store.load(path)):
        store.frozen_memo(("enc.",))["out"] = 1
        drop()
        assert store.frozen_memo(("enc.",)) == {}


def test_adam_matches_manual_recurrence():
    store = ParamStore()
    store.add("w", Tensor(np.zeros(2)))
    g1 = np.array([1.0, -2.0])
    g2 = np.array([0.5, 0.25])
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8

    x = np.zeros(2)
    m = v = np.zeros(2)
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    store["w"].grad = g1.copy()
    store.adam_step(lr)
    store["w"].grad = g2.copy()
    store.adam_step(lr)
    assert np.allclose(store["w"].data, x, atol=1e-15)


def test_adam_skips_frozen_and_gradless_params():
    store = small_store()
    store.set_trainable(("enc.",))
    store["enc.w"].grad = np.ones((2, 3))
    store["head.w"].grad = np.ones((3, 1))  # frozen: must be ignored
    before_b = store["enc.b"].data.copy()
    before_head = store["head.w"].data.copy()
    store.adam_step(lr=0.1)
    assert np.array_equal(store["enc.b"].data, before_b)
    assert np.array_equal(store["head.w"].data, before_head)
    # first step of Adam moves every touched coordinate by almost exactly lr
    moved = np.arange(6, dtype=np.float64).reshape(2, 3) - store["enc.w"].data
    assert np.allclose(moved, 0.1, atol=1e-6)


def test_zero_grad_clears_everything():
    store = small_store()
    for p in store.params.values():
        p.grad = np.zeros_like(p.data)
    store.zero_grad()
    assert all(p.grad is None for p in store.params.values())


# ---- checkpoint codec -------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path):
    store = small_store()
    rng = np.random.default_rng(0)
    for p in store.params.values():
        p.data = rng.standard_normal(p.data.shape)
    path = str(tmp_path / "a.ckpt")
    store.save(path)
    saved = {k: p.data.copy() for k, p in store.params.items()}
    for p in store.params.values():
        p.data = np.zeros_like(p.data)
    store.load(path)
    for k in saved:
        assert np.array_equal(store[k].data, saved[k]), k


def test_checkpoint_bytes_deterministic(tmp_path):
    store = small_store()
    p1, p2 = str(tmp_path / "x1.ckpt"), str(tmp_path / "x2.ckpt")
    store.save(p1)
    store.save(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_resumes_adam_state(tmp_path):
    """Save/load mid-run must equal an uninterrupted Adam trajectory."""
    def fresh():
        store = ParamStore()
        store.add("w", Tensor(np.array([0.3, -0.7, 1.1])))
        return store

    grads = [np.array([1.0, -2.0, 0.5]),
             np.array([0.25, 0.75, -1.0]),
             np.array([-0.5, 0.1, 0.9])]

    straight = fresh()
    for g in grads:
        straight["w"].grad = g.copy()
        straight.adam_step(lr=0.05)

    interrupted = fresh()
    for g in grads[:2]:
        interrupted["w"].grad = g.copy()
        interrupted.adam_step(lr=0.05)
    path = str(tmp_path / "mid.ckpt")
    interrupted.save(path)

    resumed = fresh()
    resumed.load(path)
    resumed["w"].grad = grads[2].copy()
    resumed.adam_step(lr=0.05)
    assert np.array_equal(resumed["w"].data, straight["w"].data)

    # a checkpoint written before any Adam step carries an empty optimizer
    # section (step 0, no moments), and loading it resets stale state
    cold = fresh()
    cold_path = str(tmp_path / "cold.ckpt")
    cold.save(cold_path)
    cold_bytes = open(cold_path, "rb").read()
    assert cold_bytes[-16:] == b"ADAM0001" + bytes(8)
    warm = fresh()
    warm["w"].grad = grads[0].copy()
    warm.adam_step(lr=0.05)
    warm.load(cold_path)
    assert warm._adam_t == 0 and not warm._adam_m and not warm._adam_v

    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(cold_bytes + b"XXXX9999glop")
    with pytest.raises(CheckpointError, match="bytes after the optimizer state"):
        fresh().load(str(junk))

    # the parameter records alone, as older code saved a never-stepped store,
    # lack the mandatory optimizer section
    junk.write_bytes(cold_bytes[:-16])
    with pytest.raises(CheckpointError, match="no optimizer state"):
        resumed.load(str(junk))
    assert resumed._adam_t == 3   # a failed load keeps the optimizer state


def test_checkpoint_validation(tmp_path):
    src = small_store()
    path = str(tmp_path / "src.ckpt")
    src.save(path)

    extra = small_store()
    extra.add("new.w", Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="missing"):
        extra.load(path)

    fewer = ParamStore()
    fewer.add("enc.w", Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="unknown"):
        fewer.load(path)

    reshaped = small_store()
    reshaped["enc.b"].data = np.zeros(4)
    with pytest.raises(ValueError, match="shape mismatch"):
        reshaped.load(path)

    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError, match="not a checkpoint"):
        small_store().load(str(junk))


def stepped_store(seed):
    """small_store with random values and two Adam steps on some params."""
    store = small_store()
    rng = np.random.default_rng(seed)
    for p in store.params.values():
        p.data = rng.standard_normal(p.data.shape)
    store.set_trainable(("enc.", "head.s"))
    for _ in range(2):
        for name in ("enc.w", "head.s"):
            store[name].grad = rng.standard_normal(store[name].data.shape)
        store.adam_step(lr=0.1)
    store.set_trainable(("enc.", "head."))
    return store


def record_ends(store):
    """Byte offset where each field group of a saved checkpoint ends: the
    header, every parameter record, the optimizer header, every moment pair."""
    pos = 8 + 4
    ends = [pos]
    for name, p in store.params.items():
        pos += 4 + len(name) + 4 + 4 * p.data.ndim + 8 * p.data.size
        ends.append(pos)
    pos += 8 + 4 + 4
    ends.append(pos)
    for name, m in store._adam_m.items():
        pos += 4 + len(name) + 16 * m.size
        ends.append(pos)
    return ends


def snapshot(store):
    return ({n: p.data.copy() for n, p in store.params.items()},
            store._adam_t,
            {n: (m.copy(), store._adam_v[n].copy())
             for n, m in store._adam_m.items()})


def assert_same_state(a, b):
    (pa, ta, ma), (pb, tb, mb) = a, b
    assert pa.keys() == pb.keys() and ta == tb and ma.keys() == mb.keys()
    assert all(np.array_equal(pa[n], pb[n]) for n in pa)
    assert all(np.array_equal(ma[n][i], mb[n][i]) for n in ma for i in (0, 1))


def test_truncated_checkpoint_leaves_the_store_unchanged(tmp_path):
    src = stepped_store(3)
    path = tmp_path / "full.ckpt"
    src.save(str(path))
    data = path.read_bytes()
    ends = record_ends(src)
    assert ends[-1] == len(data)
    rng = np.random.default_rng(7)
    cuts = sorted(set(ends[:-1]) | {0, 3, 10}
                  | set(rng.integers(1, len(data), 40).tolist()))
    victim = stepped_store(4)
    victim["enc.b"].requires_grad = False
    victim.frozen_memo(("enc.b",))["kept"] = 1
    before = snapshot(victim)
    cut_path = tmp_path / "cut.ckpt"
    assert ends[len(src.params)] in cuts   # the cut before the optimizer state
    for cut in cuts:
        cut_path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            victim.load(str(cut_path))
        assert_same_state(snapshot(victim), before)
        assert victim.frozen_memo(("enc.b",)) == {"kept": 1}   # a failed load keeps it
    # extra bytes after the optimizer state are refused as well
    cut_path.write_bytes(data + b"\0")
    with pytest.raises(CheckpointError, match="after the optimizer state"):
        victim.load(str(cut_path))
    assert_same_state(snapshot(victim), before)

    victim.load(str(path))
    assert victim.frozen_memo(("enc.b",)) == {}
    assert_same_state(snapshot(victim), snapshot(src))


def test_checkpoint_naming_a_parameter_twice_is_refused(tmp_path):
    def stepped(seed):
        store = ParamStore()
        rng = np.random.default_rng(seed)
        store.add("a", Tensor(rng.standard_normal(3)))
        store.add("b", Tensor(rng.standard_normal((2, 2))))
        for _ in range(2):
            for p in store.params.values():
                p.grad = rng.standard_normal(p.data.shape)
            store.adam_step(lr=0.1)
        return store

    path = tmp_path / "two.ckpt"
    stepped(1).save(str(path))
    data = path.read_bytes()
    a_rec = 4 + 1 + 4 + 4 + 8 * 3                # the record of "a"
    b_rec = 4 + 1 + 4 + 8 + 8 * 4
    params_end = 12 + a_rec + b_rec
    adam_head = 8 + 4 + 4                        # magic, step, count
    a_pair = 4 + 1 + 16 * 3
    assert len(data) == params_end + adam_head + a_pair + 4 + 1 + 16 * 4
    # count 3 with "a" written twice: every parameter is still present
    twice_a = (data[:8] + (3).to_bytes(4, "little") + data[12:params_end]
               + data[12:12 + a_rec] + data[params_end:])
    # the Adam section lists "a" twice and leaves "b" out
    adam_a = params_end + adam_head
    twice_moments = data[:adam_a + a_pair] + data[adam_a:adam_a + a_pair]
    victim = stepped(2)
    before = snapshot(victim)
    for raw, match in ((twice_a, "repeats parameter a"),
                       (twice_moments, "repeats Adam state for a")):
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match=match):
            victim.load(str(path))
        assert_same_state(snapshot(victim), before)


def test_checkpoint_save_replaces_the_file_whole(tmp_path):
    path = tmp_path / "a.ckpt"
    stepped_store(5).save(str(path))
    saved = path.read_bytes()
    broken = stepped_store(6)
    broken["head.s"].data = np.array("not a float")  # the last record fails
    with pytest.raises(ValueError):
        broken.save(str(path))
    assert path.read_bytes() == saved
    assert [f.name for f in tmp_path.iterdir()] == ["a.ckpt"]  # no partial file left


# ---- finite-difference checker ----------------------------------------------

def test_grad_check_full_and_sampled():
    store = ParamStore()
    rng = np.random.default_rng(1)
    store.add("w", Tensor(rng.standard_normal((3, 2))))
    store.add("b", Tensor(rng.standard_normal(2)))

    def loss():
        out = add(mul(store["w"], store["w"]), mul(store["b"], 0.5))
        return tsum(out)

    full = grad_check(store, loss)
    assert full["checked"] == 8
    assert full["max_rel_err"] < 1e-6, full["worst_param"]

    sub = grad_check(store, loss, sample_per_param=1,
                     rng=np.random.default_rng(5))
    assert sub["checked"] == 2
    assert sub["max_rel_err"] < 1e-6


def test_grad_check_restores_values_and_clears_grads():
    store = ParamStore()
    store.add("w", Tensor(np.array([1.0, 2.0])))
    before = store["w"].data.copy()
    grad_check(store, lambda: tsum(mul(store["w"], store["w"])))
    assert np.array_equal(store["w"].data, before)
    assert store["w"].grad is None
