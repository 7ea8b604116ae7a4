import contextlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cfgsentinel import nn

import oracles
from conftest import subprocess_env


def signature(model, Xs):
    """Activation-region fingerprint of the forward pass over Xs that
    `loss_and_grads(Xs, y)` runs: the ReLU sign patterns and pool argmaxes,
    read from the caches the layers return.  Central differences are only
    meaningful when the whole stencil stays in one region, i.e. when this
    fingerprint is unchanged at theta +/- h."""
    x = Xs[:, None, :] if model.arch == "cnn" else Xs
    sigs = []
    for layer in model.layers:
        x, cache = layer.forward(x, None)
        if isinstance(layer, nn.ReLU):
            sigs.append(cache.tobytes())
        elif isinstance(layer, nn.MaxPool1D):
            sigs.append(cache[0].tobytes())
    return tuple(sigs)


def finite_difference_check(arch, seed, per_tensor=6, h=1e-4, batch=4):
    model = nn.build_model(arch, 23, ("A", "B", "C"), seed=seed)
    for layer in model.layers:
        if isinstance(layer, nn.Dropout):
            layer.p = 0.0
    rng = np.random.default_rng(seed + 500)
    Xs = rng.uniform(0.05, 0.95, size=(batch, 23))
    y = rng.integers(0, 3, size=batch)
    model.loss_and_grads(Xs, y)
    sig0 = signature(model, Xs)
    grads = [g.copy() for g in model.grad_arrays()]
    worst = 0.0
    for P, G in zip(model.param_arrays(), grads):
        flat = P.ravel()
        want = min(per_tensor, flat.size)
        num, ana = [], []
        for i in rng.permutation(flat.size):
            if len(num) >= want:
                break
            orig = flat[i]
            flat[i] = orig + h
            lp = model.loss_and_grads(Xs, y)
            sp = signature(model, Xs)
            flat[i] = orig - h
            lm = model.loss_and_grads(Xs, y)
            sm = signature(model, Xs)
            flat[i] = orig
            if sp != sig0 or sm != sig0:
                continue  # stencil straddles a ReLU/pool kink: not comparable
            num.append((lp - lm) / (2 * h))
            ana.append(G.ravel()[i])
        assert len(num) >= want, "too few kink-free stencils"
        num, ana = np.array(num), np.array(ana)
        rel = np.linalg.norm(num - ana) / max(
            np.linalg.norm(num), np.linalg.norm(ana), 1e-12)
        worst = max(worst, rel)
    return worst


class TestShapes:
    def test_width_chain_for_23(self):
        assert nn.cnn_width_chain(23) == [23, 23, 21, 10, 10, 8, 4]
        assert nn.cnn_flatten_width(23) == 368

    def test_narrow_input_rejected(self):
        with pytest.raises(nn.ModelIOError):
            nn.cnn_width_chain(4)

    def test_internal_activation_shapes(self):
        m = nn.build_model("cnn", 23, ("A", "B"), seed=0)
        x = np.zeros((2, 1, 23))
        widths = []
        for layer in m.layers:
            x = layer.forward(x, None)[0]
            if x.ndim == 3:
                widths.append(x.shape[2])
            elif isinstance(layer, nn.Flatten):
                assert x.shape == (2, 368)
        assert widths[:2] == [23, 21] or widths[0] == 23
        assert x.shape == (2, 2)  # final logits

    def test_odd_width_pool_truncates(self):
        pool = nn.MaxPool1D()
        x = np.arange(2 * 3 * 21, dtype=float).reshape(2, 3, 21)
        y, _ = pool.forward(x, None)
        assert y.shape == (2, 3, 10)


class TestSoftmaxAndProbs:
    def test_rows_sum_to_one(self, rng):
        m = nn.build_model("dnn", 23, ("A", "B", "C"), seed=1)
        m.scaler_min = np.zeros(23)
        m.scaler_max = np.ones(23)
        X = rng.uniform(size=(17, 23))
        p = m.predict_proba(X)
        assert p.shape == (17, 3)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_weights_uniform(self):
        m = nn.build_model("cnn", 23, ("A", "B", "C", "D"), seed=0)
        for P in m.param_arrays():
            P[...] = 0.0
        m.scaler_min = np.zeros(23)
        m.scaler_max = np.ones(23)
        p = m.predict_proba(np.random.default_rng(0).uniform(size=(5, 23)))
        assert np.allclose(p, 0.25)

    def test_softmax_overflow_safe(self):
        p = nn.softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0)


class TestGradients:
    @pytest.mark.parametrize("arch", nn.ARCHITECTURES)
    def test_matches_finite_differences(self, arch):
        worst = finite_difference_check(arch, seed=3)
        assert worst <= 1e-3, f"{arch}: rel error {worst}"

    @pytest.mark.parametrize("arch", nn.ARCHITECTURES)
    def test_matches_on_second_seed(self, arch):
        worst = finite_difference_check(arch, seed=11)
        assert worst <= 1e-3


class TestScaler:
    def test_maps_to_unit_interval(self, rng):
        X = rng.normal(size=(30, 5)) * 10
        mn, mx = nn.fit_scaler(X)
        Xs = nn.apply_scaler(X, mn, mx)
        assert Xs.min() >= 0.0 and Xs.max() <= 1.0
        assert np.isclose(Xs.min(), 0.0) and np.isclose(Xs.max(), 1.0)

    def test_constant_column_zero(self):
        X = np.ones((4, 2))
        X[:, 1] = [1, 2, 3, 4]
        mn, mx = nn.fit_scaler(X)
        Xs = nn.apply_scaler(X, mn, mx)
        assert np.all(Xs[:, 0] == 0.0)

    def test_unseen_values_clamp(self):
        X = np.array([[0.0], [10.0]])
        mn, mx = nn.fit_scaler(X)
        out = nn.apply_scaler(np.array([[-5.0], [15.0]]), mn, mx)
        assert out[0, 0] == 0.0 and out[1, 0] == 1.0

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("width", [23, 300])
    def test_matches_masked_oracle_bit_for_bit(self, batch, width):
        rng = np.random.default_rng(batch * 1000 + width)
        for trial in range(20):
            mins = rng.normal(size=width) * 10.0 ** rng.integers(-3, 4)
            maxs = mins + rng.exponential(size=width) * 10.0 ** rng.integers(-3, 4)
            kind = rng.integers(0, 3, size=width)
            maxs[kind == 1] = mins[kind == 1]  # constant columns
            if trial % 2:
                maxs[kind == 2] = mins[kind == 2] - 1.0  # min > max, as a checkpoint may hold
            # values inside, below and above each column's range, and on its ends
            X = mins + (maxs - mins) * rng.uniform(-0.5, 1.5, size=(batch, width))
            X[:, ::7] = mins[::7]
            X[:, 3::7] = maxs[3::7]
            got = nn.apply_scaler(X, mins, maxs)
            want = oracles.masked_apply_scaler(X, mins, maxs)
            assert got.tobytes() == want.tobytes(), trial
            assert not np.any(got[:, maxs <= mins])


class TestTraining:
    def separable_toy(self, n=64):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(n, 23))
        y = (X[:, 0] > 0.5).astype(int)
        X[y == 1, 0] += 1.0  # widen the margin
        return X, y

    def test_separable_toy_accuracy(self):
        X, y = self.separable_toy()
        m = nn.train(X, y, ("neg", "pos"), arch="dnn", seed=0, epochs=100,
                     batch_size=32)
        acc = (m.predict(X) == y).mean()
        assert acc >= 0.95
        assert m.loss_history[-1] <= m.loss_history[0]

    def test_bit_reproducible(self):
        X, y = self.separable_toy(40)
        a = nn.train(X, y, ("n", "p"), arch="cnn", seed=9, epochs=3, batch_size=8)
        b = nn.train(X, y, ("n", "p"), arch="cnn", seed=9, epochs=3, batch_size=8)
        assert a.loss_history == b.loss_history
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(pa, pb)

    def test_seed_changes_weights(self):
        X, y = self.separable_toy(40)
        a = nn.train(X, y, ("n", "p"), arch="dnn", seed=1, epochs=2, batch_size=8)
        b = nn.train(X, y, ("n", "p"), arch="dnn", seed=2, epochs=2, batch_size=8)
        assert any(not np.array_equal(pa, pb)
                   for pa, pb in zip(a.param_arrays(), b.param_arrays()))

    def test_missing_class_rejected(self):
        X = np.random.default_rng(0).uniform(size=(10, 23))
        y = np.zeros(10, dtype=int)
        with pytest.raises(nn.TrainingError):
            nn.train(X, y, ("a", "b"), arch="dnn", epochs=1)

    def test_label_out_of_range_rejected(self):
        X = np.random.default_rng(0).uniform(size=(4, 23))
        y = np.array([0, 1, 2, 1])
        with pytest.raises(nn.TrainingError):
            nn.train(X, y, ("a", "b"), arch="dnn", epochs=1)

    def test_shape_mismatch_rejected(self):
        X = np.zeros((4, 23))
        with pytest.raises(nn.TrainingError):
            nn.train(X, np.zeros(3, dtype=int), ("a", "b"), epochs=1)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"arch": "rnn"}, "unknown architecture: 'rnn'", id="arch"),
        pytest.param({"epochs": 0}, "epochs and batch_size", id="no_epochs"),
        pytest.param({"epochs": -2}, "epochs and batch_size", id="negative_epochs"),
        pytest.param({"epochs": 2.5}, "epochs and batch_size", id="float_epochs"),
        pytest.param({"batch_size": 0}, "epochs and batch_size", id="no_batch"),
        pytest.param({"lr": 0.0}, "lr must be", id="zero_lr"),
        pytest.param({"lr": -1e-3}, "lr must be", id="negative_lr"),
        pytest.param({"lr": math.nan}, "lr must be", id="nan_lr"),
        pytest.param({"lr": math.inf}, "lr must be", id="inf_lr"),
    ])
    def test_bad_arguments_refused_before_any_work(self, monkeypatch, kwargs, message):
        # the `[train]` rules of `experiment.settings`, for library callers
        monkeypatch.setattr(nn, "build_model", lambda *a: pytest.fail("training started"))
        X, y = self.separable_toy(8)
        with pytest.raises(nn.TrainingError, match=message):
            nn.train(X, y, ("n", "p"), **kwargs)

    @pytest.mark.parametrize("X, y, names, arch, message", [
        pytest.param(np.full((4, 23), np.nan), [0, 1, 0, 1], ("a", "b"), "dnn",
                     "X must be finite", id="nan_X"),
        pytest.param(np.full((4, 23), -np.inf), [0, 1, 0, 1], ("a", "b"), "dnn",
                     "X must be finite", id="inf_X"),
        pytest.param(np.eye(4, 23), [0, 1, 0, 1.5], ("a", "b"), "dnn",
                     "labels must be integers", id="float_label"),
        pytest.param(np.eye(4, 23), [0, 0, 0, 0], ("a",), "dnn",
                     "at least two strings", id="one_class"),
        pytest.param(np.eye(4, 23), [0, 1, 0, 1], (0, 1), "dnn",
                     "at least two strings", id="int_class_names"),
        pytest.param(np.eye(4, 6), [0, 1, 0, 1], ("a", "b"), "cnn",
                     "input width 6 cannot pass the cnn stack", id="narrow_rows"),
        pytest.param(np.zeros((4, 0)), [0, 1, 0, 1], ("a", "b"), "dnn",
                     "empty training set", id="no_features"),
    ])
    def test_bad_inputs_refused_before_any_work(self, monkeypatch, X, y, names, arch,
                                                message):
        # the rules a model and its checkpoint need: each case once trained
        # silently, or failed with another error than TrainingError
        monkeypatch.setattr(nn, "build_model", lambda *a: pytest.fail("training started"))
        with pytest.raises(nn.TrainingError, match=message):
            nn.train(X, np.array(y), names, arch=arch, epochs=1)

    @pytest.mark.parametrize("arch", nn.ARCHITECTURES)
    def test_divergence_raises_only_training_error(self, arch):
        # a numpy warning would be raised here before the loss check
        X = np.random.default_rng(0).uniform(size=(16, 23))
        y = np.arange(16) % 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nn.TrainingError, match="non-finite training loss"):
                nn.train(X, y, ("a", "b"), arch=arch, epochs=3, batch_size=8, lr=1e300)

    @pytest.mark.parametrize("arch", nn.ARCHITECTURES)
    def test_divergence_in_the_last_step_raises(self, arch):
        # one step: the one loss a step sees is finite, the trained model's is not
        X = np.random.default_rng(0).uniform(size=(16, 23))
        y = np.arange(16) % 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nn.TrainingError, match="after the last step"):
                nn.train(X, y, ("a", "b"), arch=arch, epochs=1, batch_size=16, lr=1e300)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(
    CPUS < 2, reason="training uses its helper thread only with two CPUs; this process may use one")

# Trains cnn models at widths 23, 180 and 300 on 33, 35, 45 and 49 rows (last
# batches of 1, 3, 13 and 17 rows, whose halves are where BLAS rounding can
# depend on the row count) and prints, per case, whether a step was given the helper
# and the sha256 of the weights, the loss history and predict_proba.  With
# argument "1" the child first restricts itself to one CPU.
_HELPER_PROGRAM = """
import hashlib, json, os, sys
import numpy as np
from cfgsentinel import nn
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
helped = []
step = nn.Adam.step
def spy(self, grads, pool=None):
    helped.append(pool is not None)
    return step(self, grads, pool)
nn.Adam.step = spy
out = {}
for width in (23, 180, 300):
    for rows in (33, 35, 45, 49):
        rng = np.random.default_rng([width, rows])
        X = rng.integers(0, 2, size=(rows, width)).astype(float)
        helped.clear()
        m = nn.train(X, np.arange(rows) % 2, ("a", "b"), seed=3, epochs=2)
        h = hashlib.sha256()
        for a in m.param_arrays() + [np.array(m.loss_history), m.predict_proba(X)]:
            h.update(a.tobytes())
        out[f"{width}/{rows}"] = [any(helped), h.hexdigest()]
print(json.dumps(out))
"""


class TestHelperThread:
    """At one BLAS thread with two CPUs, a large model's training steps
    share their work with one helper thread."""

    @needs_two_cpus
    def test_helper_and_serial_paths_give_the_same_bytes(self):
        runs = {}
        for cpus in ("2", "1"):
            done = subprocess.run(
                [sys.executable, "-c", _HELPER_PROGRAM, cpus],
                env=subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                                   MKL_NUM_THREADS="1"),
                capture_output=True, text=True, check=True, timeout=600,
            )
            runs[cpus] = json.loads(done.stdout)
        assert {case: helped for case, (helped, _) in runs["2"].items()} == {
            f"{width}/{rows}": width > 23 for width in (23, 180, 300) for rows in (33, 35, 45, 49)}
        assert not any(helped for helped, _ in runs["1"].values())
        assert ({case: digest for case, (_, digest) in runs["2"].items()}
                == {case: digest for case, (_, digest) in runs["1"].items()})

    @needs_two_cpus
    @pytest.mark.parametrize("lr, error", [(1e-3, None), (1e300, "non-finite training loss")],
                             ids=["trained", "diverged"])
    def test_no_thread_outlives_train(self, monkeypatch, lr, error):
        # experiment.run forks its attack worker right after training; the
        # helper also computes under train's silenced numpy warnings
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        seen = []
        step = nn.Adam.step

        def spy(self, grads, pool=None):
            seen.extend(t.name for t in threading.enumerate())
            return step(self, grads, pool)

        monkeypatch.setattr(nn.Adam, "step", spy)
        before = threading.enumerate()
        X = np.random.default_rng(4).uniform(size=(40, 180))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nn.TrainingError, match=error) if error else contextlib.nullcontext():
                nn.train(X, np.arange(40) % 2, ("a", "b"), epochs=3, lr=lr)
        assert any(name.startswith("nn.train helper") for name in seen)
        assert threading.enumerate() == before


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAdam:
    # below, equal to, a multiple of and not a multiple of the sweep chunk
    SHAPES = [(1,), (nn.ADAM_CHUNK,), (2, nn.ADAM_CHUNK), (2 * nn.ADAM_CHUNK + 4465,),
              (7, 3, 5), (92, 92, 3)]

    @pytest.mark.parametrize("shapes", [[s] for s in SHAPES] + [SHAPES])
    def test_matches_textbook_bit_for_bit(self, shapes):
        # serially, and with a helper thread sweeping half of the chunks
        for pool in (None, ThreadPoolExecutor(1)):
            rng = np.random.default_rng(len(shapes) * 31 + shapes[0][0])
            start = [rng.standard_normal(s) for s in shapes]
            ours = [p.copy() for p in start]
            ref = [p.copy() for p in start]
            opt, oracle = nn.Adam(ours, lr=3e-3), oracles.TextbookAdam(ref, lr=3e-3)
            with pool or contextlib.nullcontext():
                for step in range(6):
                    # grads over many magnitudes, with exact zeros every third step
                    grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, size=s)
                             * (step % 3 != 2 or rng.random(s) < 0.5) for s in shapes]
                    opt.step(grads, pool)
                    oracle.step(grads)
                    for a, b in zip(ours, ref):
                        assert a.tobytes() == b.tobytes()

    def test_step_allocates_no_full_size_temporaries(self):
        p = np.zeros(2_000_000)
        g = np.full_like(p, 0.5)
        opt = nn.Adam([p])
        opt.step([g])
        assert _peak_traced_bytes(lambda: opt.step([g])) < 2 * 2**20

    def test_non_contiguous_parameter_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([np.zeros((4, 6))[:, ::2]])


class TestBuffers:
    """What a model holds, and what the layers and checkpoints allocate."""

    def test_train_and_load_leave_no_gradient_buffers(self, tmp_path, rng):
        X = rng.uniform(size=(10, 23))
        for arch in nn.ARCHITECTURES:
            m = nn.train(X, np.array([0, 1] * 5), ("a", "b"), arch=arch, seed=0, epochs=1)
            nn.save_checkpoint(m, tmp_path / "m.ckpt")
            for model in (m, nn.load_checkpoint(tmp_path / "m.ckpt")):
                grads = model.grad_arrays()
                assert grads and all(g is None for g in grads)

    def test_conv_backward_reuses_the_im2col_buffer(self):
        # the 4th conv of a width-180 cnn: a (32, 87, 276) im2col buffer
        rng = np.random.default_rng(18)
        conv = nn.Conv1D(rng, 92, 92, 3, 0)
        _, cols = conv.forward(rng.standard_normal((32, 92, 89)), None)
        dout = rng.standard_normal((32, 92, 87))
        assert _peak_traced_bytes(lambda: conv.backward(dout, cols)) < cols.nbytes

    def test_layers_hold_only_their_weights(self, tmp_path, rng):
        def held(model):
            return [(i, name) for i, layer in enumerate(model.layers)
                    for name, value in vars(layer).items()
                    if isinstance(value, np.ndarray) and name not in ("W", "b")]

        wide = nn.build_model("cnn", 300, ("a", "b"), seed=0)
        wide.scaler_min, wide.scaler_max = np.zeros(300), np.ones(300)
        wide.predict(rng.uniform(size=(200, 300)))
        assert held(wide) == []
        X = rng.uniform(size=(10, 23))
        for arch in nn.ARCHITECTURES:
            m = nn.train(X, np.array([0, 1] * 5), ("a", "b"), arch=arch, seed=0, epochs=1)
            assert held(m) == []
            nn.save_checkpoint(m, tmp_path / "m.ckpt")
            loaded = nn.load_checkpoint(tmp_path / "m.ckpt")
            assert held(loaded) == []
            loaded.predict(X)
            assert held(loaded) == []

    def width_180_checkpoint(self, tmp_path):
        m = nn.build_model("cnn", 180, ("a", "b"), seed=0)
        m.scaler_min, m.scaler_max = np.zeros(180), np.ones(180)
        p = tmp_path / "wide.ckpt"
        nn.save_checkpoint(m, p)
        return m, p

    def test_load_allocates_only_the_model(self, tmp_path):
        m, p = self.width_180_checkpoint(tmp_path)
        param_bytes = sum(a.nbytes for a in m.param_arrays() + [m.scaler_min, m.scaler_max])
        assert _peak_traced_bytes(lambda: nn.load_checkpoint(p)) <= param_bytes + 2**20

    def test_save_copies_no_payload(self, tmp_path):
        m, p = self.width_180_checkpoint(tmp_path)
        assert _peak_traced_bytes(lambda: nn.save_checkpoint(m, p)) < 2**20


class TestEvaluate:
    def constant_model(self, predicted_class, names=("Benign", "Malware")):
        m = nn.build_model("dnn", 23, names, seed=0)
        for P in m.param_arrays():
            P[...] = 0.0
        # bias the final layer toward one class
        m.layers[-1].b[predicted_class] = 10.0
        m.scaler_min = np.zeros(23)
        m.scaler_max = np.ones(23)
        return m

    def test_accuracy_fraction(self):
        m = self.constant_model(1)
        X = np.random.default_rng(0).uniform(size=(10, 23))
        y = np.array([1] * 9 + [0])
        met = nn.evaluate(m, X, y, benign_index=0)
        assert met.accuracy == pytest.approx(0.9)
        assert met.confusion.sum() == 10
        assert np.trace(met.confusion) == 9

    def test_perfect_classifier_zero_rates(self):
        m = self.constant_model(1)
        X = np.random.default_rng(0).uniform(size=(6, 23))
        y = np.ones(6, dtype=int)
        met = nn.evaluate(m, X, y, benign_index=0)
        assert met.accuracy == 1.0
        assert met.alt_fpr == 0.0
        assert met.fnr == 0.0

    def test_rate_conventions(self):
        # all-benign predictor on half-benign data:
        # every malware sample is mislabeled
        m = self.constant_model(0)
        X = np.random.default_rng(1).uniform(size=(8, 23))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        met = nn.evaluate(m, X, y, benign_index=0)
        assert met.alt_fpr == pytest.approx(1.0)  # mislabeled malware / |D_m|
        assert met.alt_fnr == pytest.approx(0.0)  # mislabeled benign / |D_b|
        assert met.fpr == pytest.approx(0.0)      # benign flagged / |D_b|
        assert met.fnr == pytest.approx(1.0)      # malware passed / |D_m|

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(4)
        m = nn.build_model("dnn", 23, ("a", "b", "c", "d"), seed=4)
        m.scaler_min = np.zeros(23)
        m.scaler_max = np.ones(23)
        X = rng.uniform(size=(400, 23))
        y = rng.integers(0, 4, size=400)
        met = nn.evaluate(m, X, y)
        assert 0.15 <= met.accuracy <= 0.35

    def test_empty_rejected(self):
        m = self.constant_model(0)
        with pytest.raises(ValueError):
            nn.evaluate(m, np.zeros((0, 23)), np.zeros(0, dtype=int))


def tie_heavy(rng, shape):
    """Values drawn from a few, signed zeros included, so pairs often tie."""
    return rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], size=shape)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


LAYER_SHAPES = [(1, 1, 1), (1, 3, 7), (1, 46, 23), (32, 4, 10), (32, 5, 9), (32, 2, 2)]


class TestLayersMatchCopyingOracles:
    """The in-place and np.pad-free layers against the versions they
    replaced (tests/oracles.py), bit for bit, forward and backward."""

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_maxpool(self, shape):
        rng = np.random.default_rng(sum(shape))
        for x in (tie_heavy(rng, shape), rng.standard_normal(shape)):
            dout = tie_heavy(rng, shape[:2] + (shape[2] // 2,))
            ours, ref = nn.MaxPool1D(), oracles.ArgmaxPool()
            got, cache = ours.forward(x.copy(), None)
            assert same_bits(got, ref.forward(x.copy()))
            assert np.array_equal(cache[0], ref.arg == 1)
            assert same_bits(ours.backward(dout.copy(), cache), ref.backward(dout.copy()))

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_relu(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        x, dout = tie_heavy(rng, shape), tie_heavy(rng, shape)
        ours, ref = nn.ReLU(), oracles.CopyingReLU()
        got, mask = ours.forward(x.copy(), None)
        assert same_bits(got, ref.forward(x.copy()))
        assert same_bits(ours.backward(dout.copy(), mask), ref.backward(dout.copy()))

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    def test_dropout(self, shape, train):
        rng = np.random.default_rng(sum(shape) + 2)
        x, dout = tie_heavy(rng, shape), tie_heavy(rng, shape)
        ours, ref = nn.Dropout(0.25), oracles.CopyingDropout(0.25)
        got, mask = ours.forward(x.copy(), np.random.default_rng(9) if train else None)
        assert same_bits(got, ref.forward(x.copy(), train, np.random.default_rng(9)))
        assert same_bits(ours.backward(dout.copy(), mask), ref.backward(dout.copy()))

    @pytest.mark.parametrize("shape, pad", [(shape, pad) for shape in LAYER_SHAPES
                                            for pad in (0, 1) if shape[2] + 2 * pad >= 3])
    def test_conv(self, shape, pad):
        b, c_in, w = shape
        rng = np.random.default_rng(sum(shape) + pad)
        conv = nn.Conv1D(rng, c_in, 6, 3, pad)
        conv.b[...] = rng.standard_normal(6)
        ref = oracles.PadConvForward(conv)
        x = tie_heavy(rng, shape)
        got, cols = conv.forward(x, None)
        assert same_bits(got, ref.forward(x))
        assert same_bits(cols, ref.cols)
        dout = rng.standard_normal((b, 6, w + 2 * pad - 2))
        dx = conv.backward(dout, cols)
        dW, db = conv.dW.copy(), conv.db.copy()
        assert same_bits(conv.backward(dout, ref.cols), dx)
        assert same_bits(conv.dW, dW) and same_bits(conv.db, db)


def overflowing_model(arch="dnn", width=23, classes=("Benign", "Malware")) -> nn.Model:
    """A model whose weights are all finite but whose logits overflow to
    inf - inf: every weight 1e300, the last layer's last row 2e300."""
    m = nn.build_model(arch, width, classes, seed=0)
    for p in m.param_arrays():
        p[...] = 1e300
    m.param_arrays()[-2][-1] = 2e300
    return m


def rewrite_header(raw: bytes, edit) -> bytes:
    """A checkpoint's bytes with its JSON header replaced by edit(header)."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps(edit(json.loads(raw[12:12 + hlen]))).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]


# Header edits that must be refused with ModelIOError, each a defect of one
# field's JSON type or value.
MALFORMED_HEADERS = {
    "list": lambda h: sorted(h),
    "arch_only": lambda h: {"arch": h["arch"]},
    "no_shapes": lambda h: {k: v for k, v in h.items() if k != "shapes"},
    "arch_int": lambda h: dict(h, arch=5),
    "width_str": lambda h: dict(h, input_width="x"),
    "width_bool": lambda h: dict(h, input_width=True),
    "width_float": lambda h: dict(h, input_width=23.0),
    "width_zero": lambda h: dict(h, input_width=0),
    "classes_str": lambda h: dict(h, num_classes="2"),
    "one_class": lambda h: dict(h, num_classes=1, class_names=["a"]),
    "names_str": lambda h: dict(h, class_names="ab"),
    "names_int": lambda h: dict(h, class_names=[1, 2]),
    "scaler_int": lambda h: dict(h, scaler=1),
    "shapes_str": lambda h: dict(h, shapes="x"),
    "shapes_flat": lambda h: dict(h, shapes=[23, 100]),
    "shapes_item_str": lambda h: dict(h, shapes=[[23, "100"]]),
    "shapes_item_bool": lambda h: dict(h, shapes=[[True]]),
}


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        X = rng.uniform(size=(20, 23))
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        m = nn.train(X, y, ("a", "b"), arch="cnn", seed=0, epochs=2, batch_size=8)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        m2 = nn.load_checkpoint(p)
        assert m2.arch == m.arch
        assert m2.class_names == m.class_names
        assert np.array_equal(m.predict_proba(X), m2.predict_proba(X))

    def test_round_trip_is_bit_for_bit(self, tmp_path, rng):
        X = rng.uniform(size=(20, 23))
        y = np.array([0, 1] * 10)
        for arch in nn.ARCHITECTURES:
            m = nn.train(X, y, ("a", "b"), arch=arch, seed=3, epochs=1, batch_size=8)
            p = tmp_path / f"{arch}.ckpt"
            nn.save_checkpoint(m, p)
            m2 = nn.load_checkpoint(p)
            arrays = m.param_arrays() + [m.scaler_min, m.scaler_max]
            arrays2 = m2.param_arrays() + [m2.scaler_min, m2.scaler_max]
            assert all(same_bits(a, b) for a, b in zip(arrays, arrays2, strict=True))
            assert same_bits(m2.predict_proba(X), m.predict_proba(X))
            nn.save_checkpoint(m2, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == p.read_bytes()

    def test_load_draws_no_weights(self, tmp_path, rng, monkeypatch):
        X = rng.uniform(size=(10, 23))
        m = nn.train(X, np.array([0, 1] * 5), ("a", "b"), arch="cnn", seed=0, epochs=1)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint created a random generator")

        monkeypatch.setattr(nn.np.random, "default_rng", no_generator)
        assert same_bits(nn.load_checkpoint(p).predict_proba(X), m.predict_proba(X))

    def test_magic_enforced(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(nn.ModelIOError):
            nn.load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        X = rng.uniform(size=(10, 23))
        y = np.array([0, 1] * 5)
        m = nn.train(X, y, ("a", "b"), arch="dnn", seed=0, epochs=1, batch_size=4)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(nn.ModelIOError):
            nn.load_checkpoint(p)

    @pytest.mark.parametrize("where, value", [("first", np.nan), ("last", np.inf)])
    def test_non_finite_payload_rejected(self, tmp_path, rng, where, value):
        X = rng.uniform(size=(10, 23))
        m = nn.train(X, np.array([0, 1] * 5), ("a", "b"), arch="cnn", seed=0, epochs=1)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        (hlen,) = struct.unpack("<I", raw[8:12])
        # the first conv weight, or the last element of scaler_max
        at = 12 + hlen if where == "first" else len(raw) - 8
        raw[at : at + 8] = struct.pack("<d", value)
        p.write_bytes(bytes(raw))
        with pytest.raises(nn.ModelIOError, match="non-finite"):
            nn.load_checkpoint(p)

    @pytest.mark.parametrize("arch", nn.ARCHITECTURES)
    def test_finite_weights_predicting_nan_raise(self, tmp_path, arch):
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(overflowing_model(arch), p)
        m = nn.load_checkpoint(p)  # every weight is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy warns of nothing
            for predict in (m.predict_proba, m.predict, m.predict_class):
                with pytest.raises(nn.ModelIOError, match="non-finite probabilities"):
                    predict(np.ones(23))

    def test_file_shrinking_during_load_rejected(self, tmp_path, rng, monkeypatch):
        X = rng.uniform(size=(10, 23))
        m = nn.train(X, np.array([0, 1] * 5), ("a", "b"), arch="dnn", seed=0, epochs=1)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        build = nn._build_model

        def build_then_truncate(*args, **kwargs):
            # after the size check passed: the last array's read comes up short
            model = build(*args, **kwargs)
            with open(p, "r+b") as f:
                f.truncate(p.stat().st_size - 8)
            return model

        monkeypatch.setattr(nn, "_build_model", build_then_truncate)
        with pytest.raises(nn.ModelIOError, match="truncated"):
            nn.load_checkpoint(p)

    def test_corrupt_header_rejected(self, tmp_path, rng):
        X = rng.uniform(size=(10, 23))
        y = np.array([0, 1] * 5)
        m = nn.train(X, y, ("a", "b"), arch="dnn", seed=0, epochs=1, batch_size=4)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        raw = bytearray(p.read_bytes())
        raw[12] ^= 0xFF  # flip a byte inside the JSON header
        p.write_bytes(bytes(raw))
        with pytest.raises(nn.ModelIOError):
            nn.load_checkpoint(p)

    @pytest.mark.parametrize("defect", sorted(MALFORMED_HEADERS))
    def test_malformed_header_fields_rejected(self, tmp_path, rng, defect):
        X = rng.uniform(size=(10, 23))
        y = np.array([0, 1] * 5)
        m = nn.train(X, y, ("a", "b"), arch="dnn", seed=0, epochs=1, batch_size=4)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        p.write_bytes(rewrite_header(p.read_bytes(), MALFORMED_HEADERS[defect]))
        with pytest.raises(nn.ModelIOError):
            nn.load_checkpoint(p)

    def test_one_class_header_refused_by_its_field_rule(self, tmp_path):
        # shapes and payload fit a one-output model: the class count alone is bad
        shapes = nn._param_shapes("dnn", 23, 1)
        header = {"arch": "dnn", "class_names": ["a"], "input_width": 23,
                  "num_classes": 1, "scaler": False, "shapes": shapes}
        blob = json.dumps(header).encode()
        payload = bytes(8 * sum(math.prod(s) for s in shapes))
        p = tmp_path / "one.ckpt"
        p.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload)
        with pytest.raises(nn.ModelIOError, match="bad checkpoint header field 'num_classes'"):
            nn.load_checkpoint(p)

    @pytest.mark.parametrize("shapes", [
        [],
        [[100, 200000], [100], [100, 100], [100], [100, 100], [100],
         [100, 100], [100], [2, 100], [2]],
    ])
    def test_header_cannot_make_loader_allocate(self, tmp_path, shapes):
        # a header asking for a 200000-wide dnn (160 MB of weights) in a file
        # of a few hundred bytes, with shapes that disagree or no payload
        header = {"arch": "dnn", "class_names": ["a", "b"], "input_width": 200000,
                  "num_classes": 2, "scaler": False, "shapes": shapes}
        blob = json.dumps(header).encode()
        p = tmp_path / "wide.ckpt"
        p.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)

        def load():
            with pytest.raises(nn.ModelIOError):
                nn.load_checkpoint(p)

        assert _peak_traced_bytes(load) < 2**20

    def test_header_nested_deeper_than_the_decoder_recurses(self, tmp_path):
        blob = ("[" * 100_000 + "]" * 100_000).encode()
        p = tmp_path / "deep.ckpt"
        p.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(nn.ModelIOError):
            nn.load_checkpoint(p)

    def test_rewritten_header_still_loads(self, tmp_path, rng):
        X = rng.uniform(size=(10, 23))
        y = np.array([0, 1] * 5)
        m = nn.train(X, y, ("a", "b"), arch="dnn", seed=0, epochs=1, batch_size=4)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        p.write_bytes(rewrite_header(p.read_bytes(), dict))
        assert np.array_equal(nn.load_checkpoint(p).predict_proba(X), m.predict_proba(X))


# sha256 of the float artifacts of the golden TINY runs (see conftest),
# recorded before the in-place Adam replaced the whole-array one.
GOLDEN_FLOAT_DIGESTS = {
    "7/encodings/test.csv": "755670e7d28742c2c2674318949f2d9f7fc3e8917bcce367f7d3865e50dbf00c",
    "7/encodings/train.csv": "b05e8c4a7308df3827f08092b40e3e1e5e8dd9017d81a5a82b56d5d4865f68ae",
    "7/features/test.csv": "2b4555e923da916e84a2ecd1989226e50781f3b74a1dae1ea3c514b0ec508aba",
    "7/features/train.csv": "687d24457138392c794959070be80722a4b996fa424fa7cea27f96dfbe1910c5",
    "7/metrics/classifier.json": "3e35d28fe86a680eb095eb0927c3a876ede88381bfc55e8ec91eb3614de8f844",
    "7/metrics/detector.json": "4e243e099415bd3dd767dd59cdad5533f36da01a4e01246735edcbec96abc069",
    "7/metrics/sbd.json": "e1bb68d3212bb5dfec92dfdd8f91dc5fabc6655cd22a2b1f6085bf7f2a823160",
    "7/models/classifier.ckpt": "245733b4d845026438b7ab3a1de2b95d827c77243db10a7d8ac445b3a18192c8",
    "7/models/detector.ckpt": "0da7e5a3817fac32d7cbffbe3b579118937f19586d98e3f5f0372030ba8cfd4c",
    "7/models/sbd.ckpt": "8d4bdc1a9e24c04c9d6031af4bb751ace5d04ae428c1cd2c3b6599957856ae93",
    "5/encodings/test.csv": "2346e317e78d7d1630700bf4792e92b390dc2a0335eda051a9e8212eee5b0049",
    "5/encodings/train.csv": "fba32da8a85e20eafd4cca4c1d927ffc7a776e77d486043df8e61db4ac87c1cb",
    "5/features/test.csv": "94fa355cd26a86472ca03edee92c1db5d84aa43f8209a4fad57ee99acb67f7cb",
    "5/features/train.csv": "66575bc4469f1148ef4ec4f8d42a973f761a1c097f9fa15fa81eaf28918149e0",
    "5/metrics/classifier.json": "df44ebf52e4ba04c437a0ef81c55484fe7f2686eb8549b4f2ae9d2a8dbfc4bde",
    "5/metrics/detector.json": "bcc40ceb40f184fc9314739d8c742e0b528f662768a4f0f7000ca05c75ff468c",
    "5/metrics/sbd.json": "e1bb68d3212bb5dfec92dfdd8f91dc5fabc6655cd22a2b1f6085bf7f2a823160",
    "5/models/classifier.ckpt": "4675143917ae97fd36e4c1b30abcbb146b2dd0c4bfc51971c98ba2d8a9e87f6d",
    "5/models/detector.ckpt": "80026b040956acf6253ae86d6d0793b52290ee115c79223810ff3c9619301c7a",
    "5/models/sbd.ckpt": "744890a935e646716d62edc589a2b13fec47a557dacdb35d0ecfc97a9ff30284",
}


@pytest.mark.skipif(not (np.__version__.startswith("2.4.") and sys.version_info >= (3, 11)),
                    reason="float artifacts are pinned under numpy 2.4 and Python >= 3.11")
def test_golden_float_artifact_digests(golden_tree_digests):
    floats = {k: v for k, v in golden_tree_digests.items()
              if k.split("/")[1] in ("models", "metrics", "encodings", "features")}
    assert floats == GOLDEN_FLOAT_DIGESTS
