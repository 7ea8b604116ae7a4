import json
import struct

import numpy as np
import pytest

from cfgsentinel import nn


def signature(model):
    """Activation-region fingerprint: ReLU sign patterns and pool argmaxes.
    Central differences are only meaningful when the whole stencil stays in
    one region, i.e. when this fingerprint is unchanged at theta +/- h."""
    sigs = []
    for layer in model.layers:
        if isinstance(layer, nn.ReLU):
            sigs.append(layer._mask.tobytes())
        elif isinstance(layer, nn.MaxPool1D):
            sigs.append(layer._arg.tobytes())
    return tuple(sigs)


def finite_difference_check(arch, seed, per_tensor=6, h=1e-4, batch=4):
    model = nn.build_model(arch, 23, ("A", "B", "C"), seed=seed)
    for layer in model.layers:
        if isinstance(layer, nn.Dropout):
            layer.p = 0.0
    rng = np.random.default_rng(seed + 500)
    Xs = rng.uniform(0.05, 0.95, size=(batch, 23))
    y = rng.integers(0, 3, size=batch)
    model.loss_and_grads(Xs, y, train=False, rng=rng)
    sig0 = signature(model)
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
            lp = model.loss_and_grads(Xs, y, train=False, rng=rng)
            sp = signature(model)
            flat[i] = orig - h
            lm = model.loss_and_grads(Xs, y, train=False, rng=rng)
            sm = signature(model)
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
            x = layer.forward(x, False, None)
            if x.ndim == 3:
                widths.append(x.shape[2])
            elif isinstance(layer, nn.Flatten):
                assert x.shape == (2, 368)
        assert widths[:2] == [23, 21] or widths[0] == 23
        assert x.shape == (2, 2)  # final logits

    def test_odd_width_pool_truncates(self):
        pool = nn.MaxPool1D()
        x = np.arange(2 * 3 * 21, dtype=float).reshape(2, 3, 21)
        y = pool.forward(x, False, None)
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

    def test_rewritten_header_still_loads(self, tmp_path, rng):
        X = rng.uniform(size=(10, 23))
        y = np.array([0, 1] * 5)
        m = nn.train(X, y, ("a", "b"), arch="dnn", seed=0, epochs=1, batch_size=4)
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(m, p)
        p.write_bytes(rewrite_header(p.read_bytes(), dict))
        assert np.array_equal(nn.load_checkpoint(p).predict_proba(X), m.predict_proba(X))
