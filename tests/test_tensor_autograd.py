"""Unit and property-based tests for the autograd engine.

Gradients of every primitive are checked against central finite differences
on random inputs (hypothesis), which is the strongest invariant the engine
must satisfy: if these hold, every model built on top trains correctly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, functional as F, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def analytic_grad(fn_tensor, x: np.ndarray) -> np.ndarray:
    t = Tensor(x.astype(np.float32), requires_grad=True)
    out = fn_tensor(t)
    out.backward()
    return t.grad.astype(np.float64)


ARRAYS = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
        min_size=n,
        max_size=n,
    )
)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "name,tensor_fn,numpy_fn",
        [
            ("exp", lambda t: t.exp().sum(), lambda x: np.exp(x).sum()),
            ("tanh", lambda t: t.tanh().sum(), lambda x: np.tanh(x).sum()),
            ("sigmoid", lambda t: t.sigmoid().sum(), lambda x: (1 / (1 + np.exp(-x))).sum()),
            ("square", lambda t: (t * t).sum(), lambda x: (x * x).sum()),
            ("gelu", lambda t: t.gelu().sum(),
             lambda x: (0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))).sum()),
        ],
    )
    def test_gradient_matches_finite_difference(self, name, tensor_fn, numpy_fn):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4)).astype(np.float64)
        analytic = analytic_grad(tensor_fn, x)
        numeric = numerical_grad(lambda a: float(numpy_fn(a)), x.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-2)

    @settings(max_examples=25, deadline=None)
    @given(values=ARRAYS)
    def test_relu_gradient_is_indicator(self, values):
        x = np.array(values, dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        expected = (x > 0).astype(np.float32)
        np.testing.assert_allclose(t.grad, expected)

    def test_gelu_forward_matches_float64_tanh_formula(self):
        rng = np.random.default_rng(0)
        x = (rng.normal(size=(16, 27, 192)) * 3.0).astype(np.float32)
        x[0, 0, :6] = [-30.0, -8.0, -1e-3, 0.0, 1e-3, 30.0]
        out = Tensor(x).gelu().data
        assert out.dtype == np.float32
        x64 = x.astype(np.float64)
        expected = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)))
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)

    def test_log_and_sqrt_gradients(self):
        x = np.abs(np.random.default_rng(1).normal(size=(5,))) + 0.5
        np.testing.assert_allclose(
            analytic_grad(lambda t: t.log().sum(), x), 1.0 / x, rtol=1e-3
        )
        np.testing.assert_allclose(
            analytic_grad(lambda t: t.sqrt().sum(), x), 0.5 / np.sqrt(x), rtol=1e-3
        )


class TestArithmeticAndBroadcasting:
    def test_add_broadcast_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((4,), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_mul_gradients(self):
        rng = np.random.default_rng(2)
        a_val, b_val = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        a = Tensor(a_val.astype(np.float32), requires_grad=True)
        b = Tensor(b_val.astype(np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_val, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(b.grad, a_val, rtol=1e-5, atol=1e-5)

    def test_div_and_pow(self):
        x = np.array([1.0, 2.0, 4.0])
        np.testing.assert_allclose(
            analytic_grad(lambda t: (1.0 / t).sum(), x), -1.0 / x**2, rtol=1e-3
        )
        np.testing.assert_allclose(
            analytic_grad(lambda t: (t**3).sum(), x), 3 * x**2, rtol=1e-3
        )

    def test_matmul_gradients_match_finite_difference(self):
        rng = np.random.default_rng(3)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2)).astype(np.float32)

        def loss_fn(a_arr):
            return float((a_arr @ b_val.astype(np.float64)).sum())

        analytic = analytic_grad(lambda t: t.matmul(Tensor(b_val)).sum(), a_val)
        numeric = numerical_grad(loss_fn, a_val.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-2)

    def test_batched_matmul_shapes(self):
        a = Tensor(np.random.default_rng(4).normal(size=(2, 5, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.random.default_rng(5).normal(size=(2, 3, 7)).astype(np.float32), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 5, 7)
        out.sum().backward()
        assert a.grad.shape == (2, 5, 3)
        assert b.grad.shape == (2, 3, 7)

    def test_neg_sub(self):
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([3.0, 5.0], dtype=np.float32), requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [-1, -1])


class TestReductionsAndShapes:
    def test_mean_gradient(self):
        x = np.random.default_rng(6).normal(size=(4, 5))
        grad = analytic_grad(lambda t: t.mean(), x)
        np.testing.assert_allclose(grad, np.full_like(x, 1.0 / 20), rtol=1e-5)

    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_max_gradient_routes_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_transpose_roundtrip_gradient(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        out = t.reshape(4, 3).transpose()
        assert out.shape == (3, 4)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * np.ones((3, 4)))

    def test_getitem_scatter_gradient(self):
        t = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        t[np.array([1, 1, 3])].sum().backward()
        expected = np.zeros(10)
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_take_rows_gradient_accumulates(self):
        t = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        idx = np.array([[0, 0], [3, 1]])
        out = t.take_rows(idx)
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad[:, 0], [2.0, 1.0, 0.0, 1.0])

    def test_cat_and_stack(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        Tensor.cat([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (3, 2)
        c = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        d = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        Tensor.stack([c, d]).sum().backward()
        np.testing.assert_allclose(c.grad, np.ones(3))

    def test_masked_fill_blocks_gradient(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        t.masked_fill(mask, -1e9).sum().backward()
        np.testing.assert_allclose(t.grad, 1.0 - mask.astype(np.float32))


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(7).normal(size=(4, 6)).astype(np.float32))
        probs = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(8).normal(size=(3, 5)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data + 1e-12), atol=1e-4
        )

    def test_softmax_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4))
        weights = rng.normal(size=(2, 4)).astype(np.float32)

        def loss_np(arr):
            e = np.exp(arr - arr.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)
            return float((probs * weights).sum())

        analytic = analytic_grad(lambda t: (F.softmax(t, axis=-1) * Tensor(weights)).sum(), x)
        numeric = numerical_grad(loss_np, x.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-2)

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]], dtype=np.float32), requires_grad=True)
        labels = np.array([0, 1])
        loss = F.cross_entropy(logits, labels)
        manual = -np.mean(
            [np.log(np.exp(2) / (np.exp(2) + 1)), np.log(np.exp(3) / (np.exp(3) + 1))]
        )
        assert loss.data == pytest.approx(manual, rel=1e-4)
        loss.backward()
        assert logits.grad.shape == (2, 2)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        labels = np.array([0, -100, 1])
        loss = F.cross_entropy(logits, labels, ignore_index=-100)
        assert loss.data == pytest.approx(np.log(2), rel=1e-4)

    def test_cross_entropy_class_weights_shift_loss(self):
        logits = Tensor(np.zeros((2, 2), dtype=np.float32))
        labels = np.array([0, 1])
        unweighted = F.cross_entropy(logits, labels)
        weighted = F.cross_entropy(logits, labels, class_weights=np.array([1.0, 9.0]))
        # Both are log(2) since logits are uniform, but the weighting path must not crash
        assert unweighted.data == pytest.approx(weighted.data, rel=1e-5)

    def test_layer_norm_output_statistics(self):
        x = Tensor(np.random.default_rng(10).normal(2.0, 3.0, size=(6, 16)).astype(np.float32))
        weight = Tensor(np.ones(16, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        out = F.layer_norm(x, weight, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(6), atol=1e-2)

    def test_layer_norm_gradient_finite_difference(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 5))
        w = np.ones(5, dtype=np.float32)
        b = np.zeros(5, dtype=np.float32)

        def loss_np(arr):
            mu = arr.mean(axis=-1, keepdims=True)
            var = arr.var(axis=-1, keepdims=True)
            normalized = (arr - mu) / np.sqrt(var + 1e-5)
            return float((normalized * np.arange(5)).sum())

        coeff = Tensor(np.arange(5, dtype=np.float32))
        analytic = analytic_grad(
            lambda t: (F.layer_norm(t, Tensor(w), Tensor(b)) * coeff).sum(), x
        )
        numeric = numerical_grad(loss_np, x.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=5e-2, atol=5e-2)

    def test_dropout_scaling_and_eval_passthrough(self):
        rng = np.random.default_rng(12)
        x = Tensor(np.ones((1000,), dtype=np.float32))
        dropped = F.dropout(x, 0.5, rng, training=True).data
        assert dropped.mean() == pytest.approx(1.0, abs=0.15)
        passthrough = F.dropout(x, 0.5, rng, training=False)
        assert passthrough is x

    def test_one_hot_validates_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([0, 3]), num_classes=2)

    def test_mse_and_bce(self):
        pred = Tensor(np.array([0.0, 2.0], dtype=np.float32), requires_grad=True)
        assert F.mse_loss(pred, np.array([0.0, 0.0])).data == pytest.approx(2.0)
        logits = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        assert F.binary_cross_entropy_with_logits(logits, np.array([1.0])).data == pytest.approx(
            np.log(2), rel=1e-4
        )


def _composed_attention(q: Tensor, k: Tensor, mask, scale: float) -> Tensor:
    """The unfused reference: softmax(masked_fill(q @ kᵀ * scale))."""
    scores = q.matmul(k.transpose(0, 1, 3, 2)) * scale
    if mask is not None:
        scores = scores.masked_fill(~mask, -1e9)
    return F.softmax(scores, axis=-1)


def _attention_masks():
    """(name, q_len, key_len, mask) cases the fused op must agree on."""
    pad = np.array([[True, True, True, False, False], [True, True, True, True, True]])
    causal_multi = np.tril(np.ones((3, 5), dtype=bool), k=2)[None, None]
    causal_single = np.tril(np.ones((1, 5), dtype=bool), k=4)[None, None]
    dead_row = np.broadcast_to(pad[:, None, None, :] & causal_multi, (2, 1, 3, 5)).copy()
    dead_row[0, 0, 1] = False  # a padded query row: every key masked
    return [
        ("no_mask", 3, 5, None),
        ("padding", 3, 5, pad[:, None, None, :]),
        ("causal_q1", 1, 5, causal_single & pad[:, None, None, :]),
        ("causal_offset", 3, 5, causal_multi & pad[:, None, None, :]),
        ("all_keys_masked", 3, 5, dead_row),
    ]


class TestAttentionProbs:
    SCALE = 1.0 / np.sqrt(4)

    @pytest.mark.parametrize("name,q_len,key_len,mask", _attention_masks())
    def test_matches_composed_reference(self, name, q_len, key_len, mask):
        rng = np.random.default_rng(13)
        q_np = rng.normal(size=(2, 2, q_len, 4)).astype(np.float32)
        k_np = rng.normal(size=(2, 2, key_len, 4)).astype(np.float32)
        upstream = Tensor(rng.normal(size=(2, 2, q_len, key_len)).astype(np.float32))
        results = []
        for fn in (
            lambda q, k: F.attention_probs(q, k, mask, self.SCALE, -1e9),
            lambda q, k: _composed_attention(q, k, mask, self.SCALE),
        ):
            q = Tensor(q_np, requires_grad=True)
            k = Tensor(k_np, requires_grad=True)
            probs = fn(q, k)
            (probs * upstream).sum().backward()
            results.append((probs.data, q.grad, k.grad))
        for fused, composed in zip(*results):
            np.testing.assert_allclose(fused, composed, rtol=1e-5, atol=1e-7)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(14)
        q = rng.normal(size=(1, 2, 3, 4))
        k = rng.normal(size=(1, 2, 5, 4)).astype(np.float32)
        mask = np.tril(np.ones((3, 5), dtype=bool), k=2)[None, None]
        weights = rng.normal(size=(1, 2, 3, 5)).astype(np.float32)

        def loss_np(arr):
            scores = np.where(mask, arr @ np.swapaxes(k, -1, -2) * self.SCALE, -1e9)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * weights).sum())

        analytic = analytic_grad(
            lambda t: (
                F.attention_probs(t, Tensor(k), mask, self.SCALE, -1e9) * Tensor(weights)
            ).sum(),
            q,
        )
        numeric = numerical_grad(loss_np, q.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-2)

    def test_multi_head_attention_same_output_under_no_grad(self):
        from repro.nn.attention import MultiHeadAttention

        attn = MultiHeadAttention(8, 2, dropout=0.0, causal=True, rng=3)
        x = np.random.default_rng(15).normal(size=(2, 5, 8)).astype(np.float32)
        pad = np.array([[True] * 5, [True, True, True, False, False]])
        with_grad = attn(Tensor(x, requires_grad=True), pad)
        assert with_grad.requires_grad
        with no_grad():
            without = attn(Tensor(x, requires_grad=True), pad)
        assert not without.requires_grad
        np.testing.assert_array_equal(with_grad.data, without.data)


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_gradient_accumulates_across_branches(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = (x * 2).sum() + (x * 3).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, 5 * np.ones(3))

    def test_detach_stops_gradient(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = (x.detach() * 2).sum() + x.sum()
        y.backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_item_and_len(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()
