"""Dense-kernel tests: MLP forward/backward against scalar-loop and
finite-difference oracles, Adam update arithmetic, rng stream determinism,
and the gradient checker's ability to catch a wrong gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqzsl import numkit


def scalar_mlp_forward(params, x):
    """Straight-line re-evaluation with python loops, no matmul."""
    h = [float(v) for v in x]
    n = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for r in range(w.shape[0]):
            acc = float(b[r])
            for c in range(w.shape[1]):
                acc += float(w[r, c]) * h[c]
            out.append(acc)
        if l < n - 1:
            out = [math.tanh(v) for v in out]
        h = out
    return np.array(h)


class TestMlpForward:
    def test_zero_params_give_zero_output(self):
        params = numkit.zero_mlp((4, 3, 2))
        y, _ = numkit.mlp_forward(params, np.ones(4))
        assert np.all(y == 0.0)

    def test_single_identity_layer_is_identity(self):
        params = numkit.MlpParams([np.eye(3)], [np.zeros(3)])
        v = np.array([0.3, -1.2, 2.0])
        y, _ = numkit.mlp_forward(params, v)
        np.testing.assert_array_equal(y, v)

    def test_matches_scalar_loop_oracle(self):
        rng = numkit.make_rng(7)
        params = numkit.init_mlp((5, 4, 3), rng)
        x = rng.standard_normal(5)
        y, _ = numkit.mlp_forward(params, x)
        np.testing.assert_allclose(y, scalar_mlp_forward(params, x), rtol=0, atol=1e-12)

    def test_batched_rows_match_single_rows(self):
        rng = numkit.make_rng(8)
        params = numkit.init_mlp((4, 6, 2), rng)
        xs = rng.standard_normal((5, 4))
        ys, _ = numkit.mlp_forward(params, xs)
        for i in range(5):
            yi, _ = numkit.mlp_forward(params, xs[i])
            np.testing.assert_allclose(ys[i], yi, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        params = numkit.zero_mlp((4, 2))
        with pytest.raises(ValueError):
            numkit.mlp_forward(params, np.zeros(3))

    def test_linear_activation_is_matrix_composition(self):
        rng = numkit.make_rng(9)
        params = numkit.init_mlp((3, 4, 2), rng, activation="linear")
        x = rng.standard_normal(3)
        y, _ = numkit.mlp_forward(params, x)
        expected = params.weights[1] @ (params.weights[0] @ x + params.biases[0]) + params.biases[1]
        np.testing.assert_allclose(y, expected, atol=1e-14)


class TestMlpBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = numkit.make_rng(1)
        params = numkit.init_mlp((3, 4, 2), rng)
        y, cache = numkit.mlp_forward(params, rng.standard_normal(3))
        grads, gx = numkit.mlp_backward(params, cache, np.zeros_like(y))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(gx == 0.0)

    def test_single_affine_layer_closed_form(self):
        # loss = y . u  =>  dW = u outer x, db = u, dx = W^T u
        rng = numkit.make_rng(2)
        w = rng.standard_normal((2, 3))
        params = numkit.MlpParams([w.copy()], [np.zeros(2)])
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        _, cache = numkit.mlp_forward(params, x)
        grads, gx = numkit.mlp_backward(params, cache, u)
        np.testing.assert_allclose(grads[0], np.outer(u, x), atol=1e-14)
        np.testing.assert_allclose(grads[1], u, atol=1e-14)
        np.testing.assert_allclose(gx, w.T @ u, atol=1e-14)

    def test_three_layer_net_matches_finite_differences(self):
        rng = numkit.make_rng(3)
        params = numkit.init_mlp((4, 5, 5, 3), rng)
        x = rng.standard_normal(4)
        target = rng.standard_normal(3)

        def loss_fn(arrays):
            p = params.with_arrays(arrays)
            y, cache = numkit.mlp_forward(p, x)
            resid = y - target
            grads, _ = numkit.mlp_backward(p, cache, 2.0 * resid)
            return float(resid @ resid), grads

        report = numkit.grad_check(loss_fn, params.param_arrays())
        assert report.max_rel_error < 1e-4

    def test_writing_into_out_matches_the_allocating_path_bit_for_bit(self):
        rng = numkit.make_rng(5)
        params = numkit.init_mlp((7, 6, 5, 4), rng)
        _, cache = numkit.mlp_forward(params, rng.standard_normal((9, 7)))
        grad_out = rng.standard_normal((9, 4))
        ref, ref_in = numkit.mlp_backward(params, cache, grad_out)
        # views into one flat vector, as a trainer passes them
        _, out = numkit.flatten([np.full_like(a, np.nan) for a in params.param_arrays()])
        got, got_in = numkit.mlp_backward(params, cache, grad_out, out=out)
        assert got is out and all(g is o for g, o in zip(got, out))
        for a, b in zip(ref, out):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ref_in, got_in)

    def test_no_input_gradient_keeps_parameter_gradients(self):
        rng = numkit.make_rng(6)
        params = numkit.init_mlp((7, 6, 5, 4), rng)
        _, cache = numkit.mlp_forward(params, rng.standard_normal((9, 7)))
        grad_out = rng.standard_normal((9, 4))
        ref, _ = numkit.mlp_backward(params, cache, grad_out)
        got, got_in = numkit.mlp_backward(params, cache, grad_out, grad_in=False)
        assert got_in is None
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    def test_input_gradient_matches_finite_differences(self):
        rng = numkit.make_rng(4)
        params = numkit.init_mlp((3, 4, 2), rng)
        x0 = rng.standard_normal(3)

        def forward_only(x):
            y, _ = numkit.mlp_forward(params, x)
            return float(np.sum(y ** 2))

        _, cache = numkit.mlp_forward(params, x0)
        y0, _ = numkit.mlp_forward(params, x0)
        _, gx = numkit.mlp_backward(params, cache, 2.0 * y0)
        step = 1e-6
        for i in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += step
            xm[i] -= step
            numeric = (forward_only(xp) - forward_only(xm)) / (2 * step)
            assert abs(gx[i] - numeric) < 1e-6


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        state = numkit.AdamState(lr=0.1)
        p = np.array([1.0, -2.0])
        numkit.adam_step(state, [p], [np.zeros(2)])
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_hand_computed(self):
        # scalar p, constant grad g: after one step p' = p - lr * g/|g| up to eps
        lr, g0 = 0.05, 3.0
        state = numkit.AdamState(lr=lr)
        p = np.array([1.0])
        numkit.adam_step(state, [p], [np.array([g0])])
        m_hat = g0
        v_hat = g0 * g0
        expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + state.eps)
        assert abs(p[0] - expected) < 1e-15
        assert abs(p[0] - (1.0 - lr)) < 1e-8

    def test_two_steps_match_reference_recursion(self):
        state = numkit.AdamState(lr=0.01)
        p = np.array([0.5])
        grads = [np.array([1.5]), np.array([-0.7])]
        m = v = 0.0
        ref = 0.5
        for t, g in enumerate(grads, start=1):
            numkit.adam_step(state, [p], [g.copy()])
            m = state.beta1 * m + (1 - state.beta1) * g[0]
            v = state.beta2 * v + (1 - state.beta2) * g[0] ** 2
            ref -= state.lr * (m / (1 - state.beta1 ** t)) / (
                math.sqrt(v / (1 - state.beta2 ** t)) + state.eps)
        assert abs(p[0] - ref) < 1e-15

    def test_descends_a_quadratic(self):
        state = numkit.AdamState(lr=0.05)
        p = np.array([4.0, -3.0])
        for _ in range(500):
            numkit.adam_step(state, [p], [2.0 * p])
        assert np.linalg.norm(p) < 0.1

    def test_non_finite_gradient_raises(self):
        state = numkit.AdamState()
        p = np.array([1.0])
        with pytest.raises(ValueError):
            numkit.adam_step(state, [p], [np.array([np.nan])])

    def test_identical_runs_bit_identical(self):
        def run():
            rng = numkit.make_rng(11)
            p = rng.standard_normal(6)
            state = numkit.AdamState(lr=0.02)
            for _ in range(50):
                numkit.adam_step(state, [p], [2.0 * p + rng.standard_normal(6)])
            return p

        a, b = run(), run()
        assert np.array_equal(a, b)


    def test_chunked_update_is_bit_identical_to_the_textbook_formula(self):
        # longer than two chunks with a ragged tail, over several steps
        size = 2 * numkit.ADAM_CHUNK + 123
        rng = numkit.make_rng(12)
        p = rng.standard_normal(size)
        ref = p.copy()
        state = numkit.AdamState(lr=0.003)
        m = np.zeros(size)
        v = np.zeros(size)
        for t in range(1, 6):
            g = rng.standard_normal(size)
            numkit.adam_step(state, [p], [g])
            m = state.beta1 * m + (1.0 - state.beta1) * g
            v = state.beta2 * v + (1.0 - state.beta2) * g * g
            c1 = 1.0 - state.beta1 ** t
            c2 = 1.0 - state.beta2 ** t
            ref = ref - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
            assert np.array_equal(p, ref), t
            assert np.array_equal(state.m[0], m) and np.array_equal(state.v[0], v)

    def test_rejects_a_grad_of_another_size(self):
        with pytest.raises(ValueError, match="match"):
            numkit.adam_step(numkit.AdamState(), [np.zeros(3)], [np.zeros(4)])


class TestFlatten:
    def test_views_share_the_vector_in_order(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.array([7.0, 8.0])
        flat, (va, vb) = numkit.flatten([a, b])
        np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7, 8])
        assert va.shape == (2, 3) and vb.shape == (2,)
        flat[0] = -1.0
        vb[1] = -2.0
        assert va[0, 0] == -1.0 and flat[-1] == -2.0
        assert a[0, 0] == 0.0  # the inputs are copied, not aliased


class TestGradCheck:
    def test_quadratic_passes_tightly(self):
        p = np.array([0.7, -1.3, 2.1])

        def loss_fn(arrays):
            q = arrays[0]
            return float(q @ q), [2.0 * q]

        report = numkit.grad_check(loss_fn, [p])
        assert report.max_rel_error < 1e-8
        assert report.ok(1e-4)

    def test_detects_wrong_gradient(self):
        p = np.array([0.7, -1.3, 2.1])

        def loss_fn(arrays):
            q = arrays[0]
            return float(q @ q), [3.0 * q]  # deliberately wrong scale

        report = numkit.grad_check(loss_fn, [p])
        assert report.max_rel_error > 0.1
        assert not report.ok(1e-4)

    def test_rejects_nondeterministic_loss(self):
        counter = {"n": 0}

        def loss_fn(arrays):
            counter["n"] += 1
            return float(counter["n"]), [np.zeros_like(arrays[0])]

        with pytest.raises(ValueError):
            numkit.grad_check(loss_fn, [np.zeros(2)])


class TestRngStreams:
    def test_same_seed_same_stream_identical(self):
        a = numkit.make_rng(42, 3).standard_normal(10)
        b = numkit.make_rng(42, 3).standard_normal(10)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = numkit.make_rng(42, 0).standard_normal(10)
        b = numkit.make_rng(42, 1).standard_normal(10)
        assert not np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4))
def test_forward_matches_scalar_oracle_property(seed, sizes):
    rng = numkit.make_rng(seed)
    params = numkit.init_mlp(tuple(sizes), rng)
    x = rng.standard_normal(sizes[0])
    y, _ = numkit.mlp_forward(params, x)
    np.testing.assert_allclose(y, scalar_mlp_forward(params, x), rtol=0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_backward_matches_central_differences_property(seed):
    rng = numkit.make_rng(seed)
    params = numkit.init_mlp((3, 4, 2), rng)
    x = rng.standard_normal(3)

    def loss_fn(arrays):
        p = params.with_arrays(arrays)
        y, cache = numkit.mlp_forward(p, x)
        grads, _ = numkit.mlp_backward(p, cache, 2.0 * y)
        return float(y @ y), grads

    report = numkit.grad_check(loss_fn, params.param_arrays())
    assert report.max_rel_error < 1e-4
