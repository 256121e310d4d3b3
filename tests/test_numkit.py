"""Dense-kernel tests: MLP forward/backward against scalar-loop and
finite-difference oracles, Adam update arithmetic, rng stream determinism,
and the gradient checker's ability to catch a wrong gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqzsl import numkit
from gradcheck import directional_check, grad_check, unit_directions


def zero_mlp(sizes):
    """All-zero affine stack: every input maps to a zero output."""
    ws = [np.zeros((nout, nin)) for nin, nout in zip(sizes[:-1], sizes[1:])]
    return numkit.MlpParams(ws, [np.zeros(nout) for nout in sizes[1:]])


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


def backward(params, cache, grad_out, grad_in=True):
    """mlp_backward into freshly allocated arrays: (param grads in
    param_arrays() order, input grad)."""
    out = params.with_arrays([np.zeros_like(a) for a in params.param_arrays()])
    gx = numkit.mlp_backward(params, cache, grad_out, out, grad_in)
    return out.param_arrays(), gx


class TestSigmoid:
    @staticmethod
    def two_branch_reference(z):
        """The stable logistic the gate and the band-weight squash each carried."""
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    def test_bitwise_equal_to_reference_at_the_edges(self):
        z = np.array([0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan, 1.5, -1.5])
        with np.errstate(invalid="ignore"):
            want = self.two_branch_reference(z)
        got = numkit.sigmoid(z)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got[4] == 1.0 and got[5] == 0.0 and np.isnan(got[6])

    def test_accepts_scalars_and_lists(self):
        assert numkit.sigmoid(0.0) == 0.5
        np.testing.assert_array_equal(numkit.sigmoid([0.0, 0.0]), [0.5, 0.5])


class TestMlpForward:
    def test_zero_params_give_zero_output(self):
        params = zero_mlp((4, 3, 2))
        y, _ = numkit.mlp_forward(params, np.ones((1, 4)))
        assert y.shape == (1, 2) and np.all(y == 0.0)

    def test_single_identity_layer_is_identity(self):
        params = numkit.MlpParams([np.eye(3)], [np.zeros(3)])
        v = np.array([[0.3, -1.2, 2.0]])
        y, _ = numkit.mlp_forward(params, v)
        np.testing.assert_array_equal(y, v)

    def test_matches_scalar_loop_oracle(self):
        rng = numkit.make_rng(7)
        params = numkit.init_mlp((5, 4, 3), rng)
        x = rng.standard_normal((1, 5))
        y, _ = numkit.mlp_forward(params, x)
        np.testing.assert_allclose(y[0], scalar_mlp_forward(params, x[0]), rtol=0, atol=1e-12)

    def test_batched_rows_match_single_rows(self):
        rng = numkit.make_rng(8)
        params = numkit.init_mlp((4, 6, 2), rng)
        xs = rng.standard_normal((5, 4))
        ys, _ = numkit.mlp_forward(params, xs)
        for i in range(5):
            yi, _ = numkit.mlp_forward(params, xs[i:i + 1])
            np.testing.assert_allclose(ys[i], yi[0], atol=1e-14)

    def test_dimension_mismatch_raises(self):
        params = zero_mlp((4, 2))
        with pytest.raises(ValueError):
            numkit.mlp_forward(params, np.zeros((1, 3)))

    def test_a_single_vector_is_refused(self):
        # one record is a (1, d) batch; a bare (d,) vector is not an input
        with pytest.raises(ValueError, match=r"input dim \(4,\)"):
            numkit.mlp_forward(zero_mlp((4, 2)), np.zeros(4))

    def test_tanh_between_layers_is_the_composition(self):
        rng = numkit.make_rng(9)
        params = numkit.init_mlp((3, 4, 2), rng)
        params = params.with_arrays([a + rng.standard_normal(a.shape)
                                     for a in params.param_arrays()])
        x = rng.standard_normal(3)
        y, _ = numkit.mlp_forward(params, x[None, :])
        expected = params.weights[1] @ np.tanh(
            params.weights[0] @ x + params.biases[0]) + params.biases[1]
        np.testing.assert_allclose(y[0], expected, atol=1e-14)


class TestMlpBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = numkit.make_rng(1)
        params = numkit.init_mlp((3, 4, 2), rng)
        y, cache = numkit.mlp_forward(params, rng.standard_normal((1, 3)))
        grads, gx = backward(params, cache, np.zeros_like(y))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(gx == 0.0)

    def test_single_affine_layer_closed_form(self):
        # loss = y . u  =>  dW = u outer x, db = u, dx = W^T u
        rng = numkit.make_rng(2)
        w = rng.standard_normal((2, 3))
        params = numkit.MlpParams([w.copy()], [np.zeros(2)])
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        _, cache = numkit.mlp_forward(params, x[None, :])
        grads, gx = backward(params, cache, u[None, :])
        np.testing.assert_allclose(grads[0], np.outer(u, x), atol=1e-14)
        np.testing.assert_allclose(grads[1], u, atol=1e-14)
        np.testing.assert_allclose(gx[0], w.T @ u, atol=1e-14)

    def test_three_layer_net_matches_finite_differences(self):
        rng = numkit.make_rng(3)
        params = numkit.init_mlp((4, 5, 5, 3), rng)
        x = rng.standard_normal((1, 4))
        target = rng.standard_normal((1, 3))

        def loss_fn(arrays):
            p = params.with_arrays(arrays)
            y, cache = numkit.mlp_forward(p, x)
            resid = y - target
            grads, _ = backward(p, cache, 2.0 * resid)
            return float(np.sum(resid * resid)), grads

        report = grad_check(loss_fn, params.param_arrays())
        assert report.max_rel_error < 1e-4

    def test_writes_batch_summed_gradients_into_views_of_one_vector(self):
        rng = numkit.make_rng(5)
        params = numkit.init_mlp((7, 6, 5, 4), rng)
        xs = rng.standard_normal((9, 7))
        grad_out = rng.standard_normal((9, 4))
        _, cache = numkit.mlp_forward(params, xs)
        # views into one flat vector, as a trainer passes them, each entry to be overwritten
        flat, views = numkit.flatten(params.param_arrays())
        out = params.with_arrays(views)
        flat[:] = np.nan
        got_in = numkit.mlp_backward(params, cache, grad_out, out, True)
        rows = []
        for i in range(9):
            _, cache_i = numkit.mlp_forward(params, xs[i:i + 1])
            rows.append(backward(params, cache_i, grad_out[i:i + 1]))
        for k, view in enumerate(views):
            np.testing.assert_allclose(view, sum(g[k] for g, _ in rows), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_in, np.concatenate([gx for _, gx in rows]),
                                   rtol=0, atol=1e-14)
        assert np.isfinite(flat).all()

    def test_no_input_gradient_keeps_parameter_gradients(self):
        rng = numkit.make_rng(6)
        params = numkit.init_mlp((7, 6, 5, 4), rng)
        _, cache = numkit.mlp_forward(params, rng.standard_normal((9, 7)))
        grad_out = rng.standard_normal((9, 4))
        ref, _ = backward(params, cache, grad_out)
        got, got_in = backward(params, cache, grad_out, grad_in=False)
        assert got_in is None
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a, b)

    def test_input_gradient_matches_finite_differences(self):
        rng = numkit.make_rng(4)
        params = numkit.init_mlp((3, 4, 2), rng)
        x0 = rng.standard_normal((1, 3))

        def forward_only(x):
            y, _ = numkit.mlp_forward(params, x)
            return float(np.sum(y ** 2))

        y0, cache = numkit.mlp_forward(params, x0)
        _, gx = backward(params, cache, 2.0 * y0)
        step = 1e-6
        for i in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[0, i] += step
            xm[0, i] -= step
            numeric = (forward_only(xp) - forward_only(xm)) / (2 * step)
            assert abs(gx[0, i] - numeric) < 1e-6


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        state = numkit.AdamState(lr=0.1)
        p = np.array([1.0, -2.0])
        numkit.adam_step(state, p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_hand_computed(self):
        # scalar p, constant grad g: after one step p' = p - lr * g/|g| up to eps
        lr, g0 = 0.05, 3.0
        state = numkit.AdamState(lr=lr)
        p = np.array([1.0])
        numkit.adam_step(state, p, np.array([g0]))
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
            numkit.adam_step(state, p, g.copy())
            m = state.beta1 * m + (1 - state.beta1) * g[0]
            v = state.beta2 * v + (1 - state.beta2) * g[0] ** 2
            ref -= state.lr * (m / (1 - state.beta1 ** t)) / (
                math.sqrt(v / (1 - state.beta2 ** t)) + state.eps)
        assert abs(p[0] - ref) < 1e-15

    def test_descends_a_quadratic(self):
        state = numkit.AdamState(lr=0.05)
        p = np.array([4.0, -3.0])
        for _ in range(500):
            numkit.adam_step(state, p, 2.0 * p)
        assert np.linalg.norm(p) < 0.1

    def test_non_finite_gradient_raises(self):
        state = numkit.AdamState()
        p = np.array([1.0])
        with pytest.raises(ValueError):
            numkit.adam_step(state, p, np.array([np.nan]))

    def test_identical_runs_bit_identical(self):
        def run():
            rng = numkit.make_rng(11)
            p = rng.standard_normal(6)
            state = numkit.AdamState(lr=0.02)
            for _ in range(50):
                numkit.adam_step(state, p, 2.0 * p + rng.standard_normal(6))
            return p

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_chunked_update_is_bit_identical_to_the_textbook_formula(self):
        # longer than two chunks with a ragged tail, over several steps: bit for
        # bit the folded closed form, and within 1e-15 relative of the textbook
        # recursion with its two bias-corrected moments
        size = 2 * numkit.ADAM_CHUNK + 123
        rng = numkit.make_rng(12)
        p = rng.standard_normal(size)
        folded = p.copy()
        textbook = p.copy()
        state = numkit.AdamState(lr=0.003)
        b1, b2, eps = state.beta1, state.beta2, state.eps
        m = np.zeros(size)
        v = np.zeros(size)
        for t in range(1, 6):
            g = rng.standard_normal(size)
            numkit.adam_step(state, p, g)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            alpha = state.lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
            eps_hat = eps * math.sqrt(1.0 - b2 ** t)
            folded = folded - alpha * m / (np.sqrt(v) + eps_hat)
            assert np.array_equal(p, folded), t
            c1 = 1.0 - b1 ** t
            c2 = 1.0 - b2 ** t
            textbook = textbook - state.lr * (m / c1) / (np.sqrt(v / c2) + eps)
            np.testing.assert_allclose(p, textbook, rtol=0,
                                       atol=1e-15 * np.max(np.abs(textbook)), err_msg=str(t))
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_aligned_and_offset_vectors_update_bit_identically(self):
        # the same steps on a vector that starts on a 64-byte line and on one
        # that starts 8 bytes past it: the vector loops may take other paths
        size = numkit.ADAM_CHUNK + 77
        rng = numkit.make_rng(13)
        aligned, _ = numkit.flatten([rng.standard_normal(size)])
        offset = numkit.aligned_empty(size + 1)[1:]
        offset[:] = aligned
        assert aligned.ctypes.data % 64 == 0 and offset.ctypes.data % 64 == 8
        states = numkit.AdamState(lr=0.01), numkit.AdamState(lr=0.01)
        for _ in range(4):
            g = rng.standard_normal(size)
            g_offset = numkit.aligned_empty(size + 1)[1:]
            g_offset[:] = g
            numkit.adam_step(states[0], aligned, g)
            numkit.adam_step(states[1], offset, g_offset)
        assert np.array_equal(aligned, offset)
        assert np.array_equal(states[0].m, states[1].m)
        assert np.array_equal(states[0].v, states[1].v)

    @pytest.mark.parametrize("p_shape, g_shape", [((3,), (4,)), ((3,), (3, 1)),
                                                  ((3, 1), (3, 1))])
    def test_rejects_anything_but_a_vector_and_its_grad(self, p_shape, g_shape):
        with pytest.raises(ValueError, match="contiguous vector shaped like its grad"):
            numkit.adam_step(numkit.AdamState(), np.zeros(p_shape), np.zeros(g_shape))

    def test_rejects_a_vector_its_moments_were_not_sized_for(self):
        state = numkit.AdamState()
        numkit.adam_step(state, np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="shaped like its grad and moments"):
            numkit.adam_step(state, np.zeros(4), np.ones(4))
        assert state.step_count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1e155])
    @pytest.mark.parametrize("where", [0, numkit.ADAM_CHUNK + 3, -1])
    def test_bad_entry_in_any_chunk_is_refused_before_anything_moves(self, bad, where):
        # a non-finite entry, or a finite one whose square overflows (it would
        # freeze its parameter), in the first, a middle or the ragged last
        # chunk; p, m, v and the step count stay as they were
        size = 2 * numkit.ADAM_CHUNK + 9
        rng = numkit.make_rng(14)
        p = rng.standard_normal(size)
        state = numkit.AdamState(lr=0.01)
        for _ in range(2):
            numkit.adam_step(state, p, rng.standard_normal(size))
        before = p.copy(), state.m.copy(), state.v.copy()
        g = rng.standard_normal(size)
        g[where] = bad
        with pytest.raises(ValueError, match="^gradient is non-finite or its square overflows$"):
            numkit.adam_step(state, p, g)
        assert state.step_count == 2
        for got, want in zip((p, state.m, state.v), before):
            assert np.array_equal(got, want)

    def test_refused_first_step_sizes_no_moments(self):
        state = numkit.AdamState()
        with pytest.raises(ValueError, match="non-finite"):
            numkit.adam_step(state, np.zeros(2), np.array([1.0, np.nan]))
        assert state.m is None and state.v is None and state.step_count == 0


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

    @settings(max_examples=100, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(0, 5), max_size=3).map(tuple), max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_vector_starts_on_a_64_byte_line_and_views_tile_it(self, shapes, seed):
        rng = numkit.make_rng(seed)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        flat, views = numkit.flatten(arrays)
        assert flat.size == 0 or flat.ctypes.data % 64 == 0  # an empty one holds no data
        assert flat.shape == (sum(a.size for a in arrays),) and flat.flags.c_contiguous
        start = 0
        for a, view in zip(arrays, views):
            assert view.shape == a.shape and np.array_equal(view, a)
            assert view.size == 0 or view.ctypes.data == flat.ctypes.data + 8 * start
            start += a.size
        assert len(views) == len(arrays) and start == flat.size


class TestGradCheck:
    def test_quadratic_passes_tightly(self):
        p = np.array([0.7, -1.3, 2.1])

        def loss_fn(arrays):
            q = arrays[0]
            return float(q @ q), [2.0 * q]

        report = grad_check(loss_fn, [p])
        assert report.max_rel_error < 1e-8
        assert report.ok(1e-4)

    def test_detects_wrong_gradient(self):
        p = np.array([0.7, -1.3, 2.1])

        def loss_fn(arrays):
            q = arrays[0]
            return float(q @ q), [3.0 * q]  # deliberately wrong scale

        report = grad_check(loss_fn, [p])
        assert report.max_rel_error > 0.1
        assert not report.ok(1e-4)

    def test_rejects_nondeterministic_loss(self):
        counter = {"n": 0}

        def loss_fn(arrays):
            counter["n"] += 1
            return float(counter["n"]), [np.zeros_like(arrays[0])]

        with pytest.raises(ValueError):
            grad_check(loss_fn, [np.zeros(2)])

    @pytest.mark.parametrize("scale, passes", [(2.0, True), (3.0, False)])
    def test_directional_check_catches_a_wrong_gradient(self, scale, passes):
        rng = numkit.make_rng(7)
        x = rng.standard_normal(50)

        def loss_fn(p):
            return float(p @ p), scale * p

        directions = (unit_directions(rng, 50, 3)
                      + unit_directions(rng, 50, 3, slice(40, None)))
        assert all(not d[:40].any() and math.isclose(d @ d, 1.0) for d in directions[3:])
        report = directional_check(loss_fn, x, directions)
        assert report.ok(1e-4) is passes


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
    x = rng.standard_normal((1, sizes[0]))
    y, _ = numkit.mlp_forward(params, x)
    np.testing.assert_allclose(y[0], scalar_mlp_forward(params, x[0]), rtol=0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_backward_matches_central_differences_property(seed):
    rng = numkit.make_rng(seed)
    params = numkit.init_mlp((3, 4, 2), rng)
    x = rng.standard_normal((1, 3))

    def loss_fn(arrays):
        p = params.with_arrays(arrays)
        y, cache = numkit.mlp_forward(p, x)
        grads, _ = backward(p, cache, 2.0 * y)
        return float(np.sum(y * y)), grads

    report = grad_check(loss_fn, params.param_arrays())
    assert report.max_rel_error < 1e-4
