import numpy as np
import pytest

from mvmlc import losses
from mvmlc import numerics as nm
from mvmlc.errors import ContractError, ShapeError
from mvmlc.numerics import Matrix, Tape, backward

from oracles import gradient_check, matmul_oracle, sigmoid_oracle


def rand(rng, r, c):
    return Matrix(rng.normal(size=(r, c)))


def total(m):
    """The sum of ``m``'s entries as a taped 1x1 scalar: ones @ m @ ones."""
    return Matrix(np.ones((1, m.rows))) @ m @ Matrix(np.ones((m.cols, 1)))


class TestMatrixBasics:
    def test_scalar_lifts_to_1x1(self):
        m = Matrix(3.5)
        assert m.shape == (1, 1)
        assert m.item() == 3.5

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(4))

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Matrix(np.zeros((2, 2))).item()


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rand(rng, 2, 3)
        eye = Matrix(np.eye(2))
        np.testing.assert_array_equal((eye @ a).value, a.value)

    def test_hand_case(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        b = Matrix([[0.0], [1.0]])
        np.testing.assert_array_equal((a @ b).value, [[2.0], [4.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = nm.matmul(Matrix(a), Matrix(b)).value
        np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-12, rtol=0)

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))))


class TestElementwise:
    def test_ops_match_loops(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5)) + 3.0
        cases = {
            "add": (Matrix(a) + Matrix(b), a + b),
            "mul": (Matrix(a) * Matrix(b), a * b),
        }
        for name, (got, ref) in cases.items():
            loop = np.zeros_like(ref)
            for i in range(4):
                for j in range(5):
                    loop[i, j] = {"add": a[i, j] + b[i, j],
                                  "mul": a[i, j] * b[i, j]}[name]
            np.testing.assert_allclose(got.value, loop, atol=1e-12, rtol=0)

    def test_broadcast_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((2, 3))) + Matrix(np.zeros((3, 2)))


class TestScatterRows:
    def test_hand_case(self):
        out = nm.scatter_rows([Matrix([[1.0, 2.0], [3.0, 4.0]]), Matrix([[10.0, 20.0]])],
                              [np.array([2, 0]), np.array([2])], 4, np.array([[1.0], [1.0], [0.5], [1.0]]))
        np.testing.assert_array_equal(out.value, [[3.0, 4.0], [0.0, 0.0], [5.5, 11.0], [0.0, 0.0]])

    def test_part_of_the_wrong_height_rejected(self):
        with pytest.raises(ShapeError, match="part 1"):
            nm.scatter_rows([Matrix(np.ones((1, 2))), Matrix(np.ones((2, 2)))],
                            [np.array([0]), np.array([1])], 3)


class TestMlp:
    def test_forward_is_the_plain_numpy_expression_bitwise(self):
        rng = np.random.default_rng(11)
        x, w1, b1, w2, b2 = (rng.normal(size=shape) for shape in
                             ((7, 4), (4, 6), (1, 6), (6, 3), (1, 3)))
        h = x @ w1 + b1
        want = np.where(h > 0, h, 0.0) @ w2 + b2
        got = nm.mlp(*map(Matrix, (x, w1, b1, w2, b2))).value
        assert got.tobytes() == want.tobytes()

    def test_zero_and_negative_pre_activations_bitwise(self):
        # x @ w1 + b1 is exactly 0 in the first two hidden units and negative
        # in the third; only the last unit passes, and only its column of the
        # first weight gets a gradient.
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w1 = np.array([[0.0, -0.0, -1.0, 2.0], [-0.0, 0.0, -3.0, 0.5]])
        b1 = np.array([[0.0, -0.0, 0.0, 0.0]])
        w2 = np.arange(1.0, 9.0).reshape(4, 2)
        b2 = np.array([[0.25, -0.5]])
        h = x @ w1 + b1
        assert np.all(h[:, :2] == 0.0) and np.all(h[:, 2] < 0) and np.all(h[:, 3] > 0)
        want = np.where(h > 0, h, 0.0) @ w2 + b2
        args = list(map(Matrix, (x, w1, b1, w2, b2)))
        with Tape() as tape:
            out = nm.mlp(*args)
            loss = total(out)
        assert out.value.tobytes() == want.tobytes()
        d_w1 = backward(tape, loss, args)[1]
        np.testing.assert_array_equal(d_w1[:, :3], 0.0)
        assert np.all(d_w1[:, 3] != 0.0)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 4), (1, 4), (4, 2), (1, 2)),
                                        ((2, 3), (3, 4), (1, 4), (5, 2), (1, 2)),
                                        ((2, 3), (3, 4), (2, 4), (4, 2), (1, 2)),
                                        ((2, 3), (3, 4), (1, 4), (4, 2), (1, 3))])
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ShapeError, match="mlp"):
            nm.mlp(*(Matrix(np.zeros(shape)) for shape in shapes))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert nm.sigmoid(Matrix(0.0)).item() == 0.5

    def test_saturation_is_finite(self):
        out = nm.sigmoid(Matrix([[-1e4, -750.0, 750.0, 1e4]]))
        assert np.all(np.isfinite(out.value))
        assert out.value[0, 0] == 0.0
        assert out.value[0, 3] == 1.0

    def test_value_at_one(self):
        assert nm.sigmoid(Matrix(1.0)).item() == pytest.approx(0.7310585786, abs=1e-10)

    def test_bitwise_equal_to_the_two_branch_form(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
                   750.0, -750.0, 1e4, -1e4]
        rng = np.random.default_rng(16)
        x = np.concatenate([special] + [scale * rng.normal(size=5000) for scale in (1.0, 30.0, 700.0)])
        got = nm.sigmoid(Matrix(x.reshape(1, -1))).value.ravel()
        want = sigmoid_oracle(x)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        rng = np.random.default_rng(1)
        a = rand(rng, 3, 4)
        with Tape() as tape:
            loss = total(a)
        (grad,) = backward(tape, loss, [a])
        np.testing.assert_array_equal(grad, np.ones((3, 4)))

    def test_sigmoid_grad_at_zero(self):
        x = Matrix(0.0)
        with Tape() as tape:
            loss = nm.sigmoid(x)
        (grad,) = backward(tape, loss, [x])
        assert grad[0, 0] == 0.25

    def test_unused_param_gets_zero(self):
        a = Matrix(2.0)
        b = Matrix(np.ones((2, 2)))
        with Tape() as tape:
            loss = a * a
        grads = backward(tape, loss, [a, b])
        assert grads[0][0, 0] == 4.0
        np.testing.assert_array_equal(grads[1], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        a = Matrix(np.ones((2, 2)))
        with Tape() as tape:
            out = a * 2.0
        with pytest.raises(ContractError):
            backward(tape, out, [a])

    def test_replay_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        a, b = rand(rng, 3, 3), rand(rng, 3, 3)
        with Tape() as tape:
            loss = total(nm.sigmoid(a @ b) * a)
        g1 = backward(tape, loss, [a, b])
        g2 = backward(tape, loss, [a, b])
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)

    def test_nested_tape_records_until_it_exits(self):
        a = Matrix(2.0)
        with Tape() as outer:
            b = a * a
            with Tape() as inner:
                c = b * a
            d = b + c
            d * a
        a * a  # no tape is active
        assert (len(outer), len(inner)) == (3, 1)

    def test_stale_out_buffer_leaves_no_trace(self):
        rng = np.random.default_rng(3)
        a, unreached, b = rand(rng, 3, 3), rand(rng, 2, 2), rand(rng, 3, 3)
        with Tape() as tape:
            loss = total(nm.sigmoid(a @ b) * a)
        fresh = backward(tape, loss, [a, unreached, b])
        buf = np.full(22, np.nan)
        stale = backward(tape, loss, [a, unreached, b], out=buf)
        assert buf.tobytes() == np.concatenate([g.ravel() for g in fresh]).tobytes()
        assert stale[1].tobytes() == np.zeros((2, 2)).tobytes()

    def test_bias_broadcast_gradient(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 5, 3)
        bias = rand(rng, 1, 3)
        with Tape() as tape:
            loss = total(x + bias)
        grads = backward(tape, loss, [bias])
        np.testing.assert_array_equal(grads[0], np.full((1, 3), 5.0))


def _weighted_scalar(out: Matrix, weights: np.ndarray) -> Matrix:
    return total(out * Matrix(weights))


PRIMITIVES = {
    "add": lambda p, w: _weighted_scalar(p[0] + p[1], w),
    "mul": lambda p, w: _weighted_scalar(p[0] * p[1], w),
    # a 1 x 1 factor, as in m * -1.0: its adjoint sums over rows and columns
    "mul_scalar": lambda p, w: _weighted_scalar(p[0] * p[1], w),
    "matmul": lambda p, w: _weighted_scalar(p[0] @ Matrix(np.ones((4, 3))) @ p[1], w),
    "sigmoid": lambda p, w: _weighted_scalar(nm.sigmoid(p[0]), w),
    "mlp": lambda p, w: _weighted_scalar(nm.mlp(*p), w),
    # labels from the signs of w, cells with |w| <= 0.4 unknown; the scalar
    # weight makes the loss's adjoint differ from 1
    "classification_loss": lambda p, w: losses.classification_loss(
        p[0], (w > 0).astype(float), (np.abs(w) > 0.4).astype(float)) * float(w[0, 0]),
    # two views, the second missing where w[:, 1] < -0.5
    "reconstruction_loss": lambda p, w: losses.reconstruction_loss(
        p[:2], p[2:], np.hstack([np.ones((3, 1)), (w[:, 1:2] >= -0.5).astype(float)])) * float(w[0, 0]),
    # a part with an empty row set, and one placed on rows of a larger output
    "scatter_rows_empty": lambda p, w: _weighted_scalar(
        nm.scatter_rows([Matrix(np.zeros((0, 4))), p[0]],
                        [np.array([], dtype=int), np.array([5, 0, 3])], 6),
        np.vstack([w, -2.0 * w])),
    # two parts covering every row, permuted, with a per-row scale
    "scatter_rows_full": lambda p, w: _weighted_scalar(
        nm.scatter_rows([p[0], p[1]], [np.array([2, 0, 1]), np.arange(3)], 3,
                        np.array([[0.5], [1.0], [1.0 / 3.0]])), w),
}


def _mlp_operands(rng):
    """x, w1, b1, w2, b2 of a 3 x 4 -> 5 -> 4 perceptron, drawn again until
    no pre-activation is near the ReLU kink, where central differences fail."""
    while True:
        x, w1, b1 = rand(rng, 3, 4), rand(rng, 4, 5), rand(rng, 1, 5)
        if np.min(np.abs(x.value @ w1.value + b1.value)) > 0.05:
            return [x, w1, b1, rand(rng, 5, 4), rand(rng, 1, 4)]


# Rows whose operands are not a pair of 3 x 4 matrices.
OPERANDS = {
    "mlp": _mlp_operands,
    "mul_scalar": lambda rng: [rand(rng, 3, 4), rand(rng, 1, 1)],
    # probabilities clear of the clamp at 1e-12 and 1 - 1e-12
    "classification_loss": lambda rng: [Matrix(rng.uniform(0.05, 0.95, size=(3, 4)))],
    # reconstructions, then inputs, of a width-4 and a width-2 view
    "reconstruction_loss": lambda rng: [rand(rng, 3, 4), rand(rng, 3, 2), rand(rng, 3, 4), rand(rng, 3, 2)],
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(name):
    func = PRIMITIVES[name]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        operands = OPERANDS[name](rng) if name in OPERANDS else [rand(rng, 3, 4), rand(rng, 3, 4)]
        w = rng.normal(size=(3, 4))
        report = gradient_check(lambda p: func(p, w), operands, step=1e-6, tol=1e-4)
        assert report.passed, f"{name} seed {seed}: max rel err {report.max_rel_err}"


class TestGradientCheck:
    def test_square_at_three(self):
        x = Matrix(3.0)
        report = gradient_check(lambda p: p[0] * p[0], [x], step=1e-5)
        with Tape() as tape:
            loss = x * x
        (grad,) = backward(tape, loss, [x])
        assert grad[0, 0] == pytest.approx(6.0, abs=1e-8)
        assert report.passed

    def test_constant_function(self):
        x = Matrix(np.ones((2, 2)))
        report = gradient_check(lambda p: Matrix(1.0) + total(p[0]) * 0.0, [x], step=1e-5)
        assert report.max_rel_err == 0.0

    def test_masked_bce_gradients(self):
        rng = np.random.default_rng(17)
        logits = Matrix(rng.normal(size=(4, 3)))
        labels = (rng.random((4, 3)) > 0.5).astype(float)
        gate = (rng.random((4, 3)) > 0.3).astype(float)

        def masked_bce(p):
            return losses.classification_loss(nm.sigmoid(p[0]), labels, gate)

        report = gradient_check(masked_bce, [logits], step=1e-5, tol=1e-6)
        assert report.passed, report

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_analytic_gradient_fails(self, bad):
        # A NaN error compares False against the running maximum, and inf / inf
        # is NaN, so either would pass unless non-finite derivatives fail.
        def broken_sum(p):
            x = p[0]
            return nm.emit(x.value.sum(keepdims=True), (x,), lambda g: (np.full(x.shape, bad),))

        report = gradient_check(broken_sum, [Matrix(np.ones((2, 3)))], step=1e-5)
        assert not report.passed
        assert report.max_rel_err == np.inf and report.n_coords == 6

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ContractError):
            gradient_check(lambda p: total(p[0]), [Matrix(1.0)], step=0.0)
