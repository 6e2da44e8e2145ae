import math

import numpy as np
import pytest

from mvmlc import losses
from mvmlc import numerics as nm
from mvmlc.errors import ContractError, ShapeError
from mvmlc.numerics import Matrix, Tape, backward

from oracles import gradient_check, sigmoid_oracle


def rand(rng, r, c):
    return Matrix(rng.normal(size=(r, c)))


def total(m, w=1.0):
    """sum(w * m) as a taped 1x1 scalar, ``w`` a scalar or m's shape."""
    return nm.emit((w * m.value).sum(keepdims=True), (m,),
                   lambda g: (g * np.broadcast_to(w, m.shape),))


def square(x):
    """x * x elementwise, taped."""
    return nm.emit(x.value * x.value, (x,), lambda g: (2.0 * g * x.value,))


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


class TestElementwise:
    def test_ops_match_loops(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5)) + 3.0
        loops = {"sigmoid": lambda i, j: 1.0 / (1.0 + math.exp(-a[i, j])),
                 "sigmoid_mul": lambda i, j: b[i, j] / (1.0 + math.exp(-a[i, j]))}
        got = {"sigmoid": nm.sigmoid(Matrix(a)), "sigmoid_mul": nm.sigmoid_mul(Matrix(a), Matrix(b))}
        for name, loop in loops.items():
            want = [[loop(i, j) for j in range(5)] for i in range(4)]
            np.testing.assert_allclose(got[name].value, want, atol=1e-12, rtol=0)

    def test_sigmoid_mul_is_the_plain_numpy_expression_bitwise(self):
        rng = np.random.default_rng(12)
        p, x = 30.0 * rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        got = nm.sigmoid_mul(Matrix(p), Matrix(x)).value
        assert got.tobytes() == (sigmoid_oracle(p) * x).tobytes()

    def test_broadcast_mismatch(self):
        # sigmoid_mul takes two matrices of one shape; a row does not broadcast
        with pytest.raises(ShapeError, match=r"^sigmoid_mul: shapes \(1, 3\) and \(2, 3\) differ$"):
            nm.sigmoid_mul(Matrix(np.zeros((1, 3))), Matrix(np.zeros((2, 3))))


class TestAffineSigmoid:
    def test_forward_is_the_plain_numpy_expression_bitwise(self):
        rng = np.random.default_rng(13)
        x, w, b = (rng.normal(size=shape) for shape in ((7, 4), (4, 3), (1, 3)))
        got = nm.affine_sigmoid(*map(Matrix, (x, w, b))).value
        assert got.tobytes() == sigmoid_oracle(x @ w + b).tobytes()

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 2), (1, 2)),
                                        ((2, 3), (3, 2), (2, 2)),
                                        ((2, 3), (3, 2), (1, 3))])
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ShapeError, match="affine_sigmoid"):
            nm.affine_sigmoid(*(Matrix(np.zeros(shape)) for shape in shapes))


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
            loss = square(a)
        grads = backward(tape, loss, [a, b])
        assert grads[0][0, 0] == 4.0
        np.testing.assert_array_equal(grads[1], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        a = Matrix(np.ones((2, 2)))
        with Tape() as tape:
            out = nm.sigmoid(a)
        with pytest.raises(ContractError):
            backward(tape, out, [a])

    def test_replay_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        a, b, bias = rand(rng, 3, 3), rand(rng, 3, 3), rand(rng, 1, 3)
        with Tape() as tape:
            loss = total(nm.sigmoid_mul(nm.affine_sigmoid(a, b, bias), nm.sigmoid(a)))
        g1 = backward(tape, loss, [a, b])
        g2 = backward(tape, loss, [a, b])
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)

    def test_nested_tape_records_until_it_exits(self):
        a = Matrix(2.0)
        with Tape() as outer:
            b = nm.sigmoid(a)
            with Tape() as inner:
                c = nm.sigmoid(b)
            d = nm.sigmoid_mul(b, c)
            nm.sigmoid(d)
        nm.sigmoid(a)  # no tape is active
        assert (len(outer), len(inner)) == (3, 1)

    def test_stale_out_buffer_leaves_no_trace(self):
        rng = np.random.default_rng(3)
        a, unreached, b = rand(rng, 3, 3), rand(rng, 2, 2), rand(rng, 3, 3)
        bias = rand(rng, 1, 3)
        with Tape() as tape:
            loss = total(nm.sigmoid_mul(nm.affine_sigmoid(a, b, bias), nm.sigmoid(a)))
        fresh = backward(tape, loss, [a, unreached, b])
        buf = np.full(22, np.nan)
        stale = backward(tape, loss, [a, unreached, b], out=buf)
        assert buf.tobytes() == np.concatenate([g.ravel() for g in fresh]).tobytes()
        assert stale[1].tobytes() == np.zeros((2, 2)).tobytes()

    def test_bias_broadcast_gradient(self):
        # A bias row is added to every row, so its adjoint is a sum over the
        # 5 rows: at zero weights each adds sigmoid'(0) = 0.25 to the
        # classifier bias; through the perceptron's all-ones second layer
        # each adds 2 to the hidden bias and 1 to the output bias.
        rng = np.random.default_rng(9)
        x, b = rand(rng, 5, 3), Matrix(np.zeros((1, 2)))
        w1, b1, w2, b2 = map(Matrix, (np.zeros((3, 4)), np.ones((1, 4)), np.ones((4, 2)), np.zeros((1, 2))))
        with Tape() as tape:
            classified = total(nm.affine_sigmoid(x, Matrix(np.zeros((3, 2))), b))
            perceptron = total(nm.mlp(x, w1, b1, w2, b2))
        grads = backward(tape, classified, [b]) + backward(tape, perceptron, [b1, b2])
        for grad, per_row in zip(grads, (0.25, 2.0, 1.0)):
            np.testing.assert_array_equal(grad, np.full(grad.shape, 5 * per_row))


PRIMITIVES = {
    "sigmoid": lambda p, w: total(nm.sigmoid(p[0]), w),
    "sigmoid_mul": lambda p, w: total(nm.sigmoid_mul(p[0], p[1]), w),
    "affine_sigmoid": lambda p, w: total(nm.affine_sigmoid(*p), w),
    "mlp": lambda p, w: total(nm.mlp(*p), w),
    # labels from the signs of w, cells with |w| <= 0.4 unknown; the scalar
    # weight makes the loss's adjoint differ from 1
    "classification_loss": lambda p, w: total(losses.classification_loss(
        p[0], (w > 0).astype(float), (np.abs(w) > 0.4).astype(float)), float(w[0, 0])),
    # two views, the second missing where w[:, 1] < -0.5
    "reconstruction_loss": lambda p, w: total(losses.reconstruction_loss(
        p[:2], p[2:], np.hstack([np.ones((3, 1)), (w[:, 1:2] >= -0.5).astype(float)])), float(w[0, 0])),
    # loss weights |w[0, 1:]|, and a scalar weight as above
    "total_loss": lambda p, w: total(losses.total_loss(*p, *np.abs(w[0, 1:]))[0], float(w[0, 0])),
    # a part with an empty row set, and one placed on rows of a larger output
    "scatter_rows_empty": lambda p, w: total(
        nm.scatter_rows([Matrix(np.zeros((0, 4))), p[0]],
                        [np.array([], dtype=int), np.array([5, 0, 3])], 6),
        np.vstack([w, -2.0 * w])),
    # two parts covering every row, permuted, with a per-row scale
    "scatter_rows_full": lambda p, w: total(
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
    "affine_sigmoid": lambda rng: [rand(rng, 3, 5), rand(rng, 5, 4), rand(rng, 1, 4)],
    # probabilities clear of the clamp at 1e-12 and 1 - 1e-12
    "classification_loss": lambda rng: [Matrix(rng.uniform(0.05, 0.95, size=(3, 4)))],
    # reconstructions, then inputs, of a width-4 and a width-2 view
    "reconstruction_loss": lambda rng: [rand(rng, 3, 4), rand(rng, 3, 2), rand(rng, 3, 4), rand(rng, 3, 2)],
    # the classification, instance, label and reconstruction terms
    "total_loss": lambda rng: [rand(rng, 1, 1) for _ in range(4)],
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
        report = gradient_check(lambda p: square(p[0]), [x], step=1e-5)
        with Tape() as tape:
            loss = square(x)
        (grad,) = backward(tape, loss, [x])
        assert grad[0, 0] == pytest.approx(6.0, abs=1e-8)
        assert report.passed

    def test_constant_function(self):
        x = Matrix(np.ones((2, 2)))
        report = gradient_check(lambda p: total(p[0], 0.0), [x], step=1e-5)
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
