import numpy as np
import pytest

from mvmlc import numerics as nm
from mvmlc.errors import ContractError, ShapeError
from mvmlc.numerics import Matrix, Tape, backward, gradient_check

from oracles import matmul_oracle


def rand(rng, r, c):
    return Matrix(rng.normal(size=(r, c)))


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
            "sub": (Matrix(a) - Matrix(b), a - b),
            "mul": (Matrix(a) * Matrix(b), a * b),
        }
        for name, (got, ref) in cases.items():
            loop = np.zeros_like(ref)
            for i in range(4):
                for j in range(5):
                    loop[i, j] = {"add": a[i, j] + b[i, j],
                                  "sub": a[i, j] - b[i, j],
                                  "mul": a[i, j] * b[i, j]}[name]
            np.testing.assert_allclose(got.value, loop, atol=1e-12, rtol=0)

    def test_broadcast_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((2, 3))) + Matrix(np.zeros((3, 2)))


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


class TestBackward:
    def test_sum_gradient_is_ones(self):
        rng = np.random.default_rng(1)
        a = rand(rng, 3, 4)
        with Tape() as tape:
            loss = a.sum()
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
            loss = nm.square(a)
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
            loss = (nm.sigmoid(a @ b) * a).sum()
        g1 = backward(tape, loss, [a, b])
        g2 = backward(tape, loss, [a, b])
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)

    def test_bias_broadcast_gradient(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 5, 3)
        bias = rand(rng, 1, 3)
        with Tape() as tape:
            loss = (x + bias).sum()
        grads = backward(tape, loss, [bias])
        np.testing.assert_array_equal(grads[0], np.full((1, 3), 5.0))


def _weighted_scalar(out: Matrix, weights: np.ndarray) -> Matrix:
    return (out * Matrix(weights)).sum()


PRIMITIVES = {
    "add": lambda p, w: _weighted_scalar(p[0] + p[1], w),
    "sub": lambda p, w: _weighted_scalar(p[0] - p[1], w),
    "mul": lambda p, w: _weighted_scalar(p[0] * p[1], w),
    "matmul": lambda p, w: _weighted_scalar(p[0] @ Matrix(np.ones((4, 3))) @ p[1], w),
    "log": lambda p, w: _weighted_scalar(nm.log(nm.square(p[0]) + 1.5), w),
    "square": lambda p, w: _weighted_scalar(nm.square(p[0]), w),
    "sigmoid": lambda p, w: _weighted_scalar(nm.sigmoid(p[0]), w),
    "relu": lambda p, w: _weighted_scalar(nm.relu(p[0]), w),
    "clip": lambda p, w: _weighted_scalar(nm.clip(p[0], -0.9, 0.9), w),
    "sum_all": lambda p, w: p[0].sum() * float(w[0, 0]),
    "sum_rows": lambda p, w: _weighted_scalar(p[0].sum(axis=0), w[:1, :]),
    "sum_cols": lambda p, w: _weighted_scalar(p[0].sum(axis=1), w[:, :1]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(name):
    func = PRIMITIVES[name]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rand(rng, 3, 4)
        b = rand(rng, 3, 4)
        if name == "relu" or name == "clip":
            # keep values away from the kink so central differences are valid
            a = Matrix(np.where(np.abs(a.value) < 0.05, 0.2, a.value))
        w = rng.normal(size=(3, 4))
        report = gradient_check(lambda p: func(p, w), [a, b], step=1e-6, tol=1e-4)
        assert report.passed, f"{name} seed {seed}: max rel err {report.max_rel_err}"


class TestGradientCheck:
    def test_square_at_three(self):
        x = Matrix(3.0)
        report = gradient_check(lambda p: nm.square(p[0]), [x], step=1e-5)
        with Tape() as tape:
            loss = nm.square(x)
        (grad,) = backward(tape, loss, [x])
        assert grad[0, 0] == pytest.approx(6.0, abs=1e-8)
        assert report.passed

    def test_constant_function(self):
        x = Matrix(np.ones((2, 2)))
        report = gradient_check(lambda p: Matrix(1.0) + p[0].sum() * 0.0, [x], step=1e-5)
        assert report.max_rel_err == 0.0

    def test_masked_bce_gradients(self):
        rng = np.random.default_rng(17)
        logits = Matrix(rng.normal(size=(4, 3)))
        labels = (rng.random((4, 3)) > 0.5).astype(float)
        gate = (rng.random((4, 3)) > 0.3).astype(float)

        def masked_bce(p):
            probs = nm.clip(nm.sigmoid(p[0]), 1e-12, 1.0 - 1e-12)
            ll = Matrix(labels) * nm.log(probs) + Matrix(1.0 - labels) * nm.log(1.0 - probs)
            return (ll * Matrix(gate)).sum() * (-1.0 / 12.0)

        report = gradient_check(masked_bce, [logits], step=1e-5, tol=1e-6)
        assert report.passed, report

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ContractError):
            gradient_check(lambda p: p[0].sum(), [Matrix(1.0)], step=0.0)
