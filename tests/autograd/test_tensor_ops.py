"""Elementwise and arithmetic op tests for the autograd Tensor."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, is_grad_enabled, no_grad, tensor


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_from_scalar(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_tensor_helper(self):
        t = tensor([1.0], requires_grad=True)
        assert t.requires_grad

    def test_default_no_grad(self):
        assert not Tensor([1.0]).requires_grad

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 2.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [3.0])

    def test_sub_and_rsub(self):
        a = Tensor([5.0])
        np.testing.assert_allclose((a - 2.0).data, [3.0])
        np.testing.assert_allclose((7.0 - a).data, [2.0])

    def test_mul_div(self):
        a = Tensor([6.0])
        np.testing.assert_allclose((a * 2).data, [12.0])
        np.testing.assert_allclose((a / 3).data, [2.0])
        np.testing.assert_allclose((12.0 / a).data, [2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_add_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).backward()
        np.testing.assert_allclose(a.grad, [5.0])
        np.testing.assert_allclose(b.grad, [2.0])

    def test_div_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(3,)) + 5.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)) + 5.0, requires_grad=True)
        assert gradcheck(lambda a, b: a / b, [a, b])

    def test_grad_accumulates_on_reuse(self):
        a = Tensor([3.0], requires_grad=True)
        (a * a).backward()  # d(a^2)/da = 2a
        np.testing.assert_allclose(a.grad, [6.0])

    def test_zero_grad(self):
        a = Tensor([3.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None


class TestBroadcasting:
    def test_row_plus_column(self, rng):
        a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        assert gradcheck(lambda a, b: a + b, [a, b])

    def test_scalar_broadcast_grad(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, 6.0)

    def test_mismatched_vector_grad(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        assert gradcheck(lambda a, b: a * b, [a, b])


class TestElementwise:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: t.exp(),
            lambda t: t.tanh(),
            lambda t: t.sigmoid(),
            lambda t: t.relu(),
            lambda t: t.abs(),
        ],
    )
    def test_gradcheck(self, fn, rng):
        # Offset away from 0 so relu/abs kinks don't break finite differences.
        t = Tensor(rng.normal(size=(4, 3)) + 0.7, requires_grad=True)
        assert gradcheck(fn, [t])

    def test_log_gradcheck(self, rng):
        t = Tensor(rng.uniform(0.5, 3.0, size=(5,)), requires_grad=True)
        assert gradcheck(lambda t: t.log(), [t])

    def test_sqrt(self):
        t = Tensor([4.0, 9.0])
        np.testing.assert_allclose(t.sqrt().data, [2.0, 3.0])

    def test_relu_zeroes_negatives(self):
        np.testing.assert_allclose(
            Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0]
        )

    def test_clip_values_and_grad(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        out = t.clip(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_maximum_minimum_values(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        np.testing.assert_allclose(a.maximum(b).data, [3.0, 5.0])
        np.testing.assert_allclose(a.minimum(b).data, [1.0, 2.0])

    def test_maximum_gradient_routing(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])


class TestBackwardSemantics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_seed_shape_checked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_backward_with_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(t.grad, [3.0, 30.0])

    def test_diamond_graph(self):
        # y = a*a + a*a: gradient must accumulate through both paths.
        a = Tensor([2.0], requires_grad=True)
        b = a * a
        (b + b).backward()
        np.testing.assert_allclose(a.grad, [8.0])

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        d = (a * 2).detach()
        assert not d.requires_grad
        out = d * 3
        assert not out.requires_grad

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_deep_chain_no_recursion_error(self):
        # Topological sort is iterative; 5000-deep chains must not overflow.
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestAccumulateOwnership:
    """``_accumulate``'s ``owned`` fast path never adopts a shared array."""

    def test_shared_upstream_grad_is_not_adopted(self):
        # c = a + b passes the SAME incoming gradient array through to
        # both parents.  If either adopted it as owned, the other's
        # accumulation (or a later in-place add) would corrupt it.
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        (a + b).backward(np.full((3, 2), 5.0))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.full((3, 2), 5.0))

    def test_seed_gradient_is_copied(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        seed = np.ones(4)
        (x * 1.0 + x).backward(seed)
        seed[:] = -7.0  # caller mutates their seed afterwards
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
