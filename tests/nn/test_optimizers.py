"""Unit tests for optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.nn.optimizers import (
    Adam,
    ConstantSchedule,
    CosineSchedule,
    SGD,
    StepDecaySchedule,
    get_optimizer,
)


def _quadratic_params(start=5.0):
    """A single scalar parameter minimising f(w) = w^2."""
    return np.array([start], dtype=np.float64)


def _step(optimizer, param):
    grad = 2 * param  # d/dw w^2
    optimizer.step([("w", param, grad)])


def test_sgd_decreases_quadratic_objective():
    param = _quadratic_params()
    optimizer = SGD(learning_rate=0.1)
    for _ in range(50):
        _step(optimizer, param)
    assert abs(param[0]) < 1e-3


def test_sgd_momentum_converges_faster_than_plain():
    plain, momentum = _quadratic_params(), _quadratic_params()
    sgd_plain = SGD(learning_rate=0.02)
    sgd_momentum = SGD(learning_rate=0.02, momentum=0.9)
    for _ in range(30):
        _step(sgd_plain, plain)
        _step(sgd_momentum, momentum)
    assert abs(momentum[0]) < abs(plain[0])


def test_sgd_nesterov_converges():
    param = _quadratic_params()
    optimizer = SGD(learning_rate=0.05, momentum=0.9, nesterov=True)
    for _ in range(100):
        _step(optimizer, param)
    assert abs(param[0]) < 1e-2


def test_weight_decay_shrinks_matrix_parameters():
    optimizer = SGD(learning_rate=0.1, weight_decay=0.5)
    param = np.ones((2, 2))
    optimizer.step([("w", param, np.zeros_like(param))])
    assert np.all(param < 1.0)


def test_weight_decay_skips_vectors():
    """Bias/BatchNorm vectors are conventionally excluded from weight decay."""
    optimizer = SGD(learning_rate=0.1, weight_decay=0.5)
    param = np.ones(3)
    optimizer.step([("b", param, np.zeros_like(param))])
    np.testing.assert_array_equal(param, np.ones(3))


def test_adam_converges_on_quadratic():
    param = _quadratic_params()
    optimizer = Adam(learning_rate=0.2)
    for _ in range(200):
        _step(optimizer, param)
    assert abs(param[0]) < 1e-2


def test_optimizer_state_is_keyed_by_parameter_name():
    optimizer = SGD(learning_rate=0.1, momentum=0.9)
    a, b = np.array([1.0]), np.array([1.0])
    optimizer.step([("a", a, np.array([1.0])), ("b", b, np.array([2.0]))])
    assert set(optimizer.state) == {"a", "b"}


@pytest.mark.parametrize(
    "optimizer, buffers",
    [(SGD(learning_rate=0.1, momentum=0.9), 1), (Adam(), 2)],
    ids=["sgd", "adam"],
)
def test_optimizer_state_is_allocated_on_first_sight_only(monkeypatch, optimizer, buffers):
    """``dict.setdefault(name, {... zeros_like ...})`` built (and threw away)
    a fresh set of buffers on every call of every step."""
    import repro.nn.optimizers as module

    allocations = []
    real = np.zeros_like
    monkeypatch.setattr(module.np, "zeros_like", lambda a: allocations.append(1) or real(a))
    a, b = np.array([1.0]), np.array([1.0])
    for _ in range(3):
        optimizer.step([("a", a, np.array([1.0])), ("b", b, np.array([2.0]))])
    assert len(allocations) == 2 * buffers


def test_invalid_hyperparameters_raise():
    with pytest.raises(ValueError):
        SGD(learning_rate=0.0)
    with pytest.raises(ValueError):
        SGD(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        SGD(learning_rate=0.1, weight_decay=-1.0)


def test_set_learning_rate_validation():
    optimizer = SGD(learning_rate=0.1)
    optimizer.set_learning_rate(0.01)
    assert optimizer.learning_rate == 0.01
    with pytest.raises(ValueError):
        optimizer.set_learning_rate(0.0)


def test_get_optimizer_by_name():
    assert isinstance(get_optimizer("sgd", learning_rate=0.1), SGD)
    assert isinstance(get_optimizer("adam"), Adam)
    with pytest.raises(ValueError):
        get_optimizer("lbfgs")


def test_constant_schedule():
    schedule = ConstantSchedule(0.1)
    assert schedule.learning_rate(0) == 0.1
    assert schedule.learning_rate(100) == 0.1


def test_step_decay_schedule():
    schedule = StepDecaySchedule(1.0, step_size=10, gamma=0.5)
    assert schedule.learning_rate(0) == 1.0
    assert schedule.learning_rate(10) == 0.5
    assert schedule.learning_rate(25) == 0.25


def test_cosine_schedule_endpoints():
    schedule = CosineSchedule(1.0, total_epochs=11, min_lr=0.0)
    assert schedule.learning_rate(0) == pytest.approx(1.0)
    assert schedule.learning_rate(10) == pytest.approx(0.0, abs=1e-12)


def test_cosine_schedule_is_cyclic_with_cycle_length():
    schedule = CosineSchedule(1.0, total_epochs=100, cycle_length=10)
    assert schedule.learning_rate(0) == pytest.approx(schedule.learning_rate(10))
    assert schedule.learning_rate(9) < schedule.learning_rate(10)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ConstantSchedule(0.0)
    with pytest.raises(ValueError):
        StepDecaySchedule(0.1, step_size=0)
    with pytest.raises(ValueError):
        CosineSchedule(0.1, total_epochs=0)
