"""Shared fixtures.

Session-scoped fixtures hold the expensive artifacts (the bundled pool and
ensemble) so the acceptance tests can share one build.
"""
import numpy as np
import pytest

from enboost import boost, config, ensemble
from enboost.data import synth_dataset
from enboost.nn import NetworkSpec, TensorShape, avgpool, conv, fc, softmax_layer
from enboost.qsched import Agent


def tiny_spec(input_shape=(2, 8, 8), classes=3, filters=(4, 6)):
    """Small conv net that trains in well under a second per epoch."""
    return NetworkSpec(
        input_shape=TensorShape(*input_shape),
        layers=(conv(filters[0], kernel=3, padding=1), avgpool(2),
                conv(filters[1], kernel=3, padding=1), avgpool(2),
                fc(classes), softmax_layer()),
        class_count=classes)


class PolicyAgent(Agent):
    """Drives `qsched.replay` with a bare decision function and records the
    learners run per request."""

    def __init__(self, decide):
        self.decide = decide
        self.runs = []

    def done(self, l, end):
        self.runs.append(l)


@pytest.fixture(scope="session")
def bundled_cfg():
    return config.default_config()


@pytest.fixture(scope="session")
def bundled_dataset(bundled_cfg):
    return config.make_dataset(bundled_cfg)


@pytest.fixture(scope="session")
def baseline_spec():
    return config.baseline_network()


@pytest.fixture(scope="session")
def pool4(bundled_cfg, bundled_dataset, baseline_spec):
    """The bundled M=6 pool at N=4 (seed 0); shared by several criteria."""
    pool_cfg = config.make_pool_config(bundled_cfg)
    pool, weights = boost.build_pool(baseline_spec, bundled_dataset, pool_cfg)
    return pool, weights, pool_cfg


@pytest.fixture(scope="session")
def model4(pool4, bundled_dataset):
    pool, _, _ = pool4
    ex, ey = bundled_dataset.split("eval")
    return ensemble.backfit_select(pool, 4, ex, ey)


@pytest.fixture(scope="session")
def tiny_dataset():
    return synth_dataset(seed=3, classes=3, samples_per_class=24,
                         shape=(2, 8, 8), noise=1.5)
