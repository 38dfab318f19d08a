"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import numpy as np
import pytest

from inputs import bag_of_words, reference_forward
from spans import Span, Tracer, median_over, self_times


def test_bag_of_words_is_deterministic_per_seed():
    a = bag_of_words(3, 1, labeled=20, unlabeled=10, dim=1000)
    b = bag_of_words(3, 1, labeled=20, unlabeled=10, dim=1000)
    c = bag_of_words(4, 1, labeled=20, unlabeled=10, dim=1000)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[0], c[0])


def test_bag_of_words_shape_balance_and_sparsity():
    lx, ly, ux = bag_of_words(0, 0, labeled=200, unlabeled=40)
    assert lx.shape == (200, 5000) and ux.shape == (40, 5000)
    assert np.sum(ly == 0) == np.sum(ly == 1) == 100
    assert np.all(lx == np.round(lx)) and lx.min() == 0
    assert 0.005 < np.mean(lx != 0) < 0.02
    with pytest.raises(ValueError):
        bag_of_words(0, 0, labeled=3, unlabeled=0)


def nearest_centroid_accuracy(x, y):
    """Fit cosine centroids on even rows, score the odd rows."""
    fit, score = slice(0, None, 2), slice(1, None, 2)
    centroids = np.stack([x[fit][y[fit] == k].mean(0) for k in np.unique(y)])
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    return np.mean(np.argmax(x[score] @ centroids.T, axis=1) == y[score])


def test_bag_of_words_has_learnable_classes_and_domains():
    x0, y0, _ = bag_of_words(0, 0, labeled=400, unlabeled=0)
    x1, y1, _ = bag_of_words(0, 1, labeled=400, unlabeled=0)
    assert nearest_centroid_accuracy(x0, y0) > 0.75
    assert nearest_centroid_accuracy(x1, y1) > 0.75
    domains = np.repeat([0, 1], 400)
    assert nearest_centroid_accuracy(np.concatenate([x0, x1]), domains) > 0.75


def test_reference_forward_matches_the_program():
    import cral
    config = cral.ModelConfig(num_domains=3, input_dim=7, shared_dim=4,
                              specific_dim=3, extractor_hidden=(6, 5),
                              dropout_rate=0.3)
    model = cral.init_model(config, seed=5)
    for p in model.params():     # nonzero biases, so they are exercised
        p.value = p.value + 0.1 * np.cos(np.arange(p.value.size)).reshape(p.value.shape)
    x = np.random.default_rng(0).standard_normal((9, 7))
    state = model.state_dict()
    for b in (1, 2):
        for i in range(3):
            np.testing.assert_allclose(reference_forward(state, b, x, i),
                                       cral.predict_class(model, b, i, x),
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(reference_forward(state, b, x, None),
                                   cral.predict_class(model, b, None, x, msuda=True),
                                   rtol=0, atol=1e-12)


def test_self_times_subtract_merged_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1, 2),
        Span("a", 1.0, 4.0, 0, 1, 2),
        Span("b", 3.0, 6.0, 0, 1, 2),      # overlaps a: 1..6 is covered once
        Span("a.x", 2.0, 3.0, 1, 1, 2),
        Span("c", 9.0, 12.0, 0, 1, 2),     # runs past root: clipped to 9..10
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_spans_counters_and_restore():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)

    class Owner:
        @staticmethod
        def outer(n, name=None):
            return Owner.inner(n) + 1

        @staticmethod
        def inner(n):
            return n * 2

    original = Owner.inner
    tracer.spanned(Owner, "outer", "outer", phase=1)
    tracer.spanned(Owner, "inner", "inner")
    tracer.counted(Owner, "inner", lambda args, kwargs: {"rows": args[0]})
    tracer.begin_step()
    assert Owner.outer(3, name="kwarg named like a span label") == 7
    tracer.restore()
    assert Owner.inner is original

    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.step, outer.phase) == ("outer", None, 1, 1)
    assert (inner.name, inner.parent) == ("inner", 0)
    assert tracer.per_step((1,)) == {"rows": {1: 3.0}}
    assert tracer.span_totals()["outer"][1] == pytest.approx(1000.0 * 3)
    assert tracer.span_totals(use_self_time=True)["outer"][1] == pytest.approx(1000.0 * 2)


def test_median_over_counts_missing_steps_as_zero():
    assert median_over([1, 2, 3], {1: 5.0, 3: 7.0}) == 5.0
    assert median_over([], {1: 5.0}) == 0.0


def test_parameter_count_matches_init_model():
    import cral
    from workloads import parameter_count
    config = cral.ModelConfig(num_domains=3, input_dim=11, shared_dim=4,
                              specific_dim=3, extractor_hidden=(6, 5))
    model = cral.init_model(config, seed=0)
    assert parameter_count(config) == sum(p.value.size for p in model.params())
