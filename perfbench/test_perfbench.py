"""Tests of the benchmark's own parts: the tally-file generator, the span
arithmetic, the simulation gate's binomial test and the metric list in
``BENCHMARK.json``.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans
import tallygen
from scfqkd import dataio, defaults


@pytest.fixture(scope="module")
def base():
    return tallygen.read_cells(defaults.bundled_tally_path())


def test_generated_files_load_strictly_and_keep_sent_cells(base, tmp_path):
    files = tallygen.write_files(base, tmp_path, seed=7, count=50)
    assert len(files) == 50
    bundled = dataio.load_raw_tallies(defaults.bundled_tally_path(), strict=True).tallies
    drawn = set()
    for path, n_v in files:
        raw = dataio.load_raw_tallies(path, strict=True)
        t = raw.tallies
        assert raw.metadata == {"Delta-Degrees": 30}
        assert (t.sent, t.sent_selected, t.sent_test, t.sent_key) == (
            bundled.sent, bundled.sent_selected, bundled.sent_test, bundled.sent_key)
        assert sum(t.detected_key.values()) == n_v
        for pool, det in ((t.sent_key, t.detected_key), (t.sent_test, t.detected_test)):
            for s in pool:
                assert det[(s, 0)] + det[(s, 1)] <= pool[s]
        drawn.add(tuple(sorted(t.detected_key.items())))
    assert len(drawn) == 50


def test_generator_is_seeded(base):
    a = tallygen.draw_detections(base, np.random.default_rng(3), 20)
    b = tallygen.draw_detections(base, np.random.default_rng(3), 20)
    c = tallygen.draw_detections(base, np.random.default_rng(4), 20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generator_means_follow_the_bundled_fractions(base):
    rows = tallygen.draw_detections(base, np.random.default_rng(0), 4000)
    want = np.array([base[k] for k in tallygen.DETECTION_KEYS], dtype=float)
    z = (rows.mean(axis=0) - want) / np.sqrt(want / len(rows))
    assert np.all(np.abs(z) < 5.0)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent)


def test_self_time_of_a_hand_built_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),   # 0
        _span("a", 1.0, 4.0, 0),        # 1
        _span("a.x", 2.0, 3.0, 1),      # 2
        _span("b", 5.0, 9.0, 0),        # 3
        _span("b.y", 5.5, 7.0, 3),      # 4
        _span("b.z", 6.5, 8.0, 3),      # 5: overlaps b.y; the union counts once
        _span("late", 11.0, 12.0, -1),  # 6: a second root
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5, 1.0])
    assert spans.root_of(tree, 5) == 0
    assert spans.root_of(tree, 6) == 6
    assert spans.ancestor_named(tree, 5, "b") == 3
    assert spans.ancestor_named(tree, 5, "a") == -1


def test_child_reaching_past_its_parent_is_clipped():
    tree = [_span("p", 0.0, 2.0, -1), _span("c", 1.5, 3.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


class _Owner:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Owner.inner(x) * 2


def test_wrap_nests_tags_and_restores():
    tracer = spans.Tracer()
    inner, outer = _Owner.inner, _Owner.outer
    tracer.wrap(_Owner, "inner", "inner", tag=lambda a, k, r: r)
    tracer.wrap(_Owner, "outer", "outer")
    with tracer.span("root"):
        assert _Owner.outer(1) == 4
    tracer.restore()
    assert (_Owner.inner, _Owner.outer) == (inner, outer)
    names = [(s.name, s.parent, s.tag) for s in tracer.spans]
    assert names == [("root", -1, None), ("outer", 0, None), ("inner", 1, 2)]
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root.duration, abs=1e-9)


def test_wrap_records_the_exception_name():
    tracer = spans.Tracer()

    class Owner:
        @staticmethod
        def fail():
            raise KeyError("x")

    tracer.wrap(Owner, "fail", "fail")
    with pytest.raises(KeyError):
        Owner.fail()
    tracer.restore()
    assert tracer.spans[0].error == "KeyError"
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_binomial_p_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    import workloads

    for k, n, p in ((0, 10, 0.02), (3, 240, 0.021), (17, 240, 0.021), (60, 100, 0.5)):
        want = stats.binomtest(k, n, p).pvalue
        got = workloads.binomial_two_sided_p(k, n, p)
        assert got >= want * (1 - 1e-9)
        assert got <= min(1.0, 2 * want * (1 + 1e-9))


def test_benchmark_json_lists_every_per_layer_metric():
    import json

    import layers

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["per_layer"]]
    reported = set(layers.layer_metrics([], 1)) | {"trace_overhead", "channelsim.parallel_speedup"}
    assert sorted(names) == sorted(reported)
