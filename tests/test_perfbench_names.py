"""The traced benchmark (``perfbench/run.py --trace 1``) wraps program
functions by module and name; a rename in the program must fail here, not
only in a benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install_wrappers(tracer)
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
