"""A test run leaves the tracked benchmark result files alone.

``benchmarks._shared.record`` prints every rendered table but writes
``benchmarks/results/<name>.txt`` only under ``REPRO_BENCH_RECORD=1``.
"""

import benchmarks._shared as shared


def test_record_prints_without_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    results = tmp_path / "results"
    monkeypatch.setattr(shared, "RESULTS_DIR", str(results))
    assert shared.record("table", "a | b") is None
    assert "a | b" in capsys.readouterr().out
    assert not results.exists()


def test_record_writes_when_asked(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    monkeypatch.setattr(shared, "RESULTS_DIR", str(tmp_path))
    path = shared.record("table", "a | b")
    with open(path) as handle:
        assert handle.read() == "a | b\n"
