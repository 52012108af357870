"""Self-tests of the benchmark suite (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite/tests
"""

from __future__ import annotations

import json
import os
import time

import pytest

import compare
import harness
import oltp
import run
import stats
import streams


# -- seeded streams ---------------------------------------------------------


def _hashes(seed: int):
    initial = dict(streams.kv_rows(seed, 2_000))
    return (
        streams.stream_hash(streams.MixStream(seed, 0, 2, initial), 5_000),
        streams.stream_hash(streams.WriteStream(seed, initial), 5_000),
        streams.stream_hash(iter(streams.olap_rotations(seed)), streams.OLAP_ROTATIONS),
    )


def test_same_seed_same_statement_stream():
    assert _hashes(7) == _hashes(7)


def test_different_seed_different_statement_stream():
    for one, other in zip(_hashes(7), _hashes(8)):
        assert one != other


def test_connections_own_disjoint_keys():
    initial = dict(streams.kv_rows(3, 2_000))
    mix = [streams.MixStream(3, i, 2, initial) for i in range(2)]
    for i, stream in enumerate(mix):
        for _ in range(2_000):
            kind, _, params, _ = next(stream)
            assert params[-1] % 2 == i
    assert streams.RoundRobin(mix).model().keys() == initial.keys()


def test_olap_rotations_never_repeat_a_text():
    rotations = streams.olap_rotations(11)
    texts = {(query, repr(sorted(params.items()))) for rotation in rotations
             for query, params in rotation}
    assert len(texts) == len(streams.OLAP_QUERIES) * streams.OLAP_ROTATIONS > 128


def test_write_stream_model_tracks_every_statement():
    stream = streams.WriteStream(5, dict(streams.kv_rows(5, 100)))
    model = dict(streams.kv_rows(5, 100))
    for _ in range(3_000):
        kind, _, params, expected = next(stream)
        if kind == "insert":
            assert expected == streams.INSERT_ROWS
            model.update(zip(params[0::2], params[1::2]))
        elif kind == "update":
            assert params[1] in model
            model[params[1]] = params[0]
        else:
            del model[params[0]]  # KeyError = a delete that would miss
    assert model == stream.model()


# -- percentiles ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 0.50, 0) == 50
    assert stats.percentile(ordered, 0.95, 0) == 95
    assert stats.percentile(ordered, 1.0, 0) == 100
    assert stats.percentile([4.0], 0.5, 0) == 4.0
    assert stats.median([3, 1, 2, 4]) == 2


def test_percentile_needs_ten_samples_beyond():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 0.90) == 90  # exactly 10 beyond
    assert stats.percentile(ordered, 0.95) is None  # only 5 beyond
    assert stats.percentile(list(range(1, 10_001)), 0.999) == 9_990
    assert stats.percentile([], 0.5) is None


def test_spread_matches_statistics_quantiles():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# -- failures are counted ---------------------------------------------------


def _smoke_config(tmp_path, **overrides) -> harness.Config:
    settings = dict(seed=1, seconds=1.0, trace=False, workdir=str(tmp_path), warmup=0.1,
                    setup_repeats=1, scale_factor=0.05, buffer_pages=16, kv_rows=2_000,
                    oltp_pass=100)
    settings.update(overrides)
    return harness.Config(**settings)


class _WrongEveryNth:
    """Proxy that corrupts every ``nth`` SELECT answer."""

    def __init__(self, db, nth: int):
        self._db, self._nth, self._seen = db, nth, 0

    def __getattr__(self, name):
        return getattr(self._db, name)

    def execute(self, sql, params=None):
        result = self._db.execute(sql, params=params)
        if sql == streams.SELECT_SQL:
            self._seen += 1
            if self._seen % self._nth == 0:
                result.rows = [(result.rows[0][0] + 1,)]
        return result


def test_injected_wrong_answer_raises_fail_ratio(tmp_path):
    cfg = _smoke_config(tmp_path)
    rows = streams.kv_rows(cfg.seed, cfg.kv_rows)
    db = oltp.build_kv(str(tmp_path / "kv.db"), rows)
    try:
        stream = streams.MixStream(cfg.seed, 0, 1, dict(rows))
        clean, dirty = harness.Outcome("clean"), harness.Outcome("dirty")
        clean_window = oltp.Window(cfg, clean, harness.Recorder())
        dirty_window = oltp.Window(cfg, dirty, harness.Recorder())
        oltp._embedded_window(db, stream, 0.2, lambda i: clean_window)
        oltp._embedded_window(_WrongEveryNth(db, 10), stream, 0.2, lambda i: dirty_window)
    finally:
        db.close()
    assert clean.attempted > 100 and clean.failed == 0
    assert dirty.failed >= dirty.attempted // 12 > 0
    assert streams.SELECT_SQL in dirty.failures[0]  # printed with the statement


def test_injected_lost_write_raises_fail_ratio(tmp_path):
    cfg = _smoke_config(tmp_path)
    rows = streams.kv_rows(cfg.seed, cfg.kv_rows)
    db = oltp.build_kv(str(tmp_path / "kv.db"), rows)
    try:
        stream = streams.WriteStream(cfg.seed, dict(rows))
        outcome = harness.Outcome("write")
        window = oltp.Window(cfg, outcome, harness.Recorder())
        oltp._embedded_window(db, stream, 0.3, lambda i: window)
        intact = oltp.crash_copy(db.path, str(tmp_path / "intact"))
        torn = oltp.crash_copy(db.path, str(tmp_path / "torn"))
    finally:
        db.close()
    assert outcome.failed == 0
    recovered, _ = oltp.check_recovery(outcome, intact, stream.model())
    recovered.close()
    assert outcome.failed == 0
    # Drop the tail of the log: the last acknowledged commits never reached disk.
    with open(torn + ".wal", "r+b") as handle:
        handle.truncate(os.path.getsize(torn + ".wal") - 200)
    recovered, _ = oltp.check_recovery(outcome, torn, stream.model())
    recovered.close()
    assert outcome.failed > 0
    assert any("lost write" in message for message in outcome.failures)


# -- compare.py -------------------------------------------------------------


def _runs(workload: str, metric: str, values, failed: int = 0):
    return [{"workload": workload, "traced": False, "attempted": 1000, "failed": failed,
             "metrics": {metric: {"value": v, "unit": "ms"}}} for v in values]


BOUNDS = {"p50_ms": ("lower", 0.10), "ops_per_s": ("higher", 0.10)}
STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_compare_verdicts():
    def one(base, new, metric="p50_ms"):
        rows, passed = compare.compare({"runs": _runs("w", metric, base)},
                                       {"runs": _runs("w", metric, new)}, BOUNDS)
        return rows[0][5], passed

    assert one(STEADY, STEADY) == ("ok", True)
    assert one(STEADY, [v * 1.08 for v in STEADY]) == ("ok", True)
    assert one(STEADY, [v * 1.15 for v in STEADY]) == ("regressed", False)
    assert one(STEADY, [v * 0.5 for v in STEADY]) == ("ok", True)  # lower is better
    assert one(STEADY, [v * 0.85 for v in STEADY], "ops_per_s") == ("regressed", False)
    assert one(STEADY, [v * 1.5 for v in STEADY], "ops_per_s") == ("ok", True)
    noisy = [1.0, 1.3, 0.8, 1.2, 0.7, 1.1, 0.9, 1.4, 0.6, 1.0]
    assert one(STEADY, noisy) == ("unresolved", True)


def test_compare_exit_code(tmp_path, capsys):
    def write(name, values, failed=0):
        path = tmp_path / name
        path.write_text(json.dumps({"runs": _runs("w", "p50_ms", values, failed)}))
        return str(path)

    a = write("a.json", STEADY)
    assert compare.main([a, write("same.json", STEADY)]) == 0
    assert compare.main([a, write("slow.json", [v * 1.4 for v in STEADY])]) == 1
    assert compare.main([a, write("fails.json", STEADY, failed=1)]) == 1
    assert "fail_ratio rose" in capsys.readouterr().out


# -- the suite itself -------------------------------------------------------


def test_traced_table_sums_to_p50(tmp_path):
    cfg = _smoke_config(tmp_path, seconds=4.0, trace=True, warmup=0.5)
    outcome = run.run_workload("embedded_oltp", cfg)
    assert outcome.failed == 0
    layers = {name: value for name, (value, _) in outcome.per_layer.items()}
    assert layers["trace.table_sum_ms"] == pytest.approx(layers["trace.p50_ms"], rel=0.05)
    assert layers["net.codec_us"] == 0 and layers["net.wait_us"] == 0
    assert layers["sql.parse_us"] > 0 and layers["core.self_us"] > 0
    with open(os.path.join(harness.OUT, "trace-embedded_oltp.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    names = {span[0] for span in trace["spans"]}
    assert {"execute", "sql.parse", "plan.bind", "optimizer.optimize", "exec.run"} <= names


def test_smoke_suite_reports_every_metric_and_no_failure(capsys):
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    started = time.perf_counter()
    assert run.main(["--smoke"]) == 0
    elapsed = time.perf_counter() - started
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 1_000
    wanted = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}
    assert set(last["metrics"]) == wanted
    assert all(entry["value"] > 0 for entry in last["metrics"].values())
    assert elapsed < 30
