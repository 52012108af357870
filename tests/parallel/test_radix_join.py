"""Radix-partitioned join: stable hashing, routing, and correctness edges.

The partition-routing hash used to be the builtin ``hash``, which is
``PYTHONHASHSEED``-randomized for strings — partition assignment changed
from run to run.  These tests pin the replacement: exact output values
(so nobody reseeds it by accident), cross-type equality (``1 == 1.0 ==
True`` must co-partition), scalar/vector agreement, and a subprocess
regression proving assignments are identical under different hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from repro.core.database import Database
from repro.exec.stablehash import (
    stable_hash,
    stable_hash_array,
    stable_hash_key,
    stable_partitions,
)
from repro.optimizer.optimizer import OptimizerOptions

from tests.parallel.test_morsels import parallel_db

_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestStableHashScalar:
    def test_pinned_values_never_change(self):
        # Frozen outputs: a change here silently re-routes every recorded
        # partition assignment, so treat any diff as a breaking change.
        assert stable_hash(0) == 16294208416658607535
        assert stable_hash(1) == 10451216379200822465
        assert stable_hash(-1) == 16490336266968443936
        assert stable_hash("") == 14695981039346656037
        assert stable_hash("lineitem") == 2612833759254164800
        assert stable_hash(b"lineitem") == stable_hash("lineitem")
        assert stable_hash(None) == 0

    def test_equal_values_hash_equal_across_types(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)
        assert stable_hash(0.0) == stable_hash(-0.0)
        big = float(2**70)  # exactly representable: int path must agree
        assert stable_hash(int(big)) == stable_hash(big)

    def test_unequal_values_spread(self):
        values = [stable_hash(v) for v in range(1000)]
        assert len(set(values)) == 1000

    def test_tuple_keys_are_order_sensitive(self):
        assert stable_hash_key((1, 2)) != stable_hash_key((2, 1))
        assert stable_hash_key(("a", None)) != stable_hash_key((None, "a"))

    def test_nan_and_inf_are_total(self):
        assert isinstance(stable_hash(float("nan")), int)
        assert stable_hash(float("inf")) != stable_hash(float("-inf"))


class TestStableHashVector:
    def test_int64_agrees_with_scalar(self):
        arr = np.array([0, 1, -1, 47, -(2**63), 2**63 - 1], dtype=np.int64)
        hashes = stable_hash_array(arr)
        assert hashes is not None
        for value, h in zip(arr.tolist(), hashes.tolist()):
            assert h == stable_hash(value), value

    def test_float64_agrees_with_scalar(self):
        arr = np.array([0.0, -0.0, 1.0, 2.5, -17.25, 1e300, 2.0**70], dtype=np.float64)
        hashes = stable_hash_array(arr)
        assert hashes is not None
        for value, h in zip(arr.tolist(), hashes.tolist()):
            assert h == stable_hash(value), value

    def test_integral_floats_co_partition_with_ints(self):
        ints = np.arange(100, dtype=np.int64)
        floats = ints.astype(np.float64)
        assert np.array_equal(
            stable_partitions(ints, 8), stable_partitions(floats, 8)
        )

    def test_nonfinite_floats_fall_back_to_scalar(self):
        arr = np.array([1.0, float("nan")], dtype=np.float64)
        assert stable_hash_array(arr) is None
        assert stable_partitions(arr, 8) is None

    def test_object_dtype_has_no_kernel(self):
        arr = np.array(["a", "b"], dtype=object)
        assert stable_hash_array(arr) is None


_SEED_SCRIPT = """
import sys
sys.path.insert(0, {src_path!r})
from repro.exec.stablehash import stable_hash
values = ["lineitem", "supplier", "Brand#12", "", "x" * 100, 42, 2.5, (1, "a")]
print([stable_hash(v) % 16 for v in values])
print([hash(v) for v in values])
"""


class TestSeedIndependence:
    def test_partition_assignment_survives_hash_randomization(self, tmp_path):
        """The actual regression: builtin hash re-routes under a new
        PYTHONHASHSEED, stable_hash must not."""
        script = tmp_path / "route.py"
        script.write_text(_SEED_SCRIPT.format(src_path=_SRC))
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout.splitlines())
        stable_a, builtin_a = outputs[0]
        stable_b, builtin_b = outputs[1]
        assert stable_a == stable_b, "stable partition routing changed with the seed"
        # Sanity: the builtin really is randomized (str hashing differs), so
        # this test would have caught the original bug.
        assert builtin_a != builtin_b


# -- join correctness edges -------------------------------------------------


def _pair(rows_l, rows_r, workers=2, morsel_size=16, engine="vectorized"):
    serial = Database(engine=engine, default_layout="column")
    par = parallel_db(workers=workers, morsel_size=morsel_size, engine=engine)
    for db in (serial, par):
        db.execute("CREATE TABLE l (k INTEGER, fk FLOAT, s TEXT, v INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER, fk FLOAT, s TEXT, w INTEGER)")
        db.insert_rows("l", rows_l)
        db.insert_rows("r", rows_r)
    return serial, par


def _default_rows():
    rows_l = [
        (i % 37 if i % 11 else None, float(i % 13), f"s{i % 7}", i)
        for i in range(400)
    ]
    rows_r = [(i, float(i % 13), f"s{i % 5}", i * 10) for i in range(50)]
    return rows_l, rows_r


class TestRadixJoinEdges:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_int_keys_match_serial_exactly(self, engine, workers):
        serial, par = _pair(*_default_rows(), workers=workers, engine=engine)
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_cross_type_int_float_keys_match(self):
        # 1 (int) joins 1.0 (float): vector mode bails on the kind
        # mismatch and the scalar path must convert exactly.
        serial, par = _pair(*_default_rows())
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.fk"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_string_keys_take_dict_mode(self):
        serial, par = _pair(*_default_rows())
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.s = r.s"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_multi_column_keys(self):
        serial, par = _pair(*_default_rows())
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k AND l.s = r.s"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_left_outer_preserves_unmatched_probe_rows(self):
        serial, par = _pair(*_default_rows())
        sql = "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_skewed_keys_pile_into_one_partition(self):
        # Every build key identical: the LPT finalize order and the probe
        # must survive a single giant partition.
        rows_l = [(7, 0.0, "x", i) for i in range(300)]
        rows_r = [(7, 0.0, "x", j) for j in range(5)]
        serial, par = _pair(rows_l, rows_r, workers=4)
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_empty_build_side(self):
        rows_l, _ = _default_rows()
        serial, par = _pair(rows_l, [])
        for sql in (
            "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
            "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
        ):
            assert par.execute(sql).rows == serial.execute(sql).rows

    def test_residual_condition_disables_vector_probe(self):
        serial, par = _pair(*_default_rows())
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k AND l.v + r.w > 500"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_huge_int_keys_stay_exact(self):
        # Keys around 2**53 would collide after a float64 round-trip; the
        # int64 vector path must keep them distinct.
        base = (1 << 53) + 1
        rows_l = [(base + i, 0.0, "x", i) for i in range(64)] * 2
        rows_r = [(base + i, 0.0, "x", i * 10) for i in range(0, 64, 2)]
        serial, par = _pair(rows_l, rows_r)
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_join_partitions_knob_is_honored_and_cached_separately(self):
        par = parallel_db(workers=2)
        par.optimizer_options = OptimizerOptions(
            workers=2, parallel_min_rows=1, morsel_size=16, join_partitions=3
        )
        par.execute("CREATE TABLE a (k INTEGER, v INTEGER)")
        par.execute("CREATE TABLE b (k INTEGER, w INTEGER)")
        par.insert_rows("a", [(i % 10, i) for i in range(100)])
        par.insert_rows("b", [(i, i) for i in range(10)])
        plan = par.explain("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k")
        assert "workers=2x3" in plan
        # The knob participates in the plan-cache key.
        assert astuple(OptimizerOptions(workers=2)) != astuple(
            OptimizerOptions(workers=2, join_partitions=3)
        )
