"""Kernel registry semantics + cross-kernel bitwise equivalence.

The numba leg of CI runs this same file with numba installed; the
container leg exercises the NumPy fallback.  Every comparison is
bitwise (``tobytes``) — switching kernels must never change a bit.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.core.context import ExecutionContext
from repro.errors import ExecutionError
from repro.kernels import numpy_impl
from repro.table import PointTable

NUMBA = kernels.numba_available()


@pytest.fixture(autouse=True)
def _restore_selection():
    """Tests may switch the process-global kernel; put it back."""
    yield
    kernels.select("auto")


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _table(n=2_000, seed=3):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(
        gen.uniform(0, 100, n), gen.uniform(0, 100, n),
        fare=gen.exponential(10, n))


class TestRegistry:
    def test_numpy_always_registered(self):
        assert "numpy" in kernels.available_kernels()

    def test_auto_prefers_numba_when_available(self):
        chosen = kernels.select("auto")
        assert chosen.name == ("numba" if NUMBA else "numpy")

    def test_explicit_numpy(self):
        assert kernels.select("numpy").name == "numpy"
        assert kernels.active().name == "numpy"

    @pytest.mark.skipif(NUMBA, reason="numba installed")
    def test_explicit_numba_raises_without_numba(self):
        with pytest.raises(ExecutionError, match="numba"):
            kernels.select("numba")

    @pytest.mark.skipif(not NUMBA, reason="numba not installed")
    def test_explicit_numba(self):
        assert kernels.select("numba").name == "numba"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ExecutionError, match="unknown kernel"):
            kernels.select("cuda")

    def test_info_shape(self):
        kernels.select("auto")
        info = kernels.info()
        assert set(info) == {"requested", "selected", "numba_available"}
        assert info["requested"] == "auto"
        assert info["selected"] in ("numpy", "numba")
        assert info["numba_available"] is NUMBA

    def test_context_records_selection(self):
        ctx = ExecutionContext(kernel="numpy")
        assert ctx.kernel == "numpy"
        assert ctx.kernel_info()["selected"] == "numpy"

    def test_context_rejects_unavailable_kernel(self):
        if NUMBA:
            pytest.skip("numba installed")
        with pytest.raises(ExecutionError):
            ExecutionContext(kernel="numba")

    def test_engine_surfaces_kernel_in_plan_stats(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        r = engine.execute(_table(), simple_regions,
                           SpatialAggregation.count())
        kern = r.stats["plan"]["kernel"]
        assert kern["selected"] in ("numpy", "numba")
        assert kern["numba_available"] is NUMBA


class TestExpandRanges:
    def test_basic(self):
        out = numpy_impl.expand_ranges(np.array([3, 10]), np.array([2, 3]))
        assert out.tolist() == [3, 4, 10, 11, 12]
        assert out.dtype == np.int64

    def test_zero_length_runs_skipped(self):
        out = numpy_impl.expand_ranges(np.array([5, 7, 9]),
                                       np.array([1, 0, 2]))
        assert out.tolist() == [5, 9, 10]

    def test_empty(self):
        out = numpy_impl.expand_ranges(np.empty(0, np.int64),
                                       np.empty(0, np.int64))
        assert len(out) == 0 and out.dtype == np.int64


class TestNumpySemantics:
    """The reference behaviors other kernels must reproduce."""

    def test_scatter_count_is_bincount(self):
        pix = np.array([0, 2, 2, 5])
        out = numpy_impl.scatter_count(pix, 6)
        assert out.tolist() == [1, 0, 2, 0, 0, 1]

    def test_gather_min_skips_fill(self):
        canvas = np.array([np.inf, 2.0, 5.0])
        out = numpy_impl.gather_min(canvas, np.array([0, 1, 2]),
                                    np.array([0, 0, 1]), 2)
        assert out.tolist() == [2.0, 5.0]


@pytest.mark.skipif(not NUMBA, reason="numba not installed")
class TestNumbaBitwise:
    """Every numba kernel must match the NumPy one bit for bit."""

    @pytest.fixture(scope="class")
    def data(self):
        gen = np.random.default_rng(7)
        n, pixels, groups = 20_000, 4_096, 37
        pix = gen.integers(0, pixels, n)
        vals = gen.exponential(3.0, n)
        vals[gen.integers(0, n, 25)] = np.nan  # exercise NaN paths
        canvas = np.zeros(pixels)
        canvas[gen.integers(0, pixels, 2_000)] = gen.normal(size=2_000)
        frag_pix = gen.integers(0, pixels, 5_000)
        frag_grp = np.sort(gen.integers(0, groups, 5_000))
        return dict(pix=pix, vals=vals, n=n, pixels=pixels, groups=groups,
                    canvas=canvas, frag_pix=frag_pix, frag_grp=frag_grp)

    def _pair(self):
        from repro.kernels import numba_impl

        return numpy_impl, numba_impl

    def test_scatter_ops(self, data):
        ref, jit = self._pair()
        for op in ("scatter_count",):
            a = getattr(ref, op)(data["pix"], data["pixels"])
            b = getattr(jit, op)(data["pix"], data["pixels"])
            assert _bits(a) == _bits(b)
        for op in ("scatter_sum",):
            a = getattr(ref, op)(data["pix"], data["vals"], data["pixels"])
            b = getattr(jit, op)(data["pix"], data["vals"], data["pixels"])
            assert _bits(a) == _bits(b), op

    def test_scatter_add_at(self, data):
        ref, jit = self._pair()
        a = np.zeros(data["pixels"])
        b = np.zeros(data["pixels"])
        for chunk in np.array_split(np.arange(data["n"]), 5):
            ref.scatter_add_at(a, data["pix"][chunk], data["vals"][chunk])
            jit.scatter_add_at(b, data["pix"][chunk], data["vals"][chunk])
        assert _bits(a) == _bits(b)

    def test_gather_ops(self, data):
        ref, jit = self._pair()
        args = (data["canvas"], data["frag_pix"], data["frag_grp"],
                data["groups"])
        assert _bits(ref.gather_sum(*args)) == _bits(jit.gather_sum(*args))
        assert _bits(ref.gather_min(*args)) == _bits(jit.gather_min(*args))
        assert _bits(ref.gather_max(*args)) == _bits(jit.gather_max(*args))

    def test_expand_ranges(self):
        ref, jit = self._pair()
        gen = np.random.default_rng(11)
        starts = gen.integers(0, 10_000, 500)
        lengths = gen.integers(0, 40, 500)
        assert _bits(ref.expand_ranges(starts, lengths)) == \
            _bits(jit.expand_ranges(starts, lengths))

    def test_whole_join_bitwise_across_kernels(self, simple_regions):
        """End to end: the same exact query under both kernels."""
        from repro.core import accurate_raster_join
        from repro.raster import Viewport

        table = _table(30_000, seed=21)
        vp = Viewport.fit(simple_regions.bbox, 128)
        outs = {}
        for name in ("numpy", "numba"):
            kernels.select(name)
            outs[name] = accurate_raster_join(
                table, simple_regions,
                SpatialAggregation.sum_of("fare"), vp).values
        assert _bits(outs["numpy"]) == _bits(outs["numba"])
