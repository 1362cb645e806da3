import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unitransform import (
    ContinuousSpectrum,
    ContractViolationError,
    FourierLaplaceSpectrum,
    Grid,
    LaplaceSpectrum,
    SampledFunction,
    SampledFunction2D,
    TruncationWarning,
    bromwich_inverse_from_samples,
    laplace_line,
)
from unitransform import io_formats as io
from unitransform.numerics import composite_gauss_nodes


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_bytes(io.to_json_bytes(payload))
    return str(path)


class TestFloatFormatting:
    def test_17_significant_digits(self):
        assert io.format_float(1.0 / 3.0) == "0.33333333333333331"

    def test_integers_render_compactly(self):
        assert io.format_float(2.0) == "2"
        assert io.format_float(-0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError):
            io.format_float(math.inf)

    def test_roundtrip_through_json(self):
        for v in (0.1, 1e-300, 9.87654321e12, -math.pi):
            assert json.loads(io.format_float(v)) == v


class TestFunctionFiles:
    def test_write_and_read(self, tmp_path):
        grid = Grid.uniform(-1.0, 1.0, 5)
        fn = SampledFunction(grid, np.exp(1j * grid.points))
        path = _write(tmp_path, "f.json", io.function_payload(fn, {"request": {}}))
        loaded = io.load_function(path)
        np.testing.assert_allclose(loaded.grid.points, grid.points)
        np.testing.assert_allclose(loaded.values, fn.values)

    def test_kind_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind":"spectrum"}')
        with pytest.raises(ContractViolationError):
            io.load_function(str(path))

    def test_unreadable_file(self):
        with pytest.raises(ContractViolationError):
            io.load_function("/nonexistent/file.json")

    def test_function2d_roundtrip(self, tmp_path):
        fn = SampledFunction2D(
            Grid.uniform(0, 1, 3),
            Grid.uniform(0, 2, 4),
            (np.arange(12).reshape(3, 4) * (1 + 1j)),
        )
        path = _write(tmp_path, "f2.json", io.function2d_payload(fn, {"request": {}}))
        loaded = io.load_function2d(path)
        np.testing.assert_allclose(loaded.values, fn.values)


class TestSpectrumFiles:
    def test_fourier_roundtrip(self, tmp_path):
        grid = Grid.uniform(-2.0, 2.0, 9)
        spectrum = ContinuousSpectrum(grid, np.exp(-grid.points**2) + 0.5j)
        path = _write(tmp_path, "s.json", io.spectrum_payload(spectrum, {"request": {}}))
        loaded = io.load_spectrum(path)
        assert isinstance(loaded, ContinuousSpectrum)
        np.testing.assert_allclose(loaded.values, spectrum.values)

    def test_laplace_roundtrip(self, tmp_path):
        grid = Grid.uniform(-3.0, 3.0, 11)
        spectrum = LaplaceSpectrum(1.5, grid, 1.0 / (1.5 + 1j * grid.points))
        path = _write(tmp_path, "s.json", io.spectrum_payload(spectrum, {"request": {}}))
        loaded = io.load_spectrum(path)
        assert isinstance(loaded, LaplaceSpectrum)
        assert loaded.sigma == 1.5
        np.testing.assert_allclose(loaded.values, spectrum.values)

    def test_gauss_nodes_line_roundtrip(self, tmp_path):
        # 300 five-node panels keep every step under the contour bound 0.05
        nodes, _ = composite_gauss_nodes(-25.0, 25.0, 5, 300)
        tau = Grid(nodes)
        line = laplace_line(lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float)) + 0j,
                            0.5, tau, 40.0)
        payload = io.spectrum_payload(line, {"request": {}})
        assert list(payload) == ["kind", "convention", "sigma", "tau_grid", "values", "meta"]
        loaded = io.load_spectrum(_write(tmp_path, "line.json", payload))
        np.testing.assert_array_equal(loaded.tau_grid.points, tau.points)
        assert loaded.tau_grid.spacing == tau.spacing < 0.05
        np.testing.assert_array_equal(loaded.values, line.values)
        exact = math.exp(-1.0)  # t e^{-t} at t = 1
        with pytest.warns(TruncationWarning):
            in_memory = bromwich_inverse_from_samples(line, 1.0)
        with pytest.warns(TruncationWarning):
            reloaded = bromwich_inverse_from_samples(loaded, 1.0)
        assert abs(reloaded - exact) == abs(in_memory - exact) < 1e-3

    @pytest.mark.parametrize("points, kind", [([-1.0, 0.0, 1.0], "uniform"),
                                              ([-1.0, 0.0, 0.5], "nonuniform")])
    def test_older_kind_entry_is_ignored(self, tmp_path, points, kind):
        # Older files labelled a grid by a "<key>_kind" entry; a grid is its points alone.
        key = "tau_grid"
        doc = {"kind": "spectrum", "convention": "laplace-line", "sigma": 1.0,
               key: points, f"{key}_kind": kind,
               "values": [[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]}
        loaded = io.load_spectrum(_write(tmp_path, "old.json", doc))
        np.testing.assert_array_equal(loaded.tau_grid.points, points)
        assert loaded.tau_grid.spacing == 1.0
        assert not hasattr(loaded.tau_grid, "kind")

    def test_uniform_grids_record_no_kind(self):
        grid = Grid.uniform(-1.0, 1.0, 3)
        fn = SampledFunction2D(grid, grid, np.zeros((3, 3)))
        assert list(io.function2d_payload(fn, {})) == ["kind", "x_grid", "t_grid", "values", "meta"]

    def test_fourier_laplace_roundtrip(self, tmp_path):
        lam = Grid.uniform(-1.0, 1.0, 3)
        tau = Grid.uniform(-2.0, 2.0, 5)
        values = np.outer(np.exp(-lam.points**2), 1.0 / (1 + 1j * tau.points))
        spectrum = FourierLaplaceSpectrum(lam, 0.5, tau, values)
        path = _write(tmp_path, "s.json", io.spectrum_payload(spectrum, {"request": {}}))
        loaded = io.load_spectrum(path)
        assert isinstance(loaded, FourierLaplaceSpectrum)
        assert loaded.sigma == 0.5
        np.testing.assert_allclose(loaded.values, values)

    def test_unknown_convention(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"kind":"spectrum","convention":"mellin","values":[]}')
        with pytest.raises(ContractViolationError):
            io.load_spectrum(str(path))


class TestMalformedFiles:
    # Each loader names the file and the offending key instead of crashing.
    def _file(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_function_without_grid(self, tmp_path):
        path = self._file(tmp_path, {"kind": "function", "values": [[1.0, 0.0]]})
        with pytest.raises(ContractViolationError, match=r"bad\.json: missing 'grid'"):
            io.load_function(path)

    def test_laplace_line_without_sigma(self, tmp_path):
        doc = {"kind": "spectrum", "convention": "laplace-line",
               "tau_grid": [0.0, 1.0], "values": [[1.0, 0.0], [0.5, 0.0]]}
        with pytest.raises(ContractViolationError, match=r"bad\.json: missing 'sigma'"):
            io.load_spectrum(self._file(tmp_path, doc))

    def test_function2d_value_pair_of_length_one(self, tmp_path):
        doc = {"kind": "function2d", "x_grid": [0.0], "t_grid": [0.0], "values": [[[1.0]]]}
        with pytest.raises(ContractViolationError, match=r"bad\.json: malformed 'values'"):
            io.load_function2d(self._file(tmp_path, doc))

    @pytest.mark.parametrize("key, doc", [
        ("grid", {"kind": "function", "grid": [0, "1.0"], "values": [[1.5, 0], [2, 0]]}),
        ("grid", {"kind": "function", "grid": [False, True], "values": [[1.5, 0], [2, 0]]}),
        ("values", {"kind": "function", "grid": [0, 1], "values": [["1.5", 0], [2, 0]]}),
        ("values", {"kind": "function", "grid": [0, 1], "values": [[1.5, True], [2, False]]}),
        ("values", {"kind": "function", "grid": [0, 1], "values": [[True, False], [True, True]]}),
        ("values", {"kind": "function2d", "x_grid": [0], "t_grid": [0, 0.5],
                    "values": [[[0.25, 0], [0.5, True]]]}),
        ("sigma", {"kind": "spectrum", "convention": "laplace-line", "sigma": True,
                   "tau_grid": [0, 1], "values": [[1, 0], [0.5, 0]]}),
        ("sigma", {"kind": "spectrum", "convention": "laplace-line", "sigma": "0.5",
                   "tau_grid": [0, 1], "values": [[1, 0], [0.5, 0]]}),
    ], ids=["string grid", "boolean grid", "string value", "booleans among numbers",
            "only booleans", "2-D boolean value", "boolean sigma", "string sigma"])
    def test_numbers_must_be_numbers(self, tmp_path, key, doc):
        load = {"function": io.load_function, "function2d": io.load_function2d,
                "spectrum": io.load_spectrum}[doc["kind"]]
        with pytest.raises(ContractViolationError, match=rf"bad\.json: malformed '{key}' entries$"):
            load(self._file(tmp_path, doc))

    def test_integers_zeros_and_ones_are_numbers(self, tmp_path):
        doc = {"kind": "function", "grid": [0, 1], "values": [[1, 0], [0.5, 1]]}
        fn = io.load_function(self._file(tmp_path, doc))
        np.testing.assert_array_equal(fn.grid.points, [0.0, 1.0])
        np.testing.assert_array_equal(fn.values, [1.0, 0.5 + 1j])
        doc = {"kind": "spectrum", "convention": "laplace-line", "sigma": 1,
               "tau_grid": [0, 1], "values": [[1, 0], [0.5, 0]]}
        assert io.load_spectrum(self._file(tmp_path, doc)).sigma == 1.0


class TestCsv:
    def test_function_rows(self):
        grid = Grid.uniform(0.0, 1.0, 3)
        fn = SampledFunction(grid, np.array([1 + 2j, 3 + 4j, 5 + 6j]))
        text = io.to_csv_bytes(io.function_payload(fn, {})).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "x,re,im"
        assert lines[1] == "0,1,2"
        assert len(lines) == 4

    def test_real_coefficient_rows(self):
        payload = {
            "kind": "fourier-coefficients",
            "L": 1.0,
            "K": 1,
            "a": [[0, 0.5], [1, 0.25]],
            "b": [[1, -1.0]],
        }
        text = io.to_csv_bytes(payload).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "k,a,b"
        assert lines[1] == "0,0.5,"
        assert lines[2] == "1,0.25,-1"

    def test_unsupported_kind(self):
        with pytest.raises(ContractViolationError):
            io.to_csv_bytes({"kind": "function2d"})


class TestDeterminism:
    def test_payload_bytes_stable(self):
        grid = Grid.uniform(-1.0, 1.0, 7)
        fn = SampledFunction(grid, np.sin(grid.points) + 1j * np.cos(grid.points))
        pay = io.function_payload(fn, {"request": {"command": "x"}})
        assert io.to_json_bytes(pay) == io.to_json_bytes(pay)


# Finite doubles, with the cases the 17-digit rule must get right drawn often.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e17, 0.1, 1.0 / 3.0]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES)
_SHAPES = st.sampled_from([(0,)]) | st.tuples(st.integers(1, 6)) | st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.just(2))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _per_number(a: np.ndarray) -> str:
    """Nested lists of ``a`` with every entry rendered by format_float."""
    if a.ndim == 0:
        return io.format_float(a)
    return "[" + ",".join(_per_number(row) for row in a) + "]"


class TestArrayPass:
    # A float array is formatted in one pass; each entry must read exactly as
    # format_float renders it, and a NaN or inf anywhere is refused.
    @settings(max_examples=300, deadline=None)
    @given(_SHAPES.flatmap(lambda shape: arrays(np.float64, shape, elements=_FINITE)))
    @example(np.array([-0.0, 5e-324, -1.7976931348623157e308, 1.7976931348623157e308, 42.0]))
    def test_json_entries_match_format_float(self, a):
        text = io.to_json_bytes({"v": a}).decode()
        assert text == '{"v":' + _per_number(a) + "}\n"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: arrays(np.float64, (n, 3), elements=_FINITE)))
    def test_csv_rows_match_format_float(self, table):
        text = io.to_csv_bytes({"kind": "fourier-coefficients", "c": table}).decode()
        rows = ["k,re,im"] + [",".join(io.format_float(v) for v in row) for row in table]
        assert text == "\n".join(rows) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(_SHAPES.filter(lambda shape: shape != (0,)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_FINITE)), st.data(), _NON_FINITE)
    def test_non_finite_entry_refused(self, a, data, bad):
        a = a.copy()
        a.flat[data.draw(st.integers(0, a.size - 1))] = bad
        with pytest.raises(ContractViolationError, match="^cannot serialize a non-finite number$"):
            io.to_json_bytes({"v": a})
        with pytest.raises(ContractViolationError, match="^cannot serialize a non-finite number$"):
            io.to_csv_bytes({"kind": "fourier-coefficients", "c": a.reshape(-1, 1)})
