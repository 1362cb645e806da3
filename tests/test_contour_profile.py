"""The contour-guard profile of a stored spectrum is computed once, at construction.

Reads of a :class:`LaplaceSpectrum` or :class:`FourierLaplaceSpectrum` take
the endpoint guard's magnitude profile from the spectrum, so they run no
pass over |values|; the spectra own a copy of their values, so the stored
profile cannot go stale.
"""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from unitransform import (
    FourierLaplaceSpectrum,
    Grid,
    LaplaceSpectrum,
    TruncationWarning,
    bromwich_inverse,
    bromwich_inverse_from_samples,
    inverse_fl,
)
from unitransform import laplace

TAU = Grid.uniform(-10.0, 10.0, 401)
LAMBDA = Grid.uniform(-4.0, 4.0, 17)  # |F| ~ e^{-lambda^2} ends at e^-16 of its peak
SIGMA = 0.5


def _decaying(s):
    """exp(-tau^2) on the line: endpoints far below 1e-6 of the peak."""
    return np.exp((s - SIGMA) ** 2)


def _slow(s):
    return 1.0 / s


def _line(fhat) -> np.ndarray:
    return fhat(SIGMA + 1j * TAU.points)


def _surface(fhat) -> np.ndarray:
    return np.exp(-LAMBDA.points[:, None] ** 2) * _line(fhat)[None, :]


@pytest.fixture
def profile_calls(monkeypatch):
    """Count calls of laplace._contour_profile."""
    calls = []
    original = laplace._contour_profile

    def spy(values):
        calls.append(values.shape)
        return original(values)

    monkeypatch.setattr(laplace, "_contour_profile", spy)
    return calls


def _no_warning(read):
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        return read()


class TestProfileComputedOnce:
    def test_laplace_spectrum(self, profile_calls):
        spectrum = LaplaceSpectrum(SIGMA, TAU, _line(_decaying))
        assert profile_calls == [(len(TAU),)]
        for t in (0.5, 1.0, 2.0):
            _no_warning(lambda: bromwich_inverse_from_samples(spectrum, t))
        assert len(profile_calls) == 1

    def test_fourier_laplace_spectrum(self, profile_calls):
        spectrum = FourierLaplaceSpectrum(LAMBDA, SIGMA, TAU, _surface(_decaying))
        assert profile_calls == [(len(LAMBDA), len(TAU))]
        for x, t in ((0.0, 0.5), (0.3, 1.0), (-0.2, 2.0)):
            _no_warning(lambda: inverse_fl(spectrum, x, t))
        assert len(profile_calls) == 1

    def test_warning_reads_do_not_recompute(self, profile_calls):
        spectrum = LaplaceSpectrum(SIGMA, TAU, _line(_slow))
        for _ in range(3):
            with pytest.warns(TruncationWarning):
                bromwich_inverse_from_samples(spectrum, 1.0)
        assert len(profile_calls) == 1

    def test_fresh_samples_get_their_profile(self, profile_calls):
        with pytest.warns(TruncationWarning):
            bromwich_inverse(_slow, 1.0, 10.0, 1.0)
        assert len(profile_calls) == 1


class TestSpectrumOwnsItsValues:
    @pytest.mark.parametrize("sample, make, read", [
        (_line, lambda v: LaplaceSpectrum(SIGMA, TAU, v),
         lambda s: bromwich_inverse_from_samples(s, 1.0)),
        (_surface, lambda v: FourierLaplaceSpectrum(LAMBDA, SIGMA, TAU, v),
         lambda s: inverse_fl(s, 0.0, 1.0)),
    ], ids=["laplace", "fourier-laplace"])
    def test_caller_writes_leave_values_and_verdict(self, sample, make, read):
        caller = sample(_decaying)
        spectrum = make(caller)
        before = spectrum.values.copy()
        quiet = _no_warning(lambda: read(spectrum))
        caller[..., 0] = caller[..., -1] = 1e6
        np.testing.assert_array_equal(spectrum.values, before)
        assert _no_warning(lambda: read(spectrum)) == quiet

    def test_caller_writes_cannot_silence_a_warning(self):
        caller = _line(_slow)
        spectrum = LaplaceSpectrum(SIGMA, TAU, caller)
        caller[:] = _line(_decaying)
        np.testing.assert_array_equal(spectrum.values, _line(_slow))
        with pytest.warns(TruncationWarning):
            bromwich_inverse_from_samples(spectrum, 1.0)

    def test_values_stay_read_only(self):
        spectrum = LaplaceSpectrum(SIGMA, TAU, _line(_decaying))
        with pytest.raises(ValueError):
            spectrum.values[0] = 0.0


class TestReplaceRecomputesProfile:
    def test_laplace_replace(self, profile_calls):
        quiet = LaplaceSpectrum(SIGMA, TAU, _line(_decaying))
        _no_warning(lambda: bromwich_inverse_from_samples(quiet, 1.0))
        loud = dataclasses.replace(quiet, values=_line(_slow))
        assert len(profile_calls) == 2
        with pytest.warns(TruncationWarning):
            bromwich_inverse_from_samples(loud, 1.0)
        _no_warning(lambda: bromwich_inverse_from_samples(quiet, 1.0))

    def test_fourier_laplace_replace(self, profile_calls):
        quiet = FourierLaplaceSpectrum(LAMBDA, SIGMA, TAU, _surface(_decaying))
        loud = dataclasses.replace(quiet, values=_surface(_slow))
        assert len(profile_calls) == 2
        with pytest.warns(TruncationWarning, match="^s axis: contour integrand"):
            inverse_fl(loud, 0.0, 1.0)


def _expected_text(values: np.ndarray, axis: str = "") -> str:
    magnitude = np.abs(values).reshape(-1, values.shape[-1]).max(axis=0)
    ratio = max(magnitude[0], magnitude[-1]) / magnitude.max()
    return (f"{axis}contour integrand at the endpoints is {ratio:.2e} of its peak; "
            "raise the contour half-height T for full accuracy")


class TestWarningPerRead:
    """One TruncationWarning per read, with the guard's text, at the caller's line."""

    def _check(self, caught, line, text):
        assert [type(w.message) for w in caught] == [TruncationWarning]
        assert str(caught[0].message) == text
        assert caught[0].filename == __file__
        assert caught[0].lineno == line

    def test_laplace_spectrum(self):
        spectrum = LaplaceSpectrum(SIGMA, TAU, _line(_slow))
        for t in (0.5, 1.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = inspect.currentframe().f_lineno + 1
                bromwich_inverse_from_samples(spectrum, t)
            self._check(caught, line, _expected_text(_line(_slow)))

    def test_fourier_laplace_spectrum(self):
        values = _surface(_slow)
        spectrum = FourierLaplaceSpectrum(LAMBDA, SIGMA, TAU, values)
        for x in (0.0, 0.5):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = inspect.currentframe().f_lineno + 1
                inverse_fl(spectrum, x, 1.0)
            self._check(caught, line, _expected_text(values, "s axis: "))

    def test_bromwich_inverse_of_one_over_s(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            v = bromwich_inverse(_slow, 1.0, 50.0, 1.0)
        assert [type(w.message) for w in caught] == [TruncationWarning]
        assert caught[0].filename == __file__ and caught[0].lineno == line
        assert v.real == pytest.approx(1.0, abs=1e-1)
