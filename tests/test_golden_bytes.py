"""Golden bytes: every writing command, in each format it offers, gives the
recorded output byte for byte.

Each request runs in-process in a scratch directory, so the ``input``
paths that ``meta.request`` echoes are the same relative names on every
machine.  A request with ``--output`` is checked by the SHA-256 of the file
it writes (and must print nothing); any other by the SHA-256 of its stdout.
Requests that read ``--input`` read the files of earlier ones.

A digest changes only when a command's output bytes change; such a change
must be stated and explained, and the table below re-recorded from the
digests that the failure message prints.
"""

import hashlib

import numpy as np

from unitransform import Grid, LaplaceSpectrum, SampledFunction2D
from unitransform import io_formats as io
from unitransform.cli import main
from unitransform.numerics import composite_gauss_nodes

# Each lambda range reaches +-6, where |F| of a unit gaussian is e^-18 of its peak, so the
# stored spectrum passes the endpoint guard of the ift and iflt lambda sums.
_FT = ["ft", "--expr", "exp(-(x-0.5)^2/2)", "--A", "12",
       "--lambda-min", "-6", "--lambda-max", "6", "--lambda-step", "0.1"]
_IFT = ["ift", "--input", "ft.json", "--x-min", "-3", "--x-max", "3", "--x-step", "0.25"]
_LINE = ["lt", "--expr", "x^3*exp(-x)", "--sigma", "0.5", "--X", "40",
         "--tau-min", "-50", "--tau-max", "50", "--tau-step", "0.05"]
_POINT = ["lt", "--expr", "exp(-x)", "--s", "2-1i", "--X", "40"]
_ILT = ["ilt", "--input", "line.json", "--t", "1"]
# A 61 x 401 Fourier-Laplace spectrum.
_FLT = ["flt", "--expr", "exp(-x^2/2)*t^7*exp(-t)", "--sigma", "0.5", "--A", "12", "--X", "40",
        "--lambda-min", "-6", "--lambda-max", "6", "--lambda-step", "0.2",
        "--tau-min", "-10", "--tau-max", "10", "--tau-step", "0.05"]
_IFLT = ["iflt", "--input", "fl.json", "--x", "0.5", "--t", "1"]
_SERIES = ["series", "--expr", "exp(cos(pi*x))", "--L", "1", "--K", "6"]
_REAL = ["real-series", "--expr", "abs(x)", "--L", "1", "--K", "6"]
_CSV = ["--format", "csv"]

# (name, argv); a name with a file extension is the --output file.
CORPUS = [
    ("ft.json", _FT),
    ("ft-csv", _FT + _CSV),
    ("ift.json", _IFT),
    ("ift.csv", _IFT + _CSV),
    ("estimate-abscissa-input", ["estimate-abscissa", "--input", "ift.json"]),
    ("estimate-abscissa-expr", ["estimate-abscissa", "--expr", "3*exp(0.5*x)",
                                "--x-min", "0", "--x-max", "10", "--x-step", "0.5"]),
    ("line.json", _LINE),
    ("line.csv", _LINE + _CSV),
    ("lt-s", _POINT),
    ("lt-s.csv", _POINT + _CSV),
    ("ilt", _ILT),
    ("ilt.csv", _ILT + _CSV),
    ("fl.json", _FLT),
    ("iflt", _IFLT),
    ("iflt.csv", _IFLT + _CSV),
    ("series.json", _SERIES),
    ("series-csv", _SERIES + _CSV),
    ("real-series", _REAL),
    ("real-series.csv", _REAL + _CSV),
    ("verify-orthogonality", ["verify-orthogonality", "--L", "1", "--K", "3"]),
    ("verify-residual", ["verify-residual", "--lam", "0", "--lam", "2", "--n", "4", "--n", "8"]),
    ("roundtrip.json", ["roundtrip", "--expr", "exp(-x^2/2)*cos(x)", "--A", "12",
                        "--lambda-min", "-8", "--lambda-max", "8", "--lambda-step", "0.1",
                        "--x-min", "-2", "--x-max", "2", "--x-step", "0.25"]),
]

# Recorded from the per-number renderer that wrote each float through format_float, with
# one BLAS thread (conftest.py pins it): the flt and iflt bytes go through a complex matmul.
DIGESTS = {
    "ft.json": "570f1b96f5c6e5aab4ee9df6d5ed4f800966d47ededff780338e54a1971efa72",
    "ft-csv": "a86428f7fba127e0bd229bd6a2a20002f7fe82e7dc65a2a8fc5ae94feb2a67a6",
    "ift.json": "255e5f9ca5ffadb937e12b97170c3a89edf30fb47912c1baba1a0f44bc2b4747",
    "ift.csv": "b2c4733e4fc408495eb2129ebd032c6658ebeb4af17cd8d09ae8168bbd06a6b6",
    "estimate-abscissa-input": "003b47f52dfbc77d7d43c65673642032d890d58d86f1f0cef9e9e43f268591bc",
    "estimate-abscissa-expr": "aa8256e9f0b9bbb71f5640c8c1d9855223daa3465d932fe83f217e78ff02808e",
    "line.json": "af564534d536cb5b6cb55073273c0b82545b293516516e62eb9bfc1c688a1ad8",
    "line.csv": "02ab37fe593d7740ab028789dcc4b46211984b5c277122184095bc798df78afb",
    "lt-s": "ea2aae7c5b8fdcd28f83ab022c1efe3c499cd5eee725c8ad79b5f7b770d34093",
    "lt-s.csv": "31b20fbaa779abe9070818fbab8fe05a55a19d22707284869cf8dd4803b73ddf",
    "ilt": "955480e76f0211ecffed7676fc5f23b9865a02f843c2854051b18dd422ce8f5d",
    "ilt.csv": "c5024976e5ea9bdadff8340a6e04976e98dac2d73bd3c76a62794293504803f9",
    "fl.json": "b02d03ca998db6306695856d8c91eeea74ef949f6d89c68b5aefb92abe43ff56",
    "iflt": "04b32d84aaf4a38bc1b73cf1415d3fc80d6e50a4590c5c8bc0dcce31da0246fc",
    "iflt.csv": "30fbd2d66e5a56dbfb2aff1b5861b9f096e888e1e3713f1c968abb6ad60cff7e",
    "series.json": "da31627e31c949d9d0696ac250783d7861849a8fe56821c51de249904eec0cff",
    "series-csv": "527c596e6957103c32f724bff69042b4beae68973aacdd7861f1ea8edbd20c92",
    "real-series": "7716a43eb32c53b23b213a5b230c206733217c79edec0be9488b71aac5b2e9cc",
    "real-series.csv": "d7e667d54fcfc9003c50e4fc06dd76b5230cd6136e074533fa565ec8cdfd61ef",
    "verify-orthogonality": "840429c05148aea1aa83333ea0f6005edd6d9871f9be53e6dd59240504f44da8",
    "verify-residual": "999b231c11f4ef17392537e90a78e0b2fd4fa98d3416901db42c0144edeca17b",
    "roundtrip.json": "e0288b5f8a16aa8fd1e9d7542fab17aa4612bc1f7895e7697ce15c98a3a4b9fd",
    "function2d": "1db9f2c3afec43aa6556aab26848edfdfcda60dd903a342cfd70d9a9cc0b69db",
    "gauss-line": "bfbe11d0907c77bd18793871ca6f7d82a175ad47f99aa0de6848055c0466a009",
    "gauss-line-csv": "9aedfc7c3b2102ea41bcf4c717fcfb892bf8c4cb64dde5ded32d5cd91ed2fb47",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digests(capsysbinary) -> dict:
    """The digest of every corpus request, run in order in the current directory."""
    digests = {}
    for name, argv in CORPUS:
        writes = "." in name
        code = main(argv + (["--output", name] if writes else []))
        out, err = capsysbinary.readouterr()
        assert code == 0, (name, err)
        if writes:
            assert out == b"", name
            with open(name, "rb") as fh:
                out = fh.read()
        digests[name] = _sha(out)
    return digests


def library_digests() -> dict:
    """Writers no command reaches: a 2-D function and a line spectrum on Gauss-node grids."""
    x = Grid(composite_gauss_nodes(-1.0, 1.0, 3, 2)[0])
    t = Grid.uniform(0.0, 2.0, 5)
    values = np.exp(-x.points[:, None] ** 2 - 1j * t.points[None, :]) - 1.0
    fn = io.function2d_payload(SampledFunction2D(x, t, values), {"request": {}})
    line = io.spectrum_payload(LaplaceSpectrum(0.5, x, 1.0 / (1.5 + 1j * x.points)), {})
    return {"function2d": _sha(io.to_json_bytes(fn)),
            "gauss-line": _sha(io.to_json_bytes(line)),
            "gauss-line-csv": _sha(io.to_csv_bytes(line))}


def test_every_output_matches_its_recorded_digest(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    digests = {**corpus_digests(capsysbinary), **library_digests()}
    changed = sorted(name for name in DIGESTS if digests.get(name) != DIGESTS[name])
    got = "".join(f'\n    "{name}": "{digests.get(name)}",' for name in changed)
    assert not changed, f"output bytes changed: {changed}; digests now:{got}"
    assert set(digests) == set(DIGESTS)
