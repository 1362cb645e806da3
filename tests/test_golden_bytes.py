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
    "ft.json": "9d146b466656a3775e8f2d341b9617a57a434839eb6d68bbf816c91118376e6c",
    "ft-csv": "25501da5c1a63a82a0e643c9f2358d683529299e2e1feedf488c0fd258944b84",
    "ift.json": "ccaf4cbea133ed46640af2a7cb8d7b1c26cb8bac1ae68ad841fad19f7aca6750",
    "ift.csv": "8ca3c4453f722421592bacdc2acbdca2d4cd60e222fecd156d754da99e5651e4",
    "estimate-abscissa-input": "0798d7831a4ab31e0917f3eb882122acb5bf94718312e4424a254d2194d02918",
    "estimate-abscissa-expr": "aa8256e9f0b9bbb71f5640c8c1d9855223daa3465d932fe83f217e78ff02808e",
    "line.json": "c9dcfeaa8aacfd8d1b1ae8c74eaad8a3bd6ecbcc82b98fd4ee7e60fdb5ecc867",
    "line.csv": "ba2bd36f603b1e5305eb342eb055eeb6f02ee32e4caf891b516b040ea43a6482",
    "lt-s": "ea2aae7c5b8fdcd28f83ab022c1efe3c499cd5eee725c8ad79b5f7b770d34093",
    "lt-s.csv": "31b20fbaa779abe9070818fbab8fe05a55a19d22707284869cf8dd4803b73ddf",
    "ilt": "825240e74b8e0ce1cd347effabb25137000dac4b415a2c94b473ad3dadb29752",
    "ilt.csv": "bb586b2d23404c302b700dce2628fda7e1d3b66fc4b62967e14e668c50672b1e",
    "fl.json": "c1395472956d38dd81ece2b19103fab7beea0cc4c9e7ad1653d6e3f6743055f9",
    "iflt": "0de8b9b04b9715e3059fd5245a520497dce7227a59ac56f0c87ea41f379f71d8",
    "iflt.csv": "6e107d15666b623e260758c6487b3d4b3c242bbd592241cc43e3f2d27b230462",
    "series.json": "26bb27eb79949af9e59d8649a5688762c4768f9a1b3f4ff1c8a9592518548df1",
    "series-csv": "d9be438832bede34c679b5ce121e95be1fe6ba1c046625e0ec89f1839189ce9f",
    "real-series": "7716a43eb32c53b23b213a5b230c206733217c79edec0be9488b71aac5b2e9cc",
    "real-series.csv": "d7e667d54fcfc9003c50e4fc06dd76b5230cd6136e074533fa565ec8cdfd61ef",
    "verify-orthogonality": "a50aae39e2628f1ff5bd55446c0c3d65665f601836aa6dcb7eb4f1419ccfbd36",
    "verify-residual": "999b231c11f4ef17392537e90a78e0b2fd4fa98d3416901db42c0144edeca17b",
    "roundtrip.json": "1d266402289f57bfebf7123a53b4f97bdc5e2e697a53d138949336ec16c8d37d",
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
