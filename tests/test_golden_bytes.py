"""Golden bytes: every writing command, in each format it offers, gives the
recorded output byte for byte.

Each request runs in-process in a scratch directory, so the ``input``
paths that ``meta.request`` echoes are the same relative names on every
machine.  A request with ``--output`` is checked by the SHA-256 of the file
it writes (and must print nothing); any other by the SHA-256 of its stdout.
Requests that read ``--input`` read the files of earlier ones.

A digest changes only when a command's output bytes change; such a change
must be stated and explained, and the table below re-recorded.
"""

import hashlib

import numpy as np

from unitransform import Grid, LaplaceSpectrum, SampledFunction2D
from unitransform import io_formats as io
from unitransform.cli import main
from unitransform.numerics import composite_gauss_nodes

_FT = ["ft", "--expr", "exp(-(x-0.5)^2/2)", "--A", "12",
       "--lambda-min", "-4", "--lambda-max", "4", "--lambda-step", "0.1"]
_IFT = ["ift", "--input", "ft.json", "--x-min", "-3", "--x-max", "3", "--x-step", "0.25"]
_LINE = ["lt", "--expr", "x^3*exp(-x)", "--sigma", "0.5", "--X", "40",
         "--tau-min", "-50", "--tau-max", "50", "--tau-step", "0.05"]
_POINT = ["lt", "--expr", "exp(-x)", "--s", "2-1i", "--X", "40"]
_ILT = ["ilt", "--input", "line.json", "--t", "1"]
# A 31 x 401 Fourier-Laplace spectrum.
_FLT = ["flt", "--expr", "exp(-x^2/2)*t^7*exp(-t)", "--sigma", "0.5", "--A", "12", "--X", "40",
        "--lambda-min", "-3", "--lambda-max", "3", "--lambda-step", "0.2",
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
    "ft.json": "cda0ab378b234dc889e55be5b91bbe784cabd4e058715ba235b7df656fca7af7",
    "ft-csv": "295623eb416d829731f7c7d5f701a4ecc6858291506915a1218342549d66e2f3",
    "ift.json": "f85387bc13b8d35edfd8cfcc12004e0287dadef68f22157eb3fb2b88a13c2b36",
    "ift.csv": "697a928743639c5083df73f6ef1486302adfaa7002ebcc2f4c7ed99483650424",
    "estimate-abscissa-input": "d87bc965a2408da70121981c4ad2c1575ee7ebd5611221b37206be7ad95d6d61",
    "estimate-abscissa-expr": "aa8256e9f0b9bbb71f5640c8c1d9855223daa3465d932fe83f217e78ff02808e",
    "line.json": "20f98d73c9bd7a2c3b5d4e253728666760dc5b8ae664ead859d7d9d15fb4c7a3",
    "line.csv": "11766da67531ba1ba4272c242044ffff91edfe4c66000ebc5538d437da76738e",
    "lt-s": "ffdc4d99619b1284debb70ca8ec0e23bc2fa9155d5905d9de018b37417eb9ca6",
    "lt-s.csv": "f5b644adc6a347b040a9e3a885959b4bbb952aa935b9d00b0f8e223dc94b5191",
    "ilt": "54a9f480495656ce74fe5a60173d2a88be76d1d8b3553d30a8a87affe0729d89",
    "ilt.csv": "79c1eb07cbbdf5eec52d3f0b581284584bad98c6c653feebf90572c929d71741",
    "fl.json": "d52424febe3d3beaf9e9745d408b8cbdbabcaf77aa66a904875cf37dd9792bcc",
    "iflt": "a5e9176f763069abe8a850b2fb396d29e91835769f6840837a337ef0e7754e5c",
    "iflt.csv": "b7edc823d9a930d3fd7a31cee78464dd068eedfd07b237e5e7bb5320bb3a0c8e",
    "series.json": "b132685ad3348725fd55bb8213555b692037be59cc490d9b0b3bd9b0b72b2803",
    "series-csv": "01b5c480f493088c8cf5deeb3ecb7027060707daf758e2fb24e55c05f2965061",
    "real-series": "ac3006567df1e677aeecf2b0021857d4f175d04791d15f3887f97f5cd0f8575a",
    "real-series.csv": "2a4d4d70ef75a3bbbbabb899e9c87b52e1150ccc4248fbd7ce4ccf798dc66713",
    "verify-orthogonality": "5a8fc7c9fc416df73d5aea416d7b866ca8c4c8af66fe1ac09f3c59ac9b8c2d7c",
    "verify-residual": "5d0fb267ebe00253f534adaa54618e55fff38e145c5cfbb7ff3796d717783e18",
    "roundtrip.json": "b3b267aa97309447a682de08c85631ce03c48bc3751cd0d9841833f87b84ee0d",
    "function2d": "ecf04c44f544dcf0b801efd05303734a790e03732172be4610de182366c60e41",
    "gauss-line": "296fbdf60c1ca7c751a164040bccda01985b50d5bafd8561e30c247d854695ed",
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
    x = Grid(composite_gauss_nodes(-1.0, 1.0, 3, 2)[0], kind="gauss-nodes")
    t = Grid.uniform(0.0, 2.0, 5)
    values = np.exp(-x.points[:, None] ** 2 - 1j * t.points[None, :]) - 1.0
    fn = io.function2d_payload(SampledFunction2D(x, t, values), {"request": {}})
    line = io.spectrum_payload(LaplaceSpectrum(0.5, x, 1.0 / (1.5 + 1j * x.points)), {})
    return {"function2d": _sha(io.to_json_bytes(fn)),
            "gauss-line": _sha(io.to_json_bytes(line)),
            "gauss-line-csv": _sha(io.to_csv_bytes(line))}


def test_every_output_matches_its_recorded_digest(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UNITRANSFORM_QUAD_TOL", raising=False)
    digests = {**corpus_digests(capsysbinary), **library_digests()}
    changed = sorted(name for name in DIGESTS if digests.get(name) != DIGESTS[name])
    assert not changed, f"output bytes changed: {changed}"
    assert set(digests) == set(DIGESTS)
