"""Golden certificates: one or more CLI jobs per subcommand, pinned by the
sha256 of the emitted certificate.  The digest covers every byte except
the values that are measured rather than decided: the wall-clock timing,
and the Gram-layer floats, whose last bits are platform roundoff.  A
change to any verdict, payload, input echo or formatting shows up here."""

import hashlib
import re

import pytest

from spectile.cli import run

_MEASURED = re.compile(
    r'("(?:timing_seconds|period_identity_residual|max_off_diagonal|'
    r'max_diagonal_deviation)": )[^,\n]*')

GAMMA4 = "0,1/2,2,5/2"
FAMILY4 = "0,1,4,5;0,3,4,7;0,4,5,9"

GOLDEN = [
    (["check-spectrum", "--gamma", "0,1/2", "--b", "0,1"], 0,
     "2ffa11e3a8a2fda8e75ebad785d3d329ab6e2eff497a2acf4f6c715f70372373"),
    (["check-spectrum", "--gamma", "0,1/2", "--b=-1,0"], 0,
     "20cf311034efab862cf4609c5424a0aa4cdd38234099017fe305042d5cbbfe86"),
    (["enum-spectra", "--gamma", GAMMA4, "--p", "4", "--n-max", "9"], 0,
     "1889ca00e3c12e1c394bcb01c15a037ab22be306e798bb59c467b349b9136a8c"),
    (["find-complement", "--a", "0,2", "--m", "8"], 0,
     "dd3297a2017fdb2554c4b88f8eecef4f384cd51af7de2d5189b322ca9402b00a"),
    (["find-complement", "--a", "0,1,4,5", "--m", "16"], 0,
     "c52eaa820a9d1e0d82d0bf28b8d298aaef53864f3df6b01e369d88a1bb0aa35d"),
    (["find-complement", "--a", "0,2", "--m", "6"], 2,
     "320253b1e8c90d3ebbdec667130d8ff59b72f92f8e70f79f56c215d99c74fbf7"),
    (["utc-verify", "--gamma", GAMMA4, "--p", "4", "--n-max", "9",
      "--m-max", "16"], 0,
     "a4aa6b6ea26cebe83c195bec6b5600021cea34e27c2ff9ab1febdee43808afd2"),
    (["utc-verify", "--gamma", GAMMA4, "--p", "4", "--n-max", "9",
      "--m-max", "4"], 2,
     "07342d24a82030127b30424637449c97e9c37836663bc1cf7425a9ad805e4511"),
    (["build-omega", "--p", "2", "--family", "0,1;0,3",
      "--breakpoints", "0,1/4,1/2"], 0,
     "47d86e5086dda56caa515b837878be2feb361135ec270eb2ba3f27e849c59ae7"),
    (["verify-omega", "--omega", "[0,3/4);[7/4,2)", "--t-residues", "0",
      "--t-period", "2", "--p", "2"], 0,
     "a54f6611e963b3a95fe806d92e7b071502676af9534d9576ede8d5f4260afa61"),
    (["roundtrip", "--p", "2", "--gamma", "0,1", "--family", "0,1;0,3",
      "--breakpoints", "0,1/4,1/2", "--m-max", "8"], 0,
     "4468dc2fc892e526399703d7245c285d0469e1622523fb1ee892de0ee2dd1301"),
    (["roundtrip", "--p", "4", "--gamma", GAMMA4, "--family", FAMILY4,
      "--breakpoints", "0,1/12,1/6,1/4", "--m-max", "16"], 0,
     "70ec9ef74e004f853871bf7137d2825ad842ccce8d0e661df458fa918d1d7521"),
    (["roundtrip", "--p", "4", "--gamma", GAMMA4, "--family", FAMILY4,
      "--breakpoints", "0,1/12,1/6,1/4", "--m-max", "4"], 2,
     "11ad19fcddc2b6862d798faf3b8870c6fa9536b01274ae467877122076041ee3"),
    (["gram-check", "--omega", "[0,3/4);[7/4,2)", "--p", "4",
      "--gamma", "0,1,2,3", "--lam", "0", "--lam-prime", "1"], 0,
     "b33f203b2d01cca390c66445de49802206e1b947a817d47beea44d41c2e46b56"),
    (["gram-check", "--omega", "[0,1)", "--p", "2", "--gamma", "0,1/2"], 2,
     "3b497932b3dc6f3659c640272e766c47db21088189c832b85099f57e31578de8"),
    (["gram-check", "--omega", "[0,1)", "--lam", "0", "--lam-prime", "2",
      "--p", "1", "--tolerance", "1e-9"], 0,
     "6920e506fb62f1681940fba5f4a8617aad1e862216607aadc5a4092c2c34e57c"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(job[0][:3]) for job in GOLDEN])
def test_certificate_matches_golden_digest(argv, code, digest, capsys):
    assert run(argv) == code
    text = _MEASURED.sub(r"\g<1>0", capsys.readouterr().out)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
