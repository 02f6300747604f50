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
    r'max_diagonal_deviation)":)[^,}]*')

GAMMA4 = "0,1/2,2,5/2"
FAMILY4 = "0,1,4,5;0,3,4,7;0,4,5,9"

GOLDEN = [
    (["check-spectrum", "--gamma", "0,1/2", "--b", "0,1"], 0,
     "5166b696b13a65606ffa1ced2ffefff58bcf84f266e04c0fcd9167a1dc8efe46"),
    (["check-spectrum", "--gamma", "0,1/2", "--b=-1,0"], 0,
     "00131d50d7834f212bd4a8d59174a354054e285dd8c7f97c253f6f5db3992609"),
    (["enum-spectra", "--gamma", GAMMA4, "--p", "4", "--n-max", "9"], 0,
     "a0f25cb9ee480c68a3c7daa37f68b6e054c68f0549dbf20235630f871a430369"),
    (["find-complement", "--a", "0,2", "--m", "8"], 0,
     "afeac797f66cf9619278325fb4c82e74665f7b23232db057faba4a74979cf472"),
    (["find-complement", "--a", "0,1,4,5", "--m", "16"], 0,
     "68084525fdfad761e45e791b2c5bf08fe16dd6460e89c3d4f79e366d6d046a8d"),
    (["find-complement", "--a", "0,2", "--m", "6"], 2,
     "827e7f76d4747081ac8abcca7efb884aff6456872bd57e29d5c7e18f3dbfb54b"),
    (["utc-verify", "--gamma", GAMMA4, "--p", "4", "--n-max", "9",
      "--m-max", "16"], 0,
     "9c8493a4ddc521055d71034261d12170cc0986cea12801b120d2e26bacf7f27b"),
    (["utc-verify", "--gamma", GAMMA4, "--p", "4", "--n-max", "9",
      "--m-max", "4"], 2,
     "ccd0d21d03eb0957b00115f27ef43bd3339cc8226878d71b9473a7759e264712"),
    (["build-omega", "--p", "2", "--family", "0,1;0,3",
      "--breakpoints", "0,1/4,1/2"], 0,
     "e0978986b9f5f2c593672207859020b79daf055ee464009170c7c556b1cd2fcd"),
    (["verify-omega", "--omega", "[0,3/4);[7/4,2)", "--t-residues", "0",
      "--t-period", "2", "--p", "2"], 0,
     "1e0d1ed3f0c13243f8432ba1db3b38094fb3b8ea83424b45d19b66808120c840"),
    (["roundtrip", "--p", "2", "--gamma", "0,1", "--family", "0,1;0,3",
      "--breakpoints", "0,1/4,1/2", "--m-max", "8"], 0,
     "474a3888dab34e0318572440f94b85508501e6e65a39ca0417fea983ff526370"),
    (["roundtrip", "--p", "4", "--gamma", GAMMA4, "--family", FAMILY4,
      "--breakpoints", "0,1/12,1/6,1/4", "--m-max", "16"], 0,
     "eb5814c383cf6a62841fd6508816fefe00235474a62a563740b7e0c800d9be08"),
    (["roundtrip", "--p", "4", "--gamma", GAMMA4, "--family", FAMILY4,
      "--breakpoints", "0,1/12,1/6,1/4", "--m-max", "4"], 2,
     "d4b3c69a231ae828848dd84b49f7f6949ae8377ae32eeb34f87b12967a52e322"),
    (["gram-check", "--omega", "[0,3/4);[7/4,2)", "--p", "4",
      "--gamma", "0,1,2,3", "--lam", "0", "--lam-prime", "1"], 0,
     "1b8e79802e460b9ad5c59b41dfa4fed482372b8f737df7cd9776e6fd5521656d"),
    (["gram-check", "--omega", "[0,1)", "--p", "2", "--gamma", "0,1/2"], 2,
     "d0c6187b4208c591aab9523029cc3be77f3fd77c2b48d29d135a7fa6870bbe92"),
    (["gram-check", "--omega", "[0,1)", "--lam", "0", "--lam-prime", "2",
      "--p", "1", "--tolerance", "1e-9"], 0,
     "f2507dd17425db53f1dfe787c04d8525c405060711c81b1f47292c4ee248be28"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(job[0][:3]) for job in GOLDEN])
def test_certificate_matches_golden_digest(argv, code, digest, capsys):
    assert run(argv) == code
    text = _MEASURED.sub(r"\g<1>0", capsys.readouterr().out)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
