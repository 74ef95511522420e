"""sha256 pins of the preset CSVs that the closed-form spectrum and sensing paths write.

A speed-up that moves any digit of these files fails here; a change that
means to move one updates its digest and explains the new digits.
"""
import hashlib

import pytest

from ptqsim.cli import main

PINNED = {
    "fig2": "2fc543ed7beca7b10de0d2dd2637b3213360692ab8e760773194fb45dbccb489",
    "fig7a": "25ce344f107f696f29add7d426dd17ec9117c4e9bc15a283cb43f9ac9c490f26",
    "fig7b": "dee70da33b10813d63062d006812505adb2ee377a6aedfaac4b9910ac064e8c2",
    "fig8a": "926caec2027fec39843551716da30e1d096861fc47f1fc12e177f367c3f5f6e6",
    "fig8b": "7f7cbc293c71b55f5eef3d0c2d14951d65eacf441c924fb260243b404ebaf393",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_preset_sha256_pinned(preset, tmp_path):
    out_file = tmp_path / f"{preset}.csv"
    assert main(["reproduce", preset, "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[preset]
