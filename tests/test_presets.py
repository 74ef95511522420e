"""sha256 pins of all twelve preset CSVs: spectra, concurrence, dynamics and sensing.

A speed-up or a CLI rewrite that moves any digit of these files fails here;
a change that means to move one updates its digest and explains the new digits.
"""
import hashlib

import pytest

from ptqsim.cli import main

PINNED = {
    "fig2": "2fc543ed7beca7b10de0d2dd2637b3213360692ab8e760773194fb45dbccb489",
    "fig3a": "d158890d4061bb748c75d38f4b3e800ff06b7b85012718c1abc983d4b47c28c7",
    "fig3b": "410ae7869271cf89b43678ef4fa9908fbb05d495d0d13215190785c57e44e816",
    "fig4": "00e5abb5f21e334aebb90efbb91dd4371e30ef4679b45231cd3198de1a211b99",
    "fig5a": "84eea229cdadee7a88f444720240f044170b5f7655918abc05b87237e3bf41ac",
    "fig5b": "5cf9d294c7ee185e7aeec7bef85b8e3289a4fee7f00d4da97d6d32177fc25c05",
    "fig6a": "abc6e1368bc254e5a12b88c8963a617d432cc243f7e3c1a67348cbd8537e87ba",
    "fig6b": "f951c479ac7a7036705da5e0b2d6d27fce8b30124ca83a654a7efd30a7ba0492",
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
