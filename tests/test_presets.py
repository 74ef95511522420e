"""sha256 pins of all twelve preset CSVs: spectra, concurrence, dynamics and sensing.

A speed-up or a CLI rewrite that moves any digit of these files fails here;
a change that means to move one updates its digest and explains the new digits.
"""
import hashlib

import pytest

from ptqsim.cli import main

PINNED = {
    "fig2": "84106c3ae4647825c2d85cdba73e25e4a5a762a15c4750fe7b864ad7751b5554",
    "fig3a": "d158890d4061bb748c75d38f4b3e800ff06b7b85012718c1abc983d4b47c28c7",
    "fig3b": "410ae7869271cf89b43678ef4fa9908fbb05d495d0d13215190785c57e44e816",
    "fig4": "00e5abb5f21e334aebb90efbb91dd4371e30ef4679b45231cd3198de1a211b99",
    "fig5a": "84eea229cdadee7a88f444720240f044170b5f7655918abc05b87237e3bf41ac",
    "fig5b": "5cf9d294c7ee185e7aeec7bef85b8e3289a4fee7f00d4da97d6d32177fc25c05",
    "fig6a": "abc6e1368bc254e5a12b88c8963a617d432cc243f7e3c1a67348cbd8537e87ba",
    "fig6b": "f951c479ac7a7036705da5e0b2d6d27fce8b30124ca83a654a7efd30a7ba0492",
    "fig7a": "4579869158c895d8639b18099907f514f9368bb5980c75c9cd93ac37ac52a341",
    "fig7b": "48a3f94beee07e2b1b42d7551647f573f27524df509477f6f0cfbdd6c7323c92",
    "fig8a": "926caec2027fec39843551716da30e1d096861fc47f1fc12e177f367c3f5f6e6",
    "fig8b": "db36b2d74bc6d887ed2a94f27dc8bca07f7f66e70956af3eb91ccf4a7c64c20a",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_preset_sha256_pinned(preset, tmp_path):
    out_file = tmp_path / f"{preset}.csv"
    assert main(["reproduce", preset, "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[preset]
