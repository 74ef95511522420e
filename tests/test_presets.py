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
    "fig4": "9be934e669a051a7c8f3dd45fa6dbdcf9696a34741859124f1f4ee218620f698",
    "fig5a": "ad0902164da378e9c2c8965e9dce6896bd8f8a1a7229e5a29983af1b393ab8f9",
    "fig5b": "fd0f497769e93907fcd5ff9e28b1e08aa913fc97991d4bb879a42d16825dd3e2",
    "fig6a": "ced0143d1ffffa1079646475c132d272774d244e4e9365c787d61f1fc37a18dd",
    "fig6b": "1b6650cb48ebae211fe053b8c9c205cd14f5ad9e58eed65492a25d813828cbf6",
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
