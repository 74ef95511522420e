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
    "fig4": "fdb2fb4802c430764fee8fb2ac6cc631cf77516a698310333538ab032c9cc98a",
    "fig5a": "e775275c6f06b79f923ac7a71ad9fa320a89d6c9763eccb10cc40538632ad4b9",
    "fig5b": "5ecb18e0d7afc09732231ed457daf88cdf36f05530044f19dcfd89d798bf3c11",
    "fig6a": "3ea21e24dc1f4fe92564ee2f16f6c89a2b48ab816a5c8227fe3443d8554673af",
    "fig6b": "f37c367fc01aac6bddaa198642d4e9516138fd7c16e3bfc8178a6435028261f1",
    "fig7a": "8b11668a73fb7a9d898239dcf2d2a0ca69b0709729f8ac133787f910071a533b",
    "fig7b": "e3a0f61c3eb09b0a787f81d957356e11f09838060a3b916e774d99c269b73870",
    "fig8a": "163b6a5bf8cd1513a985965d5c005c35650e5e00aa9a62a6edd9122e6c0373f8",
    "fig8b": "b3c6eb073d49ea0dd8d78150870e5a4d3ea413322e966fae83808f93c7725c52",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_preset_sha256_pinned(preset, tmp_path):
    out_file = tmp_path / f"{preset}.csv"
    assert main(["reproduce", preset, "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[preset]
