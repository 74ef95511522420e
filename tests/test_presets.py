"""sha256 pins of all twelve preset CSVs: spectra, concurrence, dynamics and sensing.

A speed-up or a CLI rewrite that moves any digit of these files fails here;
a change that means to move one updates its digest and explains the new digits.
"""
import hashlib

import pytest

from ptqsim.cli import main

PINNED = {
    "fig2": "7a913ac31862f043452f20c29719211a6c372a2dd40d1c8e258c99dc5ba35d45",
    "fig3a": "d158890d4061bb748c75d38f4b3e800ff06b7b85012718c1abc983d4b47c28c7",
    "fig3b": "410ae7869271cf89b43678ef4fa9908fbb05d495d0d13215190785c57e44e816",
    "fig4": "fdb2fb4802c430764fee8fb2ac6cc631cf77516a698310333538ab032c9cc98a",
    "fig5a": "e775275c6f06b79f923ac7a71ad9fa320a89d6c9763eccb10cc40538632ad4b9",
    "fig5b": "5ecb18e0d7afc09732231ed457daf88cdf36f05530044f19dcfd89d798bf3c11",
    "fig6a": "3ea21e24dc1f4fe92564ee2f16f6c89a2b48ab816a5c8227fe3443d8554673af",
    "fig6b": "f37c367fc01aac6bddaa198642d4e9516138fd7c16e3bfc8178a6435028261f1",
    "fig7a": "3608674a40234062cb4fd91e2bd03462b02182207be5dd628a405914cada579d",
    "fig7b": "983f113378f019ea8fdef0d685a02491fc2b1ff3dfe1af23a37f0e2ead5d3f16",
    "fig8a": "85332fa91233ade5ec02911d33eafe6fd8c5e9d2ce726366fb639ed68ab63f41",
    "fig8b": "9bca675a9f535a9411b593db4042f644f9d01d76fb2807efc244f49919ca9694",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_preset_sha256_pinned(preset, tmp_path):
    out_file = tmp_path / f"{preset}.csv"
    assert main(["reproduce", preset, "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[preset]
