"""Golden stdout: `analyze bundled:<name>` must print exactly the pinned bytes.

Criterion 10 compares a run with itself, which a change to an exact kernel
that alters the output would still pass. These sha256 digests pin the stdout
of every bundled instance, so any such change fails here. Regenerate them
only when a change to the report is intended.
"""

from __future__ import annotations

import hashlib

import pytest

from reeskit.cli import main
from reeskit.jsonio import bundled_names

GOLDEN = {
    "graphic_k3": "d19f6ad094d9a3e4c8404a4d00bd983ce2f9b465379e966e8926a3c74f544fc4",
    "graphic_k4": "72f484051e193ddefa948cdb380802471bb6647d27c7b99aee9064b6eec4e625",
    "ideal_mixed_neither": "c45e5297b9c1657428db863bbf9100ba101f18bac99fb465426de019436e4078",
    "ideal_principal": "e7e02fd5d368aff207ad1a315771e7728d5bb39af372eb6b58c822739cbc9e99",
    "ideal_two_squares": "cd05307a4ebe71049ddf8446b37b9f30fe4c4fc2adb8baeeb2ee3e82a7d58b42",
    "transversal_12_123": "1b50e156e9871188b314679022ad50a4367ca71f6d085bb4e2eb0ced4b62c70a",
    "u_1_1": "2133f5b8c311e90d8682f1629192ecc67c611cafdb299c9fadee08a9542e4175",
    "u_1_2": "7cebf451fe4c6a7dbff5b86c2d095080b28705d2bc3d0f18b2ab58cadeb942b4",
    "u_2_3": "829d81fd8e6763e677cc74c715e131bdcf247324900f85aa18fca958b2994642",
    "u_2_4": "a2916146d0aeb8fb37b7066c44580717863d69ac2439ac173592587da2279e6c",
    "u_3_4": "66a0f2f6e6c862b50e4896865c75b31d442f204650c136ac39a1c97bd9487981",
    "u_4_4": "41d70c7d86af77b5d360a85a02c25edec79469776f8f6415e335a873417c0beb",
    "veronese_2_2": "8cc563bbc501cb52577df74e7216bd1c0fc87cf3cb48b1007102f6c20e9ce908",
    "veronese_2_3": "3127fe4fe3e721fb49162b48882f376ce0e293e3754ad097fe33667ff8edf36a",
    "veronese_3_2": "0a5f1b886b02c772718c10851c3bc88eabfdb77bd375e0570f4020488d8f48ff",
    "veronese_3_4": "603ac7337ae1575095bad217ff61b9c47e09089ccd85c469a8775e1d8b7da7a9",
}


def test_every_bundled_instance_is_pinned():
    assert sorted(GOLDEN) == bundled_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_stdout_matches_golden(capsys, name):
    code = main(["analyze", f"bundled:{name}"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]
