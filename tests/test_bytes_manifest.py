"""What the benchmark's command lines write, against committed bytes.

``tests/bytes_tiny.json`` holds the byte manifest (``tests/bytes_manifest.py``)
of every bench operation at tiny scale, keyed by the SIMD dispatch targets
numpy found.  On a key it holds, every exit code and every file's SHA-256
must match, inline and with the replicate loop's worker; on another key the
last digits may move (``tests/test_simd_dispatch.py``), so only the exit codes
and the files written are compared.  A change that moves report bytes on
purpose writes the file anew (``python tests/bytes_manifest.py golden``), and
its diff names the files that moved.
"""

import json

import pytest
from bytes_manifest import GOLDEN, differences, loop_patches, manifest, simd_key


@pytest.mark.parametrize("threads", [1, 2])
def test_bench_command_lines_keep_their_bytes(monkeypatch, threads):
    for obj, name, value in loop_patches(threads):
        monkeypatch.setattr(obj, name, value)
    got = manifest("tiny")
    golden = json.loads(GOLDEN.read_text())
    want = golden.get(simd_key())
    if want is None:
        want = next(iter(golden.values()))
        got = {k: v if k.endswith("/exit") else None for k, v in got.items()}
        want = {k: v if k.endswith("/exit") else None for k, v in want.items()}
    assert differences(want, got) == []
