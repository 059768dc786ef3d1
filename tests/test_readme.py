"""The README's library examples run as written, in order."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_match_their_comments():
    # The second block reuses the first's names; its comment states the
    # common grid it builds, so the text cannot drift from CommonGrid.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    stated = re.search(r"# (\d+)-point grid at (\d+) Hz, (\d+) net samples", blocks[1])
    cg = namespace["cg"]
    assert (cg.n0, cg.f0, cg.m) == tuple(map(int, stated.groups())) == (13, 6, 9)
    est, sig = namespace["est"], namespace["sig"]
    assert est.diagnostics.converged
    assert np.allclose(est.freqs, sig.freqs, atol=1e-4)
