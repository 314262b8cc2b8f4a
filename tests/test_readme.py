"""The README's python blocks run as written, in order and in one namespace,
and the quick start's comments hold for what they print."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run_and_their_comments_hold():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2, blocks
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    v, x, y, lam = ns["v"], ns["x"], ns["y"], ns["lam"]
    plane = v[0]
    center = tuple(n // 2 for n in plane.shape)
    assert plane[center] == v[0, 16, 16]  # the quick start reads the zero lag
    lag = np.subtract(np.unravel_index(np.argmax(plane), plane.shape), center)
    assert abs(plane[center]) < 0.01 and tuple(lag) == (2, 3)  # the spike moved
    assert ns["wiener_loss"](y, y, ns["whitening"], lam) < 1e-20  # 0 iff x == y
    shifted = np.roll(x, (-1, 1), axis=(1, 2))
    ti = ns["ti_distance"]
    assert abs(ti(shifted, y, lam) / ti(x, y, lam) - 1) < 1e-3  # about the same
    assert ns["grad"].shape == x.shape
