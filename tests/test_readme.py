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
    v, x, y, cfg = ns["v"], ns["x"], ns["y"], ns["cfg"]
    plane = v.data[0]
    lag = np.subtract(np.unravel_index(np.argmax(plane), plane.shape), v.zero_lag_index)
    assert abs(v.zero_lag_values()[0]) < 0.01 and tuple(lag) == (2, 3)  # the spike moved
    assert ns["wiener_loss"](y, y, ns["whitening"], cfg) < 1e-20  # 0 iff x == y
    shifted = ns["Signal"].from_array(np.roll(x.plane(), (-1, 1), axis=(0, 1)))
    ti = ns["ti_distance"]
    assert abs(ti(shifted, y, cfg) / ti(x, y, cfg) - 1) < 1e-3  # about the same
    assert ns["grad"].shape == x.planes.shape
