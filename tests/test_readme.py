"""README's ```python blocks run in order, and the tour prices a call worth something."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    price = namespace["price"]
    assert price.price > 0 and math.isfinite(price.price)
    assert price.std_error > 0
