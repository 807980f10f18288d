"""README's ```python blocks run in order, the tour prices a call worth something, and so
does the spec-file example's price task."""

import json
import math
import re
from pathlib import Path

from tiltcal.cli import run
from test_cli import six_index_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    price = namespace["price"]
    assert price.price > 0 and math.isfinite(price.price)
    assert price.std_error > 0


def test_spec_example_prices_a_call_worth_something(tmp_path):
    """The spec-file example's price task, run on the six-index model it describes."""
    task = json.loads(re.search(r'^\s*(\{"type": "price".*\}),$', README.read_text(),
                                re.M).group(1))
    spec = tmp_path / "spec.json"
    tasks = [{"type": "calibrate"}, task | {"n_samples": 20_000}]
    spec.write_text(json.dumps(six_index_spec(tasks)))
    assert run(str(spec), str(tmp_path / "out")) == 0
    price = json.loads((tmp_path / "out" / "price.json").read_text())
    assert price["price"] > 0 and math.isfinite(price["price"])
    assert price["std_error"] > 0
