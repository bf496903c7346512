"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    record = namespace["record"]
    assert record.committed and record.result == (1, 100)
