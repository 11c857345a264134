"""The README's library tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_certifies():
    text = README.read_text(encoding="utf-8")
    (tour,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    namespace: dict = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert namespace["report"].passed
