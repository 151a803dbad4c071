"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _quick_start():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    names = {}
    exec(compile(_quick_start(), README, "exec"), names)
    mod = names["mod"]
    assert [el.certificates for el in mod.elements] == [
        {"pole_free": True, "annihilated": True, "murphy_spectrum_ok": True}
    ] * len(mod.elements)
