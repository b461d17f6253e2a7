"""The README's examples print what their comments say, and its check
catalog lists the registry."""

import contextlib
import io
import re
from pathlib import Path

from curvemotives import CountingData
from curvemotives.checks import available_checks

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    """The text of the README section headed ``title``, up to the next
    heading; a ``#`` comment inside a code block is not a heading."""
    lines = README.splitlines()
    lines, fenced = lines[lines.index(title) + 1:], False
    for n, line in enumerate(lines):
        fenced ^= line.startswith("```")
        if line.startswith("#") and not fenced:
            lines = lines[:n]
            break
    return "\n".join(lines) + "\n"


def _run_python_snippet(section):
    """Run the one ```python block of a section; its printed lines and its text."""
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    return out.getvalue().splitlines(), code


def test_quick_start_prints_its_comments():
    printed, code = _run_python_snippet(_section("## Quick start"))
    for line, value in ((0, "(1 + l1 + l2) + l1*L + L^2"), (2, "True (0, 30)")):
        assert "# " + value + "\n" in code
        assert printed[line] == value


def test_realizations_print_their_comments():
    section = _section("## Realizations")
    printed, code = _run_python_snippet(section)
    assert printed == ["1 + x^2 + 4*x^3 + x^4 + x^6", "40"]
    for value in printed:
        assert "# " + value + "\n" in code
    n3, n4 = re.search(r"`N_3`, `N_4`\s+of the curve above come out as (\d+) and (\d+)",
                       section).groups()
    data = CountingData(3, [4, 6])
    assert (data.frobenius_count(3), data.frobenius_count(4)) == (int(n3), int(n4)) == (28, 110)


def test_check_catalog_is_the_registry():
    ids = re.findall(r"^\| `([a-z0-9-]+)` \|", _section("### Check catalog"), re.M)
    assert ids == available_checks()
