"""tests/code_lines.py, the code-line count of a source tree."""

from pathlib import Path

import walkergeo
from code_lines import code_lines, main

SAMPLE = '''\
"""A module docstring
over two lines."""

import math   # a comment after code counts as code

# a comment line does not count


def area(r):
    """A function's docstring."""
    text = """a string that is
not a docstring"""
    return (math.pi
            * r ** 2)


class Circle:
    """A class docstring."""
    radius = 1
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # import; def; the two lines of text; the two of the return; class;
    # radius
    assert code_lines(SAMPLE) == 8


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    src = Path(walkergeo.__file__).parent
    assert main(["code_lines.py", str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total") and counts[-1] == sum(counts[:-1])
    assert len(lines) == len(list(src.glob("*.py"))) + 1
