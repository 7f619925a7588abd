"""The source-size counter gives every line one kind."""
from source_size import line_kinds

SOURCE = '''"""A module docstring

over three lines."""
import os  # a trailing comment is code


def f():
    """One line."""
    # a comment
    text = """a string
that is not a docstring"""

    return text
'''


def test_every_line_is_counted_once_by_its_kind():
    counts = line_kinds(SOURCE)
    assert counts == {"code": 5, "docstring": 4, "comment": 1, "blank": 3}
    assert sum(counts.values()) == len(SOURCE.splitlines())
