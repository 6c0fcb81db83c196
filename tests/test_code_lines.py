from code_lines import code_lines, package_lines

# Raise it only with the reason stated in CHANGES.md.
CEILING = 2930

SNIPPET = '''"""Module docstring."""

import os  # a comment


class A:
    """Class docstring,
    on two lines."""

    def f(self, x):
        # a comment line
        y = """a string that is not a docstring,
        on two lines"""
        "a bare string statement"
        return (x +

                os.sep)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of y and the two non-blank lines of the return
    assert code_lines(SNIPPET) == 7


def test_library_stays_under_its_code_line_ceiling():
    assert package_lines() <= CEILING
