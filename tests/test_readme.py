"""The README's library example runs, and every value its comments state
holds: an expression line states its value ahead of any colon, with `~` for
a value rounded to the digits shown; an assignment line states the entries
of the table it compiles."""

import ast
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_example():
    """Run the README's python block statement by statement; returns the
    namespace it leaves and, per commented line, (its node, its value, its
    comment)."""
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = source.splitlines()
    namespace, commented = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        value = eval(code, namespace) if isinstance(node, ast.Expr) else exec(code, namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment:
            commented.append((node, value, comment))
    return namespace, commented


def digits(text: str) -> int:
    """Decimal places of the number in text with the most of them."""
    return max((len(d) for d in re.findall(r"\.(\d+)", text)), default=0)


def test_stated_values_hold():
    namespace, commented = run_example()
    stated = []
    for node, value, comment in commented:
        if isinstance(node, ast.Expr):
            head = comment.split(":")[0]
            want = ast.literal_eval(head.replace("~", ""))
            got = value.tolist() if isinstance(value, np.ndarray) else value
            if "~" in head:  # rounded to the digits shown
                tolerance = 0.5 * 10.0 ** -digits(head)
                assert np.allclose(got, want, rtol=0, atol=tolerance), (head, got)
            else:
                assert got == want, (head, got)
            stated.append(head)
        else:
            entries = re.fullmatch(r"(\d+) entries", comment)
            assert entries, f"unchecked comment {comment!r}"
            table = namespace[node.targets[0].id]
            assert table.n_entries == int(entries[1]), (comment, table.n_entries)
            stated.append(comment)
    assert stated == ["(True,)", "(~0.401, ~0.599)", "[[0.6, 0.6]]", "(True, False)",
                      "27 entries", "10 entries", "8.1"]
