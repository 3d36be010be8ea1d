"""README's library quick start runs, and each ``# (...)`` result comment
equals the value of the expression on its line."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_results():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        comment = re.search(r"#\s*(\(.*\))\s*$", lines[node.end_lineno - 1])
        if isinstance(node, ast.Expr) and comment:
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert got == ast.literal_eval(comment.group(1)), lines[node.end_lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 2
