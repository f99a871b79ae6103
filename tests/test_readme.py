"""The python blocks of README.md run, and each ``print(...)  # <text>`` line prints <text>."""

import io
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)
PRINTED = re.compile(r"\s*print\(.*\)\s+# (.*)")


def blocks():
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)), m.group(1)) for m in BLOCK.finditer(text)]


def test_the_readme_has_python_blocks_with_printed_results():
    assert len(blocks()) >= 2
    assert any(PRINTED.fullmatch(line) for _, code in blocks() for line in code.splitlines())


# named by position among the python blocks, so prose edits above a block keep its name
@pytest.mark.parametrize("offset,code", [pytest.param(*b, id=f"block-{i}")
                                         for i, b in enumerate(blocks(), 1)])
def test_readme_block_runs_and_prints_what_it_says(offset, code):
    printed = {}  # README line number -> what each print on it wrote

    def record(*args, **kwargs):
        out = io.StringIO()
        print(*args, file=out, **kwargs)
        printed.setdefault(sys._getframe(1).f_lineno, []).append(out.getvalue())

    # padded so that line numbers, in a traceback too, are those of README.md
    exec(compile("\n" * offset + code, str(README), "exec"), {"print": record})
    for n, line in enumerate(code.splitlines(), offset + 1):
        m = PRINTED.fullmatch(line)
        if m:
            assert printed.get(n) == [m.group(1) + "\n"], f"README.md line {n}"
