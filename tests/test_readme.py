"""The README's library quickstart runs as written: its Python block
executes, and prints exactly the line that its ``print(f)`` comment shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_quickstart_prints_what_its_comment_shows(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    shown = re.search(r"^print\(f\) +# (.+)$", blocks[0], re.M).group(1)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [shown]
