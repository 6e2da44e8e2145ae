"""README's Library example runs as written, so its code cannot drift from
the API it documents."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs_as_written(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})
    assert re.search(r"^ap 0\.[0-9]+$", capsys.readouterr().out, flags=re.M)
