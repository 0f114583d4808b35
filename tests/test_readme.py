"""README's code example stays runnable: the ```python block under
"## Library" is extracted and executed as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert match, "README's Library section has no ```python block"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), "README.md (Library)", "exec"), {})
    covered, energy = capsys.readouterr().out.split()
    assert covered in ("True", "False") and int(energy) > 0
