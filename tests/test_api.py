"""The package root exports what its documented callers import.

The README's Python quickstart runs as written, and every name the
benchmark calls through the package root (``pg.<name>`` in
``perfbench/ops.py``) is an attribute of ``pentagate``.
"""

import re
import shutil
from pathlib import Path

import pentagate

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copy(ROOT / "tests" / "golden" / "inputs" / "cnot_exact_5q.json",
                tmp_path / "circuit.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md quickstart", "exec"), {"__name__": "quickstart"})
    assert pentagate.parse((tmp_path / "smaller.json").read_text()).num_qubits == 5


def test_names_the_benchmark_calls_are_exported():
    names = set(re.findall(r"\bpg\.(\w+)", (ROOT / "perfbench" / "ops.py").read_text()))
    assert names
    assert sorted(name for name in names if not hasattr(pentagate, name)) == []
