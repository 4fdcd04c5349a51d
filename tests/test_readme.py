"""The README's library example runs as printed."""
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    code = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # The README's Outputs section says its half-decade bins give four.
    assert namespace["beta"].n_points == 4
