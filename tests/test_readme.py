"""The package's public surface: README examples and public names."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import entpaths

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the values the README's comments promise
    assert abs(namespace["geometric_entanglement"](namespace["bell"]) - 0.5) < 1e-6
    assert namespace["count"] == 4**namespace["circuit"].num_gates
    assert len(namespace["configs"]) == namespace["circuit"].num_gates + 1
    assert namespace["configs"][0] == 0 and isinstance(namespace["amplitude"], complex)
    assert namespace["estimate"].r_star == 1
    assert namespace["estimate"].witness.num_gates == 1


def test_no_public_function_is_named_like_a_test():
    # pytest collects a test_* function that a test module imports by name
    offenders = []
    for info in pkgutil.iter_modules(entpaths.__path__):
        module = importlib.import_module(f"entpaths.{info.name}")
        offenders += [f"{module.__name__}.{name}"
                      for name, value in vars(module).items()
                      if name.startswith("test") and inspect.isfunction(value)]
    assert offenders == []
