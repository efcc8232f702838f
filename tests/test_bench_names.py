"""Every dotted name the benchmark's per-layer table wraps must exist.

perfbench/run.py installs its timing wrappers by dotted name (for example
`icbound.cli.load_json`) and reports a name it cannot find as `absent`, which
only shows up when the benchmark runs. This test reads the table from the
source with `ast`, without importing anything under perfbench/, and resolves
each name the same way: the longest importable module prefix, then getattr.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def layer_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    strings = {}
    layers = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                strings[name] = node.value.value
            elif name == "LAYERS":
                layers = node.value
    assert layers is not None, "perfbench/run.py has no LAYERS table"
    table = eval(compile(ast.Expression(layers), str(RUN_PY), "eval"),
                 {"__builtins__": {}}, strings)
    return [target for _, targets, _, _ in table for target in targets]


def resolves(target: str) -> bool:
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True
    return False


def test_layer_names_resolve():
    targets = layer_targets()
    assert "icbound.cli.load_json" in targets
    assert "icbound.formats.rank_from_matrix" in targets
    assert [t for t in targets if not resolves(t)] == []


def test_resolves_rejects_missing_names():
    assert resolves("icbound.cli.main")
    assert not resolves("icbound.cli.no_such_function")
    assert not resolves("icbound.no_such_module.main")
