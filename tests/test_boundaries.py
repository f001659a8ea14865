"""No private name crosses a module boundary inside gradedca.

Each source file is parsed with ast.  A crossing is an import from
another gradedca module of a name that starts with "_" (dunders such as
__version__ excepted), or a read alias._name where alias is bound to a
gradedca module by an import.  A name one module needs from another is
public in the module that owns it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gradedca"


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _ours(node):
    """Whether an ImportFrom node imports from the gradedca package."""
    return node.level > 0 or (node.module or "").split(".")[0] == "gradedca"


def crossings(path):
    """The private names path reads from other gradedca modules, as
    "module: owner.name" strings in source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    here = path.stem
    aliases = {}   # local name -> the gradedca module it is bound to
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _ours(node):
            owner = (node.module or "").rpartition(".")[2]
            package = owner in ("", "gradedca")
            for alias in node.names:
                if package:
                    aliases[alias.asname or alias.name] = alias.name
                if _private(alias.name):
                    out.append((node.lineno, "%s: %s.%s" % (
                        here, "gradedca" if package else owner, alias.name)))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gradedca.") and alias.asname:
                    aliases[alias.asname] = alias.name.rpartition(".")[2]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            out.append((node.lineno, "%s: %s.%s" % (
                here, aliases[node.value.id], node.attr)))
    return [text for _, text in sorted(out)]


def test_no_private_name_crosses_a_module_boundary():
    found = [c for path in sorted(SRC.glob("*.py")) for c in crossings(path)]
    assert found == []


def test_crossings_sees_imports_and_attribute_reads(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import __version__, hilbert as hb\n"
                    "from .gb import _reduce, module_gb\n"
                    "import gradedca.jobio as jio\n"
                    "x = hb._echelon, hb.dim_module, jio._helper\n"
                    "y = module_gb.__name__, hb.__doc__\n")
    assert crossings(path) == ["probe: gb._reduce", "probe: hilbert._echelon",
                               "probe: jobio._helper"]
