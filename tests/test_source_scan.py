"""Source scan of `src/weylinv`: every routine there has a caller there, and
every imported name is read.

A top-level function or class, or a non-dunder method, that no other `src`
code names (an `ast.Name` or an `ast.Attribute`; for a method that is not a
property, a call `x.name(...)`; its own body not counted) runs only for the
tests, and belongs in `tests/_helpers.py`.  Exempt are the
names the benchmark reads (`weylbench/spans.py`'s `LAYERS` and the
`from weylinv... import` lines of `weylbench/*.py`) and the console script
named in `pyproject.toml`.

No `src` check is an `assert` statement, which `python -O` strips: each one
raises its AssertionError explicitly.

`invariants` imports nothing from `generators`: Sdec's witness is read off
the Dec fold, with no generator set.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "weylinv"


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules():
    """{module name: (source, tree)} for every module of the package."""
    out = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        source = path.read_text()
        out[_module_name(path)] = (source, ast.parse(source, str(path)))
    return out


def _definitions(tree):
    """(qualname, node) of the top-level functions and classes and of the
    non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _reads(tree):
    """Counters of the names read by Name nodes, the attributes read by
    Attribute nodes and the attributes called (`x.name(...)`) of tree."""
    names, attrs, calls = Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls[node.func.attr] += 1
    return names, attrs, calls


def _is_property(node):
    """Is the method node decorated as a property (`@property`, or the
    setter or deleter of one)?"""
    return any((isinstance(d, ast.Name) and d.id == "property")
               or (isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"))
               for d in node.decorator_list)


def _package_imports(tree):
    """{bound name: imported name} of the names tree imports from the package."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == PACKAGE)
            for alias in node.names}


def _package_exports(modules):
    """{name: module} for the names the package's __init__ imports from its modules."""
    out = {}
    for node in modules[PACKAGE][1].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{PACKAGE}.{node.module}"
    return out


def _exempt(modules):
    """{(module, qualname)} read by the benchmark or run as the console script."""
    spans = ast.parse((ROOT / "weylbench" / "spans.py").read_text())
    layers = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    out = {(module, name) for module, names in ast.literal_eval(layers).values()
           for name in names}
    exports = _package_exports(modules)
    for path in sorted((ROOT / "weylbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == PACKAGE):
                for alias in node.names:
                    module = (exports.get(alias.name, node.module)
                              if node.module == PACKAGE else node.module)
                    out.add((module, alias.name))
    pyproject = (ROOT / "pyproject.toml").read_text()
    for module, name in re.findall(r'^\w+\s*=\s*"([\w.]+):(\w+)"', pyproject, re.M):
        out.add((module, name))
    return out


def unreferenced(modules):
    """Sorted 'module.qualname' of the routines no other src code names.

    A top-level routine is named by an Attribute anywhere, or by a Name in its
    own module or in a module that imports it from the package; a property
    only by an Attribute; any other method only by a call `x.name(...)`, so
    reading a field of the same name elsewhere does not count.  Reads inside
    the routine's own body do not count."""
    exempt = _exempt(modules)
    reads = {module: _reads(tree) for module, (_, tree) in modules.items()}
    imports = {module: _package_imports(tree) for module, (_, tree) in modules.items()}
    out = []
    for module, (_, tree) in modules.items():
        for qualname, node in _definitions(tree):
            if (module, qualname) in exempt:
                continue
            name = qualname.rpartition(".")[2]
            own = _reads(node)
            called = "." in qualname and not _is_property(node)

            def named(other):
                names, attrs, calls = reads[other]
                if other == module:
                    names, attrs, calls = (a - b for a, b in zip(reads[other], own))
                if called:
                    return calls[name] > 0
                if attrs[name]:
                    return True
                if "." in qualname:
                    return False
                bound = {b for b, imported in imports[other].items() if imported == name}
                if other == module:
                    bound.add(name)
                return any(names[b] for b in bound)

            if not any(named(other) for other in modules):
                out.append(f"{module}.{qualname}")
    return sorted(out)


def unused_imports(modules):
    """Sorted 'module: name' of the names a module imports and never reads.

    The package's __init__ re-exports, `from __future__` lines and lines
    marked `# noqa: F401` are exempt."""
    out = []
    for module, (source, tree) in modules.items():
        if module == PACKAGE:
            continue
        lines = source.splitlines()
        read = _reads(tree)[0]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    out.append(f"{module}: {bound}")
    return sorted(out)


def assert_statements(modules):
    """Sorted 'module:line' of the assert statements in the package."""
    return sorted(f"{module}:{node.lineno}" for module, (_, tree) in modules.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_every_src_routine_has_a_src_caller():
    assert unreferenced(_modules()) == []


def test_every_src_import_is_read():
    assert unused_imports(_modules()) == []


def test_the_scan_sees_an_uncalled_routine_and_an_unread_import():
    modules = _modules()
    source = modules[f"{PACKAGE}.intlinalg"][0] + "\n\nimport json\n\n\ndef _uncalled():\n    return 0\n"
    modules[f"{PACKAGE}.intlinalg"] = (source, ast.parse(source))
    assert unreferenced(modules) == [f"{PACKAGE}.intlinalg._uncalled"]
    assert unused_imports(modules) == [f"{PACKAGE}.intlinalg: json"]


def test_a_method_counts_as_called_and_a_property_as_read():
    # a method needs a call and a property an attribute read: a field of the
    # same name read elsewhere does not count as a use of the method
    modules = _modules()
    source = modules[f"{PACKAGE}.intlinalg"][0] + (
        "\n\nclass _Probe:\n"
        "    def called(self):\n        return 0\n\n"
        "    def read(self):\n        return 0\n\n"
        "    @property\n    def field(self):\n        return 0\n"
        "\n\ndef _use(p=_Probe()):\n    return p.called(), p.read, p.field\n")
    modules[f"{PACKAGE}.intlinalg"] = (source, ast.parse(source))
    assert unreferenced(modules) == [f"{PACKAGE}.intlinalg._Probe.read",
                                     f"{PACKAGE}.intlinalg._use"]


def test_no_src_check_is_an_assert_statement():
    assert assert_statements(_modules()) == []


def test_the_scan_sees_an_assert_statement():
    modules = _modules()
    source = modules[f"{PACKAGE}.intlinalg"][0]
    source += "\n\ndef _checked(x):\n    assert x\n"
    modules[f"{PACKAGE}.intlinalg"] = (source, ast.parse(source))
    assert assert_statements(modules) == [f"{PACKAGE}.intlinalg:{len(source.splitlines())}"]


def test_the_exemptions_come_from_the_benchmark_and_the_console_script():
    exempt = _exempt(_modules())
    assert (f"{PACKAGE}.cli", "main") in exempt
    assert (f"{PACKAGE}.generators", "combination_to_tuple") in exempt
    assert (f"{PACKAGE}.intlinalg", "hnf_with_transform") in exempt
    assert (f"{PACKAGE}.rootdata", "LatticeModel.orbit_local") in exempt


def generators_imports(tree):
    """Sorted line numbers of the imports in tree that reach the generators
    module: `from .generators import ...`, `from . import generators` or
    `import weylinv.generators`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "generators" for name in names):
            out.append(node.lineno)
    return sorted(out)


def test_invariants_imports_nothing_from_generators():
    # Sdec's witness is read off the Dec fold: invariants builds no generator set
    assert generators_imports(_modules()[f"{PACKAGE}.invariants"][1]) == []


def test_the_scan_sees_a_generators_import():
    for line in ["from .generators import build_generators",
                 "from weylinv.generators import build_generators",
                 "from . import generators", "import weylinv.generators"]:
        source = f"def compute_Sdec(model):\n    {line}\n"
        assert generators_imports(ast.parse(source)) == [2], line
