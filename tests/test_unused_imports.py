"""Static checks on the source, with nothing but ast.

No module of the package or its tests imports a name it never reads; no
private top-level helper of the package is left unreferenced; no public
top-level function, class or method of a top-level class is used by the
tests alone; every geo_restarts default is entanglement.GEO_RESTARTS,
written once; ExperimentConfig inherits the search settings from
synthesis.SearchSettings and declares none of them again; scipy is
imported only by synthesis, as the bare package, which reads nothing of
it but scipy.optimize.minimize; core is the one module that reaches
numpy's LAPACK gufuncs past numpy.linalg's wrappers; and outside core only
validation reads core's _is_int, since every other module checks register
sizes, qubit indices, pairs and counts through core's _checked_num_qubits,
_checked_qubits, _checked_pair and _checked_count.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    modules = [p for p in (ROOT / "src" / "entpaths").glob("*.py") if p.name != "__init__.py"]
    modules += list((ROOT / "tests").glob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in sorted(modules)
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but never read:\n" + "\n".join(found)


def private_definitions(tree):
    """Top-level private functions, classes and constants (dunders exempt)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def referenced_names(tree):
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_helper_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "entpaths").glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    found = [f"{path.relative_to(ROOT)} {name}"
             for path, tree in trees.items()
             for name in private_definitions(tree) if name not in used]
    assert not found, "private but never referenced in src/:\n" + "\n".join(found)


# Public names that no module, README block or benchmark script uses, and why
# each stays.
UNCALLED_EXPORTS = {
    # writes the target-state file format that `conjecture` reads through
    # core.load_state, so a user can prepare targets of their own
    "core.save_state",
}


def test_every_public_definition_is_used_outside_the_tests():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "entpaths").glob("*.py"))
               if path.name != "__init__.py"]
    sources += re.findall(r"^```python\n(.*?)^```",
                          (ROOT / "README.md").read_text(encoding="utf-8"),
                          flags=re.DOTALL | re.MULTILINE)
    used = set().union(*(referenced_names(ast.parse(source)) for source in sources))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the tracer names the functions it wraps as strings
        used |= referenced_names(tree) | {node.value for node in ast.walk(tree)
                                          if isinstance(node, ast.Constant)
                                          and isinstance(node.value, str)}
    found = []
    for path in sorted((ROOT / "src" / "entpaths").glob("*.py")):
        definitions = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{method.name}", method.name)
                                for method in node.body
                                if isinstance(method, ast.FunctionDef)]
        for qualified, name in definitions:
            if (not name.startswith("_") and name not in used
                    and f"{path.stem}.{qualified}" not in UNCALLED_EXPORTS):
                found.append(f"{path.relative_to(ROOT)} {qualified}")
    assert not found, "public but used by the tests alone:\n" + "\n".join(found)


def geo_restarts_defaults(tree):
    """Every default the source gives geo_restarts: parameter defaults,
    dataclass fields and int_field(doc, "geo_restarts", default, ...)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            yield from (default for arg, default in pairs
                        if arg.arg == "geo_restarts" and default is not None)
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id == "geo_restarts" and node.value is not None):
            yield node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "int_field" and len(node.args) >= 3
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "geo_restarts"):
            yield node.args[2]


def test_geo_restarts_defaults_are_the_entanglement_constant():
    defaults = [(path.name, node)
                for path in sorted((ROOT / "src" / "entpaths").glob("*.py"))
                for node in geo_restarts_defaults(ast.parse(path.read_text(encoding="utf-8")))]
    # cli's config field, the ExperimentConfig field and two trajectories
    # defaults, plus ExperimentConfig.from_dict reading its own field default
    assert len(defaults) >= 5
    literal = [f"{name}:{node.lineno} {ast.unparse(node)}" for name, node in defaults
               if ast.unparse(node) not in ("GEO_RESTARTS", "cls.geo_restarts")]
    assert not literal, "geo_restarts default is not GEO_RESTARTS:\n" + "\n".join(literal)


def test_experiment_config_reads_the_synthesis_defaults():
    tree = ast.parse((ROOT / "src" / "entpaths" / "harness.py").read_text(encoding="utf-8"))
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    assert [ast.unparse(base) for base in config.bases] == ["SearchSettings"]
    settings = next(node for node in ast.parse(
        (ROOT / "src" / "entpaths" / "synthesis.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == "SearchSettings")
    search_fields = {node.target.id for node in settings.body if isinstance(node, ast.AnnAssign)}
    assert search_fields == {"fidelity_tol", "r_max", "restarts", "iterations",
                             "max_architectures"}
    declared = {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}
    assert not declared & search_fields


def scipy_imports(tree):
    """The scipy modules a source imports, as dotted names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found |= {f"scipy.{alias.name}" if node.module == "scipy" else node.module
                      for alias in node.names}
    return found


def scipy_reads(tree):
    """Every whole dotted name the source reads off scipy: a call of
    scipy.optimize.minimize reads that name, not scipy.optimize, and a
    bare scipy passed on reads scipy."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in inner:
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "scipy":
                reads.add(".".join(["scipy", *reversed(names)]))
    return reads


def test_only_synthesis_imports_scipy_and_only_its_optimizer():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "entpaths").glob("*.py"))}
    found = {name: scipy_imports(tree) for name, tree in trees.items()}
    # the package alone, so that scipy.optimize loads on the first ascent
    assert {name: imports for name, imports in found.items() if imports} == {
        "synthesis.py": {"scipy"}}
    assert scipy_reads(trees["synthesis.py"]) == {"scipy.optimize.minimize"}


def reaches_umath_linalg(tree):
    """Whether a source imports numpy.linalg._umath_linalg, or reads it
    off numpy.linalg as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg._umath_linalg") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("numpy.linalg._umath_linalg") or (
                    node.module == "numpy.linalg"
                    and any(alias.name == "_umath_linalg" for alias in node.names)):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
            return True
    return False


def test_only_core_reaches_numpys_lapack_gufuncs():
    found = [path.name for path in sorted((ROOT / "src" / "entpaths").glob("*.py"))
             if reaches_umath_linalg(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["core.py"]


def reads_name(tree, name):
    """Whether a source imports `name` or reads it as a bare name."""
    return any((isinstance(node, ast.Name) and node.id == name)
               or (isinstance(node, ast.ImportFrom)
                   and any(alias.name == name for alias in node.names))
               for node in ast.walk(tree))


def test_outside_core_only_validation_reads_is_int():
    found = [path.name for path in sorted((ROOT / "src" / "entpaths").glob("*.py"))
             if path.name != "core.py"
             and reads_name(ast.parse(path.read_text(encoding="utf-8")), "_is_int")]
    assert found == ["validation.py"]
