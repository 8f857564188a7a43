"""Every public top-level name of the package, and every public member of
its classes, has a caller in the pipeline, and every default of a public
function or method is overridden by one.

The pipeline is the package's modules under ``src/shiftlab`` and the
benchmark under ``perfbench/``.  A public function or class counts as used
when some code there, outside its own definition, refers to it (a word in a
string, such as a stage name the benchmark times, is no reference); a public
method, property or field (an annotated class attribute, as a dataclass or
a NamedTuple declares it) when some code there, outside its own
definition, reads it as an attribute.  Tests do not keep a name, a member
or a default alive, the acceptance gate included: a
reference computation that only tests need lives in ``tests/conftest.py``,
apart from the code it judges.  The package re-exports nothing; modules
are imported directly, as in ``from shiftlab import cli``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shiftlab"


def referenced_names(nodes) -> set[str]:
    """Identifiers used in the given subtrees.  Words inside string literals
    do not count: a callable that the benchmark only names, as a stage
    "module.function" it times, has no caller."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def public_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_members(definition: ast.ClassDef):
    """(name, node) of each public method, property and field of a class."""
    for node in definition.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def attribute_reads(nodes) -> Counter:
    """How often each name is read as an attribute, x.name, in the given
    subtrees."""
    return Counter(node.attr for root in nodes for node in ast.walk(root)
                   if isinstance(node, ast.Attribute))


def parsed(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)}


def test_every_public_name_has_a_pipeline_caller():
    modules = parsed(PACKAGE.glob("*.py"))
    bench = parsed((ROOT / "perfbench").glob("*.py")).values()
    outside = referenced_names(bench)
    per_module = {path: referenced_names([tree]) for path, tree in modules.items()}
    reads = attribute_reads([*modules.values(), *bench])
    unused = []
    for path, tree in modules.items():
        used = outside.union(*(names for p, names in per_module.items() if p != path))
        for definition in public_definitions(tree):
            rest = [node for node in tree.body if node is not definition]
            if definition.name not in used | referenced_names(rest):
                unused.append(f"{path.stem}.{definition.name}")
            if not isinstance(definition, ast.ClassDef):
                continue
            for name, node in public_members(definition):
                if reads[name] == attribute_reads([node])[name] and name not in outside:
                    unused.append(f"{path.stem}.{definition.name}.{name}")
    assert not unused, f"public names and members with no pipeline caller: {unused}"


def test_every_import_is_used():
    """An import the module never reads is dead code, and keeps a removed
    name looking alive."""
    unused = []
    for path, tree in parsed(PACKAGE.glob("*.py")).items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unused, f"imports no code of the module reads: {unused}"


def test_package_init_is_only_its_docstring():
    """``shiftlab/__init__.py`` holds its docstring and nothing else: no
    re-exports, so every name is reached through the module that defines it."""
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr) \
        and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str), \
        f"__init__.py holds more than its docstring: {[ast.dump(node)[:60] for node in body]}"


def defaulted_parameters(tree: ast.Module):
    """(qualified name, bare name, parameter, position) for every defaulted
    parameter of a public function or method.  The position is that of the
    argument in a call, so it does not count self or cls; it is None for a
    keyword-only parameter."""
    functions = []
    for definition in public_definitions(tree):
        if isinstance(definition, ast.FunctionDef):
            functions.append((definition.name, definition, 0))
            continue
        for node in definition.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                functions.append((f"{definition.name}.{node.name}", node, 0 if static else 1))
    found = []
    for qualified, node, skip in functions:
        positional = node.args.posonlyargs + node.args.args
        first_default = len(positional) - len(node.args.defaults)
        found += [(qualified, node.name, arg.arg, i - skip)
                  for i, arg in enumerate(positional) if i >= first_default]
        found += [(qualified, node.name, arg.arg, None)
                  for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if default is not None]
    return found


def passed_arguments(nodes) -> set[tuple[str, object]]:
    """(callee name, keyword) and (callee name, position) of every argument
    some call in the given subtrees passes; "*" and "**" stand for unpacked
    arguments, which may pass any parameter."""
    passed = set()
    for root in nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((name, "*" if isinstance(arg, ast.Starred) else i)
                          for i, arg in enumerate(node.args))
            passed.update((name, "**" if kw.arg is None else kw.arg) for kw in node.keywords)
    return passed


def test_every_default_is_set_by_a_pipeline_caller():
    """A default that no caller overrides is a constant posing as an option.

    Every defaulted parameter of a public function or method must be
    passed, by keyword or by position, by some call in the package or the
    benchmark.  No name is exempt: ``python -m shiftlab.cli`` passes
    cli.main its argv, and the console script takes the default.
    """
    modules = parsed(PACKAGE.glob("*.py"))
    passed = passed_arguments([*modules.values(),
                               *parsed((ROOT / "perfbench").glob("*.py")).values()])
    unset = [f"{path.stem}.{qualified}({param})"
             for path, tree in modules.items()
             for qualified, name, param, position in defaulted_parameters(tree)
             if not {(name, param), (name, position), (name, "*"), (name, "**")} & passed]
    assert not unset, f"defaulted parameters no pipeline call sets: {unset}"


def float_literals(node):
    """Float constants in the subtree of node other than 0.0 and 1.0."""
    return [c for c in ast.walk(node) if isinstance(c, ast.Constant)
            and isinstance(c.value, float) and c.value not in (0.0, 1.0)]


def test_no_bare_float_threshold():
    """A float literal inside a comparison, or as a parameter default, is a
    threshold without a name; every threshold is a module constant with a
    row in the README's "Thresholds" table.  0.0 and 1.0 are values, not
    thresholds (a zero floor, the unit singular value)."""
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                found = float_literals(node)
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                found = [c for d in node.args.defaults + node.args.kw_defaults
                         if d is not None for c in float_literals(d)]
            else:
                continue
            bare += [f"{path.name}:{c.lineno} ({c.value!r})" for c in found]
    assert not bare, f"bare float thresholds: {sorted(set(bare))}"


def test_readme_lists_every_threshold():
    """Each module-level float constant of the package (a name bound to a
    float literal) has a row, with its value, in the README's "Thresholds"
    table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Thresholds", 1)[1].split("\n## ", 1)[0]
    documented = dict(re.findall(r"^\| `(\w+)` \(`\w+`\) \| `([^`]+)` \|", section, re.MULTILINE))
    constants = {target.id: node.value.value
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, float)
                 for target in node.targets if isinstance(target, ast.Name)}
    assert constants, "no module-level float constant found"
    missing = sorted(set(constants) - set(documented))
    assert not missing, f"float constants missing from the README's Thresholds table: {missing}"
    wrong = sorted(name for name, value in constants.items() if float(documented[name]) != value)
    assert not wrong, f"README Thresholds rows whose value differs from the code: {wrong}"


def test_no_dense_twin_of_an_entry_list():
    """Every matrix of the package is read through its entry list: in
    ``src/``, ``linalg.dense_matrix`` is called only from ``linalg.times``,
    whose dense cores are the product's one dense route, and no code calls
    a ``.dense(`` method, so no dense copy of a whole matrix comes back
    beside its entries."""
    dense_callers, dense_methods = set(), []
    for path, tree in parsed(PACKAGE.glob("*.py")).items():
        for top in tree.body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "dense_matrix":
                    dense_callers.add(owner)
                if isinstance(func, ast.Attribute) and func.attr == "dense":
                    dense_methods.append(f"{path.name}:{node.lineno}")
    assert dense_callers <= {"linalg.times"}, f"dense_matrix callers: {sorted(dense_callers)}"
    assert not dense_methods, f"calls of a .dense( method: {dense_methods}"


def test_one_gram_former_and_one_scaling():
    """The Gram rule, the exact scaling and the orientation of a
    factorisation are each written once: in ``src/``, ``np.frexp`` is
    called only in ``linalg._exponent``, a ``sparse_product`` with an
    ``_adjoint(...)`` factor is formed only in ``linalg._gram``, no module
    but ``linalg`` imports ``NEGLIGIBLE``, the cosine cut of that rule, no
    ``linalg`` function but ``_block_basis`` takes a ``kernel`` parameter,
    and ``_factored`` calls neither itself nor ``_blocks``: each block is
    factored in one pass."""
    linalg = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(linalg) if isinstance(node, ast.FunctionDef)]
    oriented = {f.name for f in functions
                if "kernel" in [a.arg for a in f.args.args + f.args.kwonlyargs]}
    assert oriented == {"_block_basis"}, f"functions taking kernel: {sorted(oriented)}"
    factored = next(f for f in functions if f.name == "_factored")
    calls = referenced_names([factored]) & {"_factored", "_blocks"}
    assert not calls, f"_factored calls {sorted(calls)}"
    frexp, grams, imports = set(), set(), set()
    for path, tree in parsed(PACKAGE.glob("*.py")).items():
        for top in tree.body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and \
                        any(alias.name == "NEGLIGIBLE" for alias in node.names):
                    imports.add(path.stem)
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "frexp":
                    frexp.add(owner)
                if name == "sparse_product" and any(
                        isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_adjoint"
                        for arg in node.args[:2]):
                    grams.add(owner)
    assert frexp <= {"linalg._exponent"}, f"np.frexp callers: {sorted(frexp)}"
    assert grams <= {"linalg._gram"}, f"Gram formers: {sorted(grams)}"
    assert not imports, f"modules importing NEGLIGIBLE: {sorted(imports)}"


def owned_subtrees(tree: ast.Module, stem: str):
    """(owner, subtree) covering the whole module: each method of a class
    is owned by ``stem.Class.method``, each other statement by
    ``stem.name`` or ``stem.<module>``."""
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            yield f"{stem}.{getattr(top, 'name', '<module>')}", top
            continue
        for node in top.body:
            yield f"{stem}.{top.name}.{getattr(node, 'name', '<body>')}", node


def test_one_band_rule_and_no_kernel_flag():
    """The band whose n less it is every default comparison window is
    written once: in ``cli`` and ``subspaces`` only
    ``InvariantSubspaceSpec.band`` reads a ``.bandwidth``.  No ``subspaces``
    function takes a ``kernel`` flag: the checks of Psi and of Phi are not
    one helper's two orientations."""
    trees = {stem: ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
             for stem in ("cli", "subspaces")}
    readers = {owner for stem, tree in trees.items()
               for owner, subtree in owned_subtrees(tree, stem)
               if any(isinstance(node, ast.Attribute) and node.attr == "bandwidth"
                      for node in ast.walk(subtree))}
    flagged = {node.name for node in ast.walk(trees["subspaces"])
               if isinstance(node, ast.FunctionDef)
               and "kernel" in [a.arg for a in node.args.posonlyargs + node.args.args
                                + node.args.kwonlyargs]}
    assert readers == {"subspaces.InvariantSubspaceSpec.band"}, \
        f".bandwidth readers: {sorted(readers)}"
    assert not flagged, f"subspaces functions taking kernel: {sorted(flagged)}"
