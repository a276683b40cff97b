"""Every function, method, class and class field in ``src/dsolid`` has a reader there.

A name whose only appearance in the package is its own definition is
reachable from tests alone; the engine does not need it.  Names are
matched by identifier, in the AST of every module: a ``Name``, an
``Attribute`` or an imported alias counts as a use.  Dunders (called by
the language) and ``cli.main`` (the console entry point) are exempt.
A method, defined in a class body, is read only through an attribute
access: a local variable of the same name does not count.  A class field is written when its object is built, so only an attribute
load counts as a read of it.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dsolid"
EXEMPT = {("cli", "main")}
# perfbench and the tests select the instance-driven checks by this flag
FIELD_EXEMPT = {("CheckSpec", "heavy")}


def _definitions_and_uses():
    """Definitions as ``(module, name, line, is_method)``, and the counts of
    all uses and of attribute uses by identifier."""
    defs, uses, attribute_uses = [], Counter(), Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, node.lineno, id(node) in methods))
            elif isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
                attribute_uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    return defs, uses, attribute_uses


def test_every_definition_is_read_inside_the_package():
    defs, uses, attribute_uses = _definitions_and_uses()
    assert len(defs) > 100  # the scan saw the package
    unread = [
        f"{module}.py:{line} {name}"
        for module, name, line, is_method in defs
        if not (name.startswith("__") and name.endswith("__"))
        and (module, name) not in EXEMPT
        and not (attribute_uses if is_method else uses)[name]
    ]
    assert unread == []


def test_every_class_field_is_read_inside_the_package():
    fields, loads = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields += [(path.stem, node.name, item.target.id, item.lineno)
                           for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    assert len(fields) > 50  # the scan saw the dataclasses
    unread = [
        f"{module}.py:{line} {cls}.{name}"
        for module, cls, name, line in fields
        if (cls, name) not in FIELD_EXEMPT and name not in loads
    ]
    assert unread == []


# imported names a module does not read: the benchmark's tracing self-test
# checks these two binding sites, so they stay importable from the module
# until the benchmark reads the defining modules instead
IMPORT_EXEMPT = {("incidence", "build_surface"), ("scroll", "eval_poly_at")}


def test_every_import_is_read_in_its_module():
    # an imported name is read through a ``Name``; ``from __future__`` is a directive
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, reads = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                reads.add(node.id)
        unread += [(path.stem, name, line) for name, line in imported.items() if name not in reads]
    # an exemption that is no longer needed fails here too
    assert {(module, name) for module, name, _ in unread} == IMPORT_EXEMPT, unread


# engine names the acceptance suite may still import: criterion 7 probes its
# own seeded instances until it reads the scroll records, and the set must
# shrink with it
ACCEPTANCE_EXEMPT = {
    ("dsolid.scroll", "double_conic_verify"),
    ("dsolid.scroll", "double_curve_degree"),
    ("dsolid.scroll", "random_instance"),
    ("dsolid.scroll", "smoothness_probe"),
    ("dsolid.scroll", "splitting_conic_rank"),
}


def test_acceptance_suite_reads_the_report():
    # the acceptance criteria assert the records ``dsolid verify`` prints, so
    # the suite imports from the package only the report and the registry
    path = Path(__file__).with_name("test_acceptance.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, "") for alias in node.names}
    package = {(m, name) for m, name in imported if m.split(".")[0] == "dsolid"}
    assert ("dsolid.report", "run") in package  # the scan saw the imports
    # an exemption that is no longer needed fails here too
    engine = {(m, name) for m, name in package if m not in ("dsolid.report", "dsolid.axioms")}
    assert engine == ACCEPTANCE_EXEMPT


# every function parameter in the package that has a default; a new option
# fails the test below until it is listed here on purpose
PARAMETERS_WITH_DEFAULTS = {
    ("checks", "_record", "axioms"),
    ("checks", "_record", "detail"),
    ("cli", "main", "argv"),
    ("incidence", "solve_pairings", "shuffle_seed"),
    ("incidence", "_vadd", "s"),
    ("incidence", "half_bundle_class", "swap_first_two"),
    ("report", "run", "registry"),
    ("systems", "strip_fixed_components", "order"),
}


def test_parameters_with_defaults_are_frozen():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found |= {(path.stem, node.name, a.arg) for a in defaulted}
    assert found == PARAMETERS_WITH_DEFAULTS


# incidence.py alone knows how the pairing table and the cell map are
# stored; every other module reads the table through ``value``/``degree``
STORAGE_ATTRIBUTES = {"cell_map", "rows"}


def test_only_incidence_reads_the_table_storage():
    readers = []
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "incidence.py"]
    assert len(modules) > 5  # the scan saw the package
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in STORAGE_ATTRIBUTES):
                readers.append(f"{path.name}:{node.lineno} {node.attr}")
    assert readers == []


def _naming_sites(node, name, where=()):
    """The enclosing class and function names of each place ``node`` names ``name``."""
    if ((isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))):
        yield where
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        where += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _naming_sites(child, name, where)


def test_checks_draw_instances_only_through_the_context():
    # scroll.instances, scroll.tangency and elimination.cone-degree read one
    # seeded batch; a second call site would fork its stream again
    path = PACKAGE / "checks.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_naming_sites(tree, "random_instance")) == [("CheckContext", "instance")]
