"""Every top-level function and method of homocat is called from somewhere
in the package, or it is on KEEP with the reason it stays.

A function that only its own tests call is code that no scenario runs.
Listing the uncalled functions and comparing them with KEEP makes such code
visible the moment it appears, and makes a KEEP entry visible once the
function gains a caller."""

import ast
from pathlib import Path

import homocat

SRC = Path(homocat.__file__).resolve().parent

KEEP = {
    "complexes.cone_inclusion":
        "tests build their cone data with it (test_complexes, "
        "test_convolutions)",
    "complexes.hom_complex":
        "the reference of test_rank_matches_hom_complex_cycles",
    "exactlinalg.hnf": "perfbench/tracer.py LAYERS names it",
    "convolutions.simplify_layers": "ROADMAP item 9 decides it",
    "interpolation.triangle_check": "ROADMAP item 11 decides it",
    "interpolation.window_restrict":
        "tests cut their windows with it (test_interpolation, "
        "test_acceptance)",
    "eigen.eigenmap_to_json": "witness export, ROADMAP item 3",
    "eigen.eigenmap_from_json": "witness export, ROADMAP item 3",
    "interpolation.truncated_to_json": "witness export, ROADMAP item 3",
    "interpolation.truncated_from_json": "witness export, ROADMAP item 3",
    "obstructions.certificate_to_json": "witness export, ROADMAP item 3",
    "obstructions.certificate_from_json": "witness export, ROADMAP item 3",
    "complexes.homotopy_inverse":
        "perfbench/tracer.py LAYERS names it; tests call it",
    "exactlinalg.Matrix.col": "only tests call them",
    "exactlinalg.Matrix.is_identity": "only tests call them",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}


def uncalled_functions():
    """Top-level functions, as "module.name", that no code in the package
    names outside their own body.  A name is resolved in the module that
    uses it: to that module's own function, or through its
    `from .module import name` to the defining module.  Import lines alone
    do not count as a use."""
    trees = _trees()
    defined = {}
    imported = {}
    for mod, tree in trees.items():
        defined[mod] = {n.name for n in tree.body
                        if isinstance(n, ast.FunctionDef)}
        imported[mod] = {a.asname or a.name: n.module
                         for n in ast.walk(tree)
                         if isinstance(n, ast.ImportFrom) and n.level == 1
                         and n.module
                         for a in n.names}

    def owner(mod, name):
        while name not in defined[mod] and name in imported[mod]:
            mod = imported[mod][name]
        return mod if name in defined[mod] else None

    used = set()
    for mod, tree in trees.items():
        for node in tree.body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                        and sub.id != own):
                    where = owner(mod, sub.id)
                    if where is not None:
                        used.add(f"{where}.{sub.id}")
    return {f"{mod}.{name}" for mod, names in defined.items()
            for name in names} - used


def uncalled_methods():
    """Methods, as "module.Class.name", whose name appears as an attribute
    nowhere in the package.  Dunder methods are left out: Python itself
    calls them."""
    trees = _trees()
    attrs = {n.attr for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)}
    return {f"{mod}.{cls.name}.{fn.name}"
            for mod, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in attrs}


def test_uncalled_functions_are_exactly_the_keep_list():
    uncalled = uncalled_functions() | uncalled_methods()
    assert sorted(uncalled - set(KEEP)) == [], \
        "no caller in homocat: call, delete, or add to KEEP with a reason"
    assert sorted(set(KEEP) - uncalled) == [], \
        "has a caller now: remove from KEEP"
