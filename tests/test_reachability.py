"""Every top-level function and method of homocat is called from somewhere
in the package, or it is on KEEP with the reason it stays; every parameter
with a default is passed by some call in the package, or it is on
KEEP_OPTIONS with the reason it stays.

A function that only its own tests call is code that no scenario runs, and
an option that no call sets is a branch that no scenario takes.  Listing
them and comparing with KEEP and KEEP_OPTIONS makes such code visible the
moment it appears, and makes an entry visible once it gains a caller."""

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

KEEP_OPTIONS = {
    "cli.emit_report(out)":
        "perfbench/worker.py and test_cli write the report into a buffer",
    "cli.main(argv)": "test_cli drives the command line in process",
    "complexes.atom(degree)":
        "tests place a layer in its degree (test_convolutions, "
        "test_acceptance)",
    "complexes.cone_inclusion(c)": "tests pass the cone they built",
    "convolutions.simplify_layers(order)": "ROADMAP item 9 decides it",
    "convolutions.simplify_layers(retracts)": "ROADMAP item 9 decides it",
    "diagonalize.verify_decomposition_of_identity(connecting)":
        "families that are not one interpolation pair; the zero-map "
        "control of test_diagonalize",
    "eigen.check_PD3_capped(certificates)":
        "the certificate path of PD3 (test_eigen)",
    "eigen.mixed_eigencone(h)":
        "a supplied homotopy is checked (test_eigen rejects a bad one)",
    "interpolation.build_K(ordering)": "ordering invariance",
    "interpolation.build_P(ordering)": "ordering invariance",
    "interpolation.verify_P_koszul(zero_partial)":
        "negative control (README, test_acceptance)",
    "interpolation.verify_eigenaction(flip)":
        "negative control (README, test_acceptance)",
    "interpolation.verify_eigenaction(zero_quotient)":
        "negative control (README, test_interpolation)",
    "obstructions.cones_commute_equivalence(phis)":
        "general commutation data, which test_obstructions perturbs",
    "obstructions.secondary_certificate(phis)":
        "general commutation data, which test_obstructions perturbs",
}


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}


def _imported(tree):
    """{name: module} of the tree's `from .module import name` lines."""
    return {a.asname or a.name: n.module for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module
            for a in n.names}


def _owner(defined, imported, mod, name):
    """The module that defines the name as used in mod, or None."""
    while name not in defined[mod] and name in imported[mod]:
        mod = imported[mod][name]
    return mod if name in defined[mod] else None


def uncalled_functions():
    """Top-level functions, as "module.name", that no code in the package
    names outside their own body.  A name is resolved in the module that
    uses it: to that module's own function, or through its
    `from .module import name` to the defining module.  Import lines alone
    do not count as a use."""
    trees = _trees()
    defined = {mod: {n.name for n in tree.body
                     if isinstance(n, ast.FunctionDef)}
               for mod, tree in trees.items()}
    imported = {mod: _imported(tree) for mod, tree in trees.items()}
    used = set()
    for mod, tree in trees.items():
        for node in tree.body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                        and sub.id != own):
                    where = _owner(defined, imported, mod, sub.id)
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


def unpassed_options():
    """Parameters with a default value, as "module.function(name)" or
    "module.Class.method(name)", that no call in the package passes, by
    keyword or by position.  A call by name is resolved as in
    uncalled_functions, a call of a class to its __init__, and a call of an
    attribute to every method of that name; both branches of a conditional
    callee count."""
    trees = _trees()
    defined = {mod: {n.name for n in tree.body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
               for mod, tree in trees.items()}
    imported = {mod: _imported(tree) for mod, tree in trees.items()}
    options = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f"{node.name}.{f.name}", f, 0 if any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in f.decorator_list) else 1)
                    for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for qual, fn, bound in fns:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                options[f"{mod}.{qual}"] = (
                    [(a.arg, i - bound) for i, a in enumerate(args)
                     if i >= first]
                    + [(a.arg, None) for a, dflt in zip(fn.args.kwonlyargs,
                                                        fn.args.kw_defaults)
                       if dflt is not None])

    def callees(mod, func):
        if isinstance(func, ast.IfExp):
            return callees(mod, func.body) + callees(mod, func.orelse)
        if isinstance(func, ast.Attribute):
            return [q for q in options if q.endswith(f".{func.attr}")
                    and q.count(".") == 2]
        if not isinstance(func, ast.Name):
            return []
        where = _owner(defined, imported, mod, func.id)
        if where is None:
            return []
        init = f"{where}.{func.id}.__init__"
        return [init] if init in options else [f"{where}.{func.id}"]

    passed = set()
    for mod, tree in trees.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            npos = sum(not isinstance(a, ast.Starred) for a in call.args)
            keys = {k.arg for k in call.keywords}
            for q in callees(mod, call.func):
                passed |= {(q, name) for name, i in options.get(q, ())
                           if name in keys or (i is not None and i < npos)}
    return {f"{q}({name})" for q, opts in options.items()
            for name, _ in opts if (q, name) not in passed}


def test_unpassed_options_are_exactly_the_keep_list():
    unpassed = unpassed_options()
    assert sorted(unpassed - set(KEEP_OPTIONS)) == [], \
        "no call in homocat sets it: pass, delete, or add to KEEP_OPTIONS"
    assert sorted(set(KEEP_OPTIONS) - unpassed) == [], \
        "a call sets it now: remove from KEEP_OPTIONS"
