"""Guards on the package surface: every exported name exists; every
definition is reached from a command and every defaulted parameter is set
by some call, unless KEEP or OPTION_KEEP says why not; every dataclass
field's default is used by some construction, and every init field is
set by one; every module reads
what it imports unless the benchmark's layer tracer wraps that binding;
every binding the tracer wraps still resolves, so a deletion that would
break the traced run fails here first; `cli.py` names no verdict and no
cloud kind, and each of its flags is passed by a test or by the
benchmark's child process; and the smooth-step kernel and the
CLI run without the packages only the test oracles use, and without
`fractions`, which only an exact tie in the parity count imports."""

import ast
import glob
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import defaultdict

import pytest

import attractorlab
from attractorlab import geometry
from attractorlab.config import KEYS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = os.path.join(REPO, "perfbench", "layers.py")
CHILD = os.path.join(REPO, "perfbench", "child.py")

# Definitions that no command reaches yet, with the reason each stays; they
# are roots of the reachability guard, and their parameters need no caller.
# A name keeps the module-level definition or the class members it names.
KEEP = {
    "adaptive_simpson": "tracer-pinned until ROADMAP item 1's benchmark step",
    "_window_kernel": "tracer-pinned until ROADMAP item 1's benchmark step",
    "lawson_rk4_adaptive": "tracer-pinned until ROADMAP item 1's benchmark step",
    "distance_log_row": "tracer-pinned until ROADMAP item 1's benchmark step",
    "poincare_numeric": "the Lawson oracle of floquet's closed-form map; tracer-pinned as "
                        "floquet.propagator",
    "matrix": "NumericPoincare.matrix, the oracle's dense map, which only the tests read; "
              "kept with poincare_numeric",
}

# Defaulted parameters that no call in the package sets, with the reason each stays.
OPTION_KEEP = {
    "cli.py:main(argv)": "the console entry point passes none; tests and embedding "
                         "callers pass their argument list",
    "simulate.py:trajectory_pair_experiment(rotation_on)": "the paper's rotation-free "
                                                            "control, run by the tests",
}


def load_layers():
    """perfbench/layers.py as a module, or None in a checkout without it."""
    if not os.path.exists(LAYERS):
        return None
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def tracer_bindings() -> set:
    """(module file, attribute) of every binding the layer tracer wraps."""
    layers = load_layers()
    if layers is None:
        return set()
    return {(f"{module}.py", attr) for module, attr, *_ in layers.WRAPS}


def package_modules():
    return [importlib.import_module(f"attractorlab.{m.name}")
            for m in pkgutil.iter_modules(attractorlab.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", package_modules(), ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def package_trees() -> dict:
    package = os.path.dirname(os.path.abspath(attractorlab.__file__))
    trees = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        trees[os.path.basename(path)] = (ast.parse(source, path), source.splitlines())
    return trees


def reads(node) -> set:
    """Every name the code under `node` reads at run time, as a name or an
    attribute; a name read as an attribute, `x.name` or `getattr(x, "name")`,
    is also there as ".name".  Binding or assigning a name is no read, and
    neither is a type annotation."""
    used, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            used |= {node.attr, "." + node.attr}
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(getattr(node.args[1], "value", None), str)):
            used |= {node.args[1].value, "." + node.args[1].value}
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack.extend(v for v in (value if isinstance(value, list) else [value])
                             if isinstance(v, ast.AST))
    return used


def definitions(trees) -> dict:
    """"module:qualified name" -> (bare name, owning class key or None, node
    or None for a field) of every module-level function, class and constant
    (a name assigned at module level, dunders aside), method and dataclass
    field of the package."""
    defs = {}
    for module, (tree, _) in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not (
                            target.id.startswith("__") and target.id.endswith("__")):
                        defs[f"{module}:{target.id}"] = (target.id, None, node)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            owner = f"{module}:{node.name}"
            defs[owner] = (node.name, None, node)
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef):
                    defs[f"{owner}.{member.name}"] = (member.name, owner, member)
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    defs[f"{owner}.{member.target.id}"] = (member.target.id, owner, None)
    return defs


def import_time_reads(tree) -> set:
    """Names a module reads when it is imported: everything outside function
    bodies, so decorators, bases, defaults and class-level statements count."""
    used = set()
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        if isinstance(node, ast.ClassDef):
            for expr in node.decorator_list + node.bases:
                used |= reads(expr)
        for member in members:
            if isinstance(member, ast.FunctionDef):
                args = member.args
                for expr in member.decorator_list + args.defaults + args.kw_defaults:
                    used |= reads(expr) if expr is not None else set()
            else:
                used |= reads(member)
    return used


def tracer_hook_reads() -> set:
    """Every ".name" that a before or after hook of the layer tracer reads
    as an attribute, such as `result.steps`."""
    layers = load_layers()
    if layers is None:
        return set()
    hooks = {hook.__name__ for *_, before, after in layers.WRAPS
             for hook in (before, after) if hook is not None}
    with open(LAYERS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), LAYERS)
    return {name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in hooks
            for name in reads(node) if name.startswith(".")}


def live_definitions(trees, roots) -> tuple[dict, set]:
    """All definitions and the live ones.  `cli.main` and the definitions
    named in `roots` are live; so is every module-level definition whose
    name is read at import time or in the body of a live definition, every
    class member read there as an attribute or by a layer tracer hook, and
    every dunder method of a live class, which Python calls by protocol."""
    defs = definitions(trees)
    live = {"cli.py:main"}
    names = set(roots).union({"." + root for root in roots}, reads(defs["cli.py:main"][2]),
                             tracer_hook_reads(),
                             *(import_time_reads(tree) for tree, _ in trees.values()))
    grew = True
    while grew:
        grew = False
        for key, (name, owner, node) in defs.items():
            if name.startswith("__") and name.endswith("__"):
                reached = owner in live
            else:
                reached = ("." + name if owner else name) in names
            if key in live or not reached:
                continue
            live.add(key)
            names |= reads(node) if isinstance(node, ast.FunctionDef) else set()
            grew = True
    return defs, live


def source_trees() -> dict:
    """package_trees() without __init__, whose re-exports are no use."""
    return {m: t for m, t in package_trees().items() if m != "__init__.py"}


def unreached() -> dict:
    """Each definition no command reaches -> its owning class key, or None
    for a module-level one.  A definition is reached when its name is read
    at import time or in a reached definition, starting from `cli.main` and
    the KEEP names, so code that only calls itself is not reached, and
    neither is code only the tests call.  A class member must be read as an
    attribute there, or by a layer tracer hook.

    Names match bare, because `obj.attr` does not say whose `attr` it reads.
    So a dead member passes when live code reads another class's member of
    the same name (a test-only `PointCloud.value` would pass beside the
    live `SmoothStep.value`), and a dead module-level definition passes
    when live code reads its name for something else, such as a local
    variable.  A dead dunder method of a live class passes too."""
    defs, live = live_definitions(source_trees(), KEEP)
    return {key: owner for key, (_, owner, _) in defs.items() if key not in live}


def test_every_export_is_used():
    """Each module-level function, class and constant of the package is
    reached from a command (see `unreached`), and KEEP names only what no
    command reaches."""
    assert sorted(key for key, owner in unreached().items() if owner is None) == []
    trees = source_trees()
    defs, reached = live_definitions(trees, ())
    assert set(KEEP) <= {name for name, _, _ in defs.values()}, "a KEEP name is gone"
    assert {defs[key][0] for key in reached} & set(KEEP) == set(), \
        "a command reaches a KEEP name now; drop it from KEEP"


def test_every_class_member_is_used():
    """Each method, property and dataclass field of the package is read as
    an attribute by code a command reaches, or by a layer tracer hook (see
    `unreached`)."""
    assert sorted(key for key, owner in unreached().items() if owner is not None) == []


def calls_by_name(trees) -> dict:
    """Bare callee name -> every call of it in the package."""
    calls = defaultdict(list)
    for tree, _ in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls[name].append(node)
    return calls


def sets_parameter(call, index, name) -> bool:
    """Whether `call` passes the parameter `name`, found at argument
    `index` when passed by position (None for a keyword-only one)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def defaulted_parameters(trees):
    """("module:qualified name(parameter)", bare function name, argument
    index or None, parameter name) of every defaulted parameter of every
    function and method, nested ones included; a method's index skips its
    self or cls."""
    for module, (tree, _) in trees.items():
        methods = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    methods[fn] = (f"{cls.name}.{fn.name}", 0 if static else 1)
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            qual, skip = methods.get(fn, (fn.name, 0))
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield f"{module}:{qual}({arg.arg})", fn.name, i - skip, arg.arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{module}:{qual}({arg.arg})", fn.name, None, arg.arg


def test_every_option_is_set():
    """Each defaulted parameter of a package function or method is set, by
    position or by keyword, at some call in the package.  A default no call
    changes is a constant, not an option.  The parameters of KEEP functions
    and the OPTION_KEEP entries are exempt.  Calls match by bare name, as in
    the reachability guard; dataclass fields have their own guard,
    `test_every_dataclass_field_earns_its_default`."""
    trees = source_trees()
    calls = calls_by_name(trees)
    unset = {key for key, fname, index, name in defaulted_parameters(trees)
             if fname not in KEEP
             and not any(sets_parameter(call, index, name) for call in calls[fname])}
    assert sorted(unset - set(OPTION_KEEP)) == []
    assert set(OPTION_KEEP) <= unset, "an OPTION_KEEP parameter is set now; drop it"


def dataclass_fields(trees) -> dict:
    """"module:class" -> [(field, index among the init fields or None,
    whether it has a default)] of every dataclass of the package, in
    declaration order; a field(init=False) has index None."""
    out = {}
    for module, (tree, _) in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            if not any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None),
                                       getattr(getattr(d, "func", None), "id", None))
                       for d in cls.decorator_list):
                continue
            fields, index = [], 0
            for member in cls.body:
                if not (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)):
                    continue
                value = member.value
                options = ({k.arg: k.value for k in value.keywords}
                           if isinstance(value, ast.Call)
                           and getattr(value.func, "id", None) == "field" else None)
                if options is None:
                    init, default = True, value is not None
                else:
                    init = getattr(options.get("init"), "value", True)
                    default = "default" in options or "default_factory" in options
                fields.append((member.target.id, index if init else None, default))
                index += bool(init)
            out[f"{module}:{cls.name}"] = fields
    return out


def constructions(trees, key) -> list:
    """Every call in the package that builds the dataclass `key`: by its
    bare name, or as `cls(...)` in one of its own methods."""
    module, name = key.split(":")
    calls = [node for node in calls_by_name(trees)[name]
             if getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    for cls in (n for n in trees[module][0].body
                if isinstance(n, ast.ClassDef) and n.name == name):
        calls += [node for node in ast.walk(cls) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "cls"]
    return calls


def test_every_dataclass_field_earns_its_default():
    """A dataclass field's default is used by some construction in the
    package: a defaulted field that every construction sets is a required
    field.  And each init field is set by some construction, or by a
    `dataclasses.replace` keyword: one that none sets belongs out of
    __init__, as field(init=False).  Calls match by bare name, as in the
    reachability guard."""
    trees = source_trees()
    replaced = {k.arg for node in calls_by_name(trees)["replace"] for k in node.keywords}
    always, never = [], []
    for key, fields in dataclass_fields(trees).items():
        calls = constructions(trees, key)
        for name, index, default in fields:
            if index is None:
                continue
            setting = [sets_parameter(call, index, name) for call in calls]
            if default and calls and all(setting):
                always.append(f"{key}.{name}")
            if not any(setting) and name not in replaced:
                never.append(f"{key}.{name}")
    assert always == [], "defaulted fields that every construction sets"
    assert never == [], "init fields that no construction sets"


def imported_names(tree):
    """(line, bound name) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_read():
    """Each name a module imports is read in that module, unless its import
    statement carries `# noqa: F401` and the layer tracer wraps that name's
    binding in that module; __init__ imports only to re-export."""
    pinned = tracer_bindings()
    unread = []
    for module, (tree, lines) in source_trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        statements = {node.lineno: node.end_lineno for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))}
        for line, name in imported_names(tree):
            marked = any("# noqa: F401" in lines[k - 1]
                         for k in range(line, statements[line] + 1))
            if name not in read and not (marked and (module, name) in pinned):
                unread.append(f"{module}:{line}: {name}")
    assert unread == []


def test_tracer_bindings_resolve():
    layers = load_layers()
    if layers is None:
        pytest.skip("no layer tracer in this checkout")
    original = geometry.box_count
    tracer = layers.Tracer()
    try:
        tracer.install()  # raises TraceMapError when a wrapped name is gone
        assert geometry.box_count is not original
    finally:
        tracer.uninstall()
    assert geometry.box_count is original


def string_constants(tree) -> set:
    """Every str constant in the tree, the literal parts of f-strings included."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_cli_decides_nothing():
    """cli.py holds no verdict name (a value an `expectations.*` key allows)
    and no cloud kind, so a new verdict, table or kind puts its rule in the
    library, behind the module that computes its inputs."""
    verdicts = {name for key, (_, check) in KEYS.items() if key.startswith("expectations.")
                for name in check}
    kinds = set(KEYS["geometry.cloud.kind"][1])
    assert len(verdicts) == 9 and len(kinds) == 3
    cli_tree, _ = package_trees()["cli.py"]
    assert sorted(string_constants(cli_tree) & (verdicts | kinds)) == []


def test_every_cli_flag_is_passed():
    """Each `--flag` that cli.py declares appears as a string literal in some
    test or in perfbench/child.py: a flag that nothing passes is a second,
    unused way to set what the config sets."""
    cli_tree, _ = package_trees()["cli.py"]
    flags = {node.args[0].value for node in ast.walk(cli_tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
             and node.args and str(getattr(node.args[0], "value", "")).startswith("--")}
    assert "--config" in flags
    here = os.path.abspath(__file__)
    sources = [p for p in glob.glob(os.path.join(REPO, "tests", "*.py")) if p != here]
    if os.path.exists(CHILD):
        sources.append(CHILD)
    passed = set()
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            passed |= string_constants(ast.parse(fh.read(), path))
    assert sorted(flags - passed) == []


@pytest.mark.parametrize("module", ["sympy", "scipy", "jsonschema", "fractions"])
def test_runs_without(module):
    # a fresh interpreter, so no earlier import in this session can mask it
    code = (
        "import sys\n"
        "import attractorlab.cli\n"
        "from attractorlab.cutoffs import mollifier_bump\n"
        "bump = mollifier_bump(0.0, 1.0, 0.3, 0.7)\n"
        "assert bump.value(0.5) == 1.0\n"
        f"assert {module!r} not in sys.modules, '{module} was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(attractorlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
