"""Static checks of the source with the standard-library ``ast`` module:
every exported name exists, every module-level name is read by the
package or the benchmark, every imported name is used, every
``*Config`` field is read by some code outside its own class, every
function parameter is read by its function, and every ``*Config`` field
is set, every method or property read and every defaulted parameter
passed by the package or the benchmark, that no parameter gets one
constant from every call, and that only the functions a benchmark
adapter reaches build or read a ``BBox``. A test, under tests/ or
perfbench/tests/, is never a caller.
One guard then constructs each ``*Config`` these checks find, to see
that every numeric field rejects the values its type cannot mean."""

import ast
import dataclasses
import importlib
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "scaleloc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))  # not perfbench/tests
# The code whose reads and calls count: a name that only tests use is unused.
CALLERS = PACKAGE + PERFBENCH


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def imported(node):
    """Names an import statement binds, except ``from __future__``."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [a.asname or a.name for a in node.names]
    return []


def top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        else:
            names.update(imported(node))
    return names


def bound_in(fn):
    """Names a function or lambda binds locally (arguments, assignments,
    loop targets, nested definitions and imports)."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif node is not fn and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names.update(imported(node))
    return names


def global_loads(tree):
    """Names read somewhere they resolve to a module-level binding: a
    function-local variable of the same name does not count."""
    loads = set()

    def visit(node, local):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                loads.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | bound_in(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return loads


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_exports_are_defined(path):
    tree = parse(path)
    missing = set(exported(tree)) - top_level_names(tree)
    assert not missing, f"{path.name}: __all__ lists undefined names {sorted(missing)}"


def unused_imports(tree):
    """Imported names never read in the scope that imports them: the
    module for top-level imports, the outermost enclosing function for
    the others."""
    unused, in_function = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn not in in_function:
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            loads = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            for node in ast.walk(fn):
                in_function.add(node)
                unused += [name for name in imported(node) if name not in loads]
    used = global_loads(tree) | set(exported(tree))
    for node in ast.walk(tree):
        if node not in in_function:
            unused += [name for name in imported(node) if name not in used]
    return unused


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_are_used(path):
    unused = unused_imports(parse(path))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_checks_catch_a_stale_export_and_a_shadowed_import():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "__all__ = ['Anchor', 'f']\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "def f():\n"
        "    field = 1\n"
        "    return field\n"
    )
    assert set(exported(tree)) - top_level_names(tree) == {"Anchor"}
    assert unused_imports(tree) == ["field"]


def names_read(trees):
    """Names loaded anywhere in ``trees``, as a variable or an attribute,
    and names imported by ``from`` imports. A definition and an
    ``__all__`` entry are not reads."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(a.name for a in node.names)
    return reads


def unread_exports(tree, trees):
    """Names in ``tree``'s ``__all__`` that no code in ``trees`` reads,
    such as a format that nothing calls."""
    reads = names_read(trees)
    return [name for name in exported(tree) if name not in reads]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_exports_are_read(path):
    trees = [parse(p) for p in CALLERS]
    unread = unread_exports(parse(path), trees)
    assert not unread, f"{path.name}: exports that nothing in src/ or perfbench/ reads {unread}"


def test_export_check_flags_a_name_only_its_definition_and_all_mention():
    module = ast.parse(
        "__all__ = ['Scene', 'sample', 'write', 'read', 'Error', 'LIMIT']\n"
        "LIMIT = 3\n"
        "class Scene: pass\n"
        "class Error(ValueError): pass\n"
        "def sample(): return [Scene()] * LIMIT\n"
        "def write(path): pass\n"
        "def read(path): raise Error(path)\n"
    )
    caller = ast.parse("from pkg.mod import sample as draw\nimport pkg\npkg.mod.Scene\n")
    assert unread_exports(module, [module, caller]) == ["write", "read"]


def unread_module_names(tree, trees):
    """Names that ``tree`` binds at module level, other than imports and
    dunders, that no code in ``trees`` reads, such as a constant left
    behind by deleted code. Reads count as in :func:`names_read`."""
    reads = names_read(trees)
    imports = {name for node in tree.body for name in imported(node)}
    bound = top_level_names(tree) - imports
    return sorted(n for n in bound if not n.startswith("__") and n not in reads)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_level_names_are_read(path):
    trees = [parse(p) for p in CALLERS]
    unread = unread_module_names(parse(path), trees)
    where = "module-level names that nothing in src/ or perfbench/ reads"
    assert not unread, f"{path.name}: {where} {unread}"


def test_module_name_check_flags_a_constant_left_behind():
    module = ast.parse(
        "import math\n"
        "__all__ = ['pool']\n"
        "_CHUNK_BYTES = 512\n"
        "_GROUP_BYTES = 16 * _CHUNK_BYTES\n"
        "LIMIT: int = 3\n"
        "def pool(): return _CHUNK_BYTES * math.pi\n"
        "def _blend_shared(): return LIMIT\n"
        "class _Unused: pass\n"
    )
    caller = ast.parse("from pkg.mod import pool\n")
    unread = unread_module_names(module, [module, caller])
    assert unread == ["_GROUP_BYTES", "_Unused", "_blend_shared"]


def is_class_var(annotation):
    """Whether an annotation is ``ClassVar`` or ``ClassVar[...]``, which
    makes a class attribute, not a dataclass field."""
    node = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(node, "id", getattr(node, "attr", None)) == "ClassVar"


def config_fields(tree):
    """(class node, field names) for each ``*Config`` dataclass in a module."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Config")):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields = [
                s.target.id
                for s in node.body
                if isinstance(s, ast.AnnAssign)
                and isinstance(s.target, ast.Name)
                and not is_class_var(s.annotation)
            ]
            yield node, fields


def attribute_reads(trees, skip):
    """Attribute names loaded anywhere in ``trees`` except inside ``skip``."""
    reads = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for tree in trees:
        visit(tree)
    return reads


def unread_config_fields(tree, package_trees):
    """``Class.field`` for each config field of ``tree`` that no code in
    ``package_trees`` reads as an attribute outside the class body, such
    as a knob that only its own ``__post_init__`` validates."""
    unread = []
    for cls, fields in config_fields(tree):
        reads = attribute_reads(package_trees, cls)
        unread += [f"{cls.name}.{name}" for name in fields if name not in reads]
    return unread


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_config_fields_are_read(path):
    trees = {p: parse(p) for p in PACKAGE}
    unread = unread_config_fields(trees[path], trees.values())
    assert not unread, f"{path.name}: config fields that nothing reads {unread}"


def test_config_check_flags_a_field_only_its_own_class_reads():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class StepConfig:\n"
        "    move_ratio: float = 0.1\n"
        "    aspect_ratio_step: float = 0.1\n"
        "    def __post_init__(self):\n"
        "        if self.move_ratio <= 0 or self.aspect_ratio_step <= 0:\n"
        "            raise ValueError('steps must be positive')\n"
        "class PlainConfig:\n"
        "    unused: int = 0\n"
        "def step(cfg):\n"
        "    return cfg.move_ratio\n"
    )
    assert [cls.name for cls, _ in config_fields(tree)] == ["StepConfig"]
    assert unread_config_fields(tree, [tree]) == ["StepConfig.aspect_ratio_step"]


# Values that each numeric annotation must reject: an int field is a count
# or a seed, so never fractional, a bool or negative; a float field is a
# size, rate or factor, so finite and positive.
BAD_VALUES = {
    "int": [2.5, True, -1],
    "float": [math.nan, math.inf, -math.inf, -1.0],
}
# Fields of any other annotation, each with the check that covers it.
EXEMPT_FIELDS = {
    "GenConfig.extent": "_extent; test_scenegen.py and test_featpyr.py",
    "PyramidConfig.layers": "LayerSpec strides and channels; test_featpyr.py",
    "PolicyConfig.feature_dims": "layer ids and dims; test_policy.py",
    "ProposalTrainConfig.pyramid": "a PyramidConfig, checked when it is built",
}
# Arguments for configs whose fields are not all defaulted.
REQUIRED = {"PolicyConfig": {"feature_dims": {3: 64}}}


def numeric_config_cases():
    """(``Class.field``, class, field, annotation) for every field of
    every ``*Config`` dataclass in ``src/scaleloc``."""
    for path in PACKAGE:
        module = importlib.import_module(f"scaleloc.{path.stem}")
        for node, _ in config_fields(parse(path)):
            cls = getattr(module, node.name)
            for field in dataclasses.fields(cls):
                yield f"{node.name}.{field.name}", cls, field.name, str(field.type)


CONFIG_CASES = list(numeric_config_cases())


def test_every_config_field_is_guarded_or_exempt():
    assert CONFIG_CASES
    unguarded = [
        name
        for name, _, _, annotation in CONFIG_CASES
        if annotation not in BAD_VALUES and name not in EXEMPT_FIELDS
    ]
    assert not unguarded, f"fields with neither a guard nor an exemption: {unguarded}"
    assert set(EXEMPT_FIELDS) <= {name for name, *_ in CONFIG_CASES}


@pytest.mark.parametrize(
    "cls, field, bad",
    [
        pytest.param(cls, field, bad, id=f"{name}={bad!r}")
        for name, cls, field, annotation in CONFIG_CASES
        for bad in BAD_VALUES.get(annotation, [])
    ],
)
def test_numeric_config_fields_reject_out_of_range_values(cls, field, bad):
    base = cls(**REQUIRED.get(cls.__name__, {}))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        dataclasses.replace(base, **{field: bad})


def unset_config_fields(tree, trees):
    """``Class.field`` for each config field of ``tree`` that no call in
    ``trees`` passes as a keyword argument, such as a constant that only
    its default ever sets. Any call's keyword counts, so a field set
    through ``dict(...)`` or a helper's keywords passes."""
    keywords = {
        kw.arg
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Call)
        for kw in node.keywords
    }
    return [
        f"{cls.name}.{name}"
        for cls, fields in config_fields(tree)
        for name in fields
        if name not in keywords
    ]


# Fields that no call in src/ or perfbench/ sets yet, each with the reason
# it stays.
UNSET_FIELDS = {
    f"GenConfig.{name}": "only perfbench's tests set it; a constant would change the benchmark"
    for name in ("height_median", "min_height")
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_config_fields_are_set(path):
    trees = [parse(p) for p in CALLERS]
    unset = [f for f in unset_config_fields(parse(path), trees) if f not in UNSET_FIELDS]
    assert not unset, f"{path.name}: config fields that no call in src/ or perfbench/ sets {unset}"


def test_unset_field_exemptions_are_still_unset():
    trees = [parse(p) for p in CALLERS]
    unset = {f for p in PACKAGE for f in unset_config_fields(parse(p), trees)}
    assert set(UNSET_FIELDS) <= unset, "drop the exemptions of fields that a call now sets"


def test_config_check_flags_a_field_only_a_test_sets():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class GenConfig:\n"
        "    scenes: int = 100\n"
        "    objects_max: int = 6\n"
    )
    bench = ast.parse("cfg = GenConfig(scenes=12)\n")
    test = ast.parse("def test_one():\n    GenConfig(scenes=1, objects_max=1)\n")
    assert unset_config_fields(module, [module, bench]) == ["GenConfig.objects_max"]
    assert unset_config_fields(module, [module, bench, test]) == []
    tests = (ROOT / "tests", ROOT / "perfbench" / "tests")
    assert not [p for p in CALLERS if any(p.is_relative_to(t) for t in tests)]


def test_config_check_flags_a_field_no_call_sets():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class TrainConfig:\n"
        "    base: ClassVar[float] = 2.0\n"
        "    lr: float = 0.1\n"
        "    momentum: float = 0.9\n"
        "    steps: int = 10\n"
        "    seed: int = 0\n"
        "def train(cfg=TrainConfig(lr=0.5)):\n"
        "    return cfg.lr * cfg.momentum * cfg.steps * cfg.seed * cfg.base\n"
        "def config(**kw):\n"
        "    return TrainConfig(**kw)\n"
        "short = dict(steps=5)\n"
        "seeded = config(seed=1)\n"
    )
    assert [fields for _, fields in config_fields(tree)] == [["lr", "momentum", "steps", "seed"]]
    assert unset_config_fields(tree, [tree]) == ["TrainConfig.momentum"]


def unread_parameters(tree):
    """``function(parameter)`` for each parameter of a function or lambda
    that its body never reads, such as a knob left behind when its use
    went away. A read inside a nested function counts unless that
    function binds the name itself. A method's ``self`` or ``cls`` is
    exempt: the method belongs to its class whether it reads it or not."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def reads(node, shadowed, loads):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                loads.add(node.id)
        if isinstance(node, functions):
            shadowed = shadowed | bound_in(node)
        for child in ast.iter_child_nodes(node):
            reads(child, shadowed, loads)

    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, functions):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loads = set()
        for stmt in body:
            reads(stmt, frozenset(), loads)
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        name = getattr(fn, "name", "<lambda>")
        unread += [
            f"{name}({a.arg})" for a in params if a.arg not in loads | {"self", "cls"}
        ]
    return unread


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_parameters_are_read(path):
    unread = unread_parameters(parse(path))
    assert not unread, f"{path.name}: parameters that nothing reads {unread}"


def test_parameter_check_flags_a_knob_left_behind():
    tree = ast.parse(
        "def label(anchors, gt_boxes, extent, *args, scale=1, **kw):\n"
        "    def inner(extent):\n"
        "        return extent\n"
        "    return inner(anchors) + gt_boxes * scale + len(kw)\n"
        "class C:\n"
        "    def method(self, x, y):\n"
        "        return x\n"
        "f = lambda a, b: a\n"
    )
    assert unread_parameters(tree) == [
        "label(extent)", "label(args)", "method(y)", "<lambda>(b)",
    ]


def unread_members(tree, trees):
    """``Class.member`` for each method or property of a class in
    ``tree`` that no attribute load in ``trees`` reads, such as a
    property that only tests use. Dunders are exempt: Python calls them."""
    reads = attribute_reads(trees, None)
    return [
        f"{cls.name}.{fn.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in reads
    ]


# Members that nothing in src/ or perfbench/ reads yet, each with the
# reason it stays.
UNREAD_MEMBERS = {
    "PolicyParams.from_arrays": "checkpoint loader for ROADMAP item 6's training and eval",
    "ProposalModel.from_arrays": "checkpoint loader for ROADMAP item 6's training and eval",
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_class_members_are_read(path):
    trees = [parse(p) for p in CALLERS]
    unread = [m for m in unread_members(parse(path), trees) if m not in UNREAD_MEMBERS]
    assert not unread, f"{path.name}: members that nothing in src/ or perfbench/ reads {unread}"


def test_unread_member_exemptions_are_still_unread():
    trees = [parse(p) for p in CALLERS]
    unread = {m for p in PACKAGE for m in unread_members(parse(p), trees)}
    assert set(UNREAD_MEMBERS) <= unread, "drop the exemptions of members that are now read"


def test_member_check_flags_a_property_only_tests_read():
    tree = ast.parse(
        "class Box:\n"
        "    def __len__(self): return 4\n"
        "    @property\n"
        "    def cx(self): return 0\n"
        "    @property\n"
        "    def x2(self): return 0\n"
        "    def area(self): return self.x2\n"
        "    @classmethod\n"
        "    def load(cls): return cls()\n"
    )
    caller = ast.parse("from pkg import Box\nBox.load().area()\ncx = 1\nprint(cx)\n")
    assert unread_members(tree, [tree, caller]) == ["Box.cx"]


def bbox_users(tree, module):
    """``module.function`` (``module.Class.method``) for each function or
    method in ``tree`` that builds a ``BBox`` or reads ``.as_tuple`` or
    ``.gt_boxes``, anywhere in its body; ``module.<body>`` or
    ``module.Class.<body>`` for such code outside a function. ``BBox``'s
    own methods are exempt."""

    def uses(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                if getattr(n.func, "id", getattr(n.func, "attr", None)) == "BBox":
                    return True
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                if n.attr in ("as_tuple", "gt_boxes"):
                    return True
        return False

    users = []

    def visit(scope, prefix):
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                if node.name != "BBox":
                    visit(node, f"{prefix}{node.name}.")
            elif uses(node):
                named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                users.append(prefix + (node.name if named else "<body>"))

    visit(tree, f"{module}.")
    return users


# The functions in src/ that build or read a BBox, each with the benchmark
# adapter that needs it: everything else works on (x, y, w, h) rows.
BBOX_BOUNDARY = {
    "geometry.clip": "policy-full clips each episode's box",
    "geometry.iou": "policy-full's reward",
    "geometry.apply_transform": "policy-full's transform actions",
    "featpyr.roi_pool": "policy-full pools each episode's box",
    "proposal.top_k": "infer-full reads each ScoredBox's box",
    "scenegen.Scene.gt_boxes": "infer-full's coverage and policy-full's start boxes",
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_bbox_stays_at_the_adapter_boundary(path):
    """Ground truths, anchors and proposals are rows: only a function
    that a benchmark adapter's BBox reaches may build or read one."""
    stray = [u for u in bbox_users(parse(path), path.stem) if u not in BBOX_BOUNDARY]
    assert not stray, f"{path.name}: BBox use outside the adapter boundary {stray}"


def test_bbox_boundary_entries_still_use_a_bbox():
    users = {u for p in PACKAGE for u in bbox_users(parse(p), p.stem)}
    assert set(BBOX_BOUNDARY) <= users, "drop the entries of functions that no longer use a BBox"


def test_bbox_check_flags_every_way_off_rows():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import geometry\n"
        "from .geometry import BBox\n"
        "ORIGIN = BBox(0, 0, 1, 1)\n"
        "class BBox:\n"
        "    def as_tuple(self): return (self.x,)\n"
        "    def __post_init__(self): self.as_tuple()\n"
        "class Scene:\n"
        "    box: BBox\n"
        "    first = geometry.BBox(0, 0, 1, 1)\n"
        "    @property\n"
        "    def gt_boxes(self) -> list[BBox]: return [BBox(*g) for g in self.rows]\n"
        "    def rows(self): return [g.box for g in self.objects]\n"
        "def label(scene): return np.array([b.as_tuple() for b in scene.gt_boxes])\n"
        "def count(scene, gt_boxes): return len(gt_boxes) + len(scene.rows())\n"
        "def outer():\n"
        "    def inner(b): return b.as_tuple()\n"
        "    return inner\n"
    )
    assert bbox_users(tree, "mod") == [
        "mod.<body>", "mod.Scene.<body>", "mod.Scene.gt_boxes", "mod.label", "mod.outer",
    ]


def calls_by_name(trees):
    """Every call in ``trees`` by the name it calls, on whatever object,
    except ``np.*`` calls, whose names (``clip``, ``take``) the package
    reuses."""
    calls = {}
    for t in trees:
        for node in ast.walk(t):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if not (isinstance(func.value, ast.Name) and func.value.id == "np"):
                    calls.setdefault(func.attr, []).append(node)
            elif isinstance(func, ast.Name):
                calls.setdefault(func.id, []).append(node)
    return calls


def parameters(tree):
    """(function, [(parameter, position or None, default or None)]) for
    each function in ``tree``. A method's positions skip its ``self`` or
    ``cls``; a keyword-only parameter has no position."""
    methods = {
        fn
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if fn in methods else 0
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        params = [(a.arg, i - skip, d) for i, (a, d) in enumerate(zip(positional, defaults))]
        params += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
        yield fn, params[skip:]


def unpassed_defaults(tree, trees):
    """``function(parameter)`` for each defaulted parameter of a function
    in ``tree`` that no call in ``trees`` passes, by position or by
    keyword, such as a knob that only tests set. A call counts for every
    function of the name it calls (:func:`calls_by_name`). A call with
    ``*args`` passes every position, one with ``**kwargs`` every
    keyword."""
    calls = calls_by_name(trees)

    def passed(call, name, position):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return position is not None and (starred or len(call.args) > position)

    return [
        f"{fn.name}({name})"
        for fn, params in parameters(tree)
        for name, position, default in params
        if default is not None
        and not any(passed(c, name, position) for c in calls.get(fn.name, []))
    ]


def is_constant(node):
    """Whether an argument is a literal or an ALL-CAPS name or attribute."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return getattr(node, "id", getattr(node, "attr", "")).isupper()
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def one_value_arguments(tree, trees):
    """``function(parameter) <- value`` for each parameter of a function
    in ``tree`` that every call in ``trees`` passes, each the same
    literal or ALL-CAPS constant: an argument that could be the constant
    itself. Calls count as in :func:`unpassed_defaults`; one that passes
    ``*args`` or ``**kwargs``, or leaves the parameter to its default,
    may pass anything, and a function that nothing calls is skipped."""
    calls = calls_by_name(trees)

    def argument(call, name, position):
        """The node passed for the parameter, or None if it is unknown."""
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
        if position is None or position >= len(call.args):
            return None
        if any(isinstance(a, ast.Starred) for a in call.args[: position + 1]):
            return None
        return call.args[position]

    flagged = []
    for fn, params in parameters(tree):
        reached = calls.get(fn.name, [])
        for name, position, _ in params:
            values = [argument(c, name, position) for c in reached]
            if values and all(v is not None and is_constant(v) for v in values):
                if len({ast.dump(v) for v in values}) == 1:
                    flagged.append(f"{fn.name}({name}) <- {ast.unparse(values[0])}")
    return flagged


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_defaulted_parameters_are_passed(path):
    trees = [parse(p) for p in CALLERS]
    unpassed = unpassed_defaults(parse(path), trees)
    assert not unpassed, f"{path.name}: defaults that no call in src/ or perfbench/ sets {unpassed}"


def test_default_check_flags_a_knob_only_tests_set():
    tree = ast.parse(
        "import numpy as np\n"
        "def clip(boxes, extent, min_side=2.0): return boxes\n"
        "def count(name, value, least=1): return value >= least\n"
        "def pool(x, *, order='C', scale=1): return x * scale\n"
        "class Model:\n"
        "    def step(self, x, rate=0.1): return x * rate\n"
        "    def fit(self, x, epochs=1): return x * epochs\n"
        "    @staticmethod\n"
        "    def make(seed=0): return seed\n"
        "def use(m, kw, args):\n"
        "    np.clip(1, 0, 2)\n"
        "    count('k', 3, 0)\n"
        "    pool(1, order='F')\n"
        "    m.step(1, 0.5)\n"
        "    m.fit(1, **kw)\n"
        "    Model.make(*args)\n"
    )
    assert unpassed_defaults(tree, [tree]) == ["clip(min_side)", "pool(scale)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_argument_that_one_value_reaches(path):
    """A parameter that every caller fills with one constant is that
    constant: the function should read it, as the sampler reads its
    quotas, rather than take it."""
    trees = [parse(p) for p in CALLERS]
    flagged = one_value_arguments(parse(path), trees)
    where = "arguments that every call in src/ or perfbench/ fixes"
    assert not flagged, f"{path.name}: {where} {flagged}"


def test_one_value_check_flags_a_quota_every_caller_passes():
    tree = ast.parse(
        "import numpy as np\n"
        "POS_COUNT = 32\n"
        "def sample(labels, rng, pos_count, gamma, order='C'):\n"
        "    return labels, rng, pos_count, gamma, order\n"
        "def count(name, value, least=1): return value >= least\n"
        "def pool(x, *, scale): return x * scale\n"
        "def unused(x, limit): return x + limit\n"
        "class Model:\n"
        "    def step(self, x, rate): return x * rate\n"
        "def use(m, cfg, args, kw):\n"
        "    sample(1, 2, POS_COUNT, 3, 'F')\n"
        "    sample(4, 5, pos_count=POS_COUNT, gamma=3, order='F')\n"
        "    sample(6, 7, POS_COUNT, cfg.gamma)\n"
        "    count('a', 1, 0)\n"
        "    count('b', 2)\n"
        "    pool(1, scale=cfg.SCALE)\n"
        "    pool(2, scale=cfg.SCALE)\n"
        "    m.step(1, -0.5)\n"
        "    m.step(*args)\n"
        "    np.clip(1, 0, 2)\n"
        "    sample(8, 9, **kw)\n"
    )
    # The **kw call may pass any pos_count.
    assert one_value_arguments(tree, [tree]) == ["pool(scale) <- cfg.SCALE"]
    source = ast.unparse(tree).replace("sample(8, 9, **kw)", "pool(3, scale=2)")
    other = ast.parse(source)
    assert one_value_arguments(other, [other]) == ["sample(pos_count) <- POS_COUNT"]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """Reads of the process environment: ``os.environ`` or ``os.getenv``
    (or their bytes forms) through any name bound to ``os``, or imported
    from ``os`` by name."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(
                a.asname or "os" for a in node.names
                if a.name == "os" or (a.asname is None and a.name.startswith("os."))
            )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"from os import {a.name}")
                for a in node.names if a.name in ENVIRONMENT | {"*"}
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_environment_reads(path):
    """Behaviour follows from arguments and inputs, never from an
    environment variable, so no switch can arrive that way."""
    reads = environment_reads(parse(path))
    assert not reads, f"{path.name}: reads the environment at {reads}"


def test_environment_check_flags_every_spelling():
    tree = ast.parse(
        "import os\n"
        "import os as system\n"
        "import os.path\n"
        "from os import getenv, path\n"
        "from os import *\n"
        "a = os.environ.get('POOL')\n"
        "b = system.getenv('POOL')\n"
        "c = os.environb\n"
        "d = path.join('a', 'b')\n"
        "e = other.environ\n"
    )
    assert environment_reads(tree) == [
        "line 4: from os import getenv",
        "line 5: from os import *",
        "line 6: os.environ",
        "line 7: system.getenv",
        "line 8: os.environb",
    ]
