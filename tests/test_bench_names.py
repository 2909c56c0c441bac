"""The names the benchmark reaches in the package resolve, with the signatures it calls.

``bench/tracer.py`` wraps functions by module and name, ``bench/sweep.py``
times public functions by name, and ``bench/worker.py`` calls the package
directly.  Deleting or renaming any of these fails here, without running the
benchmark.  ``worker.py`` pins threads when imported, so its calls are read
from its source instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypkonvex"


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_tracer_modules_renamed_functions_and_shape_classes_resolve(bench_path):
    tracer = importlib.import_module("tracer")
    for short in tracer.MODULES:
        importlib.import_module("hypkonvex." + short)
    for full in tracer.RENAMED:
        short, attr = full.split(".")
        assert inspect.isfunction(getattr(importlib.import_module("hypkonvex." + short), attr)), full
    shapes = importlib.import_module("hypkonvex.shapes")
    for name in tracer.SHAPE_CLASSES:
        assert callable(getattr(shapes, name).support), name


# What each tracer hook reads of its call: (parameter, position, probe value),
# or None for a hook that reads only the result.
HOOK_READS = {
    "verify.run_suite": ("name", 0, "minkowski"),
    "supportfn.offgrid": ("theta", 2, np.zeros(3)),
    "svgout.write_svg": ("path", 1, __file__),
    "supportfn.combine": None,
}


def test_tracer_hooks_read_the_parameters_they_name(bench_path):
    tracer = importlib.import_module("tracer")
    hooks = {name: lambda a, k, h=h: h(a, k) for name, h in tracer.SPAN_NAMES.items()}
    hooks.update({name: lambda a, k, h=h: h(a, k, None) for name, h in tracer.COUNTERS.items()})
    assert set(HOOK_READS) == set(hooks)
    functions = {traced: full for full, traced in tracer.RENAMED.items()}
    for traced, reads in HOOK_READS.items():
        if reads is None:
            continue
        param, pos, probe = reads
        short, attr = functions.get(traced, traced).split(".")
        fn = getattr(importlib.import_module("hypkonvex." + short), attr)
        assert list(inspect.signature(fn).parameters)[pos] == param, traced
        assert hooks[traced]((None,) * pos + (probe,), {}) == hooks[traced]((), {param: probe}), traced


def test_sweep_cases_bind_to_their_functions(bench_path, tmp_path):
    sweep = importlib.import_module("sweep")
    from hypkonvex.supportfn import EvenFn

    M = 64
    for name, (prepare, call) in sweep._cases(tmp_path).items():
        module, attr = name.split(".")
        assert call is getattr(importlib.import_module("hypkonvex." + module), attr), name
        args = prepare(EvenFn(sweep.body_samples("smooth", M)), M)
        inspect.signature(call).bind(*args)


def _attribute_chain(node):
    """['lorentz', 'hyper_dist'] for ``lorentz.hyper_dist``; None for other nodes."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) and parts else None


def test_worker_calls_resolve_with_their_keywords():
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: importlib.import_module("hypkonvex." + alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "hypkonvex"
        for alias in node.names
    }
    assert {"cli", "lorentz", "mobius", "shapedoc", "supportfn"} <= set(modules)

    def resolve(chain):
        obj = modules[chain[0]]
        for attr in chain[1:]:
            obj = getattr(obj, attr)
        return obj

    called = set()
    for node in ast.walk(tree):
        chain = _attribute_chain(node)
        if chain and chain[0] in modules:
            resolve(chain)  # every name read, called or not (isinstance(doc, supportfn.EvenFn))
        chain = _attribute_chain(node.func) if isinstance(node, ast.Call) else None
        if chain and chain[0] in modules:
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            inspect.signature(resolve(chain)).bind(*[None] * len(node.args), **keywords)
            called.add(".".join(chain))
    assert {"lorentz.hyper_dist", "supportfn.from_samples", "cli.main", "mobius.Mobius.axial"} <= called



def test_shape_tag_is_the_body_exactly_when_there_is_no_raw_part(bench_path):
    # worker.py picks its dist route from mid.fn.shape_tag, and the tracer
    # counts supportfn.combine.tagged from result.shape_tag.
    from hypkonvex.mobius import Mobius, rho_act
    from hypkonvex.shapes import Ellipse, Polygon, _terms
    from hypkonvex.supportfn import Raw, combine, from_ellipse, from_polygon, from_samples, scaled

    tagged = importlib.import_module("tracer").COUNTERS["supportfn.combine"]
    M = 64
    disc = from_ellipse(Ellipse(np.eye(2)), M)
    square = from_polygon(Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])), M)
    raw = from_samples(square.samples)
    combined = [combine(0.5, disc, 0.5, square), combine(0.5, disc, 0.5, raw), combine(1.0, raw, 2.0, raw)]
    combined += [combine(2.0, square, 0.0, raw), combine(0.0, square, 2.0, raw)]
    made = [disc, square, raw] + combined + [scaled(h, 2.0) for h in combined[:3]]
    made += [rho_act(Mobius.rotation(0.3) @ Mobius.axial(0.5), h) for h in made]

    def parts(h):  # (a shape term, a raw term) in h's one body
        raw = [isinstance(k, Raw) for _, k in _terms(h.body)]
        return not all(raw), any(raw)

    for h in made:
        assert h.shape_tag is (None if parts(h)[1] else h.body)
        assert parts(h) != (False, False)
    for h in combined:
        assert tagged((), {}, h) == {"supportfn.combine.tagged": int(not parts(h)[1])}
    assert {parts(h) for h in made} == {(True, False), (False, True), (True, True)}


def test_no_module_of_the_package_reads_shape_tag():
    # supportfn defines shape_tag for callers outside the package; the
    # package's own operations read a function's body and raw parts, so
    # that none can route on tagged versus untagged.
    reads, defined = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "shape_tag") or (
                isinstance(node, ast.Constant) and node.value == "shape_tag"
            ):
                reads.append("%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.FunctionDef) and node.name == "shape_tag":
                defined.append(path.name)
    assert reads == []
    assert defined == ["supportfn.py"]


def test_each_polygonal_body_opens_one_support_span(bench_path):
    # tracer.py wraps support on each of SHAPE_CLASSES.  A Segment is a
    # one-generator Polygon and a moved polygon a Polygon too; were Segment
    # and Polygon one class object, its support would be wrapped twice and
    # every call would open two nested spans.
    from hypkonvex.mobius import Mobius

    tracer = importlib.import_module("tracer")
    shapes = importlib.import_module("hypkonvex.shapes")
    square = shapes.Polygon(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    moved = square.transform(Mobius.rotation(0.3) @ Mobius.axial(2.0))
    namespaces = [importlib.import_module("hypkonvex")] + [importlib.import_module("hypkonvex." + m) for m in tracer.MODULES]
    before = [dict(vars(ns)) for ns in namespaces]
    supports = {name: getattr(shapes, name).support for name in tracer.SHAPE_CLASSES}
    t = tracer.Tracer()
    t.install()
    try:
        for body in (shapes.Segment(np.array([1.0, 0.5])), square, moved):
            start = len(t.spans)
            body.support(0.3)
            assert [span[0] for span in t.spans[start:]] == ["shapes.support"]
    finally:
        t.uninstall()
    for ns, attrs in zip(namespaces, before):
        assert vars(ns).keys() == attrs.keys() and all(vars(ns)[k] is v for k, v in attrs.items())
    assert {name: getattr(shapes, name).support for name in tracer.SHAPE_CLASSES} == supports
