import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import heisvoa
from heisvoa import cli, fock, workspace

PUBLIC_API = [
    "CocycleSystem",
    "CosetError",
    "E",
    "FockMonomial",
    "GaussRat",
    "IntertwinerOp",
    "Label",
    "Scalar",
    "State",
    "apply_e",
    "as_gauss",
    "as_scalar",
    "binom",
    "branch_phase",
    "gr",
    "label",
    "lam_pow",
    "monomial",
    "zero_label",
    "zeta_pow",
]


def test_public_api_is_pinned():
    namespace: dict = {}
    exec("from heisvoa import *", namespace)
    assert sorted(heisvoa.__all__) == PUBLIC_API
    assert all(name in namespace for name in PUBLIC_API)


# Public names that no code under src/ uses, kept on purpose, with the reason.
KEPT_WITHOUT_A_CALLER_IN_SRC = {
    "load_scenario": "bench/worker.py loads its workload configs with it",
    "sizes": "the table sizes of a workspace, for cache counters and the fresh-run test",
    "failures_detail": "the failure message of a report, used in test assertions",
}


def test_no_public_code_without_a_caller_in_src():
    # a public def or class that src/ never names and __all__ lacks is test-only
    # code; a module-level private one is a helper that a deletion left behind
    used, defined, private = set(), set(), set()
    for path in Path(heisvoa.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
        private |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")}
    dead = {name for name in defined - used - set(heisvoa.__all__)
            if not name.startswith("_")}
    assert dead == set(KEPT_WITHOUT_A_CALLER_IN_SRC)
    assert private - used == set()


def test_every_stored_attribute_is_read():
    # an attribute that src/ stores on self and that no code under src/,
    # tests/ or bench/ reads back is state nothing uses
    root = Path(__file__).resolve().parent.parent
    src = Path(heisvoa.__file__).parent
    read, stored = set(), set()
    for path in [*src.glob("*.py"), *(root / "tests").glob("*.py"),
                 *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif path.parent == src and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                stored.add(f"{path.name}:{node.lineno} self.{node.attr}")
    assert sorted(s for s in stored if s.rpartition(".")[2] not in read) == []


def test_no_module_level_caches():
    # every memo that outlives one operator is a table of the workspace
    for info in pkgutil.iter_modules(heisvoa.__path__):
        module = importlib.import_module(f"heisvoa.{info.name}")
        caches = [name for name in vars(module) if re.match(r"^_[A-Z_]*CACHE$", name)]
        assert not caches, (info.name, caches)
    # nor does a class keep one: a memo in a class body outlives the run
    # that filled it, out of the workspace's reach
    caches = []
    for path in sorted(Path(heisvoa.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, ast.AnnAssign) else []
                caches += [f"{path.stem}.{cls.name}.{t.id}" for t in targets
                           if isinstance(t, ast.Name) and "cache" in t.id.lower()]
    assert caches == []


def test_each_run_starts_on_a_fresh_workspace(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rank": 1, "max_weight": 2,
                                  "suites": ["virasoro"]}))
    seen = []
    suite = cli.SUITE_RUNNERS["virasoro"]

    def recording(scn):
        seen.append((workspace.current(), workspace.current().sizes()))
        return suite(scn)

    monkeypatch.setitem(cli.SUITE_RUNNERS, "virasoro", recording)
    before = workspace.current()
    for _ in range(2):
        assert cli.main(["verify", str(config), "--report",
                         str(tmp_path / "report.txt")]) == 0
    (first, first_sizes), (second, second_sizes) = seen
    assert len({id(before), id(first), id(second)}) == 3
    assert not any(first_sizes.values()) and not any(second_sizes.values())
    assert first.sizes()["virasoro"] > 0


def test_every_parameter_is_read():
    # a parameter that its def's body never reads is an argument every
    # caller passes for nothing; dunders keep the signature Python calls
    def defs(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from defs(node.body, f"{prefix}.{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{node.name}", node
                yield from defs(node.body, f"{prefix}.{node.name}")

    unread = []
    for path in sorted(Path(heisvoa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in defs(tree.body, path.stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}({p})" for p in params if p not in read]
    assert unread == []


# The second radius of the two conjugation checks whose other variable runs
# over a window of its own size.
SECOND_RADIUS = {"verify_y_conj_minus": {"z2_radius"}, "verify_yy_conj": {"z1_radius"}}
WINDOW_NAMES_RETIRED = {"r0", "r1", "r2", "w1", "w2", "hi", "order", "window"}


def _src_functions():
    for info in pkgutil.iter_modules(heisvoa.__path__):
        module = importlib.import_module(f"heisvoa.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield name, inspect.signature(fn).parameters


def _required_keyword(params, name) -> bool:
    p = params.get(name)
    return p is not None and p.kind is p.KEYWORD_ONLY and p.default is p.empty


def test_every_budgeted_verifier_is_sized_by_a_keyword_only_radius_and_cutoff():
    # a positional window or cutoff would bind silently to another int
    # parameter, such as n_branch; keyword-only, a stale call is a TypeError
    budgeted = 0
    for name, params in _src_functions():
        if name.startswith("verify_") or "cutoff" in params:
            assert not WINDOW_NAMES_RETIRED & params.keys(), name
        if "cutoff" not in params:
            continue
        budgeted += 1
        assert _required_keyword(params, "cutoff"), name
        radii = {p for p in params if "radius" in p}
        want = set() if name == "verify_creativity" else {"radius"}
        want |= SECOND_RADIUS.get(name, set())
        assert radii == want, name
        assert all(_required_keyword(params, p) for p in radii), name
    assert budgeted == 20
    for fn in (fock.verify_heisenberg_brackets, fock.verify_virasoro_brackets):
        assert _required_keyword(inspect.signature(fn).parameters, "radius"), fn


# Defaults that no call under src/ overrides, kept on purpose, with the reason.
DEFAULTS_KEPT_WITHOUT_AN_OVERRIDE_IN_SRC = {
    "cli.main(argv)": "bench/worker.py and the tests pass it",
    "scalars.gr(im)": "public API",
    "intertwiner.creation_coeff(arg)":
        "the adjoint-factorization oracle in tests/test_form.py reads it",
}


def test_every_default_is_overridden_in_src():
    # a default that every call under src/ leaves alone is a constant in
    # disguise; a call through * or ** counts as overriding every default
    defaults: dict[str, list] = {}
    calls = []
    for path in sorted(Path(heisvoa.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            pos = [*a.posonlyargs, *a.args]
            first = len(pos) - len(a.defaults)
            found = [(i, p.arg) for i, p in enumerate(pos) if i >= first]
            found += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
            defaults.setdefault(node.name, []).extend(
                (f"{path.stem}.{node.name}({arg})", i, arg) for i, arg in found)
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    overridden = set()
    for call in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        keywords = {k.arg for k in call.keywords}
        spread = None in keywords or any(isinstance(x, ast.Starred) for x in call.args)
        overridden |= {qual for qual, i, arg in defaults.get(name, ())
                       if spread or arg in keywords
                       or (i is not None and len(call.args) > i)}
    never = {qual for quals in defaults.values() for qual, _, _ in quals} - overridden
    assert never == set(DEFAULTS_KEPT_WITHOUT_AN_OVERRIDE_IN_SRC)


def test_a_twist_is_a_label_beside_one_lattice():
    # the twisted-sector functions take the one IntegralLattice they need
    # and the twist labels, so no call can hand them a second lattice
    from heisvoa import lattice
    own = [obj for obj in vars(lattice).values()
           if (inspect.isfunction(obj) or inspect.isclass(obj))
           and obj.__module__ == lattice.__name__]
    # no twist bundle class and no helper that builds one
    assert {obj.__name__ for obj in own if inspect.isclass(obj)} == {
        "IntegralLattice", "TwistedVertexOp", "DlmOp"}
    assert not hasattr(lattice, "twist")
    for obj in own:
        params = inspect.signature(obj).parameters
        assert not {"td", "td1", "td2"} & params.keys(), obj
    dlm = inspect.signature(lattice.verify_dlm_jacobi, eval_str=True)
    assert [p.annotation for p in dlm.parameters.values()].count(
        lattice.IntegralLattice) == 1


def test_the_engine_takes_no_one_caller_knobs():
    # a designed failure is marked on the report by the code that builds
    # its case, every chain lives in the workspace, and an operator's
    # e^alpha constant is the one method sector_factor
    from heisvoa.lattice import DlmOp
    src = Path(heisvoa.__file__).parent
    knobs = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                knobs += [f"{path.stem}.{node.name}({p.arg})"
                          for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                          if p.arg in ("expected_failure", "table")]
    assert knobs == []

    def methods(cls):
        return {name for name in vars(cls) if not name.startswith("_")}

    assert methods(heisvoa.IntertwinerOp) == {"offset_on", "sector_factor",
                                              "coefficient"}
    assert methods(DlmOp) == {"sector_factor"}


def test_the_wrapped_unit_sign_is_applied_only_inside_scalars():
    # _normalize_e folds the integer part of an E-exponent to a sign, and
    # _unit_mul applies that sign to the coefficient it is handed, so no
    # module outside scalars.py names _normalize_e or negates by hand
    from heisvoa.scalars import E, _unit_mul, gr

    src = Path(heisvoa.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "scalars.py" and "_normalize_e" in text:
            found.append(f"{path.name}: _normalize_e")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_unit_mul" \
                    and len(node.args) != 3:
                found.append(f"{path.name}:{node.lineno} _unit_mul without a coefficient")
    assert found == []
    # E(3/4) E(3/4) = E(3/2) = -E(1/2): the key of E(1/2), the sign in q
    (u, _), = E("3/4").terms.items()
    (v, _), = E("1/2").terms.items()
    assert _unit_mul(u, u, gr(2)) == (v, gr(-2))
    assert _unit_mul(None, u, gr(2)) == (u, gr(2))
