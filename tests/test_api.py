import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import heisvoa
from heisvoa import cli, workspace

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
    "as_rational": "bench/spans.py tells rational from unit-carrying scalars with it",
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


# Defs whose unread parameters are an interface: an override hook keeps the
# signature its overrides read.
UNREAD_PARAMETERS_KEPT = {"intertwiner.IntertwinerOp.label_factor"}


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
            if node.name.startswith("__") and node.name.endswith("__") \
                    or name in UNREAD_PARAMETERS_KEPT:
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{name}({p})" for p in params if p not in read]
    assert unread == []
