import importlib
import json
import pkgutil
import re

import heisvoa
from heisvoa import cli, workspace

PUBLIC_API = [
    "CocycleSystem",
    "CosetError",
    "E",
    "FockMonomial",
    "GaussRat",
    "IntertwinerOp",
    "IntertwinerSpec",
    "Label",
    "Scalar",
    "State",
    "WindowError",
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


def test_no_module_level_caches():
    # every memo that outlives one operator is a table of the workspace
    for info in pkgutil.iter_modules(heisvoa.__path__):
        module = importlib.import_module(f"heisvoa.{info.name}")
        caches = [name for name in vars(module) if re.match(r"^_[A-Z_]*CACHE$", name)]
        assert not caches, (info.name, caches)


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
