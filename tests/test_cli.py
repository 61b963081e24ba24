import hashlib
import json
import os
import pstats
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heisvoa
from heisvoa import cli
from heisvoa.cli import SUITES, ConfigError, load_scenario, main, sample_labels
from heisvoa.fock import label
from heisvoa.report import VerificationReport
from heisvoa.scalars import gr


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "rank": 1,
        "cutoff": 6,
        "window": 2,
        "n_branch": 1,
        "seed": 7,
        "max_weight": 2,
        "pairs": 1,
        "suites": ["virasoro"],
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(tmp_path, config, *flags):
    report = tmp_path / "report.txt"
    status = main(["verify", config, "--report", str(report)] + list(flags))
    return status, report.read_text() if report.exists() else ""


def body_of(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


def test_minimal_virasoro_run(tmp_path):
    config = write_config(tmp_path)
    status, text = run(tmp_path, config)
    assert status == 0
    assert "suite virasoro case 000 brackets" in text
    assert "verdict: PASS" in text


def test_unreadable_and_malformed_config(tmp_path):
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


def test_jacobi_instance_run(tmp_path):
    # the corrupt-cocycle control fails whatever the first instance is; on
    # an instance's own labels, alpha = beta or beta = 0 would let it pass
    for instance in (["1/2", "1/3", "-1/4"], ["1", "1", "1"], ["1/2", "0", "1/3"]):
        config = write_config(
            tmp_path, suites=["jacobi"], window=2, cutoff=7,
            jacobi_instances=[instance],
            heads=[[], [[1, -1]]], negative_controls=True)
        status, text = run(tmp_path, config)
        assert status == 0, instance
        assert "negative/corrupt_cocycle\n  generalized_jacobi: XFAIL" in text
        assert "verdict: PASS" in text


def test_locality_negative_control(tmp_path):
    config = write_config(tmp_path, suites=["locality"], window=2)
    status, text = run(tmp_path, config)
    assert status == 0
    assert "negative/undersized_m" in text
    assert "XFAIL" in text


def test_starvation_exit_code(tmp_path):
    # window demands level sums the cutoff cannot support anywhere
    config = write_config(
        tmp_path, suites=["jacobi"], window=1, cutoff=1,
        jacobi_instances=[["1/2", "1/3", "-1/4"]],
        heads=[[[1, -1], [1, -1]]], negative_controls=False)
    status, text = run(tmp_path, config)
    assert status == 3
    assert "STARVED" in text
    assert "verdict: FAIL" in text


def test_determinism_byte_identical_body(tmp_path):
    config = write_config(tmp_path, suites=["skew", "form"], pairs=2, window=2)
    _, text1 = run(tmp_path, config)
    _, text2 = run(tmp_path, config)
    assert body_of(text1) == body_of(text2)


def test_flag_overrides(tmp_path):
    config = write_config(tmp_path, suites=["virasoro"], seed=1)
    report = tmp_path / "r.txt"
    status = main(["verify", config, "--suite", "locality", "--seed", "9",
                   "--window", "1", "--report", str(report)])
    assert status == 0
    text = report.read_text()
    assert "suite locality" in text
    assert "suite virasoro" not in text
    assert "seed: 9" in text


def test_profile_dump_leaves_the_body_alone(tmp_path):
    config = write_config(tmp_path, suites=["virasoro", "skew"], pairs=1)
    _, plain = run(tmp_path, config)
    dump = tmp_path / "run.prof"
    status, profiled = run(tmp_path, config, "--profile", str(dump))
    assert status == 0
    assert body_of(profiled) == body_of(plain)
    stats = pstats.Stats(str(dump))
    assert any(fn == "run_suites" for _, _, fn in stats.stats)


@pytest.mark.parametrize("flag", ["--report", "--profile"])
def test_an_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, flag):
    # exit 1 is for a failed check; a path under a missing directory, or one
    # that names a directory, is found before any suite runs and named on
    # one stderr line, and nothing is created
    config = write_config(tmp_path, max_weight=1)
    path = tmp_path / "missing" / "out"
    directory = tmp_path / "out"
    directory.mkdir()

    def no_run(scn):
        raise AssertionError("a suite ran before the output path was checked")

    monkeypatch.setitem(cli.SUITE_RUNNERS, "virasoro", no_run)
    for target in (path, directory):
        assert main(["verify", config, flag, str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot write {target}: "), err
    assert not path.parent.exists()
    assert list(directory.iterdir()) == []


def test_form_invariance_cases_draw_distinct_configured_labels():
    # one pool of 2n labels: the configured pair opens it, and the later
    # cases draw past it instead of repeating it
    scn = cli.Scenario.from_dict({"suites": ["form"], "pairs": 6, "window": 1,
                                  "cutoff": 3, "labels": [["1/2"], ["1/3"]]})
    metas = [(rep.meta["alpha"], rep.meta["beta"])
             for name, rep in cli.run_suites(scn)["form"]
             if name.startswith("invariance")]
    assert len(metas) == 3 and metas[0] == ("1/2", "1/3")
    assert len(set(metas)) == 3, metas


def test_python_m_heisvoa_matches_main(tmp_path):
    config = write_config(tmp_path, max_weight=1)
    report = tmp_path / "module.txt"
    src = str(Path(heisvoa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "heisvoa", "verify", config,
                           "--report", str(report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, text = run(tmp_path, config)
    assert status == 0
    assert body_of(report.read_text()) == body_of(text)


def test_load_scenario_and_defaults(tmp_path):
    config = write_config(tmp_path, suites=["dlm"], gram=[[1]],
                          twists=["1/2", "1/3"])
    scn = load_scenario(config)
    assert scn.radius("dlm") == 2
    assert scn.cocycle().rank == 1
    status, text = run(tmp_path, config)
    assert status == 0
    assert "dlm_jacobi_delta" in text and "dlm_jacobi_hat" in text


# Configs that no suite can use: each must be refused before any suite runs.
MALFORMED = {
    "gram_not_positive_definite": dict(gram=[[0]], suites=["lattice-twist"]),
    "gram_singular_with_embedding": dict(gram=[[0]], embedding=[[0]],
                                         suites=["lattice-twist"]),
    "head_color_above_rank": dict(heads=[[[2, -1]]], suites=["jacobi"]),
    "jacobi_without_instances": dict(jacobi_instances=[], suites=["jacobi"]),
    "skew_without_instances": dict(jacobi_instances=[], suites=["skew"]),
    "dlm_without_twists": dict(twists=[], suites=["dlm"]),
    "lattice_twist_without_twists": dict(twists=[], suites=["lattice-twist"]),
    "label_does_not_parse": dict(labels=[["1/0"]]),
    "twist_longer_than_lattice_rank": dict(twists=[["1/2", "0"]],
                                           suites=["lattice-twist"]),
    "pairs_below_one": dict(pairs=-1),
    "windows_not_an_object": dict(windows=[2]),
    "windows_not_suite_to_integer": dict(windows={"no-such-suite": 2}),
    "rank_not_integer": dict(rank=1.5),
    "pairs_not_integer": dict(pairs=1.5, suites=["skew"]),
    "numerator_bound_negative": dict(numerator_bound=-1, suites=["form"]),
    "denominator_bound_zero": dict(denominator_bound=0, suites=["form"]),
    "n_branch_not_integer": dict(n_branch=1.5, suites=["form"]),
    "cocycle_not_rank_by_rank": dict(cocycle_f=[[1, 2]]),
    "max_weight_negative": dict(max_weight=-1),
    "head_level_not_integer": dict(heads=[[[1, -1.5]]], suites=["jacobi"]),
    "window_negative": dict(window=-1, suites=["jacobi"]),
    "windows_value_negative": dict(windows={"jacobi": -1}, suites=["jacobi"]),
    "seed_not_integer": dict(seed=1.5),
    "seed_a_list": dict(seed=[1]),
    "gram_entry_not_integer": dict(gram=[[1.5]], suites=["lattice-twist"]),
    "gram_empty": dict(gram=[], suites=["lattice-twist"]),
    "skew_without_heads": dict(heads=[], suites=["skew"]),
    "gram_entry_boolean": dict(gram=[[True]], suites=["lattice-twist"]),
    "negative_controls_not_boolean": dict(negative_controls="no",
                                          suites=["locality"]),
    "diagonal_fix_not_boolean": dict(diagonal_fix="yes"),
    "jacobi_label_i_without_star": dict(jacobi_instances=[["1/2i", "0", "0"]],
                                        suites=["jacobi"]),
    "label_boolean": dict(labels=[[True]]),
    "label_tuple_longer_than_rank": dict(rank=2, labels=[["1/2", "0", "0"]]),
    "labels_a_string": dict(labels="12"),
    "jacobi_instance_tuple_shorter_than_rank": dict(
        rank=3, jacobi_instances=[["1/2", ["1/3", "0"], "0"]], suites=["jacobi"]),
    "jacobi_instance_a_string": dict(jacobi_instances=["123"], suites=["jacobi"]),
    "embedding_boolean": dict(embedding=[[True]], suites=["lattice-twist"]),
    "embedding_row_too_short": dict(gram=[[2, 1], [1, 2]], embedding=[[1], [1]],
                                    twists=[["1/2", "0"]], suites=["dlm"]),
    "embedding_row_too_long": dict(gram=[[1]], embedding=[[1, 2]],
                                   suites=["lattice-twist"]),
    "twist_boolean": dict(twists=[True], suites=["dlm"]),
    "cocycle_boolean": dict(cocycle_f=[[True]]),
    "jacobi_instance_float_and_boolean": dict(jacobi_instances=[[1, 0.5, True]],
                                              suites=["jacobi"]),
    "field_unknown": dict(frobnicate=1),
    "suite_unknown": dict(suites=["no-such-suite"]),
    "n_branch_even": dict(n_branch=2),
    "suites_empty": dict(suites=[]),
    "suites_string": dict(suites="jacobi"),
    "rank_zero": dict(rank=0),
    "cutoff_below_window": dict(cutoff=2, window=3, suites=["skew"]),
    "cutoff_below_a_suite_window": dict(cutoff=3, window=2, windows={"skew": 4},
                                        suites=["skew"]),
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2(tmp_path, overrides):
    config = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        load_scenario(config)
    assert main(["verify", config]) == 2


def test_cutoff_is_checked_against_the_selected_suites_alone(tmp_path):
    # desk's dlm and form windows of 2 do not bind a run of neither suite
    config = Path(__file__).resolve().parent.parent / "configs" / "desk.json"
    status, text = run(tmp_path, str(config), "--suite", "heisenberg",
                       "--window", "1", "--cutoff", "1")
    assert status == 0 and "verdict: PASS" in text


@pytest.mark.parametrize("suite", ["heisenberg", "virasoro"])
def test_cutoff_is_not_checked_against_a_suite_that_takes_none(tmp_path, suite):
    # both suites run at radius 3 whatever their window, and read no cutoff
    config = write_config(tmp_path, suites=[suite], window=3, cutoff=2)
    status, text = run(tmp_path, config)
    assert status == 0 and "verdict: PASS" in text


def test_cutoff_is_checked_against_the_capped_radius(tmp_path):
    # dlm runs at min(window, 2), so window 3 with cutoff 2 runs the same
    # cases as window 2
    config = write_config(tmp_path, suites=["dlm"], window=3, cutoff=2,
                          gram=[[1]])
    assert load_scenario(config).radius("dlm") == 2
    status, text = run(tmp_path, config)
    assert status == 0 and "verdict: PASS" in text


def test_config_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([{"rank": 1}]))
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        load_scenario(str(path))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_label_entry_errors_name_field_index_and_length(tmp_path):
    config = write_config(tmp_path, rank=3, suites=["jacobi"],
                          jacobi_instances=[["1/2", ["1/3", "0"], "0"]])
    with pytest.raises(ConfigError, match=r"^jacobi_instances\[0\]\[1\]: "
                                          r"2 coordinates for rank 3$"):
        load_scenario(config)
    config = write_config(tmp_path, labels=["1/2", ["1/0"]])
    with pytest.raises(ConfigError, match=r"^labels\[1\]: "):
        load_scenario(config)


def test_string_label_is_a_first_axis_value(tmp_path):
    # a string is one coordinate, never a sequence of one-letter coordinates
    scn = load_scenario(write_config(tmp_path, rank=3,
                                     labels=["123", ["1", "2", "3"]]))
    first, full = sample_labels(scn, random.Random(0), 2)
    assert first == label(["123", "0", "0"])
    assert full == label(["1", "2", "3"])


def test_first_axis_strings_and_one_coordinate_tuples_agree(tmp_path):
    common = dict(suites=["jacobi", "skew"], window=1, heads=[[], [[1, -1]]])
    strings = write_config(tmp_path, "strings.json", **common,
                           jacobi_instances=[["1/2", "1/3", "-1/4"]])
    tuples = write_config(tmp_path, "tuples.json", **common,
                          jacobi_instances=[[["1/2"], ["1/3"], ["-1/4"]]])
    bodies = []
    for config in (strings, tuples):
        status, text = run(tmp_path, config)
        assert status == 0
        # the digest line hashes the config text, which differs on purpose
        bodies.append([ln for ln in body_of(text).splitlines()
                       if not ln.startswith("config-digest: ")])
    assert bodies[0] == bodies[1]


def test_jacobi_and_skew_on_labels_off_the_first_axis(tmp_path):
    # rank 2: alpha, beta not collinear, heads on both colors
    config = write_config(
        tmp_path, rank=2, window=1, cutoff=6, suites=["jacobi", "skew"],
        jacobi_instances=[[["1/2", "1/3"], ["-1/5", "1/2*i"], ["0", "0"]]],
        heads=[[], [[1, -1]], [[2, -1]]])
    status, text = run(tmp_path, config)
    assert status == 0
    lines = text.splitlines()
    outcomes = [(case.split()[-1], line.split()[1])
                for case, line in zip(lines, lines[1:]) if case.startswith("suite ")]
    assert outcomes.pop(13) == ("negative/corrupt_cocycle", "XFAIL")
    assert len(outcomes) == 19
    assert {outcome for _, outcome in outcomes} == {"PASS"}
    assert "summary: cases=20 checked=305 failing-cases=0 " \
           "designed-failures=1" in text


def test_suites_must_be_a_list(tmp_path):
    # a string would otherwise be read as a sequence of one-letter suites
    with pytest.raises(ConfigError, match="suites must be a list"):
        load_scenario(write_config(tmp_path, suites="jacobi"))
    with pytest.raises(ConfigError, match="suites must name at least one"):
        load_scenario(write_config(tmp_path, suites=[]))


def test_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rank": 1, "labels": ["\xff"]}')
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    with pytest.raises(ConfigError):
        load_scenario(str(path))


def test_starved_suite_keeps_the_rest(tmp_path):
    # at window 3 and cutoff 3, the conjugation identities skip only their
    # coefficients past the cutoff; the cases that fit it keep their outcomes
    config = write_config(tmp_path, suites=["intertwiner-props", "virasoro"],
                          window=3, cutoff=3)
    status, text = run(tmp_path, config)
    assert status == 0
    assert "suite intertwiner-props case 000 pair000/ypm_commutation\n" \
           "  ypm_commutation: PASS" in text
    assert "suite intertwiner-props case 001 pair000/y_conj_minus\n" \
           "  y_conj_minus: PASS checked=12 failed=0 skipped=9 " in text
    assert "    skip (3,2) needs level sums 7 > cutoff 3\n" in text
    assert "suite intertwiner-props case 003 pair000/yy_conj\n" \
           "  yy_conj: PASS checked=9 failed=0 skipped=12 " in text
    assert "    skip (2,3) needs level sums 7 > cutoff 3\n" in text
    # u(-e2-1)s reaches level sum 2 + e2, past the cutoff at e2 = 2, 3
    assert "suite intertwiner-props case 002 pair000/y_conj_plus\n" \
           "  y_conj_plus: PASS checked=20 failed=0 skipped=8 " in text
    assert "    skip (-3,3) needs level sums 5 > cutoff 3\n" in text
    assert "suite intertwiner-props case 006 pair000/shift_conj_vertex\n" \
           "  shift_conj_vertex: PASS checked=5 failed=0 skipped=2 " in text
    assert "    skip (3) needs level sums 5 > cutoff 3\n" in text
    # at window 0 and cutoff 0 the one coefficient of the cases with the
    # level-2 head u is past the cutoff; those cases alone starve
    config = write_config(tmp_path, suites=["intertwiner-props", "virasoro"],
                          window=0, cutoff=0)
    status, text = run(tmp_path, config)
    assert status == 3
    assert "suite intertwiner-props case 000 pair000/ypm_commutation\n" \
           "  ypm_commutation: PASS" in text
    for idx, name, window in ((1, "y_conj_minus", "z1^[0,0] z2^[0,0]"),
                              (2, "y_conj_plus", "z1^[0,0] z2^[0,0]"),
                              (3, "yy_conj", "z1^[0,0] z2^[0,0]")):
        assert f"suite intertwiner-props case {idx:03d} pair000/{name}\n" \
               f"  {name}: STARVED checked=0 failed=0 skipped=1 window={window}\n" \
               "    skip (0,0) needs level sums 2 > cutoff 0\n" in text
    assert "suite intertwiner-props case 006 pair000/shift_conj_vertex\n" \
           "  shift_conj_vertex: STARVED checked=0 failed=0 skipped=1 " \
           "window=z^[0,0]\n    skip (0) needs level sums 2 > cutoff 0\n" in text
    assert "suite virasoro case 000 brackets\n  virasoro_brackets: PASS" in text
    assert "window_starvation" not in text
    assert "starved=4 " in text
    assert "verdict: FAIL" in text


def _cases(text):
    """Per case: its summary counts and the outcome of each checked key."""
    out, name = {}, None
    for ln in text.splitlines():
        if ln.startswith("suite "):
            name = ln.split()[-1]
            out[name] = {"keys": {}}
        elif m := re.match(r"  \S+: \w+ checked=(\d+) failed=\d+ skipped=(\d+) ", ln):
            out[name]["window"] = int(m[1]) + int(m[2])
        elif m := re.match(r"    coeff \((.*?)\) (ok|MISMATCH)", ln):
            out[name]["keys"][m[1]] = m[2]
    return out


def test_a_cases_window_does_not_depend_on_the_cutoff(tmp_path):
    # a cutoff decides which coefficients of a window are compared, never
    # the window itself, and a coefficient that fits both cutoffs agrees
    runs = []
    for cutoff in (3, 6):
        config = write_config(tmp_path, suites=["intertwiner-props"],
                              window=3, cutoff=cutoff)
        runs.append(_cases(run(tmp_path, config)[1]))
    low, high = runs
    assert low.keys() == high.keys() and len(low) == 10
    for name, case in low.items():
        assert case["window"] == high[name]["window"], name
        assert case["keys"].items() <= high[name]["keys"].items(), name
    assert len(low["pair000/y_conj_plus"]["keys"]) == 20
    assert len(high["pair000/y_conj_plus"]["keys"]) == 28


def test_a_failing_case_exits_1_over_a_starved_one(tmp_path, monkeypatch):
    def failing(scn):
        rep = VerificationReport("wrong")
        rep.record((0,), gr(1), gr(2))
        return [("wrong", rep)]

    def starving(scn):
        rep = VerificationReport("starving")
        rep.skip((0,), "needs level sums 9 > cutoff 6")
        return [("starving", rep)]

    monkeypatch.setitem(cli.SUITE_RUNNERS, "virasoro", failing)
    monkeypatch.setitem(cli.SUITE_RUNNERS, "locality", starving)
    config = write_config(tmp_path, suites=["locality", "virasoro"], window=1)
    status, text = run(tmp_path, config)
    assert status == 1
    assert "  wrong: FAIL checked=1 failed=1 skipped=0" in text
    assert "  starving: STARVED checked=0 failed=0 skipped=1" in text
    assert "failing-cases=1 designed-failures=0 starved=1 " in text


def test_cocycle_g_reaches_the_cocycle(tmp_path):
    config = write_config(tmp_path, suites=["jacobi"], window=1, cutoff=4,
                          jacobi_instances=[["1/2", "1/3", "-1/4"]],
                          heads=[[], [[1, -1]]], cocycle_g=[["1/3"]])
    assert load_scenario(config).cocycle().g == ((gr("1/3"),),)
    status, text = run(tmp_path, config)
    assert status == 0
    assert "verdict: PASS" in text


def test_coordinate_list_twist_is_tagged_by_its_entries(tmp_path):
    # a list twist reads as its coordinates, a string twist as itself
    config = write_config(tmp_path, suites=["lattice-twist"], window=1,
                          cutoff=4, gram=[[1, 0], [0, 1]],
                          twists=[["1/2", "1/3"], "1/2"])
    status, text = run(tmp_path, config)
    assert status == 0
    cases = [ln.split()[-1] for ln in text.splitlines() if ln.startswith("suite ")]
    assert cases == [f"alpha={t}/{name}" for t in ("1/2,1/3", "1/2")
                     for name in ("twisted_jacobi", "li_equivalence", "grading",
                                  "shifted_virasoro")]
    assert "  shifted_virasoro[1/2,1/3]: PASS" in text
    assert "  shifted_virasoro[1/2]: PASS" in text


def test_starved_lattice_case_keeps_the_rest(tmp_path):
    # li_equivalence reaches level sums 2, past cutoff 1, at its top exponent
    config = write_config(tmp_path, suites=["lattice-twist"], window=1,
                          cutoff=1, twists=["1/2"])
    status, text = run(tmp_path, config)
    assert status == 0
    assert "  li_equivalence: PASS checked=2 failed=0 skipped=1" in text
    assert "suite lattice-twist case 002 alpha=1/2/grading\n" \
           "  twist_grading: PASS" in text
    assert "suite lattice-twist case 003 alpha=1/2/shifted_virasoro\n" \
           "  shifted_virasoro[1/2]: PASS" in text
    assert "window_starvation" not in text


def test_shifted_virasoro_window_names_the_weight_it_checks(tmp_path):
    config = write_config(tmp_path, max_weight=1, suites=["lattice-twist"],
                          window=1, cutoff=4, twists=["1/2"])
    status, text = run(tmp_path, config)
    assert status == 0
    assert ("  shifted_virasoro[1/2]: PASS checked=51 failed=0 skipped=0 "
            "window=weight<=1, |m|,|n|<=3\n") in text


# sha256 of the report body of a small config that runs all nine suites,
# recorded before the twisted and DLM operators shared one implementation;
# re-recorded when the shifted_virasoro window text began to name the weight
# it checks (weight<=2 here, at max_weight 2), its only change
GOLDEN_BODY_SHA256 = "55d3a27a217e8bd7ef56281044df753c817cba634bce51c570801dbb63173841"


def test_golden_report_body_all_suites(tmp_path):
    config = write_config(
        tmp_path, cutoff=4, window=1, seed=5, suites=list(SUITES),
        jacobi_instances=[["1/2", "1/3", "-1/4"]], heads=[[], [[1, -1]]],
        gram=[[2]], twists=["1/2", "1/3"])
    status, text = run(tmp_path, config)
    assert status == 0
    assert hashlib.sha256(body_of(text).encode()).hexdigest() == GOLDEN_BODY_SHA256


# sha256 of the report body of configs/desk.json, the one shipped run at
# radius 3: two designed failures print their MISMATCH values, and 3,754
# coefficients past its cutoff print a skip line each
DESK_BODY_SHA256 = "e636db9bb7fbbef72160f62f77870ecab7a40cb6e82ba22975ed2a6248a11967"


def test_desk_config_report_body(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "desk.json"
    status, text = run(tmp_path, str(config))
    assert status == 0
    assert "designed-failures=2 " in text and text.count("\n    skip (") == 3754
    assert hashlib.sha256(body_of(text).encode()).hexdigest() == DESK_BODY_SHA256


# sha256 of the report body of the twisted suites on the A2 root lattice,
# whose off-diagonal Gram entries make label_of and coords_of mix
# coordinates; recorded before the twist bundle type was deleted, so it
# pins that the deletion left the body unchanged
A2_BODY_SHA256 = "02da84eb3b74713cb3dccbcf86b1fd5e0c309e9f97ad755831360a1cd1b55128"


def test_a2_lattice_twisted_suites_report_body(tmp_path):
    config = tmp_path / "a2.json"
    config.write_text(json.dumps({
        "suites": ["lattice-twist", "dlm"], "window": 1, "cutoff": 4,
        "gram": [[2, -1], [-1, 2]], "twists": [["1/2", "0"], ["1/3", "1/3"]],
        "seed": 2024}))
    status, text = run(tmp_path, str(config))
    assert status == 0
    assert "summary: cases=10 checked=1320 failing-cases=0 " in text
    assert hashlib.sha256(body_of(text).encode()).hexdigest() == A2_BODY_SHA256


# sha256 of the report body of configs/braided.json at window 2, whose
# rank-2 instances have a cocycle commutator C(alpha,beta) that is not 1;
# recorded before the wrapped unit sign moved into scalars._unit_mul, so
# it pins that the move left the body unchanged
BRAIDED_BODY_SHA256 = "ebeccc51048af51b86db2e1f90b88490e2447afade5f5dc520f4e8ee98627488"


def test_braided_config_report_body(tmp_path):
    # the config ships at window 3; window 2 runs the same cases in less time
    config = Path(__file__).resolve().parent.parent / "configs" / "braided.json"
    status, text = run(tmp_path, str(config), "--window", "2")
    assert status == 0
    assert ("summary: cases=51 checked=3783 failing-cases=0 designed-failures=2 "
            "starved=0 skipped-coefficients=384\n") in text
    assert hashlib.sha256(body_of(text).encode()).hexdigest() == BRAIDED_BODY_SHA256


def test_config_digest_is_the_sha256_of_the_config(tmp_path):
    # the in-tree SHA-256 against the standard library's, on every length
    # across the 55/56/64-byte padding boundaries and on every shipped config
    rng = random.Random(0)
    inputs = [bytes(rng.randrange(256) for _ in range(n)) for n in range(131)]
    root = Path(__file__).resolve().parent.parent
    shipped = sorted([*(root / "configs").iterdir(),
                      *(root / "bench" / "workloads").iterdir()])
    assert shipped
    inputs += [path.read_bytes() for path in shipped]
    for data in inputs:
        assert cli._sha256(data) == hashlib.sha256(data).hexdigest(), data
    config = write_config(tmp_path, max_weight=1)
    status, text = run(tmp_path, config)
    assert status == 0
    digest = hashlib.sha256(Path(config).read_bytes()).hexdigest()[:16]
    assert f"\nconfig-digest: {digest}\n" in text


def loaded_after_a_verify_run(tmp_path, modules):
    """The ones of ``modules`` that a fresh interpreter holds in
    sys.modules after a short verify run."""
    config = write_config(tmp_path, max_weight=1)
    script = ("import sys\n"
              "from heisvoa import cli\n"
              f"status = cli.main(['verify', {config!r}, '--report', "
              f"{str(tmp_path / 'report.txt')!r}])\n"
              "import json\n"
              f"print(status, json.dumps(sorted({set(modules)!r} & set(sys.modules))))\n")
    src = str(Path(heisvoa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, loaded = proc.stdout.split(" ", 1)
    assert status == "0"
    return json.loads(loaded)


def test_a_verify_run_loads_no_openssl(tmp_path):
    # the config digest is computed in-tree: a run imports neither hashlib
    # nor OpenSSL's bindings, which would cost it several MB of memory
    assert loaded_after_a_verify_run(tmp_path, {"hashlib", "_hashlib", "_ssl"}) == []


def test_a_verify_run_loads_no_dataclass_or_datetime_machinery(tmp_path):
    # the package's types are plain slotted classes and the header stamp is
    # read from time: importing dataclasses would pull in inspect, ast, dis
    # and tokenize, a large share of a run's start-up
    assert loaded_after_a_verify_run(
        tmp_path, {"dataclasses", "inspect", "ast", "dis", "tokenize",
                   "datetime"}) == []


def test_the_generated_header_is_iso_8601_utc_with_microseconds(tmp_path, monkeypatch):
    status, text = run(tmp_path, write_config(tmp_path, max_weight=1))
    assert status == 0
    stamp = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00"
    assert re.search(rf"^# generated: {stamp}$", text, re.M)
    # the microseconds are printed on a whole second too
    monkeypatch.setattr(cli.time, "time_ns", lambda: 1_700_000_000_000_000_000)
    assert cli._utc_now() == "2023-11-14T22:13:20.000000+00:00"
    monkeypatch.setattr(cli.time, "time_ns", lambda: 1_700_000_000_123_456_789)
    assert cli._utc_now() == "2023-11-14T22:13:20.123456+00:00"


def test_readme_config_table_names_every_scenario_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Config format", 1)[1].split("\n\n| field |", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]  # past the separator
    named = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(cli.Scenario.FIELDS)
