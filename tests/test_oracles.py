"""The self-check suite: every oracle passes, and runs are reproducible."""

import importlib.util
import json
from pathlib import Path

import pytest

from conevac import run_oracle_suite
from conevac.oracles import (
    SUITE_VERSION,
    format_reports,
    oracle_names,
    reports_to_json,
)


def test_every_oracle_passes(oracle_reports):
    assert sorted(oracle_reports) == sorted(oracle_names())
    failures = [name for name, r in oracle_reports.items() if not r.passed]
    assert failures == []
    for report in oracle_reports.values():
        assert report.max_rel_err <= report.tolerance
        assert report.points_tested > 0


def test_selection_reproduces_full_run(oracle_reports):
    # per-oracle seeding: a subset run draws the same points as the full run
    subset = run_oracle_suite(["scaling", "cone_image_sum"])
    for report in subset:
        assert report.max_rel_err == oracle_reports[report.name].max_rel_err
        assert report.points_tested == oracle_reports[report.name].points_tested


def test_same_seed_is_deterministic():
    a = run_oracle_suite(["cone_image_sum"], seed=7)
    b = run_oracle_suite(["cone_image_sum"], seed=7)
    assert a[0].max_rel_err == b[0].max_rel_err


# cone_mode_sum's worst relative error per oracle seed, as it was when each
# Bessel panel was one scalar scipy quad call: the vectorised panels keep
# every bit of the report.
CONE_MODE_SUM_MAX_REL = {
    0: 3.954301855464986e-11,
    1: 7.745932272513902e-11,
    2: 3.8738518454872665e-11,
    3: 3.7037855036311973e-11,
    4: 7.174969660966947e-11,
    5: 5.1075440647246693e-11,
    6: 5.376505216070627e-11,
    7: 5.161452540790157e-11,
    8: 5.036443800397526e-11,
    9: 7.456565911546773e-11,
    42: 7.218381535603195e-11,
}


@pytest.mark.parametrize("seed", sorted(CONE_MODE_SUM_MAX_REL))
def test_cone_mode_sum_bits_are_frozen(seed):
    (report,) = run_oracle_suite(["cone_mode_sum"], seed=seed)
    assert report.max_rel_err == CONE_MODE_SUM_MAX_REL[seed]


def test_other_seeds_still_pass():
    for report in run_oracle_suite(["flat_zero", "beta_affinity"], seed=7):
        assert report.passed


def test_jet_fd_passes_across_seeds():
    # seed 5013 and several seeds below 200 failed with twice the steps
    for seed in [5013, *range(100)]:
        (report,) = run_oracle_suite(["jet_fd"], seed=seed)
        assert report.passed, (seed, report.max_rel_err)


DIGEST_MAKER = Path(__file__).parent / "data" / "make_oracle_digest.py"


def _digest_maker():
    spec = importlib.util.spec_from_file_location("make_oracle_digest", DIGEST_MAKER)
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    return maker


def test_oracle_errors_match_the_frozen_digest(capsys):
    # every oracle's max_rel_err, bit for bit, at seeds 0 and 1 (CI checks 0-7)
    maker = _digest_maker()
    assert maker.check(seeds=(0, 1)) == 0, capsys.readouterr().out
    frozen = json.loads(maker.OUT.read_text())
    assert sorted(frozen["seeds"]) == [str(s) for s in range(8)]
    assert all(len(digest) == len(oracle_names()) for digest in frozen["seeds"].values())


def test_oracle_digest_check_reports_a_mismatch(tmp_path, capsys, monkeypatch):
    maker = _digest_maker()
    frozen = json.loads(maker.OUT.read_text())
    path = tmp_path / "oracle_digest.json"
    path.write_text(json.dumps(frozen))
    monkeypatch.setattr(maker, "OUT", path)
    digest = dict(frozen["seeds"]["3"])
    monkeypatch.setattr(maker, "seed_digest", lambda seed: dict(digest))
    assert maker.check(seeds=(3,)) == 0
    digest["jet_fd"] = (2.0 * float.fromhex(digest["jet_fd"])).hex()
    assert maker.check(seeds=(3,)) == 1
    assert json.loads(path.read_text()) == frozen
    out = capsys.readouterr().out
    assert "seed 3: MISMATCH" in out and "jet_fd: frozen" in out


def test_unknown_oracle_name_rejected():
    with pytest.raises(ValueError):
        run_oracle_suite(["no_such_oracle"])


def test_format_reports_tallies(oracle_reports):
    reports = list(oracle_reports.values())
    text = format_reports(reports)
    lines = text.strip().splitlines()
    assert len(lines) == len(reports) + 1
    assert all(line.startswith(("ok", "FAIL")) for line in lines[:-1])
    assert lines[-1] == f"{len(reports)}/{len(reports)} oracles passed"


def test_reports_round_trip_as_json(oracle_reports):
    reports = list(oracle_reports.values())
    decoded = json.loads(reports_to_json(reports))
    assert len(decoded) == len(reports)
    assert decoded[0].keys() == {"name", "points_tested", "max_rel_err",
                                 "tolerance", "passed"}


def test_suite_version_is_frozen():
    assert isinstance(SUITE_VERSION, int)
    assert SUITE_VERSION >= 1
