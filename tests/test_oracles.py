"""The self-check suite: every oracle passes, and runs are reproducible."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conevac import jets, oracles, run_oracle_suite
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


# cone_mode_sum's worst relative error per oracle seed.  The Bessel
# functions are numpy (checks._bessel_j, checks._bessel_k) and the
# panels are integrated by checks.integrate_gk21, so the report keeps its
# bits only while those do: K_0's trapezoid node count per argument tier,
# J's crossover from Miller's recurrence to Hankel's expansion (max(25,
# top order), taken once a call's largest argument exceeds twice it), and
# the same (mode, panel) intervals passing the bound
# |J_nu(w r) J_nu(w rp)| <= (w^2 r rp / 4)^nu / Gamma(nu + 1)^2
# that checks._mode_integrals prunes by.
CONE_MODE_SUM_MAX_REL = {
    0: 3.9543963068540715e-11,
    1: 7.745978797493803e-11,
    2: 3.873767975457325e-11,
    3: 3.70155031501808e-11,
    4: 7.174969660966947e-11,
    5: 5.105266710666731e-11,
    6: 5.3765166507479106e-11,
    7: 5.162181267882534e-11,
    8: 5.036281386859944e-11,
    9: 7.467943406472238e-11,
    42: 7.218318102770056e-11,
}


@pytest.mark.parametrize("seed", sorted(CONE_MODE_SUM_MAX_REL))
def test_cone_mode_sum_bits_are_frozen(seed):
    (report,) = run_oracle_suite(["cone_mode_sum"], seed=seed)
    assert report.max_rel_err == CONE_MODE_SUM_MAX_REL[seed]


def test_other_seeds_still_pass():
    for report in run_oracle_suite(["flat_zero", "beta_affinity"], seed=7):
        assert report.passed


def _seeded_stencils():
    """`jet_fd`'s stencils at two seeded pairs, (590, 7)."""
    rng = np.random.default_rng(20261021)
    pairs = [oracles._sample_pair(rng, 0.5, 1.2, theta=float(rng.uniform(0.35, 1.05)),
                                  thetap=float(rng.uniform(0.25, 1.15)), t_lo=0.3, t_hi=0.9)
             for _ in range(2)]
    return np.concatenate([oracles._fd_points(pair) for pair in pairs])


@pytest.mark.parametrize("case", range(len(oracles._JET_FD_CASES)))
def test_value_only_batch_has_the_float_kernels_bits(case):
    # jet_fd takes its stencil values from one batched jet pass that carries
    # no Hessian entry; each element must be the float call's value
    expr = oracles._JET_FD_CASES[case]
    rows = _seeded_stencils()
    batch = expr(**jets.lift(dict(zip(jets.COORDS, rows.T)), jets.Pairs(())))
    assert batch.hess.shape == (0, len(rows))
    assert [v.hex() for v in batch.value.tolist()] == [expr(*row).hex() for row in rows.tolist()]


def test_jet_fd_stencil_reads_each_point_once():
    # the gradient's points are the diagonal Hessian's, and the pair itself is one point
    rows = _seeded_stencils()
    assert len(rows) == 2 * 295
    for stencil in (rows[:295], rows[295:]):
        assert len(np.unique(stencil, axis=0)) == 295


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
    monkeypatch.setattr(maker, "seed_digest", lambda seed, wall=None: dict(digest))
    monkeypatch.setattr(maker, "seed_peaks", lambda seed, peaks: None)
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


def _frozen_copy(maker, tmp_path, monkeypatch):
    """A copy of the oracle digest that ``maker`` reads and writes, and its text."""
    path = tmp_path / "oracle_digest.json"
    path.write_text(maker.OUT.read_text())
    monkeypatch.setattr(maker, "OUT", path)
    return path, path.read_text()


def test_refreeze_rewrites_only_the_named_oracles(tmp_path, capsys, monkeypatch):
    maker = _digest_maker()
    path, text = _frozen_copy(maker, tmp_path, monkeypatch)
    frozen = json.loads(text)
    moved = {seed: (2.0 * float.fromhex(d["jet_fd"])).hex() for seed, d in frozen["seeds"].items()}
    monkeypatch.setattr(maker, "seed_digest",
                        lambda seed: {**frozen["seeds"][str(seed)], "jet_fd": moved[str(seed)]})
    assert maker.refreeze(["jet_fd"]) == 0
    want = json.loads(text)
    for seed, digest in want["seeds"].items():
        digest["jet_fd"] = moved[seed]
    assert path.read_text() == json.dumps(want, indent=2) + "\n"
    line = f"seed 3: jet_fd {frozen['seeds']['3']['jet_fd']} -> {moved['3']}"
    assert line in capsys.readouterr().out


@pytest.mark.parametrize("names, message", [
    (["scaling"], "seed 0: jet_fd differs"), (["not_an_oracle"], "not an oracle: not_an_oracle")])
def test_refreeze_writes_nothing_if_another_oracle_moved(tmp_path, capsys, monkeypatch,
                                                         names, message):
    maker = _digest_maker()
    path, text = _frozen_copy(maker, tmp_path, monkeypatch)
    frozen = json.loads(text)
    monkeypatch.setattr(maker, "seed_digest", lambda seed: {
        **frozen["seeds"][str(seed)], "jet_fd": "0x1.0p-40", "scaling": "0x1.0p-41"})
    assert maker.refreeze(names) == 1
    assert path.read_text() == text
    assert message in capsys.readouterr().out
