import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sphermoments import cli, distributions, oracle, validation

PEANUT31 = '{"kind":"peanut","n":2,"A":[[3,0],[0,1]]}'
VMF3 = '{"kind":"vmf","n":3,"u":[1,0,0],"k":2}'
BIMODAL3 = '{"kind":"bimodal_vmf","n":3,"u":[1,0,0],"k":1}'


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# moments


def test_moments_peanut_identity(capsys):
    code, out = run_cli(
        capsys, "moments", "--dist-json", '{"kind":"peanut","n":3,"A":[[1,0,0],[0,1,0],[0,0,1]]}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    np.testing.assert_allclose(data["closed_form"]["covariance"], np.eye(3) / 3.0, atol=1e-12)
    assert "oracle" not in data


def test_moments_with_quadrature_oracle(capsys):
    code, out = run_cli(capsys, "moments", "--dist-json", VMF3, "--oracle", "quad")
    assert code == 0
    data = json.loads(out)
    assert data["max_abs_dev"] < 1e-9
    assert data["oracle"]["provenance"]["resolution"] == 256
    assert data["oracle"]["source"] == "oracle"


def test_moments_odf_has_no_closed_form(capsys):
    code, out = run_cli(
        capsys,
        "moments",
        "--dist-json",
        '{"kind":"odf","n":3,"A":[[2,0,0],[0,1,0],[0,0,1]]}',
        "--oracle",
        "mc",
        "--samples",
        "10000",
        "--seed",
        "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] is None
    assert data["max_abs_dev"] is None
    assert data["oracle"]["provenance"]["samples"] == 10000


def test_moments_from_file(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(VMF3)
    code, out = run_cli(capsys, "moments", "--dist", f"@{path}")
    assert code == 0
    inline = run_cli(capsys, "moments", "--dist-json", VMF3)[1]
    assert out == inline


def test_moments_input_errors(capsys):
    assert run_cli(capsys, "moments", "--dist-json", "{bad json")[0] == 2
    code, out = run_cli(
        capsys, "moments", "--dist-json", '{"kind":"vmf","n":2,"u":[1,0],"k":-1}'
    )
    assert code == 2
    assert "error" in json.loads(out)
    assert run_cli(capsys, "moments")[0] == 2
    assert run_cli(capsys, "moments", "--dist", "@/no/such/file.json")[0] == 2


def test_moments_quadrature_unsupported_above_three_dimensions(capsys):
    code, out = run_cli(
        capsys, "moments", "--dist-json",
        '{"kind":"vmf","n":4,"u":[1,0,0,0],"k":1}', "--oracle", "quad",
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_moments_rejects_tiny_mc_sample_count(capsys):
    code, _ = run_cli(
        capsys, "moments", "--dist-json", VMF3, "--oracle", "mc",
        "--samples", "100",
    )
    assert code == 2


VMF190 = json.dumps({"kind": "vmf", "n": 190, "u": [1.0] + [0.0] * 189, "k": 4400})
SWEEP_K = ("sweep", "--parameter", "k", "--dist-json", BIMODAL3)


@pytest.mark.parametrize("argv, words", [
    (("moments", "--dist-json", VMF3, "--dist", "@x.json"), "not both"),
    (("moments", "--dist", "x.json"), "--dist expects @path"),
    (SWEEP_K + ("--grid", "1,2", "--grid-log", "1", "2", "3"), "not both"),
    (SWEEP_K + ("--grid-log", "2", "1", "3"), "0 < MIN < MAX"),
    (SWEEP_K + ("--grid-log", "2", "2", "3"), "0 < MIN < MAX"),
    (SWEEP_K + ("--grid", ","), "grid must be nonempty"),
    (SWEEP_K + ("--grid=-1,2",), "k grid values must be >= 0"),
    (("sweep", "--parameter", "k", "--dist-json", PEANUT31, "--grid", "1,2"),
     "k sweeps require"),
    (("sweep", "--parameter", "eigen_ratio", "--dist-json", PEANUT31, "--grid", "0,1"),
     "eigen_ratio grid values must be > 0"),
    (("bench", "--k-grid", ","), "--k-grid must be nonempty"),
    # (x/2)^p overflows in I_94(4400), the vMF density's constant
    (("moments", "--oracle", "mc", "--samples", "10000", "--dist-json", VMF190),
     "power series of I_p(x) overflows at p=94.0, x=4400.0"),
])
def test_input_errors_print_one_json_line(capsys, argv, words):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.count("\n") == 1
    assert list(json.loads(out)) == ["error"]
    assert words in json.loads(out)["error"]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_validate_failure_exits_one(capsys, monkeypatch):
    def fake(level, seed):
        return {"schema": "1", "level": level, "seed": seed,
                "suites": [], "passed": False}

    monkeypatch.setattr(validation, "run_validation", fake)
    code, out = run_cli(capsys, "validate", "--level", "smoke")
    assert code == 1
    assert json.loads(out)["passed"] is False


# ---------------------------------------------------------------------------
# anisotropy


def test_anisotropy_peanut_example(capsys):
    code, out = run_cli(capsys, "anisotropy", "--dist-json", PEANUT31)
    assert code == 0
    data = json.loads(out)
    assert data["fa"] == pytest.approx(0.34300, abs=5e-6)
    assert data["ratio"] == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert data["bounds"]["fa2_max"] == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-11)
    assert data["bounds"]["r_max"] == 3
    assert all(data["bound_flags"].values())


def test_anisotropy_bimodal_limits(capsys):
    code, out = run_cli(
        capsys, "anisotropy", "--dist-json",
        '{"kind":"bimodal_vmf","n":3,"u":[1,0,0],"k":0}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["fa"] == 0.0
    assert data["ratio"] == 1.0


def test_anisotropy_huge_concentration(capsys):
    code, out = run_cli(
        capsys, "anisotropy", "--dist-json",
        '{"kind":"bimodal_vmf","n":3,"u":[1,0,0],"k":500}'
    )
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == "inf" or data["ratio"] > 100.0


def test_anisotropy_scalar_params(capsys):
    _, out1 = run_cli(capsys, "anisotropy", "--dist-json", PEANUT31, "--s", "2", "--mu", "4")
    data = json.loads(out1)
    # s^2/mu = 1, identical to defaults
    base = json.loads(run_cli(capsys, "anisotropy", "--dist-json", PEANUT31)[1])
    assert data == base


def test_anisotropy_unsupported_kind(capsys):
    code, out = run_cli(
        capsys, "anisotropy", "--dist-json",
        '{"kind":"odf","n":3,"A":[[1,0,0],[0,1,0],[0,0,1]]}'
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_anisotropy_asymmetric_peanut_uses_generic_route(capsys):
    code, out = run_cli(
        capsys, "anisotropy", "--dist-json",
        '{"kind":"peanut","n":2,"A":[[3,0.4],[0.1,1]]}'
    )
    assert code == 0
    sym = json.loads(run_cli(
        capsys, "anisotropy", "--dist-json",
        '{"kind":"peanut","n":2,"A":[[3,0.25],[0.25,1]]}'
    )[1])
    data = json.loads(out)
    assert data["fa"] == pytest.approx(sym["fa"], abs=1e-10)


def _fixed_dist_json(kind, n):
    if kind in ("vmf", "bimodal_vmf"):
        return json.dumps({"kind": kind, "n": n, "u": [0.0] * (n - 1) + [1.0], "k": 2.0})
    A = np.diag([3.0, 1.0, 0.5][:n])
    if kind == "asymmetric_peanut":  # takes the generic route
        A[0, 1] = 0.4
    return json.dumps({"kind": "peanut", "n": n, "A": A.tolist()})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["vmf", "bimodal_vmf", "peanut", "asymmetric_peanut"])
def test_anisotropy_at_extreme_motility_scales(capsys, kind, n):
    # s^2/mu = 1e-320 is subnormal, and the squares of 1e200 overflow;
    # FA and the ratio do not depend on s^2/mu, and keep every bit of s = 1
    dist = _fixed_dist_json(kind, n)
    base = json.loads(run_cli(capsys, "anisotropy", "--dist-json", dist, "--s", "1")[1])
    for s in ("1e-160", "1e100"):
        code, out = run_cli(capsys, "anisotropy", "--dist-json", dist, "--s", s)
        data = json.loads(out)
        assert code == 0
        assert isinstance(data["fa"], (int, float)) and math.isfinite(data["fa"])
        assert all(data["bound_flags"].values())
        assert data["fa"] == base["fa"]
        assert data["ratio"] == base["ratio"]
    # s^2/mu overflows to inf and underflows to 0
    for s in ("1e160", "1e-200"):
        code, out = run_cli(capsys, "anisotropy", "--dist-json", dist, "--s", s)
        assert code == 2
        assert "s^2/mu" in json.loads(out)["error"]


# A = diag(...) whose squares, tr A + 2 max(A) or tr A overflow, or whose
# squares underflow; the moments and the report do not depend on the scale of A
PEANUT_SCALES = {
    "n3_1e200": [1e200, 1.0, 1.0],
    "n2_1.7e308": [1.7e308, 1.0],
    "n2_twice_1.7e308": [1.7e308, 1.7e308],
    "n3_1e-200": [1e-200, 1e-210, 1e-210],
}


@pytest.mark.parametrize("case", sorted(PEANUT_SCALES))
def test_peanut_at_extreme_scales_of_a(capsys, case):
    diagonal = np.array(PEANUT_SCALES[case])
    normal = np.ldexp(diagonal, -np.frexp(diagonal.max())[1])  # exactly, into [0.5, 1)
    outputs = []
    for d in (diagonal, normal):
        dist = json.dumps({"kind": "peanut", "n": d.size, "A": np.diag(d).tolist()})
        code, out = run_cli(capsys, "anisotropy", "--dist-json", dist)
        assert code == 0
        report = json.loads(out)
        assert all(report["bound_flags"].values())
        code, out = run_cli(capsys, "moments", "--dist-json", dist)
        assert code == 0
        moments = json.loads(out)["closed_form"]
        outputs.append([report["fa"], report["ratio"], *report["eigenvalues"],
                        *np.ravel(moments["covariance"])])
    np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-15, atol=0.0)


def test_peanut_whose_eigenvalue_overflows_matches_its_scaled_copy(capsys):
    # A is finite and positive definite, but its largest eigenvalue is 2.7e308;
    # the report does not depend on the scale of A
    A = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
    outputs = []
    for a in (A, np.ldexp(A, -1024)):
        dist = json.dumps({"kind": "peanut", "n": 2, "A": a.tolist()})
        code, out = run_cli(capsys, "anisotropy", "--dist-json", dist)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# 1e-30 is 2^-1096 max|A|: a copy of A scaled by max|A| alone loses it
WIDE_PEANUT = '{"kind":"peanut","n":3,"A":[[1e300,0,0],[0,1e-30,0],[0,0,1]]}'
WIDE_PEANUT_GOLDEN = {
    "anisotropy": '{"schema": "1", "eigenvalues": [0.60000000000000009, 0.20000000000000001, '
                  '0.20000000000000001], "fa": 0.60302268915552726, "ratio": 3, "bounds": '
                  '{"fa3_max": 0.603022689156, "r_max": 3}, "bound_flags": {"fa3_max": true, '
                  '"r_max": true}}\n',
    "moments": '{"schema": "1", "closed_form": {"mean": [0, 0, 0], "second_moment": '
               '[[0.60000000000000009, 0, 0], [0, 0.20000000000000001, 0], '
               '[0, 0, 0.20000000000000001]], "covariance": [[0.60000000000000009, 0, 0], '
               '[0, 0.20000000000000001, 0], [0, 0, 0.20000000000000001]], '
               '"source": "closed_form"}}\n',
}


@pytest.mark.parametrize("command", sorted(WIDE_PEANUT_GOLDEN))
def test_peanut_whose_entries_span_more_than_the_doubles_is_positive_definite(capsys, command):
    code, out = run_cli(capsys, command, "--dist-json", WIDE_PEANUT)
    assert code == 0
    assert out == WIDE_PEANUT_GOLDEN[command]


def _diagonal(kind, diagonal, **extra):
    return {"kind": kind, "n": 3, "A": np.diag(diagonal).tolist(), **extra}


@pytest.mark.parametrize("data", [
    _diagonal("odf", [1e200] * 3),
    _diagonal("odf", [1e-200] * 3),
    _diagonal("odf", [1e200, 1, 1]),
    _diagonal("odf", [1e160, 1, 1]),
    _diagonal("odf", [1e300, 1e-30, 1]),
    _diagonal("odf", [1e-10, 1e300, 1]),
    _diagonal("bingham", [1e200] * 3, delta=1e-200),
    _diagonal("bingham", [1e200, 1, 1], delta=0.4),
    _diagonal("bingham", [1e160, 1, 1], delta=0.4),
    _diagonal("bingham", [1e300, 1e-30, 1], delta=0.4),
], ids=lambda data: f"{data['kind']}-{np.diag(data['A']).tolist()}")
def test_odf_and_bingham_at_extreme_scales_of_a(capsys, data):
    # the odf does not depend on the scale of A, the Bingham only on A delta, and
    # det A of the scaled copy of an ill-conditioned A under- or overflows where
    # log det A does not; a copy scaled by max|A| alone would take 1e-30 to 0 and
    # 1e-10 to a subnormal; pytest turns a RuntimeWarning into an error
    code, out = run_cli(capsys, "moments", "--oracle", "quad", "--resolution", "16",
                        "--dist-json", json.dumps(data))
    assert code == 0
    mass = json.loads(out)["oracle"]["provenance"]["mass"]
    a = np.diag(data["A"])
    if np.ptp(np.frexp(a)[1]) <= 1021:
        # where A spans more than the doubles, 16 points miss the density's
        # spike and print a mass below 1e-130 with no warning: not pinned
        assert 0.0 < mass < math.inf
    if data["kind"] == "odf" and np.all(a == a[0]):
        assert abs(mass - 1.0) <= 1e-12
    # the density in log space from the diagonal of A, which never forms det A
    theta = oracle.uniform_sphere(3, 50, 1)
    qf = theta**2 @ (1.0 / a)
    if data["kind"] == "odf":
        log_q = -math.log(4.0 * math.pi) - 0.5 * np.sum(np.log(a)) - 1.5 * np.log(qf)
    else:
        delta = data["delta"]
        log_c = -0.5 * (np.sum(np.log(a)) + 3.0 * math.log(4.0 * math.pi * delta))
        log_q = log_c - qf / (4.0 * delta)
    dist = distributions.distribution_from_json(data)
    np.testing.assert_allclose(distributions.density_many(dist, theta), np.exp(log_q),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("A, delta", [(np.diag([1e-300, 1.0, 1.0]), 1e-300), (np.eye(3), 1e-6)])
@pytest.mark.parametrize("method", ["quad", "mc"])
def test_bingham_whose_density_underflows_is_domain_error(capsys, A, delta, method):
    dist = json.dumps({"kind": "bingham", "n": 3, "A": A.tolist(), "delta": delta})
    code, out = run_cli(capsys, "moments", "--oracle", method, "--resolution", "16",
                        "--samples", "10000", "--dist-json", dist)
    assert code == 2
    assert "Gaussian one on R^3" in json.loads(out)["error"]


def test_bingham_outside_n3_whose_density_underflows_names_no_gaussian_constant(capsys):
    dist = '{"kind":"bingham","n":2,"A":[[1e-300,0],[0,1]],"delta":1e-300}'
    code, out = run_cli(capsys, "moments", "--oracle", "quad", "--dist-json", dist)
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("the quadrature mass of the bingham density is 0.0; ")
    assert "Gaussian" not in error


def test_monte_carlo_that_misses_a_concentrated_vmf_is_domain_error(capsys):
    # the density integrates to 1, but no sample reaches the cap where it is not 0
    dist = '{"kind":"vmf","n":3,"u":[1,0,0],"k":1e10}'
    code, out = run_cli(capsys, "moments", "--oracle", "mc", "--samples", "10000",
                        "--dist-json", dist)
    assert code == 2
    assert json.loads(out)["error"] == "the Monte Carlo mass of the vmf density is 0.0"


def test_asymmetric_peanut_near_the_largest_double(capsys):
    # A - A^T overflows here; pytest turns the RuntimeWarning into an error
    dist = '{"kind":"peanut","n":2,"A":[[1.7e308,1e308],[-1e308,1]]}'
    code, out = run_cli(capsys, "anisotropy", "--dist-json", dist)
    assert code == 0
    report = json.loads(out)
    assert report["eigenvalues"] == [0.75, 0.25]
    assert report["fa"] == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-15)


def test_peanut_keeps_a_subnormal_eigenvalue(capsys):
    # A = diag(1, 5e-324) is positive definite; (A + A^T)/2 must keep 5e-324
    dist = '{"kind":"peanut","n":2,"A":[[1,0],[0,5e-324]]}'
    code, out = run_cli(capsys, "anisotropy", "--dist-json", dist)
    assert code == 0
    assert json.loads(out)["fa"] == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-15)
    code, out = run_cli(capsys, "moments", "--dist-json", dist)
    assert code == 0
    assert json.loads(out)["closed_form"]["covariance"] == [[0.75, 0], [0, 0.25]]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_concentration_covers_full_anisotropy_range(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
        "--grid-log", "0.001", "1000", "50", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "parameter,value,fa,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 50
    fas = [float(r[2]) for r in rows]
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert fas[0] < 0.01 and fas[-1] > 0.99
    assert all(b >= a for a, b in zip(fas, fas[1:]))


def test_sweep_eigen_ratio_approaches_peanut_bound(capsys):
    code, out = run_cli(
        capsys, "sweep", "--parameter", "eigen_ratio",
        "--dist-json", PEANUT31, "--grid-log", "1", "10000", "30",
    )
    assert code == 0
    lines = out.strip().splitlines()
    fas = [float(line.split(",")[2]) for line in lines[1:]]
    bound = 2.0 / math.sqrt(10.0)
    assert all(fa < bound for fa in fas)
    assert bound - fas[-1] < 1e-3
    assert all(b >= a for a, b in zip(fas, fas[1:]))


def test_sweep_single_point_matches_anisotropy(capsys):
    _, out = run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
        "--grid", "2.0", "--outputs", "fa,ratio,eigenvalues",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,value,fa,ratio,eigenvalue_1,eigenvalue_2,eigenvalue_3"
    cells = lines[1].split(",")
    report = json.loads(run_cli(
        capsys, "anisotropy", "--dist-json",
        '{"kind":"bimodal_vmf","n":3,"u":[1,0,0],"k":2.0}'
    )[1])
    assert float(cells[2]) == report["fa"]
    assert float(cells[3]) == report["ratio"]
    assert [float(c) for c in cells[4:]] == report["eigenvalues"]
    # every row of a multi-point sweep is the single-point report, bit for bit
    for n in (2, 3, 5):
        payload = {"kind": "bimodal_vmf", "n": n, "u": _unit(n), "k": 1.0}
        rows, reports = _sweep_and_single_points(capsys, payload, "k", SWEEP_K_GRID)
        for row, report in zip(rows, reports):
            assert row["fa"] == report["fa"]
            assert row["ratio"] == report["ratio"]
            assert [row[f"eigenvalue_{i}"] for i in range(1, n + 1)] == report["eigenvalues"]


# k = 0, both sides of SMALL_K, both sides of the Bessel series cutoff (30), large k
SWEEP_K_GRID = [0.0, 1e-9, 1e-8, 1e-3, 0.5, 2.0, 29.5, 30.0, 30.5, 700.0, 1e4]


def _unit(n):
    u = np.arange(1.0, n + 1.0)
    return (u / np.linalg.norm(u)).tolist()


def _sweep_and_single_points(capsys, payload, parameter, grid):
    """(JSON sweep rows, single-point anisotropy reports) over the same grid."""
    args = ("--s", "1.3", "--mu", "0.7")
    code, out = run_cli(
        capsys, "sweep", "--parameter", parameter, "--dist-json", json.dumps(payload),
        "--grid", ",".join(repr(v) for v in grid), "--outputs", "fa,ratio,eigenvalues",
        "--format", "json", *args,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["value"] for row in rows] == grid
    reports = []
    for value in grid:
        if parameter == "k":
            point = dict(payload, k=value)
        else:
            a = np.eye(payload["n"])
            a[0, 0] = value
            point = dict(payload, A=a.tolist())
        code, out = run_cli(capsys, "anisotropy", "--dist-json", json.dumps(point), *args)
        assert code == 0
        reports.append(json.loads(out))
    return rows, reports


@pytest.mark.parametrize("kind", ["vmf", "peanut"])
@pytest.mark.parametrize("n", [2, 3])
def test_sweep_rows_match_anisotropy_generic_and_peanut(capsys, kind, n):
    if kind == "vmf":
        payload = {"kind": "vmf", "n": n, "u": _unit(n), "k": 1.0}
        rows, reports = _sweep_and_single_points(capsys, payload, "k", SWEEP_K_GRID)
    else:
        payload = {"kind": "peanut", "n": n, "A": np.eye(n).tolist()}
        # from 1e154 on, squares of A's eigenvalues overflow, and near the
        # largest double so does tr A + 2 t
        grid = [0.01, 0.5, 1.0, 1.5, 3.0, 100.0, 1e6, 1e154, 1e200, 1.7e308]
        rows, reports = _sweep_and_single_points(capsys, payload, "eigen_ratio", grid)
    for row, report in zip(rows, reports):
        got = [row["fa"], row["ratio"]] + [row[f"eigenvalue_{i}"] for i in range(1, n + 1)]
        want = [report["fa"], report["ratio"]] + report["eigenvalues"]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_sweep_mean_norm_output(capsys):
    _, out = run_cli(
        capsys, "sweep", "--parameter", "k",
        "--dist-json", '{"kind":"vmf","n":2,"u":[0,1],"k":1}',
        "--grid", "0.5,1,2,4", "--outputs", "mean_norm",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,value,mean_norm"
    norms = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert all(0 < v < 1 for v in norms)


def test_sweep_json_format(capsys):
    _, out = run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
        "--grid", "1,2", "--format", "json",
    )
    data = json.loads(out)
    assert data["schema"] == "1"
    assert len(data["rows"]) == 2


def test_sweep_grid_validation(capsys):
    assert run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
        "--grid", "2,1",
    )[0] == 2
    assert run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
    )[0] == 2
    assert run_cli(
        capsys, "sweep", "--parameter", "eigen_ratio", "--dist-json", BIMODAL3,
        "--grid", "1,2",
    )[0] == 2
    assert run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
        "--grid", "1,2", "--outputs", "fa,banana",
    )[0] == 2
    # non-finite values, non-finite ends and a fractional count, each named
    for dist, grid, words in (
        (PEANUT31, ("--grid", "1,inf"), "--grid values must be finite"),
        (BIMODAL3, ("--grid", "1,nan,3"), "--grid values must be finite"),
        (BIMODAL3, ("--grid=-inf,1",), "--grid values must be finite"),
        (BIMODAL3, ("--grid-log", "1", "inf", "3"), "--grid-log MIN and MAX must be finite"),
        (BIMODAL3, ("--grid-log", "nan", "2", "3"), "--grid-log MIN and MAX must be finite"),
        (BIMODAL3, ("--grid-log", "1", "2", "2.7"), "--grid-log COUNT must be an integer"),
        (BIMODAL3, ("--grid-log", "1", "2", "inf"), "--grid-log COUNT must be an integer"),
        (BIMODAL3, ("--grid-log", "1", "2", "nan"), "--grid-log COUNT must be an integer"),
    ):
        parameter = "eigen_ratio" if dist == PEANUT31 else "k"
        code, out = run_cli(capsys, "sweep", "--parameter", parameter, "--dist-json", dist, *grid)
        assert code == 2
        assert words in json.loads(out)["error"]


def test_sweep_unwritable_path_is_io_error(capsys):
    code, out = run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", BIMODAL3,
        "--grid", "1,2", "--out", "/no/such/dir/file.csv",
    )
    assert code == 3
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_smoke_passes_quickly(capsys):
    start = time.monotonic()
    code, out = run_cli(capsys, "validate", "--level", "smoke", "--seed", "5")
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 10.0
    data = json.loads(out)
    assert data["passed"] is True
    assert [s["name"] for s in data["suites"]] == [
        "normalization",
        "oracle_equivalence",
        "bessel_identities",
        "anisotropy_bounds",
    ]
    assert all(s["passed"] for s in data["suites"])


def test_run_validation_rejects_unknown_level():
    with pytest.raises(ValueError, match="level must be 'smoke' or 'full'"):
        validation.run_validation("medium", 0)


def test_validate_is_deterministic(capsys):
    a = run_cli(capsys, "validate", "--level", "smoke", "--seed", "9")[1]
    b = run_cli(capsys, "validate", "--level", "smoke", "--seed", "9")[1]
    assert a == b


def test_seed_env_variable_default(capsys, monkeypatch):
    monkeypatch.setenv("SPHERMOMENTS_SEED", "9")
    with_env = run_cli(capsys, "validate", "--level", "smoke")[1]
    monkeypatch.delenv("SPHERMOMENTS_SEED")
    explicit = run_cli(capsys, "validate", "--level", "smoke", "--seed", "9")[1]
    assert with_env == explicit


def test_malformed_seed_env_variable_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("SPHERMOMENTS_SEED", "abc")
    code, out = run_cli(capsys, "moments", "--dist-json", VMF3)
    assert code == 2
    assert "SPHERMOMENTS_SEED" in json.loads(out)["error"]


def test_negative_seed_is_input_error(capsys):
    vmf4 = '{"kind":"vmf","n":4,"u":[1,0,0,0],"k":2}'
    for args in (("moments", "--oracle", "mc", "--dist-json", vmf4), ("validate", "--level", "smoke")):
        code, out = run_cli(capsys, *args, "--seed=-1")
        assert code == 2
        assert json.loads(out)["error"] == "seed must be an integer >= 0, got -1"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_speedup(capsys):
    code, out = run_cli(
        capsys, "bench", "--n", "3", "--k-grid", "2", "--repeats", "1",
        "--resolution", "64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,oracle_method,closed_form_us,oracle_us,speedup"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[5]) > 1.0


def test_bench_times_monte_carlo_above_three_dimensions(capsys):
    code, out = run_cli(
        capsys, "bench", "--n", "4", "--k-grid", "2", "--repeats", "1", "--samples", "10000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:3] == ["4", "2", "mc_10000"]


def test_bench_rejects_nonpositive_repeats(capsys):
    code, out = run_cli(capsys, "bench", "--k-grid", "2", "--repeats", "0")
    assert code == 2
    assert "--repeats" in json.loads(out)["error"]


@pytest.mark.parametrize("n", ["0", "1", "-1"])
def test_bench_rejects_dimension_below_two(capsys, n):
    code, out = run_cli(capsys, "bench", "--n", n, "--k-grid", "2", "--repeats", "1")
    assert code == 2
    assert "--n" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# output determinism and process entry point


def test_moments_output_is_byte_identical(capsys):
    argv = ("moments", "--dist-json", VMF3, "--oracle", "mc",
            "--samples", "10000", "--seed", "12")
    a = run_cli(capsys, *argv)[1]
    b = run_cli(capsys, *argv)[1]
    assert a == b


def test_dumps_golden_bytes_for_every_type():
    # _Digits12 is a float and bool an int: each keeps its own spelling
    obj = {
        "none": None,
        "bools": [True, False, np.bool_(True), np.bool_(False)],
        "ints": [0, -7, 2**70, np.int64(-9), np.int32(3)],
        "digits12": [cli._Digits12(0.1 + 0.2), cli._Digits12(math.inf),
                     cli._Digits12(math.nan), cli._Digits12(-1 / 3)],
        "floats": [0.1 + 0.2, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   2.2250738585072014e-308 / 3, 1e300, 1.0, -2.5e-17],
        "numpy_floats": [np.float64(0.1) * 3, np.float64("nan"), np.float64("-inf"),
                         np.float64(-0.0), np.float32(0.1)],
        "str": 'a "quoted" \\ snow☃',
        "nested": {"list": [[1.5, [2, None]], (3.25, "x")], "tuple": (0.5, (True, 1e-320)), 7: {}},
        "ndarray": np.array([[1.0, -0.0], [np.inf, 1 / 3]]),
        "table": cli._Table(
            {"kind": "vmf", "k": np.array([0.5, np.inf]), "n": 3, "fa": np.array([1 / 3, np.nan])}, 2
        ),
    }
    assert cli.dumps(obj) == (
        '{"none": null, "bools": [true, false, true, false], '
        '"ints": [0, -7, 1180591620717411303424, -9, 3], '
        '"digits12": [0.3, "inf", "nan", -0.333333333333], '
        '"floats": [0.30000000000000004, "nan", "inf", "-inf", -0, 0, 4.9406564584124654e-324, '
        '7.4169128616906696e-309, 1.0000000000000001e+300, 1, -2.4999999999999999e-17], '
        '"numpy_floats": [0.30000000000000004, "nan", "-inf", -0, 0.10000000149011612], '
        '"str": "a \\"quoted\\" \\\\ snow\\u2603", '
        '"nested": {"list": [[1.5, [2, null]], [3.25, "x"]], '
        '"tuple": [0.5, [true, 9.9998886718268301e-321]], "7": {}}, '
        '"ndarray": [[1, -0], ["inf", 0.33333333333333331]], '
        '"table": [{"kind": "vmf", "k": 0.5, "n": 3, "fa": 0.33333333333333331}, '
        '{"kind": "vmf", "k": "inf", "n": 3, "fa": "nan"}]}'
    )
    with pytest.raises(TypeError, match="cannot serialize"):
        cli.dumps({1.5, 2.5})


def _spelled(obj):
    """dumps as a walk that spells one value at a time: the reference."""
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".12g" if isinstance(obj, cli._Digits12) else ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_spelled(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, cli._Table):
        return _spelled([
            {name: column[i] if isinstance(column, np.ndarray) else column
             for name, column in obj.columns.items()}
            for i in range(obj.rows)
        ])
    return "[" + ", ".join(_spelled(v) for v in obj) + "]"


_TEXT = st.text(st.sampled_from('%sd7."\\ é☃'), max_size=6)
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]))
_FLOAT_ARRAYS = st.one_of(
    arrays(np.float64, st.tuples(st.integers(0, 4)), elements=_FLOATS),
    arrays(np.float32, st.tuples(st.integers(0, 3), st.integers(0, 3)),
           elements=st.floats(width=32)),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
    st.booleans().map(np.bool_), st.integers(-99, 99).map(np.int64),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    _FLOATS.map(cli._Digits12), _FLOAT_ARRAYS,
    st.lists(_FLOATS, max_size=5),  # float vectors, non-finite entries too
    st.integers(0, 3).flatmap(  # rectangular float matrices
        lambda width: st.lists(st.lists(_FLOATS, min_size=width, max_size=width), max_size=3)),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
             min_size=2, max_size=3),  # ragged rows of finite floats
)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 3))
    columns = draw(st.dictionaries(_TEXT, st.one_of(
        st.none(), st.integers(), _TEXT,
        arrays(np.float64, rows, elements=_FLOATS),
    ), max_size=4))
    return cli._Table(columns, rows)


_REPORTS = st.recursive(
    st.one_of(_LEAVES, _tables()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),  # ragged, mixed int/float/bool lists too
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_REPORTS, _tables())
def test_dumps_spells_as_one_value_at_a_time(obj, table):
    # a table beside every report: one drawn as a leaf of it is rare
    assert cli.dumps([obj, table]) == _spelled([obj, table])


def test_moments_golden_output(capsys):
    _, out = run_cli(
        capsys, "moments", "--dist-json", '{"kind":"peanut","n":2,"A":[[3,0],[0,1]]}'
    )
    assert out == (
        '{"schema": "1", "closed_form": {"mean": [0, 0], '
        '"second_moment": [[0.625, 0], [0, 0.375]], '
        '"covariance": [[0.625, 0], [0, 0.375]], '
        '"source": "closed_form"}}\n'
    )


BIMODAL_GOLDEN = {
    (3, 0): (
        '{"schema": "1", "eigenvalues": [0.8047619047619049, 0.8047619047619049, '
        '0.8047619047619049], "fa": 0, "ratio": 1, '
        '"bounds": {"fa_max": 1}, "bound_flags": {"fa_max": true}}\n'
    ),
    (3, 2): (
        '{"schema": "1", "eigenvalues": [1.1170544599577761, 0.64861562716396848, '
        '0.64861562716396848], "fa": 0.32408677489230892, "ratio": 1.7222133004134164, '
        '"bounds": {"fa_max": 1}, "bound_flags": {"fa_max": true}}\n'
    ),
    (3, 500): (
        '{"schema": "1", "eigenvalues": [2.4046478857142861, 0.0048189142857142861, '
        '0.0048189142857142861], "fa": 0.99799199208849665, "ratio": 499.00200400801606, '
        '"bounds": {"fa_max": 1}, "bound_flags": {"fa_max": true}}\n'
    ),
    (2, 2): (
        '{"schema": "1", "eigenvalues": [1.5719720200291611, 0.84231369425655234], '
        '"fa": 0.40913422205746214, "ratio": 1.8662548534446231, '
        '"bounds": {"fa_max": 1}, "bound_flags": {"fa_max": true}}\n'
    ),
    (2, 500): (
        '{"schema": "1", "eigenvalues": [2.4094619738477019, 0.0048237404380134189], '
        '"fa": 0.99799600102807029, "ratio": 499.50075150395122, '
        '"bounds": {"fa_max": 1}, "bound_flags": {"fa_max": true}}\n'
    ),
}


@pytest.mark.parametrize("n, k", sorted(BIMODAL_GOLDEN))
def test_anisotropy_bimodal_golden_output(capsys, n, k):
    # s^2/mu != 1, so the association of the factor shows in the last bit
    u = [0] * (n - 1) + [1]
    payload = f'{{"kind":"bimodal_vmf","n":{n},"u":{u},"k":{k}}}'
    _, out = run_cli(capsys, "anisotropy", "--s", "1.3", "--mu", "0.7", "--dist-json", payload)
    assert out == BIMODAL_GOLDEN[n, k]


def test_moments_vmf_zero_concentration_golden_output(capsys):
    # the k = 0 mean is +0 in every entry, also where u is negative
    _, out = run_cli(
        capsys, "moments", "--dist-json", '{"kind":"vmf","n":3,"u":[-0.6,0.8,0],"k":0}'
    )
    third = "0.33333333333333331"
    identity = f"[[{third}, 0, 0], [0, {third}, 0], [0, 0, {third}]]"
    assert out == (
        '{"schema": "1", "closed_form": {"mean": [0, 0, 0], '
        f'"second_moment": {identity}, "covariance": {identity}, '
        '"source": "closed_form"}}\n'
    )


ODF3 = '{"kind":"odf","n":3,"A":[[2,0.3,0],[0.3,1,0.1],[0,0.1,0.5]]}'
MOMENTS_GOLDEN = {
    "vmf": (
        ("--dist-json", '{"kind":"vmf","n":3,"u":[0.6,-0.8,0],"k":2.5}'),
        '{"schema": "1", "closed_form": {"mean": [0.3681403858875652, -0.49085384785008696, 0], '
        '"second_moment": [[0.34036584608599663, -0.12658522954793755, 0], '
        '[-0.12658522954793755, 0.4142072299889602, 0], [0, 0, 0.24542692392504345]], '
        '"covariance": [[0.2048385023645512, 0.054117895413989675, 0], '
        '[0.054117895413989675, 0.17326973003972387, 0], [0, 0, 0.24542692392504345]], '
        '"source": "closed_form"}}\n',
    ),
    "bimodal_vmf": (
        ("--dist-json", '{"kind":"bimodal_vmf","n":3,"u":[0,0.6,0.8],"k":7}'),
        '{"schema": "1", "closed_form": {"mean": [0, 0, 0], '
        '"second_moment": [[0.12244921717166825, 0, 0], '
        '[0, 0.35020406262626635, 0.30367312727279744], '
        '[0, 0.30367312727279744, 0.52734672020206497]], '
        '"covariance": [[0.12244921717166825, 0, 0], '
        '[0, 0.35020406262626635, 0.30367312727279744], '
        '[0, 0.30367312727279744, 0.52734672020206497]], "source": "closed_form"}}\n',
    ),
    # no closed form: null, and no deviation next to the oracle
    "odf": (
        ("--dist-json", ODF3, "--oracle", "quad", "--resolution", "32"),
        '{"schema": "1", "closed_form": null, "oracle": {"mean": [-4.5085022683504644e-17, '
        '-8.8976575944327979e-18, 1.951563910473908e-17], '
        '"second_moment": [[0.47472213522885653, 0.04675155156460515, -0.0015251533484892082], '
        '[0.04675155156460515, 0.3183752455136406, 0.023209617261801676], '
        '[-0.001525153348489206, 0.023209617261801676, 0.20690261924627223]], '
        '"covariance": [[0.47472213522885653, 0.04675155156460515, -0.0015251533484892082], '
        '[0.04675155156460515, 0.3183752455136406, 0.023209617261801676], '
        '[-0.001525153348489206, 0.023209617261801676, 0.20690261924627223]], '
        '"source": "oracle", "provenance": {"method": "sphere_product", "resolution": 32, '
        '"mass": 0.99999999998876987}}, "max_abs_dev": null}\n',
    ),
    "bingham": (
        ("--dist-json",
         '{"kind":"bingham","n":3,"A":[[3,0,0],[0,1,0.2],[0,0.2,0.5]],"delta":0.4}'),
        '{"schema": "1", "closed_form": null}\n',
    ),
}


@pytest.mark.parametrize("kind", sorted(MOMENTS_GOLDEN))
def test_moments_golden_output_by_kind(capsys, kind):
    argv, expected = MOMENTS_GOLDEN[kind]
    code, out = run_cli(capsys, "moments", *argv)
    assert code == 0
    assert out == expected


QUAD_GOLDEN = {
    # one case per rule; 256 nodes cannot resolve the spike, so doubling warns
    "circle_trapezoid": (
        '{"kind":"vmf","n":2,"u":[1,0],"k":5000}',
        '{"schema": "1", "closed_form": {"mean": [0.99989999499899951, 0], '
        '"second_moment": [[0.99980002000100032, 0], [0, 0.00019997999899979991]], '
        '"covariance": [[2.0002001055452467e-08, 0], [0, 0.00019997999899979991]], '
        '"source": "closed_form"}, "oracle": {"mean": [1.0027556114414171, '
        '-2.4286128663675299e-17], "second_moment": [[1.0026590906414332, '
        '-2.4719809532669501e-17], [-2.4286128663675299e-17, 0.00019307434284484529]], '
        '"covariance": [[-0.0028597256358171563, -3.6675773498084994e-19], '
        '[6.6923134013351834e-20, 0.00019307434284484529]], "source": "oracle", '
        '"provenance": {"method": "circle_trapezoid", "resolution": 256, '
        '"mass": 1.0028521649842781}, '
        '"warnings": ["doubling resolution 256->512 changed results by 2.859e-03"]}, '
        '"max_abs_dev": 0.0028597456378182118}\n',
    ),
    "sphere_product": (
        '{"kind":"peanut","n":3,"A":[[2,0.5,-0.3],[-0.1,1,0.4],[0.2,-0.2,0.7]]}',
        '{"schema": "1", "closed_form": {"mean": [0, 0, 0], '
        '"second_moment": [[0.41621621621621624, 0.021621621621621623, '
        '-0.005405405405405404], [0.021621621621621623, 0.30810810810810813, '
        '0.010810810810810811], [-0.005405405405405404, 0.010810810810810811, '
        '0.27567567567567569]], "covariance": [[0.41621621621621624, 0.021621621621621623, '
        '-0.005405405405405404], [0.021621621621621623, 0.30810810810810813, '
        '0.010810810810810811], [-0.005405405405405404, 0.010810810810810811, '
        '0.27567567567567569]], "source": "closed_form"}, '
        '"oracle": {"mean": [-1.7874129371219955e-17, 2.5347554030253244e-17, '
        '2.7143276673882461e-17], "second_moment": [[0.41621621621622146, '
        '0.021621621621621685, -0.0054054054054054465], [0.021621621621621685, '
        '0.30810810810810907, 0.010810810810810867], [-0.0054054054054054465, '
        '0.010810810810810863, 0.27567567567567575]], "covariance": [[0.41621621621622146, '
        '0.021621621621621685, -0.0054054054054054465], [0.021621621621621685, '
        '0.30810810810810907, 0.010810810810810867], [-0.0054054054054054465, '
        '0.010810810810810863, 0.27567567567567575]], "source": "oracle", '
        '"provenance": {"method": "sphere_product", "resolution": 256, '
        '"mass": 1}}, "max_abs_dev": 5.2180482157382357e-15}\n',
    ),
}


@pytest.mark.parametrize("rule", sorted(QUAD_GOLDEN))
def test_moments_quadrature_golden_output(capsys, rule):
    dist, expected = QUAD_GOLDEN[rule]
    code, out = run_cli(capsys, "moments", "--oracle", "quad", "--dist-json", dist)
    assert code == 0
    assert out == expected


ANISOTROPY_GOLDEN = {
    # the unimodal vMF, read off r/k and Var(u.x) = dr/dk with no eigensolve
    "vmf_n5": (
        '{"kind":"vmf","n":5,"u":[0.2,-0.4,0.4,0.8,0],"k":7}',
        '{"schema": "1", "eigenvalues": [0.25456676059002564, 0.25456676059002564, '
        '0.25456676059002564, 0.25456676059002564, 0.080761109211191645], "fa": null, '
        '"ratio": 3.1520958921493927, "bounds": {"fa_max": 1}, '
        '"bound_flags": {"fa_max": true}}\n',
    ),
    # the generic route: the peanut's closed-form covariance symmetrizes A
    "asymmetric_peanut": (
        '{"kind":"peanut","n":3,"A":[[2,0.5,-0.3],[-0.1,1,0.4],[0.2,-0.2,0.7]]}',
        '{"schema": "1", "eigenvalues": [1.0150968524404056, 0.74386100386100384, '
        '0.65532785798430537], "fa": 0.22883276901028113, "ratio": 1.5489908449225676, '
        '"bounds": {"fa3_max": 0.603022689156, "r_max": 3}, '
        '"bound_flags": {"fa3_max": true, "r_max": true}}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(ANISOTROPY_GOLDEN))
def test_anisotropy_generic_route_golden_output(capsys, case):
    dist, expected = ANISOTROPY_GOLDEN[case]
    code, out = run_cli(capsys, "anisotropy", "--s", "1.3", "--mu", "0.7", "--dist-json", dist)
    assert code == 0
    assert out == expected


def test_vmf_at_k_1e300_keeps_its_fa_and_an_unbounded_ratio(capsys):
    # Var(u.x), about (n - 1)/(2 k^2), underflows to 0 past k of about 1e161;
    # FA = (r/k - Var(u.x))/hypot(r/k, r/k, Var(u.x)) stays 1/sqrt(2) at n = 3,
    # and the ratio follows the rule for an eigenvalue that underflows
    dist = '{"kind":"vmf","n":3,"u":[0.6,-0.8,0],"k":1e300}'
    code, out = run_cli(capsys, "anisotropy", "--dist-json", dist)
    data = json.loads(out)
    assert code == 0
    assert abs(data["fa"] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert data["ratio"] == "inf" and data["eigenvalues"][-1] == 0
    code, out = run_cli(capsys, "sweep", "--parameter", "k", "--dist-json", dist,
                        "--grid", "0,1e300", "--outputs", "fa,ratio")
    assert code == 0
    assert out == "parameter,value,fa,ratio\nk,0,0,1\nk,1.0000000000000001e+300,0.70710678118654757,inf\n"


FAMILY_VALUES = {
    "u": [0.6, -0.8, 0.0],
    "k": 2.5,
    "A": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]],
    "delta": 0.4,
}


@pytest.mark.parametrize("kind", sorted(distributions.FAMILIES))
def test_family_table_round_trip_and_presence(capsys, kind):
    fields = distributions.FAMILIES[kind]
    payload = {"kind": kind, "n": 3, **{name: FAMILY_VALUES[name] for name in fields}}
    dist = distributions.distribution_from_json(payload)
    assert distributions.distribution_to_json(dist) == payload
    extra = next(name for name in FAMILY_VALUES if name not in fields)
    code, out = run_cli(capsys, "moments", "--dist-json",
                        json.dumps({**payload, extra: FAMILY_VALUES[extra]}))
    assert code == 2
    assert f"{kind} takes {' and '.join(fields)} only" in json.loads(out)["error"]
    for missing in fields:
        partial = {key: value for key, value in payload.items() if key != missing}
        code, out = run_cli(capsys, "moments", "--dist-json", json.dumps(partial))
        assert code == 2
        assert f"{kind} requires" in json.loads(out)["error"]


SWEEP_GOLDEN_HEADER = "parameter,value,fa,ratio,eigenvalue_1,eigenvalue_2,eigenvalue_3,mean_norm\n"
SWEEP_GOLDEN = {
    "vmf": (
        "k,0,0,1,0.1588235294117647,0.1588235294117647,0.1588235294117647,0\n"
        "k,1.0000000000000001e-09,0,1,0.1588235294117647,0.1588235294117647,"
        "0.1588235294117647,0\n"
        "k,1e-08,7.6980035891950073e-18,1.0000000000000002,0.1588235294117647,"
        "0.1588235294117647,0.15882352941176467,3.333333333333333e-09\n"
        "k,29.989999999999998,0.68251238094435074,28.990000000000173,0.015357883941686435,"
        "0.015357883941686435,0.00052976488243140199,0.96665555185061658\n"
        "k,30,0.68252092918532226,29.000000000000306,0.015352941176470592,"
        "0.015352941176470592,0.00052941176470587689,0.96666666666666679\n"
        "k,30.010000000000002,0.68252947148831167,29.009999999999998,0.015348001587725653,"
        "0.015348001587725653,0.00052905899992160136,0.9666777740753083\n"
        "k,100000,0.70709971003034644,99999,4.7646582352941183e-06,"
        "4.7646582352941183e-06,4.7647058823529418e-11,0.99999000000000005\n"
    ),
    "bimodal_vmf": (
        "k,0,0,1,0.15882352941176472,0.15882352941176472,0.15882352941176472,0\n"
        "k,1.0000000000000001e-09,0,1,0.15882352941176472,0.15882352941176472,"
        "0.15882352941176472,0\n"
        "k,1e-08,1.1547005383792516e-17,1,0.1588235294117647,0.1588235294117647,"
        "0.1588235294117647,0\n"
        "k,29.989999999999998,0.9644022230728676,29.024494653328702,0.44575482035192066,"
        "0.015357883941686435,0.015357883941686435,0\n"
        "k,30,0.96441484702546165,29.034482758620687,0.44576470588235295,"
        "0.015352941176470592,0.015352941176470592,0\n"
        "k,30.010000000000002,0.96442746205704899,29.044470872113063,0.4457745850598428,"
        "0.015348001587725655,0.015348001587725655,0\n"
        "k,100000,0.99998999979999903,99999.000010000091,0.47646105891882357,"
        "4.7646582352941183e-06,4.7646582352941183e-06,0\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(SWEEP_GOLDEN))
def test_sweep_edge_grid_golden_output(capsys, kind):
    # k = 0, both sides of SMALL_K and of the Bessel series cutoff (30), and k = 1e5
    payload = f'{{"kind":"{kind}","n":3,"u":[0.6,-0.8,0],"k":1}}'
    code, out = run_cli(
        capsys, "sweep", "--parameter", "k", "--dist-json", payload,
        "--grid", "0,1e-9,1e-8,29.99,30,30.01,1e5", "--s", "0.9", "--mu", "1.7",
        "--outputs", "fa,ratio,eigenvalues,mean_norm",
    )
    assert code == 0
    assert out == SWEEP_GOLDEN_HEADER + SWEEP_GOLDEN[kind]


def test_anisotropy_bound_violation_exits_one(capsys, monkeypatch):
    # unreachable through real inputs (the bounds are theorems); check
    # the exit wiring directly
    from sphermoments.anisotropy import AnisotropyReport

    broken = AnisotropyReport(
        np.array([2.0, 1.0]), 0.9, 2.0, {"fa2_max": 0.5}, {"fa2_max": False}
    )
    monkeypatch.setattr(cli, "_anisotropy_report", lambda dist, params: broken)
    code, out = run_cli(capsys, "anisotropy", "--dist-json", PEANUT31)
    assert code == 1
    assert json.loads(out)["bound_flags"] == {"fa2_max": False}


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sphermoments", "moments", "--dist-json", PEANUT31],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    np.testing.assert_allclose(data["closed_form"]["covariance"],
                               [[0.625, 0.0], [0.0, 0.375]], atol=1e-12)
