"""Each distribution is validated once, when it is built, and builds its
density constant once, on its first density call; a sweep takes both of its
Bessel-ratio orders in one call; quadrature's doubled grid makes no ``einsum``
call.

The counts go through every module-level binding of ``jacobi_eigh`` (the
positive-definiteness check inside ``validate``, which returns the
eigenvalues only) and of ``validate``, or of the functions named, so a call
made through a name imported into another module counts too.
"""

import json
import re
import sys

import numpy as np
import pytest

from sphermoments import _linalg, anisotropy, cli, distributions, moments, oracle, specfun
from sphermoments.errors import ValidationError

from util import random_spd, rng_for


@pytest.fixture
def start_counting(monkeypatch):
    """Call it to start counting; it returns the live {name: calls} dict."""

    def start(originals=(_linalg.jacobi_eigh, distributions.validate), entries=None):
        """``entries``, a list, takes the size of each call's second argument."""
        counts = {}
        for original in originals:
            name = original.__name__
            counts[name] = 0

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                if entries is not None:
                    entries.append(np.size(args[1]))
                result = _original(*args, **kwargs)
                if _name == "jacobi_eigh":  # one eigenvalue per row, no vectors
                    assert result.shape == (len(args[0]),)
                return result

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "sphermoments":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return counts

    return start


def _peanut_json(asymmetric):
    A = random_spd(rng_for(5), 5, asymmetric=asymmetric)
    return json.dumps({"kind": "peanut", "n": 5, "A": A.tolist()})


@pytest.mark.parametrize("asymmetric", [False, True])
def test_cli_moments_validates_a_peanut_once(capsys, start_counting, asymmetric):
    counts = start_counting()
    assert cli.main(["moments", "--dist-json", _peanut_json(asymmetric)]) == 0
    assert counts == {"jacobi_eigh": 1, "validate": 1}


def test_cli_anisotropy_validates_an_asymmetric_peanut_once(capsys, start_counting):
    counts = start_counting()
    assert cli.main(["anisotropy", "--dist-json", _peanut_json(True)]) == 0
    assert counts == {"jacobi_eigh": 1, "validate": 1}


def test_cli_anisotropy_of_a_symmetric_peanut_orders_no_eigenvectors(capsys, start_counting):
    # the validated symmetric A goes straight to eigh's eigenvalues
    counts = start_counting((anisotropy.symmetric_eigen,))
    assert cli.main(["anisotropy", "--dist-json", _peanut_json(False)]) == 0
    assert counts == {"symmetric_eigen": 0}


@pytest.mark.parametrize("payload, parameter, validations", [
    ({"kind": "peanut", "n": 3, "A": np.eye(3).tolist()}, "eigen_ratio", 1),
    ({"kind": "bimodal_vmf", "n": 3, "u": [0, 0, 1], "k": 1}, "k", 1),
    # the vmf's report takes a batch point, which is validated when built
    ({"kind": "vmf", "n": 3, "u": [0, 0, 1], "k": 1}, "k", 2),
])
def test_cli_sweep_builds_no_object_for_the_closed_routes(
    capsys, start_counting, payload, parameter, validations
):
    counts = start_counting()
    argv = ["sweep", "--dist-json", json.dumps(payload), "--parameter", parameter,
            "--grid", "0.5,2"]
    assert cli.main(argv) == 0
    assert counts["validate"] == validations


# the grid's four k above SMALL_K: both orders of the bimodal report; the
# vmf's mean, one order, and the order n/2 + 1 of its FA gap where k < 1
# (ids: kind, outputs and the number of calls)
@pytest.mark.parametrize("kind, outputs, entries", [
    pytest.param("bimodal_vmf", "fa,ratio", [8], id="bimodal_vmf-fa,ratio-1"),
    pytest.param("vmf", "fa,ratio,mean_norm", [4, 1], id="vmf-fa,ratio,mean_norm-2"),
])
def test_cli_sweep_takes_both_bessel_ratio_orders_in_one_call(
    capsys, start_counting, kind, outputs, entries
):
    sizes = []
    counts = start_counting((specfun.bessel_ratio,), sizes)
    payload = {"kind": kind, "n": 3, "u": [0, 0, 1], "k": 1}
    argv = ["sweep", "--dist-json", json.dumps(payload), "--parameter", "k",
            "--grid", "0,0.5,2,40,1e5", "--outputs", outputs]
    assert cli.main(argv) == 0
    assert counts == {"bessel_ratio": len(entries)}
    assert sorted(sizes, reverse=True) == entries


def test_scalar_vmf_moments_takes_one_bessel_ratio_call_per_order(start_counting):
    counts = start_counting((specfun.bessel_ratio,))
    moments.vmf_moments(2.0, [0.0, 0.6, 0.8])
    assert counts == {"bessel_ratio": 2}


def test_mc_moments_does_not_revalidate(start_counting):
    dist = distributions.peanut(random_spd(rng_for(6), 5))
    counts = start_counting()
    report = oracle.mc_moments(dist, oracle.McSpec(5, oracle.BLOCK_SIZE + 1000, 0))
    assert report.provenance["samples"] > oracle.BLOCK_SIZE  # two blocks
    assert counts == {"jacobi_eigh": 0, "validate": 0}


# what each family's density constant calls: the Bessel function, A^-1, the sphere's area
@pytest.mark.parametrize("kind, module, name", [
    ("vmf", specfun, "bessel_i"),
    ("bimodal_vmf", specfun, "bessel_i"),
    ("peanut", distributions, "sphere_surface_area"),
    ("bingham", np.linalg, "inv"),
])
def test_density_constant_is_built_once_per_object(monkeypatch, kind, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    params = {"u": [0.6, 0.0, -0.8, 0.0, 0.0], "k": 2.5, "A": random_spd(rng_for(8), 5),
              "delta": 0.5}
    dist = distributions.SphericalDistribution(
        kind, 5, **{field: params[field] for field in distributions.FAMILIES[kind]}
    )
    if kind != "bingham":
        moments.closed_form_moments(dist)
    assert calls == []  # building it and its closed forms need no constant
    for samples in (oracle.BLOCK_SIZE + 1000, 10_000):  # 17 chunks, then 3
        oracle.mc_moments(dist, oracle.McSpec(5, samples, 0))
    distributions.log_density(dist, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert len(calls) == 1


def test_doubled_quadrature_grid_makes_no_einsum_call(monkeypatch):
    # the reported grid's second moment keeps its pinned einsum; the doubled
    # grid, which only checks it, sums by matrix products
    calls = []
    original = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(args[0]) or original(*args))
    report = oracle.quad_moments(distributions.vmf([0.0, 0.6, 0.8], 2.0), check=True)
    assert report.provenance["resolution"] == 256
    assert calls == ["m,mi,mj->ij"]


def test_sample_peanut_validates_once(start_counting):
    counts = start_counting()
    oracle.sample_peanut(random_spd(rng_for(7), 5), 1000, 0)
    assert counts == {"jacobi_eigh": 1, "validate": 1}


def test_directly_built_invalid_object_raises_in_every_consumer():
    dist = distributions.SphericalDistribution("peanut", 2, A=np.diag([1.0, -2.0]))
    assert dist._violations == ("A not positive definite", "A must have positive trace")
    with pytest.raises(ValidationError, match="A not positive definite"):
        oracle.quad_moments(dist, check=False)
    # a unit 3-vector u at n = 4: only the kept violation stops the 3x3 closed forms
    cases = [dist] + [
        distributions.SphericalDistribution(kind, 4, u=[1.0, 0.0, 0.0], k=2.0)
        for kind in ("vmf", "bimodal_vmf")
    ]
    params = anisotropy.MotilityParams(1.0, 1.0)
    for dist in cases:
        consumers = (
            lambda: distributions.density(dist, [1.0, 0.0]),
            lambda: distributions.log_density(dist, [1.0, 0.0]),
            lambda: anisotropy.diffusion_tensor(dist, params),
            lambda: anisotropy.anisotropy_report(dist, params),
            lambda: moments.closed_form_moments(dist),
            lambda: cli._closed_form_report(dist),
            lambda: cli._anisotropy_report(dist, params),
        )
        for consume in consumers:
            with pytest.raises(ValidationError, match=re.escape(dist._violations[0])):
                consume()
