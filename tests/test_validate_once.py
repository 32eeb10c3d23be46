"""Each distribution is validated once, when it is built.

The counts go through every module-level binding of ``jacobi_eigh`` (the
positive-definiteness check inside ``validate``) and of ``validate``, so a
re-validation made through a name imported into another module counts too.
"""

import json
import re
import sys

import numpy as np
import pytest

from sphermoments import _linalg, anisotropy, cli, distributions, moments, oracle
from sphermoments.errors import ValidationError

from util import random_spd, rng_for


@pytest.fixture
def start_counting(monkeypatch):
    """Call it to start counting; it returns the live {name: calls} dict."""

    def start():
        counts = {}
        for original in (_linalg.jacobi_eigh, distributions.validate):
            name = original.__name__
            counts[name] = 0

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

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


@pytest.mark.parametrize("payload, parameter, validations", [
    ({"kind": "peanut", "n": 3, "A": np.eye(3).tolist()}, "eigen_ratio", 1),
    ({"kind": "bimodal_vmf", "n": 3, "u": [0, 0, 1], "k": 1}, "k", 1),
    # the vmf's generic route takes a batch point, which is validated when built
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


def test_mc_moments_does_not_revalidate(start_counting):
    dist = distributions.peanut(random_spd(rng_for(6), 5))
    counts = start_counting()
    report = oracle.mc_moments(dist, oracle.McSpec(5, oracle.BLOCK_SIZE + 1000, 0))
    assert report.provenance["samples"] > oracle.BLOCK_SIZE  # two blocks
    assert counts == {"jacobi_eigh": 0, "validate": 0}


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
