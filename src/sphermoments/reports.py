"""Shared result containers for moment computations."""

from dataclasses import dataclass

import numpy as np


def _freeze(arr):
    """A read-only float copy of ``arr``."""
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MomentReport:
    """First and second moments of a spherical distribution.

    ``source`` records whether the numbers come from a closed form or
    from the numerical oracle; oracle Monte-Carlo reports carry per-entry
    standard errors and provenance (method, resolution/samples, seed,
    generator).
    """

    mean: np.ndarray
    second_moment: np.ndarray
    covariance: np.ndarray
    source: str
    provenance: dict | None = None
    mean_se: np.ndarray | None = None
    second_moment_se: np.ndarray | None = None
    covariance_se: np.ndarray | None = None
    warnings: tuple = ()

    def __post_init__(self):
        for name in ("mean", "second_moment", "covariance",
                     "mean_se", "second_moment_se", "covariance_se"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _freeze(value))
        object.__setattr__(self, "warnings", tuple(self.warnings))


def moment_report_to_json(report):
    """JSON-ready dict for a MomentReport."""
    out = {
        "mean": report.mean.tolist(),
        "second_moment": report.second_moment.tolist(),
        "covariance": report.covariance.tolist(),
        "source": report.source,
    }
    if report.provenance is not None:
        out["provenance"] = dict(report.provenance)
    if report.mean_se is not None:
        out["mean_se"] = report.mean_se.tolist()
    if report.second_moment_se is not None:
        out["second_moment_se"] = report.second_moment_se.tolist()
    if report.covariance_se is not None:
        out["covariance_se"] = report.covariance_se.tolist()
    if report.warnings:
        out["warnings"] = list(report.warnings)
    return out
