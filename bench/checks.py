"""Correctness checks on bound results, against an independent exact log Z.

Each check returns human-readable violations; an empty list means the
results hold every property below.

* ``be`` equals the exact log Z;
* an upper bound is >= exact and a lower bound is <= exact;
* an optimizer trace is monotone for its direction and ends at the
  reported bound;
* an optimizer's final working model keeps the original Z;
* on a flip-symmetric model, ``wmbe-theta`` (upper) stays at the
  one-pass bound and ``wmbe-g`` (upper) ends strictly below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from exact import contract_log_z

# Relative tolerance on log Z; the references are exact up to rounding.
TOL = 1e-9
# Working models carry gauged, possibly signed tables: more rounding.
Z_TOL = 1e-7


@dataclass(frozen=True)
class OpResult:
    """One (model, method, ibound, direction) bound."""

    model: int
    method: str
    ibound: int | None
    direction: str            # "upper", "lower" or "exact"
    log_bound: float
    trace: tuple
    working: tuple | None = None   # (cards, factors) after optimizing

    @property
    def label(self):
        return (f"model {self.model} {self.method}/{self.direction}"
                f" ibound {self.ibound}")

    def gap(self, log_z, bound=None):
        """Distance of ``bound`` (default: the result's) from the exact
        value, positive for a valid bound."""
        b = self.log_bound if bound is None else bound
        if self.direction == "lower":
            return log_z - b
        return b - log_z


def _tol(log_z, rel):
    return rel * max(1.0, abs(log_z))


def check_bounds(results, log_z):
    """Exactness, direction and trace monotonicity of every result."""
    bad = []
    for r in results:
        ex = log_z[r.model]
        tol = _tol(ex, TOL)
        if r.direction == "exact":
            if abs(r.log_bound - ex) > tol:
                bad.append(f"{r.label}: {r.log_bound!r} != exact {ex!r}")
            continue
        if r.gap(ex) < -tol:
            bad.append(f"{r.label}: bound {r.log_bound!r} on the wrong "
                       f"side of exact {ex!r}")
        steps = zip(r.trace, r.trace[1:])
        if r.direction == "upper":
            rising = [i for i, (a, b) in enumerate(steps) if b > a]
        else:
            rising = [i for i, (a, b) in enumerate(steps) if b < a]
        if rising:
            bad.append(f"{r.label}: trace not monotone at iteration "
                       f"{rising[0] + 1}")
        if r.trace[-1] != r.log_bound:
            bad.append(f"{r.label}: trace ends at {r.trace[-1]!r}, "
                       f"not at the bound {r.log_bound!r}")
    return bad


def check_working_models(results, log_z):
    """Every optimizer's final working model keeps the original Z."""
    bad = []
    for r in results:
        if r.working is None:
            continue
        ex = log_z[r.model]
        sign, log_abs = contract_log_z(*r.working)
        if sign <= 0 or abs(log_abs - ex) > _tol(ex, Z_TOL):
            bad.append(f"{r.label}: working model has log Z "
                       f"{log_abs!r} (sign {sign}), original {ex!r}")
    return bad


def check_symmetric(results, symmetric):
    """Paper's flip-symmetric result, on the models listed in ``symmetric``."""
    upper = {(r.model, r.method): r.log_bound for r in results
             if r.direction == "upper"}
    bad = []
    for m in sorted(symmetric):
        one = upper.get((m, "wmbe"))
        theta = upper.get((m, "wmbe-theta"))
        gauge = upper.get((m, "wmbe-g"))
        if one is None:
            continue
        tol = _tol(one, TOL)
        if theta is not None and abs(theta - one) > tol:
            bad.append(f"model {m}: wmbe-theta moved a symmetric model's "
                       f"bound from {one!r} to {theta!r}")
        if gauge is not None and not gauge < one - tol:
            bad.append(f"model {m}: wmbe-g {gauge!r} not below the "
                       f"one-pass bound {one!r} on a symmetric model")
    return bad
