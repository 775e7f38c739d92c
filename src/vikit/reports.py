"""Pass/fail records produced by the inequality checkers.

A report measures violations as *slack deficits*: for a required inequality
``lhs >= rhs`` checked with tolerance ``tol``, the deficit is
``rhs - lhs - tol``.  The check passes iff the largest deficit is <= 0, so
``max_violation <= 0`` exactly characterizes a passing report.  The exact
pairwise checkers in ``operators`` take the deficit of a quadratic form at its
minimizing unit direction, -lambda_min(Q) - tol; ``pairwise_report`` builds a
report from deficits measured on sampled pairs instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PASS = "Pass"
FAIL = "Fail"
PRECONDITION_VIOLATED = "PreconditionViolated"


@dataclass(frozen=True)
class VerificationReport:
    property: str
    status: str
    witness: tuple[np.ndarray, np.ndarray] | None = None
    samples_used: int = 0
    max_violation: float = 0.0
    seed: int | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        """JSON-ready form; field names are part of the external interface."""
        witness = None
        if self.witness is not None:
            witness = [np.asarray(w, dtype=float).tolist() for w in self.witness]
        return {
            "property": self.property,
            "status": self.status,
            "witness": witness,
            "samples_used": int(self.samples_used),
            "max_violation": float(self.max_violation) if np.isfinite(self.max_violation) else None,
            "seed": self.seed,
            "note": self.note,
        }


def pairwise_report(
    name: str,
    deficits: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    seed: int | None = None,
) -> VerificationReport:
    """Build a report from per-pair slack deficits.

    ``deficits`` may stack several inequalities per pair; it must have shape
    (m * k,) for k pairs, with pair index = flat index mod k.  The witness is
    the first violating pair in sample order.
    """
    deficits = np.asarray(deficits, dtype=float)
    k = xs.shape[0]
    max_violation = float(np.max(deficits))
    bad = np.nonzero(deficits > 0.0)[0]
    if bad.size:
        first = int(np.min(bad % k))
        witness = (xs[first].copy(), ys[first].copy())
        status = FAIL
    else:
        witness = None
        status = PASS
    return VerificationReport(
        property=name,
        status=status,
        witness=witness,
        samples_used=k,
        max_violation=max_violation,
        seed=seed,
    )
