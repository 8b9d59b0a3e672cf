"""Pass/fail outcome records produced by the invariant check suites.

Every audit reduces an invariant to one margin, oriented so that larger is
safer, and this module alone turns margins into verdicts: an outcome
PASSes exactly when its margin is >= 0, so a NaN margin FAILs.  worst()
folds the margins of an audit into its worst one; NaN propagates through
the fold, so a NaN anywhere in an audit fails it; running_worst() is the
same fold taken as a running minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate


def worst(margins):
    """The worst of margins, as a (margin, detail) pair.

    Each item is a margin or a (margin, detail) pair.  The worst is the
    smallest, except that NaN is worse than any number; ties keep the
    first.  Empty input gives (+inf, ""): nothing was checked, nothing
    failed.
    """
    out = None
    for item in margins:
        m, detail = item if isinstance(item, tuple) else (item, "")
        m = float(m)
        if out is None or m < out[0] or (math.isnan(m) and not math.isnan(out[0])):
            out = (m, detail)
    return out or (math.inf, "")


def running_worst(values):
    """Running worst of values, folded by worst's rule: once a NaN appears it stays."""
    return accumulate(values, lambda a, b: worst((a, b))[0])


@dataclass(frozen=True)
class CheckOutcome:
    """One verified invariant: PASS exactly when margin >= 0, so NaN fails.

    margin is oriented so that larger is safer; the failing direction is
    negative.  detail carries the instance that produced the worst margin.
    """

    name: str
    margin: float
    detail: str = ""

    @property
    def passed(self):
        return self.margin >= 0.0


@dataclass
class CheckReport:
    outcomes: list[CheckOutcome] = field(default_factory=list)

    def add(self, name, margin, detail=""):
        self.outcomes.append(CheckOutcome(name, float(margin), detail))

    @property
    def all_passed(self):
        return all(o.passed for o in self.outcomes)

    def lines(self):
        out = []
        for o in self.outcomes:
            tag = "PASS" if o.passed else "FAIL"
            line = f"[{tag}] {o.name}: worst margin {o.margin:.3e}"
            if o.detail:
                line += f" ({o.detail})"
            out.append(line)
        return out
