"""Certificate and run reports shared by every verifier.

A certificate collects one row per checked identity.  Rows and whole
reports merge by one rule, `merge_verdicts`: a row is "verified" when its
identity reduced to zero, "refuted_with_witness" when it definitely did
not, and "inconclusive" otherwise; a merge is refuted when any part is,
verified only when there is a part and every part is verified, and
"inconclusive" otherwise, so a merge of nothing is never verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VERIFIED = "verified"
REFUTED = "refuted_with_witness"
INCONCLUSIVE = "inconclusive"


@dataclass(slots=True)
class IdentityCheck:
    label: str
    polynomial: str
    reduced_to_zero: bool
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "polynomial": self.polynomial,
            "reduced_to_zero": self.reduced_to_zero,
            "inconclusive": self.inconclusive,
        }


def rows_verdict(identities: list[IdentityCheck]) -> str:
    """Verdict of a certificate with exactly these rows."""
    return merge_verdicts(INCONCLUSIVE if c.inconclusive else
                          VERIFIED if c.reduced_to_zero else REFUTED for c in identities)


@dataclass
class CertificateReport:
    claim: str
    identities: list[IdentityCheck]
    verdict: str
    details: dict = field(default_factory=dict)

    @classmethod
    def from_identities(cls, claim: str, identities, details=None) -> "CertificateReport":
        identities = list(identities)
        return cls(claim, identities, rows_verdict(identities), dict(details or {}))

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "verdict": self.verdict,
            "identities": [c.to_dict() for c in self.identities],
        }
        if self.details:
            out["details"] = _jsonable(self.details)
        return out

    def summary_lines(self) -> list[str]:
        """Claim, row tally, every row that did not reduce, details (a missing
        one as `null`, as in JSON), verdict."""
        ok = sum(1 for c in self.identities if c.reduced_to_zero)
        lines = [self.claim,
                 f"  identities: {ok}/{len(self.identities)} reduced to zero"]
        for c in self.identities:
            if not c.reduced_to_zero:
                tag = "inconclusive" if c.inconclusive else "FAIL"
                lines.append(f"  [{tag}] {c.label}: {c.polynomial}")
        for key in sorted(self.details):
            value = self.details[key]
            lines.append(f"  {key}: {'null' if value is None else value}")
        lines.append(f"  verdict: {self.verdict}")
        return lines


def merge_verdicts(verdicts) -> str:
    """Refuted if any part is, verified if every part is and there is one;
    no parts at all show nothing, so they are inconclusive."""
    verdicts = set(verdicts)
    if REFUTED in verdicts:
        return REFUTED
    return VERIFIED if verdicts == {VERIFIED} else INCONCLUSIVE


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class RunReport:
    """Top-level payload emitted by a CLI invocation."""

    command: list[str]
    config: dict
    reports: list
    verdict: str
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": list(self.command),
            "config": _jsonable(self.config),
            "reports": [r.to_dict() for r in self.reports],
            "verdict": self.verdict,
            "wall_time_s": self.wall_time_s,
        }
