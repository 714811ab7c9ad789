"""Shared result container for statistical estimates."""

from dataclasses import dataclass, field


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """A point estimate with uncertainty and provenance.

    half_width is three standard errors unless a method says otherwise, so
    value +/- half_width is a conservative confidence statement.  flags
    carry caveats ("lower_bound", "censored", "nonstationary", ...).
    """

    name: str
    value: float
    half_width: float
    n: int
    method: str = ""
    flags: tuple = ()
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "half_width": self.half_width,
            "n": self.n,
            "method": self.method,
            "flags": list(self.flags),
            "extra": dict(self.extra),
        }
