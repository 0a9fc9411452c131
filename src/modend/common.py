"""Shared exception types and the validation report container."""

from __future__ import annotations

from dataclasses import dataclass, field


class UnknownLabel(KeyError):
    pass


class UnknownName(KeyError):
    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


class UnknownCommand(ValueError):
    pass


class NotATensorSubcategory(ValueError):
    pass


class SourceTargetMismatch(ValueError):
    pass


class InconsistentRigidity(ArithmeticError):
    pass


class OracleMismatch(AssertionError):
    """The end-engine subspace and the direct oracle subspace differ."""


class SerreCertificateFailure(AssertionError):
    pass


class UpsilonMismatch(AssertionError):
    pass


class ValidationError(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass
class ReportEntry:
    check: str
    location: tuple
    detail: str = ""

    def __str__(self):
        loc = ", ".join(str(x) for x in self.location)
        msg = f"{self.check} at ({loc})"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass
class ValidationReport:
    """Accumulated constraint violations; empty means valid."""

    subject: str = ""
    entries: list = field(default_factory=list)

    def add(self, check: str, location: tuple, detail: str = ""):
        self.entries.append(ReportEntry(check, location, detail))

    @property
    def ok(self) -> bool:
        return not self.entries

    def __str__(self):
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.entries)} violation(s)"]
        lines.extend(f"  {e}" for e in self.entries)
        return "\n".join(lines)
