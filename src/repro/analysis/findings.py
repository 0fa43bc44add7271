"""Lint findings: the structured unit both the CLI and tests consume."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict

#: Recognised severities, most severe first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored as given to the linter (relative paths in, relative
    paths out).
    """

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    function: str = ""
    #: line of the enclosing ``def`` (0 = not inside a kernel function);
    #: a ``# repro: noqa[...]`` on that line suppresses the whole kernel.
    def_line: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        tail = f" (hint: {self.hint})" if self.hint else ""
        return f"{where}: [{self.rule_id}] {self.severity}: {self.message}{tail}"

    def render_github(self) -> str:
        """One GitHub Actions workflow-command annotation line."""
        level = "error" if self.severity == "error" else "warning"
        return (f"::{level} file={self.path},line={self.line},"
                f"col={self.col},title={self.rule_id}::{self.message}")
