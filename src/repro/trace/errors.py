"""Typed validation errors shared by trace generators and scenario specs.

Both the classic :class:`~repro.trace.generators.base.TraceParams`
validation and the declarative scenario schema
(:mod:`repro.scenarios.schema`) raise the same exception type, so
callers — the CLI and the campaign engine — can handle
bad workload parameters uniformly regardless of whether the workload
came from a hand-written generator or a JSON spec.
"""

from __future__ import annotations

__all__ = ["SpecError"]


class SpecError(ValueError):
    """A workload parameter or spec field failed validation.

    Attributes:
        path: Dotted path of the offending field, using ``[i]`` for list
            indices — e.g. ``phases[2].params.table_lines`` — so the
            error is actionable even for deeply nested specs.
        reason: What was wrong with the value.
    """

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")
