"""The Python-source emitter: kernel IR → exec-compilable source text.

This is deliberately the dumbest possible emitter: every specialization
decision was already resolved by the IR transforms, so all that remains is
indentation bookkeeping over :class:`~repro.engine.ir.Line` texts.  The
output is pinned by the golden snapshots under ``tests/engine/golden/``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.ir import Block, Guard, Line, Stmt

_INDENT = "    "


def render(body: Sequence[Stmt]) -> str:
    """Render a fully lowered tree (no Guard nodes) into source text."""
    out: List[str] = []
    _walk(body, 0, out)
    return "\n".join(out) + "\n"


def _walk(body: Sequence[Stmt], depth: int, out: List[str]) -> None:
    for stmt in body:
        if isinstance(stmt, Line):
            out.append(_INDENT * depth + stmt.text)
        elif isinstance(stmt, Block):
            _walk(stmt.body, depth + stmt.indent, out)
        elif isinstance(stmt, Guard):
            raise TypeError(
                f"unlowered {type(stmt).__name__} node reached the emitter; "
                "run repro.engine.ir.lower_kernel first"
            )
        else:  # pragma: no cover - no other statement kinds exist
            raise TypeError(f"unknown IR statement {stmt!r}")
