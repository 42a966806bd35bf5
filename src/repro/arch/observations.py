"""Contract-level observations (the paper's leakage models).

The constant-time leakage model ⟦·⟧ct exposes the control flow of the
program (``pc``, ``call``, ``ret`` observations) and the addresses of memory
accesses (``load``/``store`` observations), but never the values involved.
The architectural leakage model ⟦·⟧arch additionally exposes computed values
(we model that with ``leak`` observations emitted by the LEAK transmitter
instruction).

Observations carry the crypto tag of the instruction that produced them,
mirroring the ``@kappa`` tags of the paper's formalization; the Cassandra
hardware semantics replays exactly the crypto control-flow sub-trace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence


class ObservationKind(enum.Enum):
    """The kinds of attacker-visible observations in the contract traces."""

    PC = "pc"
    CALL = "call"
    RET = "ret"
    LOAD = "load"
    STORE = "store"
    LEAK = "leak"


#: Observation kinds that constitute control flow (CfObs in the paper).
CONTROL_FLOW_KINDS = frozenset(
    {ObservationKind.PC, ObservationKind.CALL, ObservationKind.RET}
)

#: Observation kinds that constitute memory leakage (MemObs in the paper).
MEMORY_KINDS = frozenset({ObservationKind.LOAD, ObservationKind.STORE})


@dataclass(frozen=True)
class Observation:
    """A single labelled observation in a contract or hardware trace.

    Attributes
    ----------
    kind:
        What is being observed.
    value:
        The observed value: a target PC for control-flow observations, a
        memory address for load/store observations, or the transmitted value
        for ``leak`` observations.
    crypto:
        Whether the producing instruction was tagged as crypto code.
    pc:
        PC of the instruction that produced the observation (useful for
        attributing leaks in tests and attack analyses).
    """

    kind: ObservationKind
    value: int
    crypto: bool = False
    pc: int = -1

    @property
    def is_control_flow(self) -> bool:
        return self.kind in CONTROL_FLOW_KINDS

    @property
    def is_memory(self) -> bool:
        return self.kind in MEMORY_KINDS

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        tag = "@k" if self.crypto else ""
        return f"{self.kind.value} {self.value}{tag}"


def crypto_control_flow_trace(observations: Sequence[Observation]) -> List[Observation]:
    """The paper's crypto control-flow trace C: crypto-tagged CfObs only."""
    return [obs for obs in observations if obs.is_control_flow and obs.crypto]


def ct_trace(observations: Sequence[Observation]) -> List[Observation]:
    """The ⟦·⟧ct leakage: control flow plus memory addresses (no leak values)."""
    return [obs for obs in observations if obs.is_control_flow or obs.is_memory]
