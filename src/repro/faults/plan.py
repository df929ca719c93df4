"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultSpec` rules.
Rules come in three families:

* **message rules** (``drop``, ``duplicate``, ``delay``, ``reorder``) —
  applied per delivery inside an active ``[start, end)`` window, gated
  by ``probability`` and optional ``category``/``src``/``dst`` filters;
* **node events** (``crash``, ``recover``) — fire once ``at`` a virtual
  time against an explicit ``nodes`` tuple or every current member of a
  ``region``;
* **partitions** (``partition``) — between ``start`` and ``end`` every
  transmission crossing the boundary of the named ``regions`` group is
  silently lost (the "heal" is the window end; ``end=None`` never
  heals).

Plans are plain frozen dataclasses: hashable, picklable (so sweeps can
fan faulted cells out over process pools), and serializable to/from
dicts, JSON, and compact CLI expressions::

    drop:p=0.1,start=100,end=400,category=request
    delay:delay=0.05,p=0.5
    crash:at=200,nodes=3+7+9
    partition:start=100,end=200,regions=0+1

Semantics of each rule kind are documented in
:mod:`repro.faults.injectors`; this module is pure data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["FaultPlan", "FaultSpec", "MESSAGE_KINDS", "NODE_KINDS", "PARTITION_KINDS"]

#: Per-delivery message fault kinds.
MESSAGE_KINDS = frozenset({"drop", "duplicate", "delay", "reorder"})
#: One-shot node liveness events.
NODE_KINDS = frozenset({"crash", "recover"})
#: Windowed connectivity faults.
PARTITION_KINDS = frozenset({"partition"})

ALL_KINDS = MESSAGE_KINDS | NODE_KINDS | PARTITION_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule.  Only the fields relevant to ``kind`` are used."""

    #: One of :data:`ALL_KINDS`.
    kind: str
    #: Window start (message rules, partitions), virtual seconds.
    start: float = 0.0
    #: Window end (exclusive); None = until the end of the run.
    end: Optional[float] = None
    #: Chance a matching delivery is affected (1.0 = deterministic).
    probability: float = 1.0
    #: Restrict a message rule to one packet category (None = all).
    category: Optional[str] = None
    #: Restrict a message rule to one sender (None = all).
    src: Optional[int] = None
    #: Restrict a message rule to one receiver (None = all).
    dst: Optional[int] = None
    #: ``delay``: deterministic extra latency (s).  ``reorder``: the
    #: jitter window — each affected delivery is shifted by a uniform
    #: draw in ``[0, delay_s)``, permuting arrival order.
    delay_s: float = 0.0
    #: ``duplicate``: extra copies delivered per affected transmission.
    copies: int = 1
    #: ``crash``/``recover``: the virtual time the event fires.
    at: Optional[float] = None
    #: ``crash``/``recover``: explicit target node ids.
    nodes: Tuple[int, ...] = ()
    #: ``crash``/``recover``: target every current live member of this
    #: region instead (resolved when the event fires).
    region: Optional[int] = None
    #: ``partition``: the isolated region group — transmissions whose
    #: endpoints straddle the group boundary are lost.
    regions: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        for name in ("start", "end", "at"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite time >= 0, got {value}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"empty fault window [{self.start}, {self.end})")
        # Normalize sequences so specs hash/pickle/compare reliably.
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        object.__setattr__(self, "regions", tuple(int(r) for r in self.regions))
        if self.kind in ("delay", "reorder") and self.delay_s <= 0.0:
            raise ValueError(f"{self.kind} rule requires delay_s > 0")
        if self.kind == "duplicate" and self.copies < 1:
            raise ValueError(f"duplicate rule requires copies >= 1, got {self.copies}")
        if self.kind in NODE_KINDS:
            if self.at is None:
                raise ValueError(f"{self.kind} rule requires at=<time>")
            if not self.nodes and self.region is None:
                raise ValueError(f"{self.kind} rule requires nodes=... or region=...")
        if self.kind == "partition" and not self.regions:
            raise ValueError("partition rule requires regions=...")

    # -- matching --------------------------------------------------------

    def active(self, now: float) -> bool:
        """Is the rule's window open at virtual time ``now``?"""
        return self.start <= now < (self.end if self.end is not None else math.inf)

    def matches(self, now: float, src: int, dst: int, category: str) -> bool:
        """Does a delivery fall under this message rule?"""
        if not self.active(now):
            return False
        if self.category is not None and category != self.category:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form with default-valued fields elided."""
        defaults = FaultSpec.__dataclass_fields__
        out: Dict[str, Any] = {"kind": self.kind}
        for name, value in asdict(self).items():
            if name == "kind":
                continue
            default = defaults[name].default
            if value != default:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of fault rules."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultPlan entries must be FaultSpec, got {spec!r}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    # -- views -----------------------------------------------------------

    @property
    def message_rules(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind in MESSAGE_KINDS)

    @property
    def node_events(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind in NODE_KINDS)

    @property
    def partitions(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind in PARTITION_KINDS)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Union[Mapping, Sequence]) -> "FaultPlan":
        """Build a plan from ``{"specs": [...]}`` or a bare spec list."""
        entries = data.get("specs", []) if isinstance(data, Mapping) else data
        specs = []
        for entry in entries:
            entry = dict(entry)
            for name in ("nodes", "regions"):
                if name in entry:
                    entry[name] = tuple(entry[name])
            specs.append(FaultSpec(**entry))
        return cls(tuple(specs))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- compact CLI expressions ----------------------------------------

    #: Short parameter aliases accepted by :meth:`parse`.
    _ALIASES = {
        "p": "probability",
        "prob": "probability",
        "cat": "category",
        "delay": "delay_s",
        "window": "delay_s",
    }
    _INT_FIELDS = frozenset({"src", "dst", "copies", "region"})
    _FLOAT_FIELDS = frozenset({"start", "end", "probability", "delay_s", "at"})
    _SEQ_FIELDS = frozenset({"nodes", "regions"})

    @classmethod
    def parse_spec(cls, expr: str) -> FaultSpec:
        """Parse one compact expression, e.g. ``drop:p=0.1,end=400``."""
        kind, _, rest = expr.strip().partition(":")
        kind = kind.strip()
        if kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {expr!r} "
                f"(expected one of {sorted(ALL_KINDS)})"
            )
        kwargs: Dict[str, Any] = {}
        for item in filter(None, (part.strip() for part in rest.split(","))):
            name, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(f"malformed parameter {item!r} in {expr!r}")
            name = cls._ALIASES.get(name.strip(), name.strip())
            raw = raw.strip()
            if name in cls._SEQ_FIELDS:
                kwargs[name] = tuple(int(v) for v in raw.split("+") if v)
            elif name in cls._INT_FIELDS:
                kwargs[name] = int(raw)
            elif name in cls._FLOAT_FIELDS:
                kwargs[name] = float(raw)
            elif name == "category":
                kwargs[name] = raw
            else:
                raise ValueError(f"unknown parameter {name!r} in {expr!r}")
        return FaultSpec(kind=kind, **kwargs)

    @classmethod
    def parse(cls, exprs: Sequence[str]) -> "FaultPlan":
        """Parse a sequence of compact expressions into a plan."""
        return cls(tuple(cls.parse_spec(expr) for expr in exprs))

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        if not self.specs:
            return "FaultPlan(empty)"
        lines: List[str] = []
        for spec in self.specs:
            params = ", ".join(
                f"{k}={v}" for k, v in spec.to_dict().items() if k != "kind"
            )
            lines.append(f"  {spec.kind:<10} {params}")
        return "FaultPlan:\n" + "\n".join(lines)
