"""Elaboration and lint checks over generated Verilog.

The paper verified generated bus systems by co-simulation in Seamless CVE;
our substitute static check elaborates the design hierarchy and verifies
the structural properties that make the output well-formed:

* every instantiated module is defined (or whitelisted as an external IP
  core, e.g. the MPC755 processor model);
* every named connection targets a real port of the instantiated module;
* no required port is left dangling;
* connected signal widths match the port widths (slices respected);
* every connection expression refers to declared wires/ports;
* no two outputs drive the same wire (multiple-driver check).

Findings are returned as :class:`LintMessage` lists; ``errors_only`` filters
severity.  The generator's tests require zero errors on every preset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .ast import Design, Instance, Module, PortConnection, Range

__all__ = ["LintMessage", "lint_design", "elaborate"]

# IP cores referenced but not generated (definition G: a PE is an IP core,
# not a Module); their port lists are supplied by the Module Library stubs,
# but a design may also reference them as black boxes.
DEFAULT_BLACKBOXES: Set[str] = set()

_SLICE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_$]*)\s*\[\s*(\d+)\s*(?::\s*(\d+)\s*)?\]$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
# Sized/based literals: Verilog base letters are case-insensitive and may
# carry a signed marker (8'HFF, 4'sb1010); rejecting those made
# _expression_width return None and silently skip the width check.
_LITERAL_RE = re.compile(r"^(\d+)?'[sS]?([bdhoBDHO])[0-9a-fA-FxzXZ_]+$|^\d+$")


@dataclass
class LintMessage:
    severity: str  # 'error' | 'warning'
    where: str
    text: str

    def __str__(self) -> str:
        return "[%s] %s: %s" % (self.severity, self.where, self.text)


def _expression_width(module: Module, expression: str) -> Optional[int]:
    """Width of a connection expression, None when undecidable."""
    text = expression.strip()
    if not text:
        return 0
    if text.startswith("{") and text.endswith("}"):
        inner = _split_concat(text[1:-1])
        total = 0
        for piece in inner:
            width = _expression_width(module, piece)
            if width is None:
                return None
            total += width
        return total
    literal = _LITERAL_RE.match(text)
    if literal:
        if "'" in text:
            size = text.split("'")[0]
            return int(size) if size else None
        return None  # unsized decimal literal
    sliced = _SLICE_RE.match(text)
    if sliced:
        name, msb, lsb = sliced.group(1), int(sliced.group(2)), sliced.group(3)
        base = module.signal_width(name)
        if base is None:
            return None
        if lsb is None:
            return 1
        return abs(msb - int(lsb)) + 1
    if _IDENT_RE.match(text):
        return module.signal_width(text)
    return None  # complex expression: width not checked


def _split_concat(text: str) -> List[str]:
    pieces: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "," and depth == 0:
            pieces.append(current)
            current = ""
            continue
        if char in "({[":
            depth += 1
        elif char in ")}]":
            depth -= 1
        current += char
    if current.strip():
        pieces.append(current)
    return [p.strip() for p in pieces]


def _referenced_signals(expression: str) -> List[str]:
    """Identifiers appearing in a connection expression."""
    cleaned = re.sub(r"\d+'[sS]?[bdhoBDHO][0-9a-fA-FxzXZ_]+", " ", expression)
    return [
        match
        for match in re.findall(r"[A-Za-z_][A-Za-z0-9_$]*", cleaned)
        if match not in ("b", "d", "h", "o", "B", "D", "H", "O")
    ]


def lint_design(
    design: Design,
    blackboxes: Optional[Set[str]] = None,
) -> List[LintMessage]:
    """Run all structural checks; returns the full message list."""
    blackboxes = set(blackboxes or DEFAULT_BLACKBOXES)
    messages: List[LintMessage] = []
    for module in design.modules.values():
        messages.extend(_lint_module(design, module, blackboxes))
    if design.top and design.top not in design.modules:
        messages.append(
            LintMessage("error", "design", "top module %r is not defined" % design.top)
        )
    return messages


def _lint_module(design: Design, module: Module, blackboxes: Set[str]) -> List[LintMessage]:
    messages: List[LintMessage] = []
    where = "module %s" % module.name

    # Duplicate declarations.
    seen: Set[str] = set()
    for port in module.ports:
        if port.name in seen:
            messages.append(
                LintMessage("error", where, "duplicate port %r" % port.name)
            )
        seen.add(port.name)
    for wire in module.wires:
        if wire.name in seen:
            messages.append(
                LintMessage("error", where, "wire %r shadows another signal" % wire.name)
            )
        seen.add(wire.name)

    drivers: Dict[str, List[str]] = {}

    for assign in module.assigns:
        lhs = assign.target.strip()
        if lhs.startswith("{") and lhs.endswith("}"):
            pieces = _split_concat(lhs[1:-1])
        else:
            pieces = [lhs]
        for piece in pieces:
            target = piece.split("[")[0].strip()
            if target and module.signal_width(target) is None:
                messages.append(
                    LintMessage(
                        "error", where, "assign drives undeclared signal %r" % target
                    )
                )
        drivers.setdefault(lhs, []).append("assign")

    for instance in module.instances:
        messages.extend(
            _lint_instance(design, module, instance, blackboxes, drivers)
        )

    for target, sources in drivers.items():
        if len(sources) > 1 and target:
            messages.append(
                LintMessage(
                    "error",
                    where,
                    "signal %r has %d drivers (%s)"
                    % (target, len(sources), ", ".join(sources)),
                )
            )
    return messages


def _lint_instance(
    design: Design,
    parent: Module,
    instance: Instance,
    blackboxes: Set[str],
    drivers: Dict[str, List[str]],
) -> List[LintMessage]:
    messages: List[LintMessage] = []
    where = "module %s / instance %s" % (parent.name, instance.name)

    if instance.module in blackboxes:
        target: Optional[Module] = None
    elif instance.module in design.modules:
        target = design.modules[instance.module]
    else:
        return [
            LintMessage(
                "error",
                where,
                "instantiates undefined module %r" % instance.module,
            )
        ]

    connected: Set[str] = set()
    for connection in instance.connections:
        if connection.port in connected:
            messages.append(
                LintMessage("error", where, "port %r connected twice" % connection.port)
            )
        connected.add(connection.port)

        for signal in _referenced_signals(connection.expression):
            if parent.signal_width(signal) is None:
                messages.append(
                    LintMessage(
                        "error",
                        where,
                        "connection .%s(%s) references undeclared signal %r"
                        % (connection.port, connection.expression, signal),
                    )
                )

        if target is None:
            continue
        port = target.port(connection.port)
        if port is None:
            messages.append(
                LintMessage(
                    "error",
                    where,
                    "module %s has no port %r" % (instance.module, connection.port),
                )
            )
            continue
        width = _expression_width(parent, connection.expression)
        if width is not None and width != port.width and connection.expression.strip():
            messages.append(
                LintMessage(
                    "error",
                    where,
                    "width mismatch on .%s: port is %d bits, expression %r is %d"
                    % (connection.port, port.width, connection.expression, width),
                )
            )
        if port.direction == "output":
            expr = connection.expression.strip()
            if expr:
                drivers.setdefault(expr, []).append(
                    "%s.%s" % (instance.name, connection.port)
                )

    if target is not None:
        for port in target.ports:
            if port.name not in connected and port.direction != "inout":
                messages.append(
                    LintMessage(
                        "warning",
                        where,
                        "port %r of %s left dangling" % (port.name, instance.module),
                    )
                )
    return messages


def elaborate(design: Design, top: Optional[str] = None) -> Dict[str, int]:
    """Walk the hierarchy from ``top``; returns instance counts per module.

    Raises ``KeyError`` on undefined non-blackbox modules, which the tests
    use as a hard structural check.
    """
    top = top or design.top
    if top is None:
        raise ValueError("no top module given")
    counts: Dict[str, int] = {}
    # Depth-first, in instance order, with an explicit stack: a recursive
    # closure would be a reference cycle holding the whole design until
    # the collector's next full pass.
    stack = [top]
    while stack:
        name = stack.pop()
        counts[name] = counts.get(name, 0) + 1
        module = design.modules.get(name)
        if module is not None:
            stack.extend(reversed([instance.module for instance in module.instances]))
    return counts
