"""The Module Library (section V.A).

Holds every ``%module`` template (built-ins from
:mod:`repro.moduledb.components` plus any user-loaded library text) and
generates concrete Verilog modules from them by assigning parameter values
-- Step 1 of BANGen ("look up module name i in the Module Library and
extract or generate the corresponding RTL Verilog code").

Besides the raw ``@NAME@`` substitution of the template format, the library
computes *derived* parameters so templates can express bit ranges: any
``FOO_WIDTH = n`` yields ``FOO_MSB = n-1``; master counts yield index
widths; FIFO depths yield pointer widths; ``BIT_DIFFERENCE`` yields the
zero-padding expression of the paper's MBI_SRAM listing.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..hdl.ast import Module
from ..hdl.parser import parse_modules
from .format import ModuleTemplate, TemplateError, parse_library_text

__all__ = ["GeneratedModule", "ModuleLibrary", "default_library", "DEFAULT_PARAMETERS"]

# Per-component default parameter assignments (overridable per generate()).
DEFAULT_PARAMETERS: Dict[str, Dict[str, object]] = {
    "MPC750": {"CPU_A_WIDTH": 32, "CPU_D_WIDTH": 64},
    "MPC755": {"CPU_A_WIDTH": 32, "CPU_D_WIDTH": 64},
    "MPC7410": {"CPU_A_WIDTH": 32, "CPU_D_WIDTH": 64},
    "ARM9TDMI": {"CPU_A_WIDTH": 32, "CPU_D_WIDTH": 64},
    "CBI_MPC750": {"ADDR_WIDTH": 32, "DECODE_LSB": 23, "DATA_WIDTH": 64},
    "CBI_MPC755": {"ADDR_WIDTH": 32, "DECODE_LSB": 23, "DATA_WIDTH": 64},
    "CBI_MPC7410": {"ADDR_WIDTH": 32, "DECODE_LSB": 23, "DATA_WIDTH": 64},
    "CBI_ARM9TDMI": {"ADDR_WIDTH": 32, "DECODE_LSB": 23, "DATA_WIDTH": 64},
    "SRAM_comp": {"MEM_A_WIDTH": 20, "MEM_D_WIDTH": 64},
    "DRAM_comp": {"MEM_A_WIDTH": 22, "MEM_D_WIDTH": 64, "ROW_BITS": 9},
    "MBI_SRAM": {"MEM_A_WIDTH": 20, "MEM_D_WIDTH": 64, "BIT_DIFFERENCE": 0, "DATA_WIDTH": 64},
    "MBI_DRAM": {"MEM_A_WIDTH": 22, "MEM_D_WIDTH": 64, "DATA_WIDTH": 64},
    "BB_GBAVI": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "BB_SPLITBA": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "ARBITER_FCFS": {"N_MASTERS": 4},
    "ARBITER_ROUND_ROBIN": {"N_MASTERS": 4},
    "ARBITER_PRIORITY": {"N_MASTERS": 4},
    "ABI": {"N_MASTERS": 4, "GRANT_CYCLES": 3},
    "GBI_GBAVIII": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "GBI_GBAVI": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "GBI_BFBA": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "GBI_SHARED": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "SB_GBAVI": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "SB_GBAVIII": {"ADDR_WIDTH": 32, "N_MASTERS": 4, "DATA_WIDTH": 64},
    "SB_BFBA": {"ADDR_WIDTH": 32, "DATA_WIDTH": 64},
    "HS_REGS": {"OP_RESET": "1'b0", "RV_RESET": "1'b0", "DATA_WIDTH": 64},
    "HS_REGS_GBAVI": {"OP_RESET": "1'b0", "RV_RESET": "1'b0", "DATA_WIDTH": 64},
    "BIFIFO": {"FIFO_DEPTH": 1024, "DATA_WIDTH": 64},
    "DCT_IP": {"BUF_A_WIDTH": 12, "LATENCY": 64},
    "MPEG2_IP": {"BUF_A_WIDTH": 12, "LATENCY": 128},
    "IPIF": {"BUF_A_WIDTH": 12, "DATA_WIDTH": 64},
}


class GeneratedModule:
    """A concrete module: its Verilog text and parsed structure."""

    def __init__(self, component: str, module: Module, text: str, parameters: Dict[str, object]):
        self.component = component
        self.module = module
        self.text = text
        self.parameters = parameters

    @property
    def name(self) -> str:
        return self.module.name


def _derive_parameters(values: Dict[str, object]) -> Dict[str, object]:
    """Compute the implied parameters templates may reference."""
    out = dict(values)
    if isinstance(out.get("DATA_WIDTH"), int):
        # Data-path lane layout (section V.A): widths >= 64 split into a
        # dh/dl lane pair of DATA_WIDTH/2 each; width 32 is a single dl
        # lane and the dh ports/wires are omitted entirely (%if HAS_DH).
        data_width = out["DATA_WIDTH"]
        has_dh = data_width > 32
        lane_width = data_width // 2 if has_dh else data_width
        out.setdefault("HAS_DH", has_dh)
        out.setdefault("LANE_WIDTH", lane_width)
        out.setdefault("DATA_BUS", "{dh, dl}" if has_dh else "dl")
        out.setdefault("LANE_PAD", lane_width - 2)
        out.setdefault("DATA_PAD", data_width - 2)
        dh_arg = "dh, " if has_dh else ""
        out.setdefault("DH_ARG", dh_arg)
        for prefix in ("G", "SEG", "A", "B"):
            out.setdefault(
                "%s_DH_ARG" % prefix,
                "%s_dh, " % prefix.lower() if has_dh else "",
            )
        for suffix in ("A", "B"):
            out.setdefault(
                "DH_%s_ARG" % suffix,
                "dh_%s, " % suffix.lower() if has_dh else "",
            )
    for key, value in list(out.items()):
        if key.endswith("_WIDTH") and isinstance(value, int):
            out.setdefault(key[: -len("_WIDTH")] + "_MSB", max(0, value - 1))
        elif key == "WIDTH" and isinstance(value, int):
            out.setdefault("WIDTH_MSB", max(0, value - 1))
    if isinstance(out.get("N_MASTERS"), int):
        n = out["N_MASTERS"]
        out.setdefault("N_MASTERS_MSB", max(0, n - 1))
        index_width = max(1, math.ceil(math.log2(max(2, n))))
        out.setdefault("INDEX_WIDTH", index_width)
        out.setdefault("INDEX_MSB", index_width - 1)
    if isinstance(out.get("FIFO_DEPTH"), int):
        depth = out["FIFO_DEPTH"]
        out.setdefault("DEPTH_MSB", max(0, depth - 1))
        pointer_width = max(2, math.ceil(math.log2(max(2, depth))) + 1)
        out.setdefault("PTR_WIDTH", pointer_width)
        out.setdefault("PTR_MSB", pointer_width - 1)
    if "BIT_DIFFERENCE" in out:
        difference = int(out["BIT_DIFFERENCE"])
        out.setdefault("PAD_EXPR", "" if difference == 0 else "%d'b0, " % difference)
    if isinstance(out.get("ROW_BITS"), int) and isinstance(out.get("MEM_A_WIDTH"), int):
        out.setdefault("ROW_LSB", out["ROW_BITS"])
        out.setdefault("ROW_MSB", out["MEM_A_WIDTH"] - out["ROW_BITS"] - 1)
    if isinstance(out.get("DECODE_LSB"), int):
        out.setdefault("DECODE_MSB", out["DECODE_LSB"] + 2)
    return out


class ModuleLibrary:
    """Template registry with lookup, expansion and parsing."""

    def __init__(self, library_text: Optional[str] = None):
        self.templates: Dict[str, ModuleTemplate] = {}
        if library_text:
            self.load_text(library_text)
        self._cache: Dict[Tuple, GeneratedModule] = {}

    # -- registry ---------------------------------------------------------
    def load_text(self, text: str) -> List[str]:
        """Add every %module block in ``text``; returns the new names."""
        new_templates = parse_library_text(text)
        for name, template in new_templates.items():
            if name in self.templates:
                raise TemplateError("library already has a component %r" % name)
            self.templates[name] = template
        return sorted(new_templates)

    def components(self) -> List[str]:
        return sorted(self.templates)

    def __contains__(self, name: str) -> bool:
        return name in self.templates

    def template(self, name: str) -> ModuleTemplate:
        try:
            return self.templates[name]
        except KeyError:
            raise KeyError(
                "Module Library has no component %r (have: %s)"
                % (name, ", ".join(self.components()))
            )

    # -- generation ---------------------------------------------------------
    def generate(
        self,
        component: str,
        module_name: Optional[str] = None,
        **parameters,
    ) -> GeneratedModule:
        """Expand a template into a concrete, parsed Verilog module.

        ``module_name`` names the emitted module (defaults to the component
        name lowercased); remaining keyword arguments assign template
        parameters on top of the component defaults.
        """
        template = self.template(component)
        module_name = module_name or component.lower()
        values: Dict[str, object] = dict(DEFAULT_PARAMETERS.get(component, {}))
        for key, value in parameters.items():
            values[key.upper()] = value
        values = _derive_parameters(values)
        values["MODULE_NAME"] = module_name
        cache_key = (component, module_name, tuple(sorted(values.items())))
        if cache_key in self._cache:
            return self._cache[cache_key]
        text = template.expand(values)
        modules = parse_modules(text)
        if len(modules) != 1:
            raise TemplateError(
                "component %s expanded to %d modules (expected 1)"
                % (component, len(modules))
            )
        generated = GeneratedModule(component, modules[0], text, values)
        self._cache[cache_key] = generated
        return generated


@lru_cache(maxsize=None)
def default_library() -> ModuleLibrary:
    """The built-in Module Library (all components of section V.A): one per
    process, parsed on first use and shared with its expansion cache.  A
    private one is ``ModuleLibrary(ALL_LIBRARY_TEXT)`` (:mod:`.components`)."""
    from .components import ALL_LIBRARY_TEXT

    return ModuleLibrary(ALL_LIBRARY_TEXT)
