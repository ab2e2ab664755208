"""The paper's contribution: the tightly-coupled RISC-V + NVDLA SoC.

- :mod:`repro.core.address_map` — the memory map of Fig. 2
  (NVDLA ``0x0–0xFFFFF``, DRAM ``0x100000–0x200FFFFF``, the status
  page), which every layer reads,
- :mod:`repro.core.arbiter` — the DRAM arbiter shared by the core's
  AHB path and NVDLA's DBB,
- :mod:`repro.core.nvdla_wrapper` — the custom wrapper: AHB→APB
  bridge, APB→CSB adapter, AXI 64→32 data-width converter around the
  NVDLA engine,
- :mod:`repro.core.soc` — the SoC top level wiring core, system bus,
  wrapper and memories,
- :mod:`repro.core.executor` — the bare-metal run loop with poll
  fast-forwarding,
- :mod:`repro.core.fastpath` — the fast serving tier: functional
  replay with the bundle's recorded cycle profile,
- :mod:`repro.core.system_builder` — the full ZCU102 test setup of
  Fig. 4 (Zynq preloader, SmartConnect, AXI interconnect, MIG DDR4).

The names below are imported on first use, so importing
:mod:`repro.core.address_map` does not import the SoC: the compiler and
the code generator read the map, and the SoC imports both of them.
"""

from importlib import import_module

#: Public name → the submodule that defines it.
_EXPORTS = {
    "AddressMap": "address_map",
    "DEFAULT_MAP": "address_map",
    "DramArbiter": "arbiter",
    "BaremetalExecutor": "executor",
    "RunStats": "executor",
    "CycleProfile": "fastpath",
    "FastPathExecutor": "fastpath",
    "ResidentStats": "fastpath",
    "calibrate": "fastpath",
    "NvdlaWrapper": "nvdla_wrapper",
    "Soc": "soc",
    "SocRunResult": "soc",
    "TestSystem": "system_builder",
    "ZynqPreloader": "system_builder",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
