"""NVDLA sub-unit register models.

One module per hardware block, mirroring the NVDLA unit inventory:

==========  ====================================================
GLB         interrupt controller + hardware version
MCIF        external-memory interface (DBB side, shared)
BDMA        bulk data mover
CDMA        convolution DMA (feature/weight fetch into CBUF)
CSC         convolution sequence controller
CMAC_A/B    multiply-accumulate array halves
CACC        convolution accumulator
SDP(+RDMA)  single-point processor: bias/BN/eltwise/ReLU/requant
PDP(+RDMA)  planar processor: pooling
CDP(+RDMA)  channel processor: LRN
RUBIK       tensor reshape
==========  ====================================================

Each module declares the unit's register list and a ``parse`` function
that turns the shadow registers of one ping-pong group into a typed
descriptor from :mod:`repro.nvdla.descriptors`.
"""

from repro.nvdla.units import cacc, cdma, cdp, cmac, csc, pdp, sdp
from repro.nvdla.units.base import Unit, parse_tensor

__all__ = ["Unit", "fresh_units", "parse_tensor"]


def fresh_units() -> dict[str, Unit]:
    """A standalone register file per unit a layer chain programs."""
    return {
        "CDMA": cdma.make_unit(),
        "CSC": csc.make_unit(),
        "CMAC_A": cmac.make_unit("A"),
        "CMAC_B": cmac.make_unit("B"),
        "CACC": cacc.make_unit(),
        "SDP_RDMA": sdp.make_rdma_unit(),
        "SDP": sdp.make_unit(),
        "PDP_RDMA": pdp.make_rdma_unit(),
        "PDP": pdp.make_unit(),
        "CDP_RDMA": cdp.make_rdma_unit(),
        "CDP": cdp.make_unit(),
    }
