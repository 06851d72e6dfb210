"""The software 3D-graphics pipeline (paper sections 2, 4.2 and 5.5).

Vortex follows Larrabee: the rendering pipeline is implemented in software
— geometry processing on the host, tile-based rasterization and fragment
processing as data-parallel work — with only texture sampling accelerated
in hardware through the ``tex`` instruction.  This package implements that
pipeline:

* :mod:`repro.graphics.framebuffer` — color/depth/stencil render targets,
* :mod:`repro.graphics.geometry`   — vertex transform, clipping, viewport,
* :mod:`repro.graphics.tiles`      — tile binning (tile-based rendering),
* :mod:`repro.graphics.raster`     — point/line/triangle rasterization with
  barycentric attribute interpolation,
* :mod:`repro.graphics.fragment`   — depth/stencil/alpha/fog/blend,
* :mod:`repro.graphics.pipeline`   — an OpenGL-ES-style context tying the
  stages together, with texture sampling routed through the same
  :class:`~repro.texture.sampler.TextureSampler` the hardware unit uses.
"""

from repro.graphics.framebuffer import Framebuffer
from repro.graphics.geometry import Vertex, Matrix4, GeometryStage
from repro.graphics.tiles import TileGrid
from repro.graphics.raster import Rasterizer, Fragment, FragmentBatch
from repro.graphics.fragment import FragmentOps, CompareFunc, BlendMode
from repro.graphics.pipeline import GraphicsContext, PrimitiveType

__all__ = [
    "Framebuffer",
    "Vertex",
    "Matrix4",
    "GeometryStage",
    "TileGrid",
    "Rasterizer",
    "Fragment",
    "FragmentBatch",
    "FragmentOps",
    "CompareFunc",
    "BlendMode",
    "GraphicsContext",
    "PrimitiveType",
]
