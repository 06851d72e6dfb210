"""The geometry stage: vertex transform, clipping and the viewport mapping.

In the Vortex system this stage runs on the *host* processor so the
accelerator can spend all of its resources on rasterization (paper
section 5.5); here it is ordinary numpy code operating on
:class:`Vertex` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np


@dataclass
class Vertex:
    """One input vertex: position plus interpolated attributes."""

    position: tuple[float, float, float, float]
    color: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    uv: tuple[float, float] = (0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=np.float64)


@dataclass
class ScreenVertex:
    """A vertex after perspective divide and viewport transform."""

    x: float
    y: float
    z: float  # depth in [0, 1]
    w: float  # original clip-space w (for perspective-correct interpolation)
    color: tuple[float, float, float, float]
    uv: tuple[float, float]


class Matrix4:
    """Column-vector 4x4 transforms used by the vertex stage."""

    @staticmethod
    def identity() -> np.ndarray:
        return np.eye(4, dtype=np.float64)

    @staticmethod
    def translation(x: float, y: float, z: float) -> np.ndarray:
        matrix = np.eye(4, dtype=np.float64)
        matrix[:3, 3] = (x, y, z)
        return matrix

    @staticmethod
    def scale(x: float, y: float, z: float) -> np.ndarray:
        return np.diag((x, y, z, 1.0)).astype(np.float64)

    @staticmethod
    def rotation_z(angle: float) -> np.ndarray:
        matrix = np.eye(4, dtype=np.float64)
        matrix[0, 0] = math.cos(angle)
        matrix[0, 1] = -math.sin(angle)
        matrix[1, 0] = math.sin(angle)
        matrix[1, 1] = math.cos(angle)
        return matrix

    @staticmethod
    def rotation_y(angle: float) -> np.ndarray:
        matrix = np.eye(4, dtype=np.float64)
        matrix[0, 0] = math.cos(angle)
        matrix[0, 2] = math.sin(angle)
        matrix[2, 0] = -math.sin(angle)
        matrix[2, 2] = math.cos(angle)
        return matrix

    @staticmethod
    def perspective(fov_y: float, aspect: float, near: float, far: float) -> np.ndarray:
        """A right-handed perspective projection (OpenGL convention)."""
        if near <= 0 or far <= near:
            raise ValueError("invalid near/far planes")
        f = 1.0 / math.tan(fov_y / 2.0)
        matrix = np.zeros((4, 4), dtype=np.float64)
        matrix[0, 0] = f / aspect
        matrix[1, 1] = f
        matrix[2, 2] = (far + near) / (near - far)
        matrix[2, 3] = (2.0 * far * near) / (near - far)
        matrix[3, 2] = -1.0
        return matrix

    @staticmethod
    def orthographic(left: float, right: float, bottom: float, top: float,
                     near: float = -1.0, far: float = 1.0) -> np.ndarray:
        matrix = np.eye(4, dtype=np.float64)
        matrix[0, 0] = 2.0 / (right - left)
        matrix[1, 1] = 2.0 / (top - bottom)
        matrix[2, 2] = -2.0 / (far - near)
        matrix[0, 3] = -(right + left) / (right - left)
        matrix[1, 3] = -(top + bottom) / (top - bottom)
        matrix[2, 3] = -(far + near) / (far - near)
        return matrix


#: A programmable vertex shader maps one Vertex to clip-space position +
#: attributes; the default shader applies the bound MVP matrix.
VertexShader = Callable[[Vertex, np.ndarray], tuple[np.ndarray, Vertex]]


def default_vertex_shader(vertex: Vertex, mvp: np.ndarray) -> tuple[np.ndarray, Vertex]:
    """Transform the position by the model-view-projection matrix."""
    clip = mvp @ vertex.as_array()
    return clip, vertex


class GeometryStage:
    """Vertex shading, trivial clipping and the viewport transform."""

    def __init__(self, width: int, height: int, shader: VertexShader | None = None):
        self.width = width
        self.height = height
        self.shader = shader or default_vertex_shader
        self.mvp = Matrix4.identity()

    def set_mvp(self, matrix: np.ndarray) -> None:
        self.mvp = np.asarray(matrix, dtype=np.float64)

    # -- per-vertex processing ------------------------------------------------------------

    def process_vertex(self, vertex: Vertex) -> ScreenVertex | None:
        """Run the vertex shader and viewport-map one vertex.

        Returns ``None`` when the vertex lands behind the eye (w <= 0); the
        triangle assembly stage drops primitives containing such vertices
        (near-plane clipping by rejection, documented in DESIGN.md).
        """
        return self.process_vertices([vertex])[0]

    def process_vertices(self, vertices: Sequence[Vertex]) -> list[ScreenVertex | None]:
        """:meth:`process_vertex` over a vertex stream.

        Raises ``ValueError`` naming the first vertex whose clip-space
        position is not finite (a NaN or infinite input position, or a
        matrix that produces one), before any of the stream is drawn.
        """
        screen: list[ScreenVertex | None] = []
        for index, vertex in enumerate(vertices):
            # An invalid or overflowing product is non-finite and raised below.
            with np.errstate(invalid="ignore", over="ignore"):
                clip, attributes = self.shader(vertex, self.mvp)
            if not np.isfinite(clip).all():
                raise ValueError(
                    f"vertex {index}: clip-space position {tuple(clip.tolist())} is not finite"
                )
            w = float(clip[3])
            if w <= 1e-9:
                screen.append(None)
                continue
            ndc = clip[:3] / w
            x = (ndc[0] * 0.5 + 0.5) * (self.width - 1)
            y = (1.0 - (ndc[1] * 0.5 + 0.5)) * (self.height - 1)
            z = ndc[2] * 0.5 + 0.5
            screen.append(
                ScreenVertex(
                    x=float(x), y=float(y), z=float(z), w=w,
                    color=attributes.color, uv=attributes.uv,
                )
            )
        return screen

    def assemble_triangles(
        self, vertices: Sequence[Vertex]
    ) -> list[tuple[ScreenVertex, ScreenVertex, ScreenVertex]]:
        """Process a vertex stream into screen-space triangles.

        Triangles with any rejected vertex, or falling completely outside
        the viewport, are culled here — the clipping role of the geometry
        stage in Figure 2.
        """
        screen = self.process_vertices(vertices)
        triangles = []
        for index in range(0, len(screen) - 2, 3):
            tri = screen[index : index + 3]
            if any(vertex is None for vertex in tri):
                continue
            if self._outside_viewport(tri):
                continue
            triangles.append(tuple(tri))
        return triangles

    def _outside_viewport(self, tri) -> bool:
        xs = [vertex.x for vertex in tri]
        ys = [vertex.y for vertex in tri]
        if max(xs) < 0 or min(xs) > self.width - 1:
            return True
        if max(ys) < 0 or min(ys) > self.height - 1:
            return True
        if all(vertex.z < 0.0 for vertex in tri) or all(vertex.z > 1.0 for vertex in tri):
            return True
        return False
