"""Piece-projected influence graphs.

Each viral piece ``t_j`` "induces a homogeneous influence graph where the
influence probability of edge ``e`` is computed as ``p(t_j, e) = t_j ·
p(e)``" (Sec. V-A).  :class:`PieceGraph` materialises that projection
once per piece — both forward (for cascade simulation) and reverse (for
RR-set sampling) adjacency share the same per-edge probability array, so
the ``t · p(e)`` dot products are computed exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import TopicGraph
from repro.topics.distributions import Campaign, Piece

__all__ = ["PieceGraph", "project_campaign"]


class PieceGraph:
    """One piece's homogeneous influence graph, CSR in both directions.

    Attributes
    ----------
    n:
        Vertex count (same vertex ids as the source graph).
    out_ptr, out_dst, out_prob:
        Forward adjacency; ``out_prob[k]`` is the crossing probability of
        the edge stored at slot ``k``.
    in_ptr, in_src, in_prob:
        Reverse adjacency; ``in_prob[k]`` is the probability of the edge
        *ending* at the indexed vertex (used by reverse BFS sampling).

    The arrays are treated as immutable once the object is built: the
    artifact cache memoises a digest of the out-CSR on the instance
    (:func:`repro.artifacts.piece_graphs_digest`), so edit a copy, never
    the arrays of a live piece graph.
    """

    __slots__ = (
        "n",
        "out_ptr",
        "out_dst",
        "out_prob",
        "in_ptr",
        "in_src",
        "in_prob",
        "_digest",
    )

    def __init__(
        self,
        n: int,
        out_ptr: np.ndarray,
        out_dst: np.ndarray,
        out_prob: np.ndarray,
        in_ptr: np.ndarray,
        in_src: np.ndarray,
        in_prob: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.out_ptr = out_ptr
        self.out_dst = out_dst
        self.out_prob = out_prob
        self.in_ptr = in_ptr
        self.in_src = in_src
        self.in_prob = in_prob
        self._digest: bytes | None = None

    @classmethod
    def project(cls, graph: TopicGraph, piece: "Piece | np.ndarray") -> "PieceGraph":
        """Project ``graph`` onto one piece's topic distribution."""
        vector = piece.vector if isinstance(piece, Piece) else piece
        edge_prob = graph.piece_probabilities(vector)
        return cls(
            graph.n,
            graph.out_ptr,
            graph.out_dst,
            edge_prob,
            graph.in_ptr,
            graph.in_src,
            edge_prob[graph.in_edge],
        )

    @classmethod
    def from_edge_probabilities(
        cls, graph: TopicGraph, edge_prob: np.ndarray
    ) -> "PieceGraph":
        """Wrap explicit per-edge probabilities (canonical edge order).

        Used by the ``IM`` baseline, which flattens the topic vectors into
        a single scalar probability per edge.
        """
        edge_prob = np.asarray(edge_prob, dtype=np.float64)
        if edge_prob.shape != (graph.num_edges,):
            raise ValueError(
                f"edge_prob must have shape ({graph.num_edges},), "
                f"got {edge_prob.shape}"
            )
        return cls(
            graph.n,
            graph.out_ptr,
            graph.out_dst,
            edge_prob,
            graph.in_ptr,
            graph.in_src,
            edge_prob[graph.in_edge],
        )

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.out_dst.size)

    def __repr__(self) -> str:
        return f"PieceGraph(n={self.n}, m={self.num_edges})"


def project_campaign(graph: TopicGraph, campaign: Campaign) -> list[PieceGraph]:
    """Project ``graph`` onto every piece of ``campaign`` (piece order)."""
    return [PieceGraph.project(graph, piece) for piece in campaign]
