"""Algorithm 3: one-pass c-approximation for insertion-deletion streams (§5).

Two l0-sketch strategies run in parallel (``x = max(n/c, sqrt(n))``):

- **Vertex sampling** — pre-sample ``~x ln n`` A-vertices; for each, a
  ``k_v = (d/c) ln n``-sample l0 sketch over its incident-edge vector
  (dim m). Wins when there are ``>= n/x`` vertices of degree ``>= d/c``
  (Lemma 5.2).
- **Edge sampling** — one ``k_e = (nd/c)(1/x + 1/c) ln(nm)``-sample l0
  sketch over the whole edge vector (dim n*m). Wins otherwise: few
  heavy vertices means few total edges, so a Delta-degree vertex owns a
  large fraction of them (Lemma 5.3).

The paper draws ``k`` independent samples with replacement; a
k-sample sketch (:class:`repro.core.l0_sampler.L0SamplerBank`) returns
a uniform subset of ``min(k, |support|)`` distinct edges, which has at
least as many distinct elements (DESIGN.md §2), so both lemmas carry
over. Each update touches three cells per bank instead of ``k``. The
vertex bank holds every sampled vertex's sketch in one array and takes
a whole batch in one update, each edge addressed to its vertex's block.

Output: any stored neighborhood of size ``>= d/c``, else fail.

The paper's constant ``10`` in the sample counts is a proof artifact;
the counts below use 1 and EXPERIMENTS.md records the choice (shape,
not constants, is what reproduces).

Sketches are linear, so the whole state is mergeable; process_batch
order is irrelevant — which is exactly why this algorithm survives
deletions where Algorithm 2's degree counting does not. A batch is
rejected by :func:`repro.streamsim.stream.check_batch`, before anything
is hashed, unless ``0 <= a < n``, ``0 <= b < m`` and ``op`` is ``+1``
or ``-1``.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd

from repro.core.l0_sampler import L0SamplerBank
from repro.streamsim.stream import check_batch


class InsertionDeletionND:
    """Sequential/mergeable Algorithm 3 processor."""

    def __init__(self, n: int, m: int, d: int, c: int, seed: int = 0) -> None:
        if c < 1:
            raise ValueError("c must be >= 1")
        self.n, self.m, self.d, self.c = n, m, d, c
        self.d_c = max(1, d // c)
        self.x = max(n / c, math.sqrt(n))
        ln_n = math.log(max(n, 3))
        ln_nm = math.log(max(n * m, 3))
        rng = np.random.default_rng(seed)
        n_sampled = min(n, math.ceil(self.x * ln_n))
        self.sampled_vertices = np.sort(rng.choice(n, size=n_sampled, replace=False))
        self.k_v = max(1, math.ceil((d / c) * ln_n))
        self.vertex_bank = L0SamplerBank(self.k_v, dim=m, seed=seed + 1, blocks=n_sampled)
        self.k_e = max(1, math.ceil((n * d / c) * (1 / self.x + 1 / c) * ln_nm))
        self.edge_bank = L0SamplerBank(self.k_e, dim=n * m, seed=seed + 2)

    # ------------------------------------------------------------------ #

    def process_batch(self, batch: pd.DataFrame) -> None:
        a, b, op = check_batch(batch, self.n, self.m, insertion_only=False)
        self.edge_bank.update(a * self.m + b, op)
        # each sampled vertex owns one block of the vertex bank
        slot = np.searchsorted(self.sampled_vertices, a)
        hit = self.sampled_vertices[np.minimum(slot, len(self.sampled_vertices) - 1)] == a
        self.vertex_bank.update_blocks(b[hit], op[hit], slot[hit])

    # ------------------------------------------------------------------ #

    def vertex_neighborhoods(self) -> dict[int, set[int]]:
        """Distinct edges the vertex-sampling strategy recovered, by A-vertex."""
        nbrs: dict[int, set[int]] = {}
        rec = self.vertex_bank.sample_all()
        slot = np.flatnonzero(rec >= 0)
        for v, coord in zip(self.sampled_vertices[slot // self.k_v].tolist(), rec[slot].tolist()):
            nbrs.setdefault(v, set()).add(coord)
        return nbrs

    def neighborhoods(self) -> dict[int, set[int]]:
        """Distinct recovered edges grouped by A-vertex, both strategies."""
        nbrs = self.vertex_neighborhoods()
        rec = self.edge_bank.sample_all()
        for coord in rec[rec >= 0].tolist():
            nbrs.setdefault(coord // self.m, set()).add(coord % self.m)
        return nbrs

    def result(self) -> Optional[tuple[int, set[int]]]:
        """Largest stored neighborhood if it reaches ``d/c``, else None."""
        nbrs = self.neighborhoods()
        if not nbrs:
            return None
        v, bs = max(nbrs.items(), key=lambda kv: (len(kv[1]), -kv[0]))
        if len(bs) < self.d_c:
            return None
        return v, bs

    def succeeded(self) -> bool:
        return self.result() is not None

    def space_words(self) -> int:
        return (
            self.vertex_bank.space_words()
            + self.edge_bank.space_words()
            + len(self.sampled_vertices)
        )

    def merge(self, other: "InsertionDeletionND") -> "InsertionDeletionND":
        """Combine states built on disjoint substreams (linearity)."""
        self.vertex_bank.merge(other.vertex_bank)
        self.edge_bank.merge(other.edge_bank)
        return self
