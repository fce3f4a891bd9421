"""numpy-backed Howell reduction for large mod-N constraint streams.

Internal helper: rows are accumulated through a fast vectorized sweep and
then canonicalized with the pure-Python Howell routine, so results are
bit-identical to `linalg.howell_rows` on the same span.  Only valid for
moduli small enough that intermediate products fit in int64.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import howell_rows, stab_unit, xgcd

_MAX_MODULUS = 1 << 20


class HowellAccumulator:
    """Incrementally reduces a stream of rows mod N, keeping a small basis."""

    def __init__(self, modulus):
        if modulus > _MAX_MODULUS:
            raise ValidationError(f"modulus {modulus} too large for the fast path")
        self.n = int(modulus)
        self.rows = {}  # pivot column -> np.int64 row

    def _insert_slow(self, vec):
        n = self.n
        while True:
            nz = np.flatnonzero(vec)
            if len(nz) == 0:
                return
            p = int(nz[0])
            if p not in self.rows:
                u = stab_unit(int(vec[p]), n)
                if u != 1:
                    vec = (u * vec) % n
                self.rows[p] = vec
                return
            cur = self.rows[p]
            cp, vp = int(cur[p]), int(vec[p])
            if vp % cp == 0:
                vec = (vec - (vp // cp) * cur) % n
            else:
                g, s, t = xgcd(cp, vp)
                new_cur = (s * cur + t * vec) % n
                vec = ((-(vp // g)) * cur + (cp // g) * vec) % n
                u = stab_unit(int(new_cur[p]), n)
                if u != 1:
                    new_cur = (u * new_cur) % n
                self.rows[p] = new_cur

    def ingest(self, chunk):
        """Reduce and absorb a 2-D int64 array of rows (mod N)."""
        n = self.n
        chunk = np.asarray(chunk, dtype=np.int64) % n
        chunk = chunk[chunk.any(axis=1)]
        if chunk.size:
            chunk = np.unique(chunk, axis=0)
        while chunk.size:
            for p in sorted(self.rows):
                row = self.rows[p]
                q = chunk[:, p] // int(row[p])
                nz = np.nonzero(q)[0]
                if nz.size:
                    chunk[nz] = (chunk[nz] - q[nz, None] * row[None, :]) % n
            chunk = chunk[chunk.any(axis=1)]
            if not chunk.size:
                break
            # establish or refine pivots in small batches, then re-sweep
            take = min(len(chunk), 32)
            for i in range(take):
                self._insert_slow(chunk[i].copy())
            chunk = chunk[take:]

    def canonical_rows(self):
        """Exact canonical Howell form of everything ingested so far."""
        rows = [self.rows[p].tolist() for p in sorted(self.rows)]
        return howell_rows(rows, self.n)


def kernel_mod_fast(rows, modulus):
    """Generators of the right kernel {x : M x = 0 over Z/N} (numpy path)."""
    if not rows:
        return []
    mat = np.asarray(rows, dtype=np.int64)
    r, c = mat.shape
    aug = np.concatenate([mat.T, np.eye(c, dtype=np.int64)], axis=1)
    acc = HowellAccumulator(modulus)
    acc.ingest(aug)
    out = []
    for row in acc.canonical_rows():
        if not any(row[:r]):
            out.append(row[r:])
    return out
