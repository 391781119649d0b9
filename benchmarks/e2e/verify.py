"""Output verification, run after timing.

Each output is checked twice: against an independent oracle for the
optimal score, and by re-scoring the returned gapped strings from first
principles (which also proves they spell the inputs).  Oracles:

* short pairs — full-matrix ``needleman_wunsch`` / ``smith_waterman``, and
  a numpy full-matrix DP for semiglobal (free target ends);
* genome pairs — ``align_score`` (one linear-space sweep);
* search — brute-force ``local_best_cell`` top-K over the whole corpus
  for one query of each type, re-scoring of every hit alignment.

An oracle value is computed once per distinct input and cached.  With
``corrupt=True`` the first oracle value is off by one, so a correct run
must fail: that is ``run.py --self-test``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

import repro
from repro.align.validate import score_gapped
from repro.core.local import local_best_cell

#: Brute-force search checks run on the first this many distinct queries,
#: one of each type (homolog or random x linear or affine).
SEARCH_BRUTE_FORCE = 4


def semiglobal_score(query: str, target: str, scheme) -> int:
    """Full-matrix DP for ``query`` wholly inside ``target`` (linear gaps):
    row 0 is free, the answer is the best cell of the last row."""
    if not scheme.is_linear:
        raise ValueError("the semiglobal oracle handles linear gaps only")
    g = scheme.gap_open
    a = scheme.encode(query)
    b = scheme.encode(target)
    table = scheme.matrix.table
    n = len(b)
    ramp = g * np.arange(n + 1, dtype=np.int64)
    h = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, len(a) + 1):
        t = np.empty(n + 1, dtype=np.int64)
        t[0] = g * i
        t[1:] = np.maximum(h[:-1] + table[a[i - 1], b], h[1:] + g)
        # horizontal gaps: h[j] = max_k t[k] + g*(j-k), a running maximum
        h = np.maximum.accumulate(t - ramp) + ramp
    return int(h.max())


class Verifier:
    def __init__(self, workload: str, corrupt: bool = False) -> None:
        self.workload = workload
        self.corrupt = corrupt
        self.errors: List[str] = []
        self.checked = 0
        self._oracles: Dict[object, object] = {}

    def oracle(self, key, compute: Callable[[], object]):
        if key not in self._oracles:
            value = compute()
            if self.corrupt:
                self.corrupt = False
                value = _off_by_one(value)
            self._oracles[key] = value
        return self._oracles[key]

    def fail(self, op: str, message: str) -> None:
        self.errors.append(f"{self.workload} op {op}: {message}")

    # -- shared checks -------------------------------------------------
    def check_gapped(self, op: str, score: int, gapped_a: str, gapped_b: str,
                     a: str, b: str, scheme) -> None:
        """The gapped strings spell ``a``/``b`` and re-score to ``score``."""
        if gapped_a.replace("-", "") != a or gapped_b.replace("-", "") != b:
            self.fail(op, "gapped strings do not spell the aligned sequences")
            return
        rescored = score_gapped(gapped_a, gapped_b, scheme)
        if rescored != score:
            self.fail(op, f"reported score {score} but the alignment re-scores to {rescored}")

    def expect(self, op: str, what: str, got, want) -> None:
        self.checked += 1
        if got != want:
            self.fail(op, f"{what}: got {got!r}, expected {want!r}")

    # -- per-kind checks -----------------------------------------------
    def global_pair(self, op: str, key, a: str, b: str, scheme, record,
                    full_matrix: bool) -> None:
        score, gapped_a, gapped_b = record
        if full_matrix:
            want = self.oracle(key, lambda: repro.needleman_wunsch(a, b, scheme).score)
        else:
            want = self.oracle(key, lambda: repro.align_score(a, b, scheme))
        self.expect(op, "global score", score, want)
        self.check_gapped(op, score, gapped_a, gapped_b, a, b, scheme)

    def local_pair(self, op: str, key, a: str, b: str, scheme, record) -> None:
        score, a0, a1, b0, b1, gapped_a, gapped_b = record
        want = self.oracle(key, lambda: repro.smith_waterman(a, b, scheme).score)
        self.expect(op, "local score", score, want)
        self.check_gapped(op, score, gapped_a, gapped_b, a[a0:a1], b[b0:b1], scheme)

    def semiglobal_pair(self, op: str, key, a: str, b: str, scheme, record) -> None:
        score, a0, a1, b0, b1, gapped_a, gapped_b = record
        want = self.oracle(key, lambda: semiglobal_score(a, b, scheme))
        self.expect(op, "semiglobal score", score, want)
        self.expect(op, "query range", (a0, a1), (0, len(a)))
        self.check_gapped(op, score, gapped_a, gapped_b, a[a0:a1], b[b0:b1], scheme)

    def search_hits(self, op: str, key, query: str, corpus: List[repro.Sequence], scheme,
                    hits, top_k: int, brute_force: bool) -> None:
        """``hits``: ``(index, score, a0, a1, b0, b1, gapped_a, gapped_b)``
        in rank order.  With ``brute_force`` the ranking is checked against a
        brute-force top-K."""
        ranked = [(h[0], h[1]) for h in hits]
        if ranked != sorted(ranked, key=lambda t: (-t[1], t[0])):
            self.fail(op, "hits are not ranked by (-score, corpus index)")
        if brute_force:
            def top():
                q = repro.Sequence(query)
                scores = [(local_best_cell(q, t, scheme)[0], i) for i, t in enumerate(corpus)]
                best = sorted((-s, i) for s, i in scores if s >= 1)[:top_k]
                return [(i, -s) for s, i in best]

            self.expect(op, "top-K", ranked, self.oracle(key, top))
        for idx, score, a0, a1, b0, b1, gapped_a, gapped_b in hits:
            self.check_gapped(op, score, gapped_a, gapped_b,
                              query[a0:a1], corpus[idx].text[b0:b1], scheme)


def _off_by_one(value):
    if isinstance(value, list) and value:
        (idx, score), rest = value[0], value[1:]
        return [(idx, score + 1)] + rest
    return value + 1
