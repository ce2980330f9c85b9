"""Sequence similarity: the BLAST/FASTA stand-in.

The paper treats BLAST and FASTA as black boxes reachable through drivers and
as the origin of GenBank's precomputed "links to homologous sequences".  Here
the same roles are filled by:

* :func:`align_local` — Smith–Waterman local alignment (score + aligned span),
* :func:`kmer_prefilter` — a shared-k-mer count used to avoid aligning every
  pair (the heuristic seed step of BLAST-like tools),
* :func:`similarity_search` — query one sequence against a library, returning
  scored hits above a threshold.  The GenBank builder uses it to mint
  NA-Links; the ``blast`` Kleisli driver exposes it as an application program.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

__all__ = ["AlignmentResult", "align_local", "kmer_prefilter", "similarity_search", "SimilarityHit"]


class AlignmentResult(NamedTuple):
    score: int
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    identity: float


class SimilarityHit(NamedTuple):
    subject_id: str
    score: int
    identity: float
    kmer_hits: int


def align_local(query: str, subject: str, match: int = 2, mismatch: int = -1,
                gap: int = -2) -> AlignmentResult:
    """Smith–Waterman local alignment with linear gap penalties.

    Returns the best local score and the matching spans.  Complexity is
    O(len(query) × len(subject)); the k-mer prefilter keeps the number of
    pairs we run it on small.
    """
    rows = len(query) + 1
    cols = len(subject) + 1
    # One flat score matrix; we also track the best cell for traceback bounds.
    previous = [0] * cols
    best_score = 0
    best_cell = (0, 0)
    matrix: List[List[int]] = [previous]
    for i in range(1, rows):
        current = [0] * cols
        query_base = query[i - 1]
        for j in range(1, cols):
            diagonal = previous[j - 1] + (match if query_base == subject[j - 1] else mismatch)
            up = previous[j] + gap
            left = current[j - 1] + gap
            value = max(0, diagonal, up, left)
            current[j] = value
            if value > best_score:
                best_score = value
                best_cell = (i, j)
        matrix.append(current)
        previous = current

    if best_score == 0:
        return AlignmentResult(0, 0, 0, 0, 0, 0.0)

    # Traceback to recover the aligned spans and identity.
    i, j = best_cell
    end_i, end_j = i, j
    matches = 0
    length = 0
    while i > 0 and j > 0 and matrix[i][j] > 0:
        diagonal = matrix[i - 1][j - 1]
        up = matrix[i - 1][j]
        left = matrix[i][j - 1]
        score_here = matrix[i][j]
        pair_score = match if query[i - 1] == subject[j - 1] else mismatch
        if score_here == diagonal + pair_score:
            if query[i - 1] == subject[j - 1]:
                matches += 1
            length += 1
            i -= 1
            j -= 1
        elif score_here == up + gap:
            length += 1
            i -= 1
        else:
            length += 1
            j -= 1
    identity = matches / length if length else 0.0
    return AlignmentResult(best_score, i, end_i, j, end_j, identity)


def _kmers(sequence: str, k: int) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for start in range(0, max(0, len(sequence) - k + 1)):
        kmer = sequence[start:start + k]
        counts[kmer] = counts.get(kmer, 0) + 1
    return counts


def kmer_prefilter(query: str, subject: str, k: int = 8) -> int:
    """Number of k-mers shared between query and subject (the seeding heuristic)."""
    query_kmers = _kmers(query.upper(), k)
    subject_kmers = _kmers(subject.upper(), k)
    return sum(min(count, subject_kmers.get(kmer, 0)) for kmer, count in query_kmers.items())


def similarity_search(query: str, library: Dict[str, str], k: int = 8,
                      min_kmer_hits: int = 3, min_score: int = 30,
                      max_hits: Optional[int] = None) -> List[SimilarityHit]:
    """Search ``query`` against a library of named sequences.

    Subjects sharing fewer than ``min_kmer_hits`` k-mers are skipped without
    alignment; the rest are aligned with Smith–Waterman and reported when the
    score reaches ``min_score``.  Hits are sorted by descending score.
    """
    hits: List[SimilarityHit] = []
    query = query.upper()
    for subject_id, subject in library.items():
        shared = kmer_prefilter(query, subject, k)
        if shared < min_kmer_hits:
            continue
        alignment = align_local(query, subject.upper())
        if alignment.score >= min_score:
            hits.append(SimilarityHit(subject_id, alignment.score, alignment.identity, shared))
    hits.sort(key=lambda hit: (-hit.score, hit.subject_id))
    if max_hits is not None:
        hits = hits[:max_hits]
    return hits
