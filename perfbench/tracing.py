"""In-memory spans around the calls into each layer of the program.

A span records its layer name, start, end and the index of the span that
was open when it began.  A layer's self time is the summed duration of its
spans minus the time covered by their child spans.  Spans are kept in
memory and written out once, when the traced pass ends.

``instrument`` rebinds a few names inside program modules so that calls
between layers (presentations -> straightening, invariants -> linalg, ...)
open spans too.  It is only ever applied in a traced worker process; the
untraced passes run the program untouched.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class _NoSpan:
    """Stand-in for an untraced pass: every span is a no-op."""

    @contextmanager
    def span(self, name: str):
        yield


NO_TRACE = _NoSpan()


def _wrap(tracer: Tracer, layer: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if count is not None:
            # Counting is the tracer's own work; its span keeps it out of
            # every layer's self time.
            with tracer.span("trace"):
                count(tracer.counts, args, result)
        return result

    return traced


def _count_straighten(counts, args, result) -> None:
    counts["straightening.calls"] += 1
    terms = getattr(result, "terms", result)
    counts["straightening.terms_out"] += len(terms)


def _count_matrix(counts, args, rank: int) -> None:
    rows = args[0]
    counts["linalg.rows"] += len(rows)
    counts["linalg.cols"] += len(rows[0]) if rows else 0
    counts["linalg.nnz"] += sum(1 for row in rows for x in row if x)
    counts["linalg.rank"] += rank


def _count_nullspace(counts, args, kernel) -> None:
    _count_matrix(counts, args, len(args[0]) - len(kernel))


def _count_basis(counts, args, result) -> None:
    counts["invariants.enumerate.chains"] += len(result)


def _count_products(counts, args, result) -> None:
    _, normal_forms = result
    counts["invariants.products.rows"] += len(normal_forms)
    counts["invariants.products.terms"] += sum(len(nf) for nf in normal_forms.values())


def instrument(tracer: Tracer):
    """Open spans at the program's internal layer boundaries, and return a
    function that puts the original names back.

    Each entry names the module whose global is rebound, the name, the
    layer it belongs to and how to count its work.  A name the program no
    longer has is skipped, so the work it did is charged to its caller.
    """
    from schubert_git import case_studies, invariants, linalg, presentations

    hooks = [
        (presentations, "straighten", "straightening", _count_straighten),
        (invariants, "_monomial_normal_form", "straightening", _count_straighten),
        (invariants, "invariant_basis", "invariants.enumerate", _count_basis),
        (invariants, "product_normal_forms", "invariants.products", _count_products),
        (linalg, "left_nullspace", "linalg", _count_nullspace),
        (linalg, "rank", "linalg", _count_matrix),
        (linalg, "rank_mod", "linalg", _count_matrix),
        (case_studies, "toric_identities", "case_studies", None),
        (case_studies, "case_kernel_identities", "case_studies", None),
        (case_studies, "generator_labels", "case_studies", None),
    ]
    originals = []
    for module, name, layer, count in hooks:
        fn = getattr(module, name, None)
        if fn is not None:
            originals.append((module, name, fn))
            setattr(module, name, _wrap(tracer, layer, fn, count))

    def restore() -> None:
        for module, name, fn in originals:
            setattr(module, name, fn)

    return restore
