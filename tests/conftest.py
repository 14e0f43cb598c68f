import weakref

import numpy as np

from hurwitz.group import _base

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def _base_columns(G):
    """G's permutation rows as an array, and the base `group._base` picks."""
    A = np.array(G.elements, dtype=np.intp).reshape(G.order, G.degree)
    return A, _base(G.elements)


def base_images(G):
    """Each element's images of the base, as tuples in element order."""
    A, base = _base_columns(G)
    return [tuple(row) for row in A[:, base].tolist()]


_TUPLE_MULS = weakref.WeakKeyDictionary()


def tuple_mul(G):
    """Oracle for `FinGroup.mul`: the scalar base-image product on tuples.

    a*b maps a base point p to a[b[p]], the `pmul` image; the tuple of
    those images is looked up in a dict.  It shares no code with
    `FinGroup.products` but the choice of base, and is built once per group.
    """
    if G not in _TUPLE_MULS:
        rows = G.elements
        A, base = _base_columns(G)
        by_base = {tuple(row): i for i, row in enumerate(A[:, base].tolist())}
        _TUPLE_MULS[G] = lambda i, j: by_base[tuple([rows[i][rows[j][p]] for p in base])]
    return _TUPLE_MULS[G]
