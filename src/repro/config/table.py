"""Configuration tables: a pool's configurations with one value matrix.

A tuning session scores the same candidate pool over and over: every
active-learning batch refits a model and rescores what is left of the
pool.  A :class:`ConfigTable` holds a pool's configurations once, with
one read-only float64 matrix of their values (row ``i`` equals
``np.array(configs, dtype=np.float64)[i]``), so scoring selects rows of
that matrix instead of converting tuples on every call.

A :class:`ConfigRows` is a view of some of a table's rows.  It is a
``Sequence`` of the very configuration tuples, so code that indexes,
iterates or measures candidates works unchanged, while encoders
(:meth:`~repro.config.encoding.ConfigEncoder.encode`) and component
models read the rows of the matrix directly.

A table whose configurations are not all numeric has no matrix
(``values`` is ``None``); its views are encoded from their tuples.
Tables are shared by every session tuning on a pool (and by serve
worker threads), so they are immutable apart from the memo of
:meth:`ConfigTable.distinct`, which computes first and then publishes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config.space import Configuration

__all__ = ["ConfigRows", "ConfigTable"]


def _float_matrix(configs: Sequence[Configuration]) -> np.ndarray | None:
    """``np.array(configs, dtype=np.float64)`` as a 2-D matrix, or ``None``."""
    try:
        values = np.array(configs, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    return values if values.ndim == 2 else None


class ConfigTable:
    """Configurations, row ``i`` for ``configs[i]``, and their value matrix.

    ``values`` is read-only and equals ``np.array(configs,
    dtype=np.float64)``, or is ``None`` when a value is not numeric.
    """

    __slots__ = ("configs", "values", "_index", "_repeats", "_distinct", "_all")

    def __init__(
        self, configs: Sequence[Configuration], values: np.ndarray | None = None
    ):
        self.configs = tuple(configs)
        if values is not None:
            values.flags.writeable = False
        self.values = values
        # Reversed, so a repeated configuration maps to its first row.
        n = len(self.configs)
        self._index = dict(zip(reversed(self.configs), range(n - 1, -1, -1)))
        self._repeats = None
        if len(self._index) < n:
            repeats: dict = {}
            for row, config in enumerate(self.configs):
                repeats.setdefault(config, []).append(row)
            self._repeats = {c: rows for c, rows in repeats.items() if len(rows) > 1}
        self._distinct: dict = {}
        # Row indices, not a view: a view refers back to its table, and
        # that cycle would keep an evicted pool's arrays alive until a
        # full garbage collection.
        self._all = np.arange(n, dtype=np.int64)
        self._all.flags.writeable = False

    @classmethod
    def of(cls, configs: Sequence[Configuration]) -> "ConfigTable":
        """A one-off table of a plain sequence of configurations."""
        configs = [tuple(c) for c in configs]
        return cls(configs, _float_matrix(configs))

    def __len__(self) -> int:
        return len(self.configs)

    @property
    def nbytes(self) -> int:
        """Bytes of the value matrix."""
        return 0 if self.values is None else self.values.nbytes

    def view(self, rows: np.ndarray | None = None) -> "ConfigRows":
        """The rows ``rows`` of the table; every row when ``None``."""
        if rows is None:
            return ConfigRows(self, self._all)
        return ConfigRows(self, np.array(rows, dtype=np.int64))

    def row_of(self, config: Configuration) -> int:
        """The first row holding ``config`` (``KeyError`` when none does)."""
        try:
            return self._index[tuple(config)]
        except (KeyError, TypeError):
            raise KeyError(config) from None

    def rows_of(self, configs: Sequence[Configuration]) -> np.ndarray | None:
        """The first row of every configuration, or ``None`` if one is absent."""
        index = self._index
        try:
            return np.fromiter(
                (index[c] for c in configs), dtype=np.int64, count=len(configs)
            )
        except (KeyError, TypeError):
            return None

    def __contains__(self, config) -> bool:
        return config in self._index

    def rows_holding(self, configs: Sequence[Configuration]) -> list[int]:
        """Every row holding one of ``configs`` (tuples); rows of a
        repeated configuration after its first come last."""
        index = self._index
        rows = [index[c] for c in configs if c in index]
        if self._repeats is not None:
            repeats = self._repeats
            rows += [r for c in configs if c in repeats for r in repeats[c][1:]]
        return rows

    def distinct(self, columns: slice) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of the columns ``columns``, and each row's index.

        Returns ``(matrix, inverse)``: ``matrix[inverse[i]]`` equals row
        ``i`` of ``values[:, columns]``.  Memoised on the table: the
        result is computed first and then published, so concurrent first
        calls may each compute it and every caller gets the first one
        published.  A table without a value matrix converts its tuples
        (and raises what ``np.array(configs, dtype=np.float64)`` raises).
        """
        key = (columns.start, columns.stop)
        found = self._distinct.get(key)
        if found is None:
            values = self.values
            if values is None:
                values = np.array(self.configs, dtype=np.float64)
            found = self._distinct.setdefault(key, _distinct_rows(values[:, columns]))
        return found


def _distinct_rows(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(matrix, inverse)`` of the distinct rows of ``sub``.

    Rows are told apart by one integer key per row, made from each
    column's value codes in mixed radix (re-coded before it could
    overflow), which is much faster than ``np.unique(sub, axis=0)``.
    Rows equal as floats share a key.
    """
    n = len(sub)
    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for column in sub.T:
        uniq, code = np.unique(column, return_inverse=True)
        if bound * len(uniq) >= 2**62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * len(uniq) + code
        bound *= len(uniq)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    matrix = sub[first]
    matrix.flags.writeable = False
    inverse.flags.writeable = False
    return matrix, inverse


class ConfigRows(Sequence):
    """Rows of a :class:`ConfigTable`, as a sequence of configuration tuples.

    ``rows`` are table row indices; ``view[i]`` is
    ``table.configs[rows[i]]``.  A view is a snapshot: it never changes
    after it is made.
    """

    __slots__ = ("table", "rows")

    def __init__(self, table: ConfigTable, rows: np.ndarray):
        rows.flags.writeable = False
        self.table = table
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ConfigRows(self.table, self.rows[i])
        return self.table.configs[self.rows[i]]

    def __iter__(self):
        return map(self.table.configs.__getitem__, self.rows.tolist())

    def __repr__(self) -> str:
        return f"ConfigRows({len(self)} of {len(self.table)} rows)"

    @property
    def values(self) -> np.ndarray | None:
        """A fresh float64 matrix of the rows, or ``None`` without one."""
        if self.table.values is None:
            return None
        return self.table.values[self.rows]
