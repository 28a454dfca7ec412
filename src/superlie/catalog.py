"""Built-in catalog of nilpotent Lie superalgebras of total dimension <= 5.

The catalog ships as JSON resources (``data/*.json``):

* ``catalog.json``   -- the 99 classified algebras,
* ``witnesses.json`` -- parametrized-basis degeneration witnesses,
* ``nondegen.json``  -- non-degeneration rows with their cited criterion,
* ``expected.json``  -- regression tables (H^2 dims, orbit dims, components).

It also provides generators for the two infinite families: the Heisenberg
superalgebras with even center and the K^{2,m} family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Dict, List, Optional, Tuple, Union

from .algebra import SuperAlgebra
from .field import ONE


class NotFound(KeyError):
    """Unknown catalog label or dimension."""


class MEven(ValueError):
    """K2m requires an odd m."""


Dim = Union[str, Tuple[int, int], int]


@dataclass
class CatalogEntry:
    label: str
    doc: Dict

    @property
    def m(self) -> int:
        return int(self.doc["m"])

    @property
    def n(self) -> int:
        return int(self.doc["n"])

    @cached_property
    def algebra(self) -> SuperAlgebra:
        return SuperAlgebra.from_doc(self.doc)


_CACHE: Dict[str, object] = {}


def _resource(name: str):
    if name not in _CACHE:
        text = resources.files("superlie.data").joinpath(name).read_text()
        _CACHE[name] = json.loads(text)
    return _CACHE[name]


def _entries() -> Dict[str, CatalogEntry]:
    if "entries" not in _CACHE:
        _CACHE["entries"] = {doc["label"]: CatalogEntry(doc["label"], doc)
                             for doc in _resource("catalog.json")["algebras"]}
    return _CACHE["entries"]


def normalize_dim(dim: Dim) -> Tuple[int, int]:
    """Accept "(2|3)", "2|3", or an (m, n) pair."""
    if isinstance(dim, str):
        body = dim.strip().strip("()")
        try:
            m, n = body.split("|")
            return int(m), int(n)
        except ValueError:
            raise NotFound(f"bad dimension {dim!r}") from None
    if isinstance(dim, tuple) and len(dim) == 2:
        return int(dim[0]), int(dim[1])
    raise NotFound(f"bad dimension {dim!r}")


def labels() -> List[str]:
    return list(_entries().keys())


def get(label: str) -> CatalogEntry:
    try:
        return _entries()[label]
    except KeyError:
        raise NotFound(label) from None


def list_entries(dim: Optional[Dim] = None) -> List[CatalogEntry]:
    """All entries, one graded dimension "(m|n)", or one total dimension."""
    entries = _entries().values()
    if dim is None:
        return list(entries)
    if isinstance(dim, int):
        return [e for e in entries if e.m + e.n == dim]
    m, n = normalize_dim(dim)
    return [e for e in entries if (e.m, e.n) == (m, n)]


def _dim_filter(rows: List[Dict], dim: Optional[Dim]) -> List[Dict]:
    """The rows whose `from` label is one of `list_entries(dim)`."""
    if dim is None:
        return rows
    keep = {e.label for e in list_entries(dim)}
    return [r for r in rows if r["from"] in keep]


def witnesses(dim: Optional[Dim] = None) -> List[Dict]:
    return _dim_filter(_resource("witnesses.json")["witnesses"], dim)


def nondegen_rows(dim: Optional[Dim] = None) -> List[Dict]:
    return _dim_filter(_resource("nondegen.json")["rows"], dim)


def expected() -> Dict:
    return _resource("expected.json")


# -- infinite families --------------------------------------------------------


def heisenberg_1n(n: int) -> SuperAlgebra:
    """The (1|n) Heisenberg superalgebra with even center: [f_i,f_i]=e_1,
    built on the combined basis e1, f1..fn (f_i is x_i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SuperAlgebra(1, n, {(i, i): [(0, ONE)] for i in range(1, n + 1)},
                        name=f"H(1|{n})")


def K2m(m: int) -> SuperAlgebra:
    """The (2|m) algebra [e1,f_i]=f_{i+1}, [f_j,f_{m+1-j}]=(-1)^{j+1} e2,
    built on the combined basis e1, e2, f1..fm (f_i is x_(1+i))."""
    if m % 2 == 0:
        raise MEven(f"m must be odd, got {m}")
    if m < 1:
        raise ValueError("m must be >= 1")
    consts = {(0, 1 + i): [(2 + i, ONE)] for i in range(1, m)}
    consts.update({(1 + j, 2 + m - j): [(1, ONE if j % 2 else -ONE)]
                   for j in range(1, (m + 1) // 2 + 1)})
    return SuperAlgebra(2, m, consts, name=f"K(2|{m})")
