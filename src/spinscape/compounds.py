"""Builtin anisotropy parameter sets and a tiny exchange file format.

The catalog collects published giant-spin parameters for a series of
tetrairon(III) (Fe4) molecules, one trigonal variant, and three other
well-studied molecules (Fe8, Mn12, Fe6-like). All energies are in
kelvin; entries keep a citation string for their data source.

The exchange format is deliberately plain: UTF-8 text, one `key =
value` per line, `#` comments. Recognized keys are id, two_s, d, e,
b40, b42, b43, b44 and comment.
"""
from __future__ import annotations

import difflib
from dataclasses import dataclass, fields

from .spin import AnisotropyParams, SpinSystem

_FE4_SOURCE = "Fe4 series, data collected by Gregoli et al. (2009)"


@dataclass(frozen=True)
class Compound:
    """One named parameter set: spin, anisotropy, provenance."""

    id: str
    system: SpinSystem
    aniso: AnisotropyParams
    source: str
    notes: str = ""


def _fe4(cid: str, d: float, e: float, b40: float, notes: str = "") -> Compound:
    return Compound(
        id=cid,
        system=SpinSystem(10),
        aniso=AnisotropyParams(d=d, e=e, b40=b40),
        source=_FE4_SOURCE,
        notes=notes,
    )


_CATALOG: tuple[Compound, ...] = (
    _fe4("1-1", -0.6, 0.022, 1.87e-5),
    _fe4("1-2", -0.626, 0.013, 1.3e-5),
    _fe4("2", -0.646, 0.043, 3.45e-5),
    _fe4("3", -0.636, 0.0446, 2.3e-5),
    _fe4("4", -0.593, 0.0086, 2.59e-5),
    _fe4("5", -0.64, 0.0, 1.439e-5),
    _fe4("6", -0.624, 0.0288, 1.439e-5),
    _fe4("7", -0.623, 0.02, 2.16e-5),
    _fe4("8", -0.601, 0.033, 1.15e-5),
    _fe4("9", -0.591, 0.0143, 1.58e-5),
    _fe4("10", -0.588, 0.0115, 3.45e-5),
    _fe4("11", -0.388, 0.0, 0.0, notes="b40 only bounded above, |b40| < 0.719e-5 K; stored as 0"),
    _fe4("12", -0.296, 0.0143, -1.58e-5),
    Compound(
        id="3-trigonal",
        system=SpinSystem(10),
        aniso=AnisotropyParams(d=-0.636, e=0.0446, b40=2.3e-5, b43=0.01),
        source=_FE4_SOURCE,
        notes="compound 3 with the proposed trigonal fourth-order term b43 = 0.01 K",
    ),
    Compound(
        id="i",
        system=SpinSystem(20),
        aniso=AnisotropyParams(d=-0.292, e=0.046, b44=-2.9e-5),
        source="Fe8, Wernsdorfer et al. (2000)",
    ),
    Compound(
        id="ii",
        system=SpinSystem(20),
        aniso=AnisotropyParams(d=-0.676, b40=2.51e-5, b44=-1.18e-4),
        source="Mn12-acetate, Hill et al. (1998)",
    ),
    Compound(
        id="iii",
        system=SpinSystem(19),
        aniso=AnisotropyParams(d=-0.73, e=0.129, b40=3.31e-4),
        source="Fe6 half-integer spin, Nehrkorn et al. (2021)",
    ),
)


def catalog() -> tuple[Compound, ...]:
    """All builtin compounds, in catalog order."""
    return _CATALOG


def lookup(compound_id: str) -> Compound:
    """Find a builtin compound by id.

    Raises KeyError naming the closest builtin id when nothing matches.
    """
    for c in _CATALOG:
        if c.id == compound_id:
            return c
    ids = [c.id for c in _CATALOG]
    near = difflib.get_close_matches(compound_id, ids, n=1, cutoff=0.0)
    hint = f"; closest builtin id is {near[0]!r}" if near else ""
    raise KeyError(f"unknown compound {compound_id!r}{hint}")


_NUMERIC_KEYS = tuple(f.name for f in fields(AnisotropyParams))
_ALL_KEYS = ("id", "two_s") + _NUMERIC_KEYS + ("comment",)


def load_compound(document: str) -> Compound:
    """Parse one compound from `key = value` text.

    id and two_s are required; anisotropy keys default to zero; any
    unknown or repeated key is an error naming the key.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _ALL_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}; expected one of {_ALL_KEYS}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value.strip()

    if "id" not in seen or not seen["id"]:
        raise ValueError("missing required key 'id'")
    if "two_s" not in seen:
        raise ValueError("missing required key 'two_s'")
    try:
        two_s = int(seen["two_s"])
    except ValueError as exc:
        raise ValueError(f"two_s must be an integer, got {seen['two_s']!r}") from exc

    numbers: dict[str, float] = {}
    for key in _NUMERIC_KEYS:
        text = seen.get(key, "0")
        try:
            numbers[key] = float(text)
        except ValueError as exc:
            raise ValueError(f"{key} must be a number, got {text!r}") from exc

    return Compound(
        id=seen["id"],
        system=SpinSystem(two_s),
        aniso=AnisotropyParams(**numbers),
        source="user file",
        notes=seen.get("comment", ""),
    )


def dump_compound(compound: Compound) -> str:
    """Serialize a compound to the exchange format; load_compound inverts it."""
    lines = [
        f"id = {compound.id}",
        f"two_s = {compound.system.two_s}",
    ]
    for key in _NUMERIC_KEYS:
        lines.append(f"{key} = {getattr(compound.aniso, key)!r}")
    if compound.notes:
        lines.append(f"comment = {compound.notes}")
    return "\n".join(lines) + "\n"
