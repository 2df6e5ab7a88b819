"""Single source of truth for scheme names, codes, and construction.

The reproduction's roster is fixed: the paper's four evaluated schemes
(Baseline, Dedup_SHA1, DeWrite, ESD) and four comparison points (DaE,
PDE, NV-Dedup, ESD-Delta).  :data:`SCHEMES` lists all eight in
presentation order — the order of ``scheme_names()`` and
``registered_scheme_names()``, which feed tables, sweeps, and CLI help.
A scheme class names itself (``cls.name``); this table adds whether it is
evaluated and its CLI shorthand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from .core.esd import ESDScheme
from .core.esd_delta import ESDDeltaScheme
from .crypto.costs import DEFAULT_COSTS, CryptoCosts
from .dedup.base import DedupScheme
from .dedup.baseline import BaselineScheme
from .dedup.dae_pde import DaEScheme, PDEScheme
from .dedup.dedup_sha1 import DedupSHA1Scheme
from .dedup.dewrite import DeWriteScheme
from .dedup.nvdedup import NVDedupScheme


@dataclass(frozen=True)
class SchemeInfo:
    """One scheme of the roster: its class plus presentation metadata."""

    name: str
    cls: Type[DedupScheme]
    #: True for the paper's four evaluated schemes (Figures 15-18).
    evaluation: bool
    #: Optional single-character CLI shorthand ("0".."3").
    code: Optional[str]


#: The roster in presentation order, the paper's evaluated four first.
SCHEMES: Tuple[SchemeInfo, ...] = (
    SchemeInfo("Baseline", BaselineScheme, True, "0"),
    SchemeInfo("Dedup_SHA1", DedupSHA1Scheme, True, "1"),
    SchemeInfo("DeWrite", DeWriteScheme, True, "2"),
    SchemeInfo("ESD", ESDScheme, True, "3"),
    SchemeInfo("DaE", DaEScheme, False, None),
    SchemeInfo("PDE", PDEScheme, False, None),
    SchemeInfo("NV-Dedup", NVDedupScheme, False, None),
    SchemeInfo("ESD-Delta", ESDDeltaScheme, False, None),
)

_BY_NAME: Dict[str, SchemeInfo] = {info.name: info for info in SCHEMES}


def scheme_names() -> Tuple[str, ...]:
    """The paper's evaluated schemes, in presentation order."""
    return tuple(info.name for info in SCHEMES if info.evaluation)


def registered_scheme_names() -> Tuple[str, ...]:
    """Every scheme of the roster, evaluated four first."""
    return tuple(info.name for info in SCHEMES)


def scheme_codes() -> Dict[str, str]:
    """CLI shorthand -> scheme name (e.g. ``"3" -> "ESD"``)."""
    return {info.code: info.name for info in SCHEMES
            if info.code is not None}


def scheme_info(name: str) -> SchemeInfo:
    """Roster entry for ``name``; raises ValueError when unknown."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(registered_scheme_names())}") from None


def resolve_scheme_name(token: str) -> str:
    """Resolve a CLI token (code, exact, or case-insensitive name).

    Raises ValueError listing the registered names when nothing matches.
    """
    by_code = scheme_codes()
    if token in by_code:
        return by_code[token]
    lowered = token.lower()
    for name in _BY_NAME:
        if name.lower() == lowered:
            return name
    raise ValueError(
        f"unknown scheme {token!r}; registered schemes: "
        f"{', '.join(registered_scheme_names())}")


def make_scheme(name: str, config=None,
                costs: CryptoCosts = DEFAULT_COSTS) -> DedupScheme:
    """Instantiate a scheme of the roster by name."""
    return scheme_info(name).cls(config, costs)
