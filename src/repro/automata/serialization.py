"""DFA (de)serialization: the one ``.npz`` encoding of an automaton.

A DFA is stored as two arrays — the dense ``table`` and the sorted
``accepting`` set — plus ``name`` and ``start`` entries in the file's JSON
header.  :func:`dfa_arrays` / :func:`dfa_from_arrays` are that encoding;
both the suite cache (:func:`save_dfa` / :func:`load_dfa`, compiled
regex → NFA → DFA → minimized benchmark members) and plan files
(:mod:`repro.plan.serialize`) go through them.  Suite-cache files are
versioned so later format changes can stay backward compatible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Tuple, Type, Union

import numpy as np

from repro.automata.dfa import DFA, STATE_DTYPE
from repro.errors import AutomatonError

FORMAT_VERSION = 1


def dfa_arrays(dfa: DFA) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """``dfa`` as ``(arrays, header)``: the ``table``/``accepting`` arrays
    to store and the ``name``/``start`` entries for the JSON header."""
    arrays = {
        "table": dfa.table,
        "accepting": np.asarray(sorted(dfa.accepting), dtype=np.int64),
    }
    return arrays, {"name": dfa.name, "start": dfa.start}


def dfa_from_arrays(arrays: Mapping, header: Mapping) -> DFA:
    """Rebuild the DFA :func:`dfa_arrays` encoded."""
    return DFA(
        table=arrays["table"].astype(STATE_DTYPE),
        start=int(header["start"]),
        accepting=frozenset(int(s) for s in arrays["accepting"]),
        name=str(header["name"]),
    )


def existing_npz(path: Union[str, Path], error: Type[Exception], what: str) -> Path:
    """``path`` as written by ``np.savez``, which appends ``.npz`` when the
    suffix is missing: accept both spellings, else raise ``error``."""
    path = Path(path)
    if path.exists():
        return path
    alt = path.with_suffix(path.suffix + ".npz")
    if alt.exists():
        return alt
    raise error(f"no {what} file at {path}")


def save_dfa(dfa: DFA, path: Union[str, Path]) -> None:
    """Write ``dfa`` to ``path`` (``.npz``)."""
    arrays, header = dfa_arrays(dfa)
    meta = json.dumps({"version": FORMAT_VERSION, **header})
    np.savez_compressed(Path(path), meta=np.asarray(meta), **arrays)


def load_dfa(path: Union[str, Path]) -> DFA:
    """Load a DFA previously written by :func:`save_dfa`."""
    path = existing_npz(path, AutomatonError, "DFA")
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("version") != FORMAT_VERSION:
            raise AutomatonError(
                f"unsupported DFA file version {meta.get('version')!r} in {path}"
            )
        return dfa_from_arrays(data, meta)
