"""JSON encoding and decoding for every value the CLI passes around.

Rationals travel as reduced strings "p/q" with positive q; series are
{"degreeN": int, "terms": [{"word": ..., "coeff": ...}]} with cyclic
series using "necklace" in place of "word".  Term lists are sorted so
equal objects serialize to identical bytes.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Dict, List, Optional, Union

from .cyclic import CycSeries
from .derivations import DerivationFlags, TDer
from .graphs import KGraph
from .lie import LieSeries
from .automorphisms import TAutElem, taut_exp
from .weights import WeightEstimate
from .words import Alphabet, AssocSeries


def encode_fraction(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def decode_fraction(s: Union[str, int]) -> Fraction:
    """Exact input only: a rational string such as "-3/4", or an integer."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(
            f"coefficient {s!r} is not exact; write rationals as strings like \"1/10\"")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"coefficient {s!r} has a zero denominator") from exc


def _encode_terms(alphabet: Alphabet, coeffs, key: str) -> List[Dict[str, str]]:
    return [{key: alphabet.word_name(w), "coeff": encode_fraction(coeffs[w])}
            for w in sorted(coeffs, key=lambda w: (len(w), w))]


def encode_series(s: Union[LieSeries, AssocSeries, CycSeries]) -> Dict[str, Any]:
    key = "necklace" if isinstance(s, CycSeries) else "word"
    return {"degreeN": s.degree, "terms": _encode_terms(s.alphabet, s.coeffs, key)}


def _require(doc: Any, what: str, **fields: type) -> None:
    """Raise ValueError unless doc is an object with these typed fields."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key, kind in fields.items():
        if key not in doc:
            raise ValueError(f"{what} needs {key!r}")
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{what} {key!r} must be {kind.__name__}, "
                             f"not {type(value).__name__}")


_NUMBERED = re.compile(r"x([0-9]+)")


def _infer_alphabet(doc: Dict[str, Any], n: Optional[int], key: str) -> Alphabet:
    """``Alphabet(n)``, or without ``n`` the smallest alphabet whose names
    spell every term.  ``Alphabet`` names up to four letters x, y, z, w and
    five or more x1..xn, so a numbered name means at least five letters."""
    if n is None:
        numbers = [int(i) for t in doc["terms"] for i in _NUMBERED.findall(t[key])]
        if numbers:
            return Alphabet(max(5, max(numbers)))
        probe = Alphabet(4)
        highest = 1
        for t in doc["terms"]:
            word = probe.parse_word(t[key])
            if word:
                highest = max(highest, max(word) + 1)
        n = highest
    return Alphabet(n)


def decode_series(doc: Dict[str, Any], kind: str = "lie",
                  n: Optional[int] = None):
    """kind: lie | assoc | cyclic."""
    key = "necklace" if kind == "cyclic" else "word"
    _require(doc, "series", degreeN=int, terms=list)
    for t in doc["terms"]:
        _require(t, "series term", **{key: str})
        if "coeff" not in t:
            raise ValueError(f"series term {t[key]!r} needs 'coeff'")
    alphabet = _infer_alphabet(doc, n, key)
    table = {}
    for t in doc["terms"]:
        name, coeff = t[key], t["coeff"]
        word = alphabet.parse_word(name)
        try:
            table[word] = decode_fraction(coeff)
        except ValueError as exc:
            raise ValueError(f"series term {name!r}: {exc}") from exc
    degree = doc["degreeN"]
    if kind == "lie":
        return LieSeries(alphabet, degree, table)
    if kind == "assoc":
        return AssocSeries(alphabet, degree, table)
    if kind == "cyclic":
        return CycSeries(alphabet, degree, table)
    raise ValueError(f"unknown series kind {kind!r}")


def encode_tder(u: TDer) -> Dict[str, Any]:
    return {"n": u.alphabet.n,
            "components": [encode_series(c) for c in u.components]}


def decode_tder(doc: Dict[str, Any]) -> TDer:
    _require(doc, "derivation", n=int, components=list)
    n = doc["n"]
    return TDer([decode_series(c, "lie", n) for c in doc["components"]])


def encode_taut(g: TAutElem) -> Dict[str, Any]:
    return {"n": g.alphabet.n,
            "images": [encode_series(im) for im in g.images],
            "log": encode_tder(g.log_certificate) if g.log_certificate else None}


def decode_taut(doc: Dict[str, Any]) -> TAutElem:
    """The images are checked tangential: by exponentiating the carried
    log, which must reproduce them, or else image by image."""
    _require(doc, "automorphism", n=int, images=list)
    n = doc["n"]
    images = [decode_series(im, "lie", n) for im in doc["images"]]
    if not doc.get("log"):
        return TAutElem(images)
    log = decode_tder(doc["log"])
    if taut_exp(log).images != tuple(images):
        raise ValueError("automorphism 'log' does not exponentiate to its 'images'")
    return TAutElem(images, log_certificate=log, check=False)


def encode_flags(f: DerivationFlags) -> Dict[str, Any]:
    return {"special": f.special, "krv": f.krv,
            "witness_degree": f.witness_degree}


def encode_graph(g: KGraph) -> Dict[str, Any]:
    return {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}


def decode_graph(doc: Dict[str, Any]) -> KGraph:
    _require(doc, "graph", n=int, edges=list)
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(v, (int, str)) and not isinstance(v, bool)
                        for v in e)):
            raise ValueError(
                f"graph edge {e!r} must be a [source, target] list of vertices")
    edges = tuple((e[0], e[1]) for e in doc["edges"])
    return KGraph(doc["n"], edges, doc.get("m", 2))


def encode_estimate(e: WeightEstimate) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"value": e.value, "stderr": e.stderr,
                           "samples": e.samples, "seed": e.seed,
                           "method": e.method}
    if e.method == "quadrature":
        doc["tolerance"] = e.tolerance
        del doc["stderr"]
    else:
        doc["rejection_rate"] = e.rejection_rate
    return doc


def encode_value(v: Any) -> Any:
    """Best-effort recursive encoding for report notes and gauge vectors."""
    if isinstance(v, Fraction):
        return encode_fraction(v)
    if isinstance(v, dict):
        return {str(k): encode_value(val) for k, val in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    return v


def encode_report(report) -> Dict[str, Any]:
    return {"records": [{"degree": r.degree, "dimension": r.dimension,
                         "rank": r.rank, "residual_zero": r.residual_zero,
                         "gauge": [encode_fraction(c) for c in r.gauge]}
                        for r in report.records],
            "notes": encode_value(report.notes)}
