"""JSON interchange.

Subsets serialize as sorted label arrays, families as arrays of subsets,
filters as their base subset.  A convergence document is

    {"points": ["a", "b"], "lim": {"a": ["a"], "b": ["b"], "a,b": []}}

with one entry per nonempty subset, keyed by the comma-joined sorted label
list, so a point label is nonempty and holds no comma, and every part of
a key between commas must name a point.  The pretopology shorthand

    {"vicinity": {"a": ["a", "b"], ...}}

is accepted in place of "lim" and expanded through
lim ^A = {x : A <= V(x)}.  A map document is
{"map": {"<source label>": "<target label>"}}.  Every label list (lim value,
vicinity, family member) resolves once, through Carrier.mask_of.
"""

from __future__ import annotations

import json
from typing import Any

from .families import Carrier, CarrierMap, SetFamily, ValidationError
from .spaces import Convergence, pretopology_from_vicinities


def subset_key(carrier: Carrier, mask: int) -> str:
    return ",".join(sorted(carrier.labels_of(mask)))


def convergence_to_doc(conv: Convergence) -> dict[str, Any]:
    lim = {}
    for m in range(1, conv.carrier.full + 1):
        lim[subset_key(conv.carrier, m)] = sorted(
            conv.carrier.labels_of(conv.table[m]))
    return {"points": list(conv.carrier.labels), "lim": lim}


def _carrier_from_doc(doc: dict) -> Carrier:
    points = doc.get("points")
    if points is None and "vicinity" in doc:
        points = list(doc["vicinity"])
    if not isinstance(points, list) or not all(
            isinstance(p, str) for p in points):
        raise ValidationError(['"points" must be a list of strings'])
    # a lim key is a comma-joined label list, so such a label cannot
    # round-trip through convergence_to_doc
    bad = [f"point label {p!r} must be nonempty and free of ','"
           for p in points if not p or "," in p]
    if bad:
        raise ValidationError(bad)
    return Carrier(tuple(points))


def _label_mask(carrier: Carrier, val: Any) -> int | None:
    """The mask of a list of point labels; None for anything else."""
    try:
        return carrier.mask_of(val) if isinstance(val, list) else None
    except KeyError:
        return None


def convergence_from_doc(doc: dict) -> Convergence:
    """Parse and fully validate; raises ValidationError with one entry per
    problem (schema first, then every violated axiom instance)."""
    if not isinstance(doc, dict):
        raise ValidationError(["document must be a JSON object"])
    if "vicinity" in doc and "lim" in doc:
        raise ValidationError(
            ['document has both a "lim" table and a "vicinity" map'])
    if "vicinity" in doc and not isinstance(doc["vicinity"], dict):
        raise ValidationError(
            ['"vicinity" must map each point to a list of labels'])
    carrier = _carrier_from_doc(doc)
    if "vicinity" in doc:
        vic = {p: _label_mask(carrier, v) for p, v in doc["vicinity"].items()}
        problems = [f"vicinity names unknown point {p!r}"
                    for p in vic if p not in carrier.positions]
        problems += [f"vicinity of {p!r} must be a list of labels"
                     for p, v in vic.items()
                     if v is None and p in carrier.positions]
        if problems:
            raise ValidationError(problems)
        return pretopology_from_vicinities(carrier, vic)
    lim = doc.get("lim")
    if not isinstance(lim, dict):
        raise ValidationError(['document needs a "lim" table or "vicinity" map'])
    table = [0] * (carrier.full + 1)
    seen: dict[int, str] = {}
    problems = []
    for key, val in lim.items():
        # an empty part, as in "a,,b", names no point; only "" is empty
        labels = key.split(",") if key else []
        try:
            mask = carrier.mask_of(labels)
        except KeyError as exc:
            problems.append(f"lim key {key!r}: {exc.args[0]}")
            continue
        if mask == 0:
            problems.append("lim key for the empty set is not allowed")
            continue
        if mask in seen:
            problems.append(
                f"lim keys {seen[mask]!r} and {key!r} name the same subset")
            continue
        seen[mask] = key
        limit = _label_mask(carrier, val)
        if limit is None:
            problems.append(f"lim value for {key!r} must be a list of labels")
            continue
        table[mask] = limit
    for m in range(1, carrier.full + 1):
        if m not in seen:
            problems.append(
                f"missing lim entry for {subset_key(carrier, m) or '{}'}")
    if problems:
        raise ValidationError(problems)
    return Convergence.make(carrier, table)


def map_from_doc(doc: dict, source: Carrier, target: Carrier) -> CarrierMap:
    if not isinstance(doc, dict) or not isinstance(doc.get("map"), dict):
        raise ValidationError(['map document needs a "map" object'])
    return CarrierMap.of(source, target, doc["map"])


def family_from_doc(doc: Any, carrier: Carrier) -> SetFamily:
    """Parse an array of label arrays; raises ValidationError with one entry
    per member that is not a list of point labels."""
    if not isinstance(doc, list) or not all(isinstance(x, list) for x in doc):
        raise ValidationError(["family document must be an array of arrays"])
    masks = [_label_mask(carrier, m) for m in doc]
    problems = [f"family member {m!r} must be a list of point labels"
                for m, mask in zip(doc, masks) if mask is None]
    if problems:
        raise ValidationError(problems)
    return SetFamily(carrier, frozenset(masks))


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # not UTF-8, not JSON, an over-long integer, or too deeply nested
        except (ValueError, RecursionError) as exc:
            raise ValidationError([f"malformed JSON ({exc})"]) from None


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
