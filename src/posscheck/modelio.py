"""Loading and dumping of model files (schema, table, graph, t-norm).

Model JSON layout::

    {"variables": [{"name": "X", "domain": ["0", "1"]}, ...],
     "table": {"default": 0.0,
               "entries": [{"assignment": {"X": "0", ...}, "value": 1.0}, ...]},
     "graph": {"edges": [["X", "Y"], ...], "isolated": ["Q"]},      # optional
     "tnorm": {"base": "godel"}}                                     # optional

Values may be decimal numbers or "p/q" strings; in exact mode every value
becomes a ``fractions.Fraction`` and transformed t-norms are rejected.

A table is built from its entries as columns, not entry by entry: the entry
shapes are checked once, by the type sets of the entries and of their
assignments and one ``itemgetter`` pass per key; values that are all plain
numbers become one float array in a single ``np.array`` call, while a value
column holding strings or Fractions, and every value in exact mode, goes
through ``parse_value``; each variable's labels are mapped to positions in
one pass; and the values are range-checked together and written into the
table in one scatter.  When a check fails, the entries are checked one by
one, so the error is that of the first bad entry: shape and value errors of
all entries first, then, entry by entry, the value's range before the
assignment's labels.

A model file is read once, as bytes, and parsed from them: JSON in UTF-8,
UTF-16 or UTF-32, whatever the locale.  A model's digest is the first 16
hex digits of the SHA-256 of the document's bytes: the file's bytes, or
the UTF-8 bytes of JSON text.  A document passed already parsed (a dict)
is first written as canonical JSON (sorted keys, no spaces, ASCII).

A document whose parts have the wrong JSON type (entries that are not an
array, an assignment that is not an object, a domain that is not an array,
a variable name that is not a string, a number too large for a float), a
model file that cannot be read, and bytes or text that are not valid JSON
(invalid UTF-8, a lone surrogate) raise ``ModelFormatError``.
"""

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ModelFormatError
from .graphs import UndirectedGraph
from .possibility import PossibilityTable, Schema
from .tnorm import TNorm


@dataclass(frozen=True, eq=False)
class Model:
    """A loaded model file: schema + table, with optional graph and t-norm."""

    schema: Schema
    table: PossibilityTable
    graph: Optional[UndirectedGraph]
    tnorm: Optional[TNorm]
    digest: str


def parse_value(raw, exact=False):
    """Interpret a JSON value as a unit-interval number.

    Accepts numbers and "p/q" strings; exact mode yields Fractions (decimal
    literals convert exactly).
    """
    if isinstance(raw, str):
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"cannot parse value {raw!r}: {exc}") from exc
        return value if exact else float(value)
    if isinstance(raw, bool) or not isinstance(raw, (int, float, Fraction)):
        raise ModelFormatError(f"value {raw!r} is not a number or 'p/q' string")
    if exact:
        try:
            return Fraction(str(raw))
        except ValueError as exc:
            raise ModelFormatError(f"value {raw!r} is not rational: {exc}") from exc
    try:
        return float(raw)
    except OverflowError as exc:
        raise ModelFormatError(f"value {raw!r} is too large for a float") from exc


def schema_from_json(doc):
    if not isinstance(doc, list) or not doc:
        raise ModelFormatError("'variables' must be a nonempty array")
    pairs = []
    for item in doc:
        if not isinstance(item, dict) or "name" not in item or "domain" not in item:
            raise ModelFormatError("each variable needs 'name' and 'domain'")
        if not isinstance(item["name"], str):
            raise ModelFormatError(f"variable name {item['name']!r} is not a string")
        if not isinstance(item["domain"], list):
            raise ModelFormatError(f"the domain of {item['name']!r} must be an array")
        pairs.append((item["name"], [str(v) for v in item["domain"]]))
    return Schema(pairs)


def _shape_error(entry):
    """What is wrong with the shape of a table entry, or None."""
    if not isinstance(entry, dict) or "assignment" not in entry or "value" not in entry:
        return "each entry needs 'assignment' and 'value'"
    if not isinstance(entry["assignment"], dict):
        return f"assignment {entry['assignment']!r} is not an object"
    return None


def _entry_columns(entries, exact):
    """The assignments of table entries as a list, their values as an array.

    Raises ModelFormatError for the first entry that is not an object with
    an object 'assignment' and a 'value', or whose value does not parse.
    """
    # plain dicts throughout, checked in C-level passes; anything else (a
    # dict subclass included) is checked entry by entry
    shaped = set(map(type, entries)) <= {dict}
    if shaped:
        try:
            assignments = list(map(itemgetter("assignment"), entries))
            raw = list(map(itemgetter("value"), entries))
        except KeyError:
            shaped = False
        else:
            shaped = set(map(type, assignments)) <= {dict}
    if not shaped:
        for entry in entries:
            error = _shape_error(entry)
            if error:
                raise ModelFormatError(error)
            parse_value(entry["value"], exact)
        assignments = list(map(itemgetter("assignment"), entries))
        raw = list(map(itemgetter("value"), entries))
    if not exact and set(map(type, raw)) <= {float, int}:
        try:
            return assignments, np.array(raw, dtype=float)
        except OverflowError:
            pass  # an integer too large for a float: parse_value reports it below
    values = [parse_value(v, exact) for v in raw]
    return assignments, np.array(values, dtype=object if exact else float)


def table_from_json(schema, doc, exact=False):
    if not isinstance(doc, dict):
        raise ModelFormatError("'table' must be an object")
    default = parse_value(doc.get("default", 0.0), exact)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ModelFormatError("'entries' must be an array")
    assignments, values = _entry_columns(entries, exact)
    return PossibilityTable._from_columns(schema, assignments, values, default)


def _model_parts(doc, exact):
    """Schema, table, graph and t-norm of a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be an object")
    if "variables" not in doc or "table" not in doc:
        raise ModelFormatError("model needs 'variables' and 'table'")
    schema = schema_from_json(doc["variables"])
    table = table_from_json(schema, doc["table"], exact)
    graph = None
    if doc.get("graph") is not None:
        graph = UndirectedGraph.from_json_dict(doc["graph"])
        unknown = set(graph.vertices) - set(schema.variables)
        if unknown:
            raise ModelFormatError(f"graph vertices {sorted(unknown)} are not schema variables")
    tn = None
    if doc.get("tnorm") is not None:
        tn = TNorm.from_json_dict(doc["tnorm"])
        if exact and tn.transform is not None:
            raise ModelFormatError("exact mode does not support transformed t-norms")
    return schema, table, graph, tn


def load_model(source, exact=False):
    """Load a model from a path, JSON string, or already-parsed dict.

    Text that starts with ``{`` or ``[`` is JSON; any other text is a path.
    A file is read once as bytes and parsed from them (UTF-8, -16 or -32,
    whatever the locale); JSON text is parsed from its UTF-8 bytes.  The
    digest hashes those bytes, so a file's digest is that of
    ``sha256sum``; a dict's digest is that of its canonical JSON.
    """
    if isinstance(source, dict):
        return Model(*_model_parts(source, exact), model_digest(source))
    text = str(source)
    if text.lstrip().startswith(("{", "[")):
        try:
            data = text.encode()
        except UnicodeEncodeError as exc:
            raise ModelFormatError(f"invalid JSON text: {exc}") from exc
    else:
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    return Model(*_model_parts(doc, exact), model_digest(data))


def model_digest(doc):
    """First 16 hex digits of the SHA-256 of a model document's bytes.

    ``doc`` is the document's bytes, or a parsed document (a dict), which
    is first written as canonical JSON: sorted keys, no spaces, ASCII.
    """
    if not isinstance(doc, bytes):
        doc = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str).encode()
    return hashlib.sha256(doc).hexdigest()[:16]
