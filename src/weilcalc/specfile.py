"""Spec-file ingestion and canonical emission.

A spec file is a JSON document describing a chart, an algebroid
presentation, and optionally an ideal, a linear connection, an IM
connection, a list of cochains, and a curving. Polynomials are exact
rational strings in the chart variables; all emission is canonical
(sorted keys, graded-lex polynomial strings), so re-serialization is
byte-identical.
"""

import json

from .algebroid import AlgebroidPresentation, VForm
from .connections import LinearConnection
from .errors import SpecError, StructureError
from .ideals import IMConnection, IdealBundle
from .polyring import _MAX_DIGITS, default_names, poly_from_str, poly_to_str
from .weil import WeilCochain


def _ints(path, text, count=None):
    text = text.strip()
    if not text:
        parts = []
    else:
        try:
            parts = [int(t) for t in text.split(",")]
        except ValueError:
            raise SpecError(path, f"expected comma-separated integers, got {text!r}")
    if count is not None and len(parts) != count:
        raise SpecError(path, f"expected {count} indices, got {len(parts)}")
    return tuple(parts)


def _poly(path, text, nvars, names):
    if not isinstance(text, str):
        raise SpecError(path, "polynomial must be a string")
    try:
        return poly_from_str(text, nvars, names)
    except ValueError as exc:
        raise SpecError(path, str(exc))


def _table_from_dict(data, key, path, nvars, names, count, default=None, in_range=None,
                     reason="index out of range"):
    """The polynomial table ``data[key]`` (``default`` when an optional one
    is absent) as {(i1, ..., i_count): Poly}, read from keys 'i1,...,i_count'.
    An entry's errors are reported at path.key.entry; ``in_range``, given an
    entry's indices, rejects it with ``reason`` before its polynomial is read.
    The structure, anchor and Christoffel tables are all read here."""
    out = {}
    for entry, text in _require(data, key, path, dict, default).items():
        epath = f"{path}.{key}.{entry}"
        idx = _ints(epath, entry, count)
        if in_range is not None and not in_range(*idx):
            raise SpecError(epath, reason)
        out[idx] = _poly(epath, text, nvars, names)
    return out


def _table_to_dict(table, names):
    """The JSON table of {(i1, ..., ic): Poly}, keyed 'i1,...,ic'."""
    return {",".join(map(str, idx)): poly_to_str(p, names) for idx, p in sorted(table.items())}


def _require(data, key, path, typ, default=None):
    if not isinstance(data, (dict, list, str)):
        raise SpecError(path, "expected an object")
    # a list or a string lacks every field; the report names the field, and
    # perfbench/digests.json records those paths
    if not isinstance(data, dict) or key not in data:
        if default is not None:
            return default
        raise SpecError(f"{path}.{key}", "missing required field")
    val = data[key]
    # JSON true and false load as bool, a subclass of int
    if isinstance(val, bool) or not isinstance(val, typ):
        raise SpecError(f"{path}.{key}", f"expected {typ.__name__}")
    return val


def _built(path, make, *args):
    """``make(*args)``, its StructureError raised as a SpecError at path."""
    try:
        return make(*args)
    except StructureError as exc:
        raise SpecError(path, str(exc))


def _need(value, section):
    """The value of a spec section that a command needs, or a SpecError at
    the section when the spec has none."""
    if value is None:
        raise SpecError(section, f"command needs the spec section {section!r}")
    return value


class Spec:
    """Parsed spec file contents; raw dict round-trips canonically.

    The ideal and the IM connection are kept raw (indices, cochain) so that
    failures of their mathematical invariants surface as failed checks, not
    as parse errors; ``build_ideal``/``build_imc`` construct the validated
    objects on demand, and raise a SpecError at the first section they
    need that the spec lacks (the ideal before the IM connection).
    """

    def __init__(self, names, A, ideal_indices=None, conn=None, im_cochain=None,
                 cochains=(), curving=None):
        self.names = names
        self.A = A
        self.ideal_indices = tuple(ideal_indices) if ideal_indices else None
        self.conn = conn
        self.im_cochain = im_cochain
        self.cochains = list(cochains)
        self.curving = curving

    def build_ideal(self):
        return IdealBundle(self.A, _need(self.ideal_indices, "ideal"))

    def build_imc(self):
        _need(self.ideal_indices, "ideal")
        cochain = _need(self.im_cochain, "im_connection")
        return IMConnection(self.build_ideal(), cochain)

    def to_dict(self):
        n = self.A.nvars
        names = self.names
        doc = {
            "chart": {"dim": n, "variables": list(names)},
            "algebroid": {
                "rank": self.A.rank,
                "structure": _table_to_dict(self.A.structure, names),
                "anchor": _table_to_dict(self.A.anchor, names),
            },
        }
        if self.ideal_indices is not None:
            doc["ideal"] = {"indices": list(self.ideal_indices)}
        if self.conn is not None:
            doc["connection"] = connection_to_dict(self.conn, names)
        if self.im_cochain is not None:
            doc["im_connection"] = {"cochain": cochain_to_dict(self.im_cochain, names)}
        if self.cochains:
            doc["cochains"] = [cochain_to_dict(c, names) for c in self.cochains]
        if self.curving is not None:
            doc["curving"] = {"form": vform_to_dict(self.curving, names)}
        return doc


def _components_to_dict(vf, names):
    """The component table of a form, keyed 'b|a1,a2,...'."""
    return {f"{b}|{','.join(map(str, idx))}": poly_to_str(p, names)
            for (b, idx), p in sorted(vf.comps.items())}


def _components_from_dict(table, nvars, names, path):
    """Form components {(b, idx): Poly} of a table keyed 'b|a1,a2,...'; an
    entry's errors are reported at path.key."""
    comps = {}
    for key, text in table.items():
        kpath = f"{path}.{key}"
        if "|" not in key:
            raise SpecError(kpath, "component key must be 'b|a1,a2,...'")
        bpart, apart = key.split("|", 1)
        b = _ints(kpath, bpart, 1)[0]
        idx = _ints(kpath, apart)
        comps[(b, idx)] = _poly(kpath, text, nvars, names)
    return comps


def vform_to_dict(vf, names):
    return {
        "bundle_rank": vf.rank,
        "degree": vf.degree,
        "components": _components_to_dict(vf, names),
    }


def vform_from_dict(data, nvars, names, path):
    rank = _require(data, "bundle_rank", path, int)
    degree = _require(data, "degree", path, int)
    comps = _components_from_dict(_require(data, "components", path, dict), nvars, names,
                                  f"{path}.components")
    return _built(path, VForm, nvars, rank, degree, comps)


def cochain_to_dict(c, names):
    tables = {}
    for (k, I, J), vf in sorted(c.comps.items()):
        key = f"{','.join(map(str, I))}|{','.join(map(str, J))}"
        tables.setdefault(str(k), {})[key] = _components_to_dict(vf, names)
    return {"p": c.p, "q": c.q, "bundle_rank": c.rank, "tables": tables}


def cochain_from_dict(data, A, names, path):
    p = _require(data, "p", path, int)
    q = _require(data, "q", path, int)
    rank = _require(data, "bundle_rank", path, int)
    comps = {}
    tables_data = _require(data, "tables", path, dict)
    for kstr in tables_data:
        kpath = f"{path}.tables.{kstr}"
        try:
            k = int(kstr)
        except ValueError:
            raise SpecError(kpath, "table key must be an integer level")
        row = _require(tables_data, kstr, f"{path}.tables", dict)
        for ijkey in row:
            epath = f"{kpath}.{ijkey}"
            if "|" not in ijkey:
                raise SpecError(epath, "entry key must be 'I|J'")
            entry = _require(row, ijkey, kpath, dict)
            ipart, jpart = ijkey.split("|", 1)
            I = _ints(epath, ipart)
            J = _ints(epath, jpart)
            vcomps = _components_from_dict(entry, A.nvars, names, epath)
            comps[(k, I, J)] = _built(epath, VForm, A.nvars, rank, q - k, vcomps)
    return _built(path, WeilCochain, A, rank, p, q, comps)


def connection_to_dict(conn, names):
    return {
        "bundle_rank": conn.rank,
        "christoffels": _table_to_dict(conn.christoffels(), names),
    }


def connection_from_dict(data, nvars, names, path):
    rank = _require(data, "bundle_rank", path, int)
    # LinearConnection rejects a key past the bundle, located at path
    table = _table_from_dict(data, "christoffels", path, nvars, names, 3)
    return _built(path, LinearConnection, nvars, rank, table)


def load_spec(data):
    """Parse a spec document into validated objects (raises SpecError)."""
    if not isinstance(data, dict):
        raise SpecError("$", "spec document must be a JSON object")
    chart = _require(data, "chart", "$", dict)
    n = _require(chart, "dim", "chart", int)
    if n < 0:
        raise SpecError("chart.dim", "dimension must be nonnegative")
    names = chart.get("variables", default_names(n))
    if not isinstance(names, list) or len(names) != n \
            or not all(isinstance(s, str) for s in names):
        raise SpecError("chart.variables", f"expected {n} variable names")
    if len(set(names)) != n:
        raise SpecError("chart.variables", "variable names must be distinct")

    alg = _require(data, "algebroid", "$", dict)
    r = _require(alg, "rank", "algebroid", int)
    structure = _table_from_dict(alg, "structure", "algebroid", n, names, 3, {},
                                 lambda i, j, k: 1 <= i < j <= r and 1 <= k <= r,
                                 f"index out of range (need 1 <= i < j <= {r})")
    anchor = _table_from_dict(alg, "anchor", "algebroid", n, names, 2, {},
                              lambda i, a: 1 <= i <= r and 1 <= a <= n)
    A = _built("algebroid", AlgebroidPresentation, n, r, structure, anchor)

    ideal_indices = None
    if "ideal" in data:
        indices = _require(data["ideal"], "indices", "ideal", list)
        if not all(type(i) is int and 1 <= i <= r for i in indices):
            raise SpecError("ideal.indices", f"indices must be integers in 1..{r}")
        ideal_indices = tuple(indices)

    conn = None
    if "connection" in data:
        conn = connection_from_dict(data["connection"], n, names, "connection")

    im_cochain = None
    if "im_connection" in data:
        if ideal_indices is None:
            raise SpecError("im_connection", "an IM connection needs an ideal")
        cdata = _require(data["im_connection"], "cochain", "im_connection", dict)
        im_cochain = cochain_from_dict(cdata, A, names, "im_connection.cochain")

    cochains = []
    if "cochains" in data:
        if not isinstance(data["cochains"], list):
            raise SpecError("cochains", "expected a list")
        for t, cdata in enumerate(data["cochains"]):
            cochains.append(cochain_from_dict(cdata, A, names, f"cochains[{t}]"))

    curving = None
    if "curving" in data:
        fdata = _require(data["curving"], "form", "curving", dict)
        curving = vform_from_dict(fdata, n, names, "curving.form")

    return Spec(names, A, ideal_indices, conn, im_cochain, cochains, curving)


def _json_int(text):
    """An integer literal of the spec file, its digit string measured before
    it is converted, whatever the interpreter's int-digits limit."""
    if (digits := len(text.lstrip("-"))) > _MAX_DIGITS:
        raise ValueError(f"integer literal of {digits} digits exceeds the limit "
                         f"of {_MAX_DIGITS} digits")
    return int(text)


def load_spec_path(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_json_int)
    except OSError as exc:
        raise SpecError(str(path), f"cannot read file: {exc}")
    except json.JSONDecodeError:
        # the decoder's own message and position differ between interpreters
        raise SpecError(str(path), "invalid JSON: not a well-formed JSON document")
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an integer literal past
        # the digit limit, or nesting past the recursion limit
        raise SpecError(str(path), f"invalid JSON: {exc}")
    return load_spec(data)


def dumps_canonical(doc):
    """Canonical spec-file bytes: sorted keys, two-space indent, newline EOF."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
