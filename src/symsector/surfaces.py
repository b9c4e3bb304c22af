"""Combinatorial sectorial decompositions of glued surfaces.

A surface is presented as a list of components (the pieces left after
cutting along disjoint arcs) plus a pairing of cut slots into arcs.
Each component carries the topological type (genus, ends) of its
completion, with the end created by each cut counted among the ends.
The decomposition of the symmetric square is then purely combinatorial:
sector pieces are unordered pairs of components, hypersurfaces are
(arc, component) incidences, and corners are pairs of arcs.
"""

import itertools
import json

PIECE_COUNT = "pieces"
HYPER_COUNT = "hypersurfaces"
CORNER_COUNT = "corners"

SEV_ERROR = "error"
SEV_WARNING = "warning"


class UnknownHypersurfaceError(KeyError):
    """No hypersurface with the requested (arc, component) pair."""


class UnknownPieceError(KeyError):
    """No sector piece with the requested component pair."""


class Component:
    """One cut component: completed type (genus, ends) plus its slots."""

    def __init__(self, cid, genus, ends, slots):
        self.id = str(cid)
        self.genus = int(genus)
        self.ends = int(ends)
        self.slots = tuple(str(s) for s in slots)

    def to_json_dict(self):
        return {
            "ends": self.ends,
            "genus": self.genus,
            "id": self.id,
            "slots": list(self.slots),
        }


class CombSurface:
    """Surface presented by components glued along arcs.

    arcs is a list of slot-id pairs; arc ids s1, s2, ... follow the
    listing order.  expected_euler, when given, is checked by validate.
    """

    def __init__(self, components, arcs, expected_euler=None, name=None):
        self.components = list(components)
        self.arcs = [(str(a), str(b)) for a, b in arcs]
        self.expected_euler = expected_euler
        self.name = name

    @property
    def arc_ids(self):
        return [f"s{k + 1}" for k in range(len(self.arcs))]

    def component(self, cid):
        for comp in self.components:
            if comp.id == cid:
                return comp
        raise KeyError(cid)

    def slot_owner(self, slot):
        for comp in self.components:
            if slot in comp.slots:
                return comp.id
        return None

    def to_json_dict(self):
        out = {
            "arcs": [list(pair) for pair in self.arcs],
            "components": [c.to_json_dict() for c in self.components],
        }
        if self.expected_euler is not None:
            out["expected_euler"] = self.expected_euler
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_json_dict(cls, data):
        """Surface from parsed JSON; a field of the wrong type is a TypeError."""
        _check_json_types(data)
        comps = [
            Component(c["id"], c["genus"], c["ends"], c.get("slots", []))
            for c in data["components"]
        ]
        return cls(
            comps,
            [tuple(pair) for pair in data.get("arcs", [])],
            data.get("expected_euler"),
            data.get("name"),
        )

    def dumps(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    def loads(cls, text):
        return cls.from_json_dict(json.loads(text))


def _check_json_types(data):
    """Raise TypeError where a surface field has the wrong JSON type.

    The surface and its components are objects, genus, ends and
    expected_euler integers, slots and arcs strings.
    """

    def strings(value, length=None):
        return (isinstance(value, list) and all(isinstance(v, str) for v in value)
                and length in (None, len(value)))

    def check_integer(key, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{key} must be an integer, not {value!r}")

    if not isinstance(data, dict):
        raise TypeError("a surface must be a JSON object")
    if data.get("expected_euler") is not None:
        check_integer("expected_euler", data["expected_euler"])
    for comp in data["components"]:
        if not isinstance(comp, dict):
            raise TypeError("a component must be a JSON object")
        for key in ("genus", "ends"):
            check_integer(key, comp[key])
        if not strings(comp.get("slots", [])):
            raise TypeError(f"slots must be a list of strings, not {comp['slots']!r}")
    for arc in data.get("arcs", []):
        if not strings(arc, 2):
            raise TypeError(f"an arc must be a list of two strings, not {arc!r}")


def euler_characteristic(surface):
    """chi of the glued surface: sum over completions minus arc count."""
    total = sum(2 - 2 * c.genus - c.ends for c in surface.components)
    return total - len(surface.arcs)


def validate(surface):
    """Structural checks; returns a list of violation dicts.

    Violations carry code, severity and detail.  Severity "error" means
    the decomposition is not well defined; disconnectedness is only a
    warning since the decomposition still makes sense per part.
    """
    violations = []

    def report(code, severity, detail):
        violations.append({"code": code, "severity": severity, "detail": detail})

    seen_ids = set()
    declared = {}
    for comp in surface.components:
        if comp.id in seen_ids:
            report("DUPLICATE_COMPONENT_ID", SEV_ERROR, comp.id)
        seen_ids.add(comp.id)
        if comp.genus < 0 or comp.ends < 0:
            report("NEGATIVE_COUNT", SEV_ERROR, comp.id)
        for slot in comp.slots:
            if slot in declared:
                report("DUPLICATE_SLOT", SEV_ERROR, slot)
            declared[slot] = comp.id

    used = {}
    for k, (sa, sb) in enumerate(surface.arcs):
        arc_id = f"s{k + 1}"
        if sa == sb:
            report("ARC_SELF_SLOT", SEV_ERROR, arc_id)
        for slot in (sa, sb):
            if slot not in declared:
                report("UNKNOWN_SLOT", SEV_ERROR, f"{arc_id}:{slot}")
            elif slot in used:
                report("SLOT_REUSED", SEV_ERROR, slot)
            else:
                used[slot] = arc_id

    for slot in declared:
        if slot not in used:
            report("SLOT_UNPAIRED", SEV_ERROR, slot)

    if surface.expected_euler is not None:
        chi = euler_characteristic(surface)
        if chi != surface.expected_euler:
            report(
                "EULER_MISMATCH",
                SEV_ERROR,
                f"computed {chi}, expected {surface.expected_euler}",
            )

    if len(surface.components) > 1:
        adj = {c.id: set() for c in surface.components}
        for sa, sb in surface.arcs:
            ca = declared.get(sa)
            cb = declared.get(sb)
            if ca is not None and cb is not None and ca != cb:
                adj[ca].add(cb)
                adj[cb].add(ca)
        seen = set()
        stack = [surface.components[0].id]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adj[cur] - seen)
        if len(seen) != len(surface.components):
            report("DISCONNECTED", SEV_WARNING, "surface is not connected")

    return violations


def is_valid(surface):
    """True when validate reports no error-severity violations."""
    return all(v["severity"] != SEV_ERROR for v in validate(surface))


def component_symbol(comp):
    """Display symbol of a completed component.

    The three-ended sphere is the pair of pants P and the two-ended
    sphere is C*; everything else keeps a generic completion symbol.
    """
    if comp.genus == 0 and comp.ends == 3:
        return "P"
    if comp.genus == 0 and comp.ends == 2:
        return "C*"
    if comp.genus == 0 and comp.ends == 1:
        return "C"
    return f"Sigma-hat({comp.id})"


_SYM2_SPECIAL = {
    "P": "(C*)^2",
    "C*": "C x C*",
}


def completion_of(surface, cid_i, cid_j):
    """Completion of the sector piece indexed by two components.

    The diagonal pieces complete to the symmetric square of one
    completed component and the off-diagonal pieces to a product; the
    standard identifications Sym2(P) = (C*)^2 and Sym2(C*) = C x C*
    are applied for display.

    Raises
    ------
    UnknownPieceError
        If either component id does not exist.
    """
    try:
        ci, cj = surface.component(cid_i), surface.component(cid_j)
    except KeyError as exc:
        raise UnknownPieceError(exc.args[0]) from None
    if cid_i == cid_j:
        base = component_symbol(ci)
        display = _SYM2_SPECIAL.get(base, f"Sym2({base})")
        return {"form": "SYM2", "of": [cid_i], "display": display}
    si = component_symbol(ci)
    sj = component_symbol(cj)
    return {"form": "PRODUCT", "of": [cid_i, cid_j], "display": f"{si} x {sj}"}


def fiber_of(surface, arc_id, cid):
    """Fiber of one hypersurface over its classifying interval.

    When the arc cuts into the component the generic fiber is the
    completion of the component with the arc band removed; otherwise it
    is a point of the arc times the untouched component.

    Raises
    ------
    UnknownHypersurfaceError
        If either index does not exist.
    """
    if arc_id not in surface.arc_ids:
        raise UnknownHypersurfaceError(arc_id)
    try:
        surface.component(cid)
    except KeyError:
        raise UnknownHypersurfaceError(cid) from None
    k = surface.arc_ids.index(arc_id)
    sa, sb = surface.arcs[k]
    owners = {surface.slot_owner(sa), surface.slot_owner(sb)}
    adjacent = cid in owners
    if adjacent:
        text = f"COMPLETION_OF({cid} MINUS BAND({arc_id}))"
    else:
        text = f"POINT({arc_id}) x {cid}"
    return {"adjacent": adjacent, "text": text}


class Decomposition:
    """Sectorial decomposition data of one glued surface."""

    def __init__(self, surface):
        self.surface = surface
        self.minima = [c.id for c in surface.components]
        self.saddles = list(surface.arc_ids)
        self.pieces = [
            (self.minima[i], self.minima[j])
            for i in range(len(self.minima))
            for j in range(i, len(self.minima))
        ]
        self.hypersurfaces = [
            (s, m) for s in self.saddles for m in self.minima
        ]
        self.corners = list(itertools.combinations(self.saddles, 2))

    def counts(self):
        return {
            PIECE_COUNT: len(self.pieces),
            HYPER_COUNT: len(self.hypersurfaces),
            CORNER_COUNT: len(self.corners),
        }

    def to_report(self):
        surface = self.surface
        report = {
            "counts": self.counts(),
            "euler": euler_characteristic(surface),
            "surface": surface.to_json_dict(),
            "pieces": [
                {
                    "pair": list(pair),
                    "completion": completion_of(surface, *pair),
                }
                for pair in self.pieces
            ],
            "hypersurfaces": [
                {
                    "saddle": s,
                    "minimum": m,
                    "fiber": fiber_of(surface, s, m),
                }
                for s, m in self.hypersurfaces
            ],
            "corners": [
                {"pair": list(pair), "tag": corner_tag(*pair)}
                for pair in self.corners
            ],
            "lg_labels": lg_labels(surface),
        }
        return report


def corner_tag(saddle_i, saddle_j):
    """Symbolic product form of the corner shared by two hypersurfaces."""
    return (
        f"C_{{{saddle_i},{saddle_j}}} = "
        f"gamma_{{{saddle_i}}} x gamma_{{{saddle_j}}}"
    )


def enumerate_decomposition(surface):
    """Decomposition of a structurally valid surface.

    Raises
    ------
    ValueError
        If validate reports error-severity violations.
    """
    bad = [v for v in validate(surface) if v["severity"] == SEV_ERROR]
    if bad:
        codes = ", ".join(v["code"] for v in bad)
        raise ValueError(f"invalid surface: {codes}")
    return Decomposition(surface)


def _four_punctured_structure(surface):
    """The (P, C*) pair when the surface matches the four-punctured sphere."""
    if len(surface.components) != 2 or len(surface.arcs) != 1:
        return None
    types = sorted((c.genus, c.ends) for c in surface.components)
    if types != [(0, 2), (0, 3)]:
        return None
    sa, sb = surface.arcs[0]
    owners = {surface.slot_owner(sa), surface.slot_owner(sb)}
    if None in owners or len(owners) != 2:
        return None
    pants = next(c.id for c in surface.components if c.ends == 3)
    cyl = next(c.id for c in surface.components if c.ends == 2)
    return pants, cyl


def lg_labels(surface):
    """Symbolic Landau-Ginzburg labels of the model pieces.

    Only the four-punctured sphere (pair of pants glued to a cylinder
    along one arc) carries the standard labels; every other surface
    returns an empty map.
    """
    if _four_punctured_structure(surface) is None:
        return {}
    return {
        "U_MM": "W=u1+u2 on (C*)^2",
        "U_PP": "W=u1 on C x C*",
        "U_MP+U_PP": "P x (C* with one stop)",
        "mirror": "{xyz=0} in C^3",
    }


def builtin_surface(name):
    """Built-in example surfaces by name.

    Raises
    ------
    KeyError
        For unknown names.
    """
    if name == "p1-minus-4pts":
        comps = [
            Component("minus", 0, 3, ["cut_m"]),
            Component("plus", 0, 2, ["cut_p"]),
        ]
        return CombSurface(
            comps, [("cut_m", "cut_p")], expected_euler=-2, name=name
        )
    if name == "example-5.3":
        comps = [
            Component("m1", 0, 1, ["out_a", "out_b"]),
            Component("m2", 0, 1, ["in_a"]),
            Component("m3", 0, 1, ["in_b"]),
        ]
        return CombSurface(
            comps,
            [("out_a", "in_a"), ("out_b", "in_b")],
            expected_euler=1,
            name=name,
        )
    raise KeyError(name)


BUILTIN_NAMES = ("example-5.3", "p1-minus-4pts")


def random_valid_surface(m, n, rng):
    """Random structurally valid surface with m arcs and n components.

    Slots are distributed uniformly over components, so components may
    touch no arc at all (the surface is then possibly disconnected,
    which validate only warns about).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 components and m >= 0 arcs")
    owners = rng.integers(0, n, size=2 * m)
    slots = [[] for _ in range(n)]
    for idx, owner in enumerate(owners):
        slots[owner].append(f"t{idx}")
    comps = []
    for j in range(n):
        genus = int(rng.integers(0, 3))
        extra = int(rng.integers(1, 3))
        comps.append(
            Component(f"m{j + 1}", genus, len(slots[j]) + extra, slots[j])
        )
    order = rng.permutation(2 * m)
    names = [f"t{idx}" for idx in order]
    arcs = [(names[2 * k], names[2 * k + 1]) for k in range(m)]
    surface = CombSurface(comps, arcs, name=f"random-{m}-{n}")
    surface.expected_euler = euler_characteristic(surface)
    return surface


def counts_formula(m, n):
    """Closed-form decomposition counts for m arcs and n components."""
    return {
        PIECE_COUNT: n * (n + 1) // 2,
        HYPER_COUNT: m * n,
        CORNER_COUNT: m * (m - 1) // 2,
    }


def load_surface(spec):
    """Surface from a builtin name or a JSON file path."""
    if spec in BUILTIN_NAMES:
        return builtin_surface(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return CombSurface.from_json_dict(data)
