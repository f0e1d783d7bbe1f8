"""JSON documents: presentation descriptions, polynomial expression
parsing, and machine-readable reports.

A presentation document either lists an explicit alphabet and relations or
names a builtin family with its parameters, never both; the command line's
builtin flags build the same document, and building fills in its defaults.
Reports serialize with sorted keys so identical inputs give byte-identical
output (timing excluded).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field, fields, replace
from typing import Any, Callable, Optional

from .fields import PrimeField
from .kostant import big_system, conjectural_system, small_system
from .polynomials import Polynomial
from .rewriting import RewritingSystem
from .words import Alphabet, Generator


class DocumentError(ValueError):
    """Malformed presentation document or expression."""


@dataclass
class PresentationDocument:
    """Either an explicit presentation or a builtin selector."""

    p: Optional[int] = None
    alphabet: Optional[list[dict]] = None  # entries: name, degree, rank
    relations: Optional[list[list[list]]] = None  # [[coeff, [names...]], ...]
    builtin: Optional[str] = None  # "big" | "small" | "conjectural"
    params: dict = dataclass_field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "PresentationDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DocumentError(f"document must be a JSON object, not {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise DocumentError(f"unknown key {key!r} in the document")
        return cls(**data)

    def to_json(self) -> str:
        data: dict[str, Any] = {}
        if self.builtin:
            data["builtin"] = self.builtin
            data["params"] = self.params
        if self.p is not None:
            data["p"] = self.p
        if self.alphabet is not None:
            data["alphabet"] = self.alphabet
        if self.relations is not None:
            data["relations"] = self.relations
        return json.dumps(data, sort_keys=True, indent=2)

    def build(self) -> "LoadedPresentation":
        """Build the presentation; a document of the wrong shape raises
        DocumentError naming what is missing or mistyped."""
        try:
            return self._build()
        except KeyError as exc:
            raise DocumentError(f"malformed document: missing key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise DocumentError(f"malformed document: {exc}") from None

    def _build(self) -> "LoadedPresentation":
        if self.builtin:
            builder, params = self._builtin_params()
            document = self if params == self.params else replace(self, params=params)
            return LoadedPresentation(system=builder(**params), document=document)
        if self.p is None or self.alphabet is None or self.relations is None:
            raise DocumentError("document needs either a builtin or p/alphabet/relations")
        if self.params != {}:
            raise DocumentError(f"params belong to a builtin document, not {self.params!r}")
        field = PrimeField(_integer(self.p, "p"))
        seen = set()
        gens = []
        for entry in self.alphabet:
            name = entry["name"]
            _check_generator_name(name)
            if name in seen:
                raise DocumentError(f"duplicate generator name {name!r}")
            seen.add(name)
            degree = _integer(entry["degree"], f"the degree of generator {name!r}")
            rank = _integer(entry["rank"], f"the rank of generator {name!r}")
            gens.append(Generator(name, degree, rank))
        alphabet = Alphabet(gens)
        relations = []
        for number, rel in enumerate(self.relations, 1):
            terms = []
            for term in rel:
                where = f"term {term!r} of relation {number}"
                if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], list)):
                    raise DocumentError(f"{where} is not a pair [coefficient, [names...]]")
                coeff, names = term
                _integer(coeff, f"the coefficient of {where}")
                for n in names:
                    if n not in seen:
                        raise DocumentError(f"relation uses undeclared generator {n!r}")
                terms.append((coeff, alphabet.word(*names)))
            relations.append(Polynomial.from_terms(field, alphabet, terms))
        system = RewritingSystem.from_relations(alphabet, field, relations)
        return LoadedPresentation(system=system, document=self)

    def _builtin_params(self) -> tuple[Callable[..., RewritingSystem], dict]:
        """The builtin's builder and its parameters over their defaults, the
        one place they are filled; each is checked as a document's field is."""
        if self.p is not None or self.alphabet is not None or self.relations is not None:
            raise DocumentError("a builtin document cannot also give p, alphabet or relations")
        if self.builtin not in BUILTINS:
            raise DocumentError(f"unknown builtin {self.builtin!r}")
        if not isinstance(self.params, dict):
            raise DocumentError(f"params must be a JSON object, not {self.params!r}")
        builder, defaults = BUILTINS[self.builtin]
        for key in self.params:
            if key not in defaults:
                raise DocumentError(f"unknown parameter {key!r} of builtin {self.builtin!r}")
        kwargs = {}
        for key, default in defaults.items():
            if default is None:  # required: conjectural's variant, a name
                kwargs[key] = self.params[key]
            else:
                kwargs[key] = _integer(self.params.get(key, default), f"parameter {key!r}")
        return builder, kwargs


# builtin -> (builder, {parameter: default}): the one table of builtins.  A
# default of None marks a required parameter; every other one is an integer.
BUILTINS = {
    "small": (small_system, {"l": 3}),
    "big": (big_system, {"n": 3, "p": 2, "exponent_bound": 1}),
    "conjectural": (
        conjectural_system,
        {"variant": None, "n": 3, "p": 2, "index_bound": 1},
    ),
}


@dataclass
class LoadedPresentation:
    system: RewritingSystem
    document: PresentationDocument


def parse_expression(system: RewritingSystem, text: str) -> Polynomial:
    """Sums of terms split on '+'; a term is an optional leading integer
    coefficient followed by whitespace-separated generator names; '1' (or
    'e') alone is the empty word."""
    field = system.field
    alphabet = system.alphabet
    terms = []
    for pos, chunk in enumerate(text.split("+")):
        chunk = chunk.strip()
        if not chunk:
            raise DocumentError(f"empty term at position {pos} in {text!r}")
        tokens = chunk.split()
        coeff = 1
        if tokens and _is_integer(tokens[0]):
            coeff = int(tokens[0])
            tokens = tokens[1:]
        if tokens == ["1"] or tokens == ["e"]:
            tokens = []
        word = []
        for tok in tokens:
            try:
                word.append(alphabet.index(tok))
            except KeyError:
                raise DocumentError(
                    f"unknown generator {tok!r} in term {pos} of {text!r}"
                ) from None
        terms.append((coeff, tuple(word)))
    return Polynomial.from_terms(field, alphabet, terms)


def _is_integer(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _integer(value, what: str) -> int:
    """The value, which must be an int: JSON true, false and floats are
    refused although Python would compute with them."""
    if type(value) is not int:
        raise DocumentError(f"{what} must be an integer, not {value!r}")
    return value


def _check_generator_name(name) -> None:
    """A generator name must read back as itself in an expression: a
    nonempty string that is not '1', 'e' or an integer coefficient and
    contains neither whitespace nor '+'."""
    if not isinstance(name, str):
        raise DocumentError(f"generator name {name!r} is not a string")
    if (
        not name
        or name in ("1", "e")
        or _is_integer(name)
        or "+" in name
        or any(ch.isspace() for ch in name)
    ):
        raise DocumentError(
            f"generator name {name!r} cannot be written in an expression "
            f"(reserved: '1', 'e', integers, whitespace and '+')"
        )


@dataclass
class Report:
    """A deterministic command report; `timing` is excluded from equality
    and canonical serialization."""

    command: str
    params: dict
    verdicts: dict
    tables: dict = dataclass_field(default_factory=dict)
    timing: float | None = None

    def to_json(self) -> str:
        data = {
            "command": self.command,
            "params": self.params,
            "verdicts": self.verdicts,
            "tables": self.tables,
        }
        return json.dumps(data, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        return cls(
            command=data["command"],
            params=data["params"],
            verdicts=data["verdicts"],
            tables=data.get("tables", {}),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Report)
            and self.command == other.command
            and self.params == other.params
            and self.verdicts == other.verdicts
            and self.tables == other.tables
        )
