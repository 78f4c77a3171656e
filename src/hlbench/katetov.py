"""Finite-scale checking of candidate morphisms between ideal presentations.

A presentation fixes a finite ground set, a list of named generators, and a
parameter-stamped membership surrogate.  A morphism f from presentation I
(on X) to presentation J (on Y) is a total map Y -> X, held as its table:
a plain mapping from Y to X.  A morphism file gives the table line by line
or names a formula (`formula_table`) that stands for it.  The checker pulls
every generator of I back through f and asks J's surrogate whether the
preimage is small.  Every verdict is about the surrogate at its stated
parameters and nothing more; reports say so verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Iterator, Mapping

from .errors import MorphismDomainError, NotFoundError, ParseError, RangeError, ShapeError, shown
from .ideals import GridSet, NatSet, _ints_below, _member_cell, _member_int, _plain_ints_below, _prechecked
from .ideals import column_profile, decimal_text, dyadic_counts, frac_text, summable_weight
from .treecore import (
    ELEMENT_CAP,
    WORK_CAP,
    format_node,
    header_int,
    is_node,
    lenlex_key,
    level_nodes,
    numbered_body,
    parse_node,
    read_columns,
    read_format,
)

SCOPE_SENTENCE = (
    "This verdict certifies only the finite-scale surrogate statement at the "
    "stated parameters; it is not a statement about the infinite ideals."
)

GROUND_KINDS = ("interval", "grid", "nodes")
NODES_GROUND_MAX = 16
# The largest `params` an ideal file may give each ground kind: a grid of side
# n has n * n cells, and ELEMENT_CAP is a power of four.
PARAMS_MAX = {"interval": ELEMENT_CAP, "grid": 1 << (ELEMENT_CAP.bit_length() - 1) // 2}


# ---------------------------------------------------------------------------
# grounds and presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ground:
    kind: str  # interval [0,N) | grid [0,N)^2 | nodes 2^{<D}
    size: int

    def __post_init__(self):
        if self.kind not in GROUND_KINDS:
            raise ValueError(f"ground kind must be one of {GROUND_KINDS}, got {self.kind!r}")
        if self.size < 1:
            raise RangeError(f"ground size {shown(self.size)} must be >= 1")
        if self.kind == "nodes" and self.size > NODES_GROUND_MAX:
            raise RangeError(f"nodes ground depth {shown(self.size)} exceeds cap {NODES_GROUND_MAX}")

    def members(self) -> Iterator:
        if self.kind == "interval":
            yield from range(self.size)
        elif self.kind == "grid":
            yield from product(range(self.size), repeat=2)  # column by column
        else:
            for n in range(self.size):
                yield from level_nodes(n)

    def __contains__(self, el) -> bool:
        # The member rules of NatSet and GridSet: bools are ints to isinstance, but not members.
        if self.kind == "interval":
            return _member_int(el, self.size)
        if self.kind == "grid":
            return _member_cell(el, self.size)
        return is_node(el) and len(el) < self.size

    def holds(self, values) -> bool:
        """Whether every value is a member: one bulk test of exact ints (pairs on a grid), else one test each."""
        flat = values if self.kind == "interval" else None
        if self.kind == "grid" and set(map(type, values)) <= {tuple} and set(map(len, values)) <= {2}:
            flat = list(chain.from_iterable(values))
        return (flat is not None and _plain_ints_below(flat, self.size)) or all(map(self.__contains__, values))

    def check(self, elements) -> frozenset:
        """The elements as a frozenset, each checked against the ground; RangeError names one outside it."""
        elements = frozenset(elements)
        if not self.holds(elements):
            bad = next(el for el in elements if el not in self)
            size = shown(self.size)
            span = {"interval": f"[0, {size})", "grid": f"[0, {size})^2", "nodes": f"{{0,1}}^<{size}"}[self.kind]
            raise RangeError(f"member {shown(bad)!r} outside {span}")
        return elements

    @property
    def member_count(self) -> int:
        return {"interval": self.size, "grid": self.size * self.size, "nodes": (1 << self.size) - 1}[self.kind]

    def parse_element(self, text: str):
        try:
            if self.kind == "interval":
                el = int(text)
            elif self.kind == "grid":
                col, _, row = text.partition(",")
                el = (int(col), int(row))
            else:
                el = parse_node(text)
        except ValueError:
            raise ValueError(f"bad {self.kind} element {text!r}") from None
        if el not in self:
            raise ValueError(f"element {text!r} outside the {self.kind} ground of size {self.size}")
        return el

    def parse_elements(self, tokens: list[str]) -> list:
        """The elements the tokens spell, in order, each checked once; ValueError names the first bad token.

        Interval tokens are checked in bulk, as the natset reader checks its
        members; any other ground, or a failed bulk check, parses token by token.
        """
        if self.kind == "interval":
            values = _ints_below(tokens, self.size)
            if values is not None:
                return values
        return list(map(self.parse_element, tokens))

    def format_element(self, el) -> str:
        if self.kind == "interval":
            return str(el)
        if self.kind == "grid":
            return f"{el[0]},{el[1]}"
        return format_node(el)

    @property
    def sort_key(self):
        """`sorted` key of the listing order: length-lex for nodes, natural otherwise."""
        return lenlex_key if self.kind == "nodes" else None


@dataclass(frozen=True)
class Generator:
    name: str
    elements: frozenset


@dataclass(frozen=True)
class FiniteIdealPresentation:
    name: str
    ground: Ground
    generators: tuple[Generator, ...]
    surrogate: "Surrogate | None" = None

    def __post_init__(self):
        for gen in self.generators:
            for el in gen.elements:
                if el not in self.ground:
                    raise RangeError(f"generator {gen.name!r} has element outside the ground: {shown(el)!r}")

    @cached_property
    def holding(self) -> dict:
        """element -> the element sets of the generators that hold it, in presentation order.

        Built once per presentation, at the cost of the generators' total
        size, so a lookup costs one dict read however many generators there
        are; not a field, so equality and hashing ignore it.
        """
        index: dict = {}
        for gen in self.generators:
            for el in gen.elements:
                index.setdefault(el, []).append(gen.elements)
        return index


# ---------------------------------------------------------------------------
# surrogates
# ---------------------------------------------------------------------------


def _number_text(value: int | Fraction) -> str:
    """str(value) of a nonnegative int or Fraction, however many digits it has."""
    value = Fraction(value)
    return decimal_text(value.numerator) if value.denominator == 1 else frac_text(value)


@dataclass(frozen=True)
class SurrogateVerdict:
    ok: bool
    measure: str


class Surrogate:
    """Named membership predicate with explicit parameters.

    Subclasses are dataclasses whose fields are the parameters, each named
    as in the text format (`GeneratorUnionSurrogate(max=...)`,
    `SummableBoundSurrogate(weight=...)`).  Every parameter is a count or a
    bound, so a negative one is refused.

    `accepts(elements, presentation)`, whoever calls it, checks each element
    against the presentation's ground once (`Ground.check`; RangeError names
    one outside it).  A surrogate of one `ground_kind` then reads them as
    that ground's `ideals` carrier (`carrier`), not checked again.
    """

    name = "surrogate"
    ground_kind = ""  # the one ground kind `carrier` reads, set where it is called

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise RangeError(f"{self.name} {f.name} {shown(value)} must be >= 0")

    def parameters(self) -> dict[str, str]:
        return {f.name: _number_text(getattr(self, f.name)) for f in fields(self)}

    def accepts(self, elements: frozenset, presentation: FiniteIdealPresentation) -> SurrogateVerdict:
        raise NotImplementedError

    def carrier(self, elements, presentation: FiniteIdealPresentation) -> NatSet | GridSet:
        """The checked elements as a NatSet or a GridSet; ShapeError on a ground not of `ground_kind`."""
        ground = presentation.ground
        if ground.kind != self.ground_kind:
            needs = {"interval": "an interval", "grid": "a grid"}[self.ground_kind]
            raise ShapeError(f"{self.name} surrogate needs {needs} ground")
        elements = ground.check(elements)
        if ground.kind == "interval":
            return _prechecked(NatSet, members=elements, bound=ground.size)
        return _prechecked(GridSet, cells=elements, bound=ground.size)

    def stamp(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters().items()))
        return f"{self.name} {params}" if params else self.name


@dataclass(frozen=True)
class DensityWindowSurrogate(Surrogate):
    """Every dyadic window [2^n, 2^(n+1)) with n >= floor has density <= eps."""

    name = "dyadic-density"
    ground_kind = "interval"
    eps: Fraction = Fraction(1, 8)
    floor: int = 0

    def accepts(self, elements, presentation):
        a = self.carrier(elements, presentation)
        counts = dyadic_counts(a)[self.floor :]
        # Window n's density is counts[n - floor] / 2^n; over the common
        # denominator 2^(floor + len(counts)) the densities compare as ints.
        scaled = [count << (len(counts) - i) for i, count in enumerate(counts)]
        top = max(scaled, default=0)
        if top == 0:
            return SurrogateVerdict(True, "no constrained window")
        i = scaled.index(top)  # ties name the first window reaching the maximum
        worst = Fraction(counts[i], 1 << (self.floor + i))
        return SurrogateVerdict(worst <= self.eps, f"max density {_number_text(worst)} at window {self.floor + i}")


@dataclass(frozen=True)
class ColumnBoundSurrogate(Surrogate):
    """Per-column count <= per_column except in at most `exceptional` columns."""

    name = "column-bound"
    ground_kind = "grid"
    per_column: int = 1
    exceptional: int = 0

    def accepts(self, elements, presentation):
        counts = column_profile(self.carrier(elements, presentation))
        over = sum(count > self.per_column for count in counts)
        peak = max(counts)
        return SurrogateVerdict(
            over <= self.exceptional, f"{over} column(s) above {self.per_column}, peak {peak}"
        )


@dataclass(frozen=True)
class GeneratorUnionSurrogate(Surrogate):
    """Membership = covered by a union of at most `max` listed generators.

    The search goes level by level.  One unit of work is one element of a remainder a
    generator is subtracted from; past treecore.WORK_CAP units it raises RangeError.
    """

    name = "generator-union"
    max: int = 1

    def accepts(self, elements, presentation):
        level = {presentation.ground.check(elements)}
        holding = presentation.holding
        seen, work = set(level), 0
        # A cover never takes a generator twice, so no more than len(generators) are tried.
        most = min(self.max, len(presentation.generators))
        for needed in range(most + 1):
            if frozenset() in level:
                return SurrogateVerdict(True, f"covered by {needed} generator(s)")
            if needed == most:
                break
            # rest -> the generators that hold its pivot, its first element in listing order
            covers = {rest: holding.get(min(rest, key=presentation.ground.sort_key), ()) for rest in level}
            work += sum(len(rest) * len(gens) for rest, gens in covers.items())
            if work > WORK_CAP:
                raise RangeError(f"generator-union work {work} above the cap {WORK_CAP}")
            level = {rest - g for rest, gens in covers.items() for g in gens} - seen
            seen |= level
        return SurrogateVerdict(False, f"not covered by any {self.max} generator(s)")


@dataclass(frozen=True)
class SummableBoundSurrogate(Surrogate):
    """Total weight sum(1/(n+1)) at most `weight`."""

    name = "summable-bound"
    ground_kind = "interval"
    weight: Fraction = Fraction(1)

    def accepts(self, elements, presentation):
        total = summable_weight(self.carrier(elements, presentation))
        return SurrogateVerdict(total <= self.weight, f"weight {_number_text(total)}")


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

FORMULAS = ("identity", "column-projection")


def formula_table(name: str, domain: Ground, codomain: Ground) -> dict:
    """The table of a named formula map from `domain` (the target's ground) into `codomain`.

    ShapeError when the grounds do not fit the formula: identity needs equal
    grounds, column-projection a grid and an interval of the same side.
    """
    if name not in FORMULAS:
        raise NotFoundError(f"unknown morphism formula {name!r} (have {FORMULAS})")
    shapes = f"{domain.kind}/{domain.size} -> {codomain.kind}/{codomain.size}"
    if name == "identity":
        if domain != codomain:
            raise ShapeError(f"identity needs equal grounds, got {shapes}")
        return {y: y for y in domain.members()}
    if (domain.kind, codomain.kind) != ("grid", "interval") or domain.size != codomain.size:
        raise ShapeError(f"column-projection needs grid/N -> interval/N, got {shapes}")
    return {y: y[0] for y in domain.members()}


def _check_total(table: Mapping, source: FiniteIdealPresentation, target: FiniteIdealPresentation) -> None:
    src, tgt = source.ground, target.ground
    # Distinct keys, each a member and as many as the target has members, are every member.  The
    # values are read as a view: a set of them would let False stand for 0.
    if len(table) == tgt.member_count and tgt.holds(table.keys()) and src.holds(table.values()):
        return
    missing = [y for y in tgt.members() if y not in table]
    if missing:
        raise MorphismDomainError(
            f"morphism undefined at {tgt.format_element(missing[0])} "
            f"({len(missing)} missing element(s) of the target ground)"
        )
    for y, x in table.items():
        if y not in tgt:
            raise MorphismDomainError(f"table key {y!r} outside the target ground")
        if x not in src:
            raise MorphismDomainError(f"f({tgt.format_element(y)}) = {x!r} lands outside the source ground")


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorCheck:
    generator: str
    ok: bool
    measure: str


@dataclass(frozen=True)
class MorphismReport:
    passed: bool
    source: str
    target: str
    surrogate: str
    parameters: dict[str, str]
    checks: tuple[GeneratorCheck, ...]
    scope: str = SCOPE_SENTENCE

    @property
    def violations(self) -> tuple[GeneratorCheck, ...]:
        return tuple(ch for ch in self.checks if not ch.ok)


def check_morphism(
    table: Mapping, source: FiniteIdealPresentation, target: FiniteIdealPresentation
) -> MorphismReport:
    """Pull every source generator back through the table and ask the target surrogate.

    The table maps each element of the target's ground to one of the
    source's; a formula reaches here as its table (`formula_table`).  The
    report lists one check per generator in presentation order; it
    certifies (or refutes) only the surrogate statement at its parameters.
    """
    if target.surrogate is None:
        raise ValueError(f"target presentation {target.name!r} has no membership surrogate")
    _check_total(table, source, target)
    # Once _check_total has passed, the table's keys are exactly the target's elements.
    fibers: dict = {}  # x -> the target elements y with f(y) = x
    for y, x in table.items():
        fibers.setdefault(x, []).append(y)
    checks: list[GeneratorCheck] = []
    for gen in source.generators:
        preimage = frozenset(chain.from_iterable(map(fibers.get, gen.elements, repeat(()))))
        verdict = target.surrogate.accepts(preimage, target)
        checks.append(GeneratorCheck(gen.name, verdict.ok, verdict.measure))
    return MorphismReport(
        passed=all(ch.ok for ch in checks),
        source=source.name,
        target=target.name,
        surrogate=target.surrogate.name,
        parameters=target.surrogate.parameters(),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# builtin witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinWitness:
    name: str
    morphism: Mapping  # target ground -> source ground
    source: FiniteIdealPresentation
    target: FiniteIdealPresentation
    note: str


def _formula_witness(name: str, formula: str, source, target, note: str) -> BuiltinWitness:
    return BuiltinWitness(name, formula_table(formula, target.ground, source.ground), source, target, note)


def _fin_presentation(bound: int, first: int, surrogate: Surrogate | None) -> FiniteIdealPresentation:
    gens = tuple(Generator(f"{{{m}}}", frozenset({m})) for m in range(first, bound))
    return FiniteIdealPresentation("fin", Ground("interval", bound), gens, surrogate)


def _builtin_fin_to_z() -> BuiltinWitness:
    # Singletons {m}, m >= 8, each confined to one dyadic window of density
    # 2^-floor(log2 m) <= 1/8; the identity pulls them back unchanged.
    bound = 128
    surrogate = DensityWindowSurrogate(eps=Fraction(1, 8), floor=0)
    source = _fin_presentation(bound, 8, None)
    target = FiniteIdealPresentation("density-zero", Ground("interval", bound), source.generators, surrogate)
    note = "identity on [0,128); generators are the singletons {8}..{127}"
    return _formula_witness("fin_to_z_identity", "identity", source, target, note)


def _builtin_summable_to_z() -> BuiltinWitness:
    bound = 256
    squares = frozenset(k * k for k in range(1, 16) if k * k < bound)
    pow2 = frozenset(1 << k for k in range(8))
    factorials = frozenset(x for x in (1, 2, 6, 24, 120) if x < bound)
    gens = (
        Generator("squares", squares),
        Generator("pow2", pow2),
        Generator("factorials", factorials),
    )
    source = FiniteIdealPresentation("summable", Ground("interval", bound), gens, None)
    target = FiniteIdealPresentation(
        "density-zero",
        Ground("interval", bound),
        gens,
        DensityWindowSurrogate(eps=Fraction(1, 4), floor=4),
    )
    note = "identity on [0,256); sparse summable generator samples have window density <= 1/4 past window 4"
    return _formula_witness("summable_to_z_identity", "identity", source, target, note)


def _builtin_ed_to_finxfin() -> BuiltinWitness:
    size = 32
    col3 = frozenset((3, r) for r in range(size))
    col17 = frozenset((17, r) for r in range(size))
    diag = frozenset((x, x) for x in range(size))
    double = frozenset((x, (2 * x) % size) for x in range(size))
    gens = (
        Generator("col3", col3),
        Generator("col17", col17),
        Generator("diag", diag),
        Generator("double", double),
    )
    source = FiniteIdealPresentation("ed", Ground("grid", size), gens, None)
    target = FiniteIdealPresentation(
        "finxfin",
        Ground("grid", size),
        gens,
        ColumnBoundSurrogate(per_column=1, exceptional=1),
    )
    note = "identity on [0,32)^2; a column generator exceeds the bound in one column, graphs in none"
    return _formula_witness("ed_to_finxfin_identity", "identity", source, target, note)


def _builtin_fin_to_finxfin() -> BuiltinWitness:
    source = _fin_presentation(32, 0, None)
    target = FiniteIdealPresentation(
        "finxfin",
        Ground("grid", 32),
        (),
        ColumnBoundSurrogate(per_column=0, exceptional=1),
    )
    note = "column projection [0,32)^2 -> [0,32); a singleton pulls back to one full column"
    return _formula_witness("fin_to_finxfin_projection", "column-projection", source, target, note)


def _counterexample_fin_to_z() -> BuiltinWitness:
    """One-point mutation of fin_to_z_identity that the checker must reject.

    The table is the identity on [0,128) except f(1) = 64.  The preimage of
    the generator {64} becomes {1, 64}, and 1 sits alone in the dyadic window
    [1,2) with density 1 > 1/8, so the check fails naming {64}.
    """
    base = _builtin_fin_to_z()
    return BuiltinWitness(
        "fin_to_z_one_point",
        {**base.morphism, 1: 64},
        base.source,
        base.target,
        "identity on [0,128) mutated at the single point f(1)=64; fails on generator {64}",
    )


_BUILTINS = {
    "fin_to_z_identity": _builtin_fin_to_z,
    "summable_to_z_identity": _builtin_summable_to_z,
    "ed_to_finxfin_identity": _builtin_ed_to_finxfin,
    "fin_to_finxfin_projection": _builtin_fin_to_finxfin,
}

_COUNTEREXAMPLES = {"fin_to_z_one_point": _counterexample_fin_to_z}


def _witness(table: dict, kind: str, name: str) -> BuiltinWitness:
    try:
        factory = table[name]
    except KeyError:
        raise NotFoundError(f"unknown {kind} {name!r} (have {tuple(sorted(table))})") from None
    return factory()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_witness(name: str) -> BuiltinWitness:
    return _witness(_BUILTINS, "builtin", name)


def counterexample_names() -> tuple[str, ...]:
    return tuple(sorted(_COUNTEREXAMPLES))


def counterexample_witness(name: str = "fin_to_z_one_point") -> BuiltinWitness:
    """A builtin mutation of a witness that the checker must reject."""
    return _witness(_COUNTEREXAMPLES, "counterexample", name)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


_SURROGATES = {
    cls.name: cls
    for cls in (DensityWindowSurrogate, ColumnBoundSurrogate, GeneratorUnionSurrogate, SummableBoundSurrogate)
}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad fraction {text!r}") from None


def _parse_surrogate(tokens: list[str], line: int) -> Surrogate:
    if not tokens:
        raise ParseError("surrogate line needs a name", line)
    name, *rest = tokens
    params: dict[str, str] = {}
    for piece in rest:
        key, eq, val = piece.partition("=")
        if not eq or not key:
            raise ParseError(f"bad surrogate parameter {piece!r}", line)
        params[key] = val
    cls = _SURROGATES.get(name)
    if cls is None:
        raise ParseError(f"unknown surrogate {name!r}", line)
    given = {}  # field name -> value; an omitted key keeps the field's default
    try:
        for f in fields(cls):
            if f.name in params:
                parse = _parse_fraction if isinstance(f.default, Fraction) else int
                given[f.name] = parse(params.pop(f.name))
    except ValueError as exc:
        raise ParseError(str(exc), line) from None
    if params:
        raise ParseError(f"unknown surrogate parameter(s) {sorted(params)}", line)
    try:
        return cls(**given)
    except RangeError as exc:
        raise ParseError(str(exc), line) from None


def parse_ideal_text(text: str) -> FiniteIdealPresentation:
    """Parse: `ideal v1 ground=<kind> params=<size>` then name/surrogate/generator lines."""
    (kind, size), body = read_format(text, "ideal v1 ground=<kind> params=<size>")
    try:
        ground = Ground(kind, header_int(size, "params", PARAMS_MAX.get(kind)))
    except (ValueError, RangeError) as exc:
        raise ParseError(str(exc), 1) from None
    name = "ideal"
    surrogate: Surrogate | None = None
    generators: list[Generator] = []
    seen_names: set[str] = set()
    for i, line in numbered_body(text, body):
        tokens = line.split()
        if tokens[0] == "name":
            if len(tokens) != 2:
                raise ParseError("name line needs exactly one value", i)
            name = tokens[1]
        elif tokens[0] == "surrogate":
            if surrogate is not None:
                raise ParseError("duplicate surrogate line", i)
            surrogate = _parse_surrogate(tokens[1:], i)
        elif tokens[0] == "generator":
            if len(tokens) < 2:
                raise ParseError("generator line needs a name", i)
            gen_name = tokens[1]
            if gen_name in seen_names:
                raise ParseError(f"duplicate generator {gen_name!r}", i)
            seen_names.add(gen_name)
            try:
                elements = frozenset(ground.parse_elements(tokens[2:]))
            except ValueError as exc:
                raise ParseError(str(exc), i) from None
            generators.append(Generator(gen_name, elements))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", i)
    # parse_elements has checked every element against the ground already.
    return _prechecked(
        FiniteIdealPresentation, name=name, ground=ground, generators=tuple(generators), surrogate=surrogate
    )


def ideal_to_text(p: FiniteIdealPresentation) -> str:
    lines = [f"ideal v1 ground={p.ground.kind} params={p.ground.size}", f"name {p.name}"]
    if p.surrogate is not None:
        lines.append(f"surrogate {p.surrogate.stamp()}")
    for gen in p.generators:
        elements = " ".join(p.ground.format_element(el) for el in sorted(gen.elements, key=p.ground.sort_key))
        lines.append(f"generator {gen.name} {elements}".rstrip())
    return "\n".join(lines) + "\n"


def _bulk_table(body: list[str], domain: Ground, codomain: Ground) -> dict | None:
    """Bulk form of the `y -> x` table loop, or None.

    None unless every line is three tokens with '->' in the middle, every
    key lies in `domain`, every value in `codomain` and no key repeats; the
    reader's per-line loop then names the first bad line.
    """
    columns = read_columns(body, 3)
    if columns is None or set(columns[1]) != {"->"}:
        return None
    try:
        table = dict(zip(domain.parse_elements(columns[0]), codomain.parse_elements(columns[2])))
    except ValueError:
        return None
    return table if len(table) == len(body) else None


def parse_morphism_text(text: str, domain: Ground, codomain: Ground) -> dict:
    """Parse: `morphism v1` then `formula=<name>` or `y -> x` lines, into the table y -> x.

    A table's keys are read against `domain` and its values against
    `codomain`.  A formula reads as its table over the two grounds
    (`formula_table`), so a formula the grounds do not fit raises ShapeError
    here.  `check_morphism` checks the table against the presentations'
    grounds, as it checks any table.
    """
    _, body = read_format(text, "morphism v1")
    # A table's keys are distinct members of `domain`, so a longer body holds a
    # bad or repeated key, which the per-line walk names.
    table = _bulk_table(body, domain, codomain) if len(body) <= domain.member_count else None
    if table is not None:
        return table
    formula: str | None = None
    table = {}
    for i, stripped in numbered_body(text, body):
        if stripped.startswith("formula="):
            if formula is not None or table:
                raise ParseError("formula line must be the only content", i)
            formula = stripped[len("formula=") :]
            if formula not in FORMULAS:
                raise ParseError(f"unknown formula {formula!r} (have {FORMULAS})", i)
            continue
        if formula is not None:
            raise ParseError("table lines cannot follow a formula line", i)
        left, sep, right = stripped.partition("->")
        if not sep:
            raise ParseError(f"expected '<y> -> <x>', got {stripped!r}", i)
        try:
            y = domain.parse_element(left.strip())
            x = codomain.parse_element(right.strip())
        except ValueError as exc:
            raise ParseError(str(exc), i) from None
        if y in table:
            raise ParseError(f"duplicate table entry for {left.strip()!r}", i)
        table[y] = x
    if formula is not None:
        return formula_table(formula, domain, codomain)
    if not table:
        raise ParseError("morphism has neither formula nor table", 1)
    return table


def morphism_to_text(table: Mapping, domain: Ground, codomain: Ground) -> str:
    lines = ["morphism v1"]
    for y in sorted(table, key=domain.sort_key):
        lines.append(f"{domain.format_element(y)} -> {codomain.format_element(table[y])}")
    return "\n".join(lines) + "\n"


def report_to_json(report: MorphismReport) -> dict:
    return {
        "pass": report.passed,
        "source": report.source,
        "target": report.target,
        "surrogate": report.surrogate,
        "parameters": dict(report.parameters),
        "checked": len(report.checks),
        "checks": [
            {"generator": ch.generator, "ok": ch.ok, "measure": ch.measure} for ch in report.checks
        ],
        "violations": [
            {"generator": ch.generator, "measure": ch.measure} for ch in report.violations
        ],
        "scope": report.scope,
    }
