"""Differential testing of polymorphic relaxed noninterference.

The step-indexed relational interpretation of security types is a proof
device; this module operationalizes it as a sampling semi-decision
procedure. For a program with inputs declared at declassification
policies, the harness

1. samples type substitutions within the bounds of the type variable
   environment (the observer's power),
2. generates pairs of input values related at each variable's policy,
3. runs the program body on both sides (once when their inputs are
   equal: the machine is deterministic), with the inputs bound in the
   machine's environment rather than substituted into the body, and
4. probes the two results at the observation type, method by method,
   recursively, with the step index bounding observation depth. A result
   is probed as the machine value it is: a probe enters the machine at
   the call's contraction (`interp.call`), so a closure is called in its
   own environment with no call term to run, and only a counterexample's
   inputs and outputs are read back to terms. A probe stops at the first
   side that does not return. When both sides are one value, a blind
   plan, one whose probes draw no arguments, is not probed at all.

A policy is read in one place (`_policy`), the way a public observer
can use it: at `T<U>` the observer calls exactly `U`'s methods, each at
its observable signature, where a primitive signature
`P1<*> * ... -> R<*>` is the standard signature `P1! * ... -> R!`
(`_observable`), so there is one probe path. Inputs are built from the
same reading of the same relation: two primitive literals share a class
of what the policy cannot tell apart in a finite universe
(`_partition`); in two objects, a method in `U` answers with related
results, a method only in `T` with independent ones, and at step index
0 every method diverges. A list is no exception: its input is a chain of
`k` levels whose last one diverges, and related lists may differ in
shape wherever the policy hides it.

All of that depends on the types alone, so it is worked out once per
verdict (`_Stage`), the first time a type is met, and kept in one memo
keyed by value; a trial only draws primitive leaves and runs the
machine. Generation, probing and the partitions share one reading of
each policy per verdict. An input type has a template
(`_Template`): the unrolled object literal of its pair, with a free
variable at each primitive leaf and the leaf's policy resolved to its
partition. A trial draws the leaves in the template's order and binds
them in the closure's environment. No generator holds state: a draw's
path is the fold (`_mix`) of the seed and the draw's indices, and its
`i`-th random number is `_fold(path, i)`, reduced to the choice it makes.
An observation type has a probe plan: per method and sampled
instantiation, the arguments' and result's types, the public arguments
(fixed unless a receiver is a literal of one of their kinds), the probe
call and the plan of the result type (a recursive type's plan links back
to itself).
`prni_test` resolves each substitution instance's templates and plan
once, at its first use, and probes nothing where the plan relates every
pair, or where both sides are one value and the plan is blind.

A single distinguishable public primitive outcome refutes relatedness and
yields a replayable counterexample (the sampled substitution, both input
substitutions, and the distinguishing observation path). Exhausting the
probe budget without refutation reports no counterexample; the procedure
is complete for refutation on probed paths and conservative otherwise.
Timeouts never distinguish: the property is termination-insensitive.
"""

from __future__ import annotations

import functools
import itertools
import json
import zlib
from dataclasses import dataclass, field

from .algebra import in_interval, msig, type_equiv
from .interp import Stuck, StuckError, Value, bind, call, readback, run_machine, theta
from .interp import evaluate  # noqa: F401  kept as `prni.evaluate`, which perfbench's tracer test patches
from .parser import SourceProgram, pretty_print
from .syntax import (
    TOP,
    DeclType,
    Expr,
    Faceted,
    GenericSig,
    GobsecError,
    Invoke,
    MethodDef,
    MethodSig,
    ObjType,
    ObjectLit,
    Prim,
    PrimLit,
    PrimSig,
    TParam,
    TypeVar,
    TypeVarEnv,
    Var,
    canon,
    fresh,
    instantiate_tparams,
    is_top,
    public,
    subst_type_vars,
    subst_type_vars_expr,
)


class EmptyInterval(GobsecError):
    pass


class NoGenerator(GobsecError):
    pass


# ---------------------------------------------------------------------------
# Deterministic seed splitting
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_MIX0 = 0x9E3779B97F4A7C15


def _crc(s: str) -> int:
    return zlib.crc32(s.encode())


def _fold(h: int, v: int) -> int:
    """One SplitMix64-style step of `_mix`, for `v` in `0 .. 2**64 - 1`."""
    h = (h ^ v) * 0xBF58476D1CE4E5B9 & _MASK
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
    return h ^ (h >> 31)


def _mix(*parts, h: int = _MIX0) -> int:
    """Left fold (`_fold`) of integers and short strings, a string read as
    its CRC-32; stable across runs and platforms so seeded runs are
    byte-reproducible. A fold continues from `h`, the fold of a prefix:
    `_mix(b, h=_mix(a))` is `_mix(a, b)`, so a hot path folds its constant
    prefix once and then folds small ints one `_fold` at a time."""
    for p in parts:
        h = _fold(h, _crc(p) if isinstance(p, str) else int(p) & _MASK)
    return h


# ---------------------------------------------------------------------------
# Configuration and verdicts
# ---------------------------------------------------------------------------

PROBE_FUEL = 600  # steps per probe call; divergence still relates
PROBE_BUDGET = 160  # probes per relatedness check, each a call on one side or both
TSAMPLES = 2  # type instantiations probed per polymorphic method
ASAMPLES = 3  # argument tuples probed per instantiation


@dataclass
class PrniConfig:
    pairs: int = 1000
    substs: int = 10
    k: int = 6
    fuel: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class Observation:
    """One probe step: invoking `method` distinguished (or led toward
    distinguishing) the two sides."""

    method: str
    targs: tuple[str, ...]
    args1: tuple[str, ...]
    args2: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "targs": list(self.targs),
            "args1": list(self.args1),
            "args2": list(self.args2),
        }


@dataclass
class Counterexample:
    sigma: dict[str, str]
    gamma1: dict[str, str]
    gamma2: dict[str, str]
    observation: list[Observation]
    outputs: tuple[str, str]
    trial: int
    seed: int
    # internal replay data (not serialized)
    sigma_types: dict[str, DeclType] = field(default_factory=dict, repr=False)
    gamma1_values: dict[str, Expr] = field(default_factory=dict, repr=False)
    gamma2_values: dict[str, Expr] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "verdict": "counterexample",
            "seed": self.seed,
            "trial": self.trial,
            "witness": {
                "sigma": self.sigma,
                "gamma1": self.gamma1,
                "gamma2": self.gamma2,
                "observation": [o.to_dict() for o in self.observation],
                "outputs": list(self.outputs),
            },
        }


@dataclass
class NoCounterexample:
    pairs_tested: int
    substs_tested: int
    max_k: int
    seed: int
    compared: int  # trials where both runs returned a value

    def to_dict(self) -> dict:
        return {
            "verdict": "no-counterexample",
            "seed": self.seed,
            "trials": self.pairs_tested,
            "compared": self.compared,
            "substs": self.substs_tested,
            "k": self.max_k,
        }


Verdict = Counterexample | NoCounterexample


def verdict_to_json(v: Verdict) -> str:
    return json.dumps(v.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Type substitution sampling
# ---------------------------------------------------------------------------


def _candidates(pool: dict[str, DeclType]):
    """The interval candidates over `pool`, a function of the bounds `lo`
    and `hi`: the bound endpoints and pool types that lie in `lo .. hi`,
    without duplicates, in a stable order. Candidates that cannot be placed
    against an open bound are skipped. Each interval is worked out once,
    keyed by its bounds as written: the list holds the bounds themselves,
    and a choice prints as it is written."""

    @functools.cache
    def candidates(lo: DeclType, hi: DeclType) -> list[DeclType]:
        cands: list[DeclType] = []
        seen: set = set()
        for c in [lo, hi, *pool.values()]:
            if isinstance(c, TypeVar):
                continue
            key = canon(c)
            if key in seen:
                continue
            seen.add(key)
            try:
                if in_interval({}, c, lo, hi):
                    cands.append(c)
            except GobsecError:
                continue
        cands.sort(key=lambda t: str(canon(t)))
        return cands

    return candidates


def sample_subst(delta: TypeVarEnv, pool: dict[str, DeclType], h: int) -> dict[str, DeclType]:
    """One substitution in the relational interpretation of `delta`, drawn
    from the int `h`: for each variable, a closed type within its bounds,
    drawn uniformly from the bound endpoints and the pool types that fit
    the interval. Earlier choices substitute into later bounds."""
    return _sample_subst(delta, _candidates(pool), h)


def _sample_subst(delta: TypeVarEnv, candidates, h: int) -> dict[str, DeclType]:
    """`sample_subst` over the intervals' `candidates`, which several draws
    may share. The `j`-th variable takes candidate `_fold(h, j)` modulo
    their number."""
    index = {name: j for j, name in enumerate(delta)}

    def pick(name: str, lo: DeclType, hi: DeclType) -> DeclType:
        cands = candidates(lo, hi)
        if not cands:
            raise EmptyInterval(f"no candidate type lies within the bounds of {name}")
        return cands[_fold(h, index[name]) % len(cands)]

    return instantiate_tparams([TParam(name, lo, hi) for name, (lo, hi) in delta.items()], pick)


def substitutions(delta: TypeVarEnv, pool: dict[str, DeclType]) -> list[dict[str, DeclType]]:
    """Every substitution `sample_subst` can draw: each variable at each of
    its candidates, earlier choices substituted into later bounds."""
    candidates = _candidates(pool)
    out: list[dict[str, DeclType]] = [{}]
    for name, (lo, hi) in delta.items():
        out = [
            {**sub, name: c}
            for sub in out
            for c in candidates(subst_type_vars(lo, sub), subst_type_vars(hi, sub))
        ]
    return out


# ---------------------------------------------------------------------------
# The observer's view of a policy
# ---------------------------------------------------------------------------


def _observable(sig: MethodSig) -> GenericSig:
    """`sig` as a public observer can use it. A primitive signature
    `P1<*> * ... -> R<*>` called at public arguments has a public result,
    so it reads as the standard signature `P1! * ... -> R!`."""
    if isinstance(sig, PrimSig):
        return GenericSig((), tuple(public(Prim(k)) for k in sig.arg_kinds), public(Prim(sig.ret_kind)))
    return sig


def _policy(u: ObjType) -> tuple[tuple[str, GenericSig], ...]:
    """The policy `u` as a public observer can use it: its methods in
    order, each at its observable signature. Generation, probing and the
    partitions read a policy only through here."""
    return tuple((name, _observable(msig({}, u, name))) for name, _ in u.methods)


_ALPHABET = "abc"

#: The literals a primitive input is drawn from: `_rand_lit` draws within
#: it, and `_partition` splits it into a policy's classes.
_UNIVERSE: dict[str, tuple] = {
    "Int": tuple(range(10)),
    "String": tuple("".join(cs) for n in range(5) for cs in itertools.product(_ALPHABET, repeat=n)),
    "Bool": (False, True),
    "Unit": (None,),
}


#: Each literal of the universe, built once; a drawn leaf is looked up here.
_LITS: dict[str, dict] = {kind: {v: PrimLit(v, kind) for v in values} for kind, values in _UNIVERSE.items()}


#: The literals `_rand_lit` draws, indexed by the random number modulo the
#: table's length. A string's index `r` gives `r % 5` letters, the base-3
#: digits of `r // 5`, least significant first: 405 = 5 * 3**4 covers
#: every digit.
_DRAWS: dict[str, tuple] = {
    **{kind: tuple(lits.values()) for kind, lits in _LITS.items()},
    "String": tuple(
        _LITS["String"]["".join(_ALPHABET[r // 5 // 3**i % 3] for i in range(r % 5))] for r in range(5 * 3**4)
    ),
}


def _rand_lit(kind: str, r: int) -> PrimLit:
    """The literal of the random number `r`: the `Int` `r % 10`; the `Bool`
    `r & 1`; the `String` of `r % 5` letters, from the base-3 digits of
    `r // 5`. For a 64-bit `r`, each literal has, within 2**-56, the chance
    that `randint(0, 9)`, a fair coin, or `randint(0, 4)` letters of
    `choice(_ALPHABET)` gives it."""
    table = _DRAWS[kind]
    return table[r % len(table)]


@functools.lru_cache(maxsize=1024)
def _partition(kind: str, u: ObjType, values: tuple, seen: frozenset = frozenset()) -> dict:
    """Each of `values`, literals of `kind`, mapped to its class at
    `kind<u>`: the tuple of values on which every method of `u`, read
    through `_policy`, gives related results at all public arguments
    from the universe and, at the receiver's kind, `values` (`_public_arg`
    probes with the receivers). A public result is compared by value, one
    at a policy not in `seen` by its class among the results (so at `Top`
    not at all). A method this cannot read (type parameters, a non-public
    argument, a stuck call) leaves every value in a class of its own."""
    cls = dict.fromkeys(values, 0)
    for name, sig in _policy(u):
        kinds = [a.safety.kind for a in sig.args if isinstance(a.safety, Prim) and type_equiv(a.safety, a.decl)]
        if sig.tparams or len(kinds) < len(sig.args):
            return {v: (v,) for v in values}
        for args in itertools.product(*(dict.fromkeys(_UNIVERSE[k] + (values if k == kind else ())) for k in kinds)):
            lits = tuple(map(PrimLit, args, kinds))
            try:
                results = [theta(name, PrimLit(v, kind), lits) for v in values]
            except StuckError:
                return {v: (v,) for v in values}
            observed = [r.value for r in results]
            if isinstance(sig.ret.decl, ObjType) and sig.ret.decl not in seen | {u}:
                classes = _partition(results[0].kind, sig.ret.decl, tuple(dict.fromkeys(observed)), seen | {u})
                observed = [classes[r] for r in observed]
            ids: dict = {}
            cls = {v: ids.setdefault((cls[v], r), len(ids)) for v, r in zip(values, observed)}
            if len(ids) == len(values):
                return {v: (v,) for v in values}  # classes only split further
    members: dict = {}
    for v in values:
        members.setdefault(cls[v], []).append(v)
    return {v: tuple(members[cls[v]]) for v in values}


# ---------------------------------------------------------------------------
# Related-pair generation
# ---------------------------------------------------------------------------

# How the second literal of a primitive leaf relates to the first: equal
# (public), independent (`Top`), or, for a partition, drawn from its class.
_EQUAL, _ANY = "equal", "any"


def _leaf(kind: str, u: DeclType) -> tuple:
    """The spec of a primitive leaf at `kind<u>`: its kind, and `_EQUAL`,
    `_ANY` or the policy's partition of the universe."""
    if isinstance(u, Prim):
        return kind, _EQUAL
    if is_top(u):
        return kind, _ANY
    return kind, _partition(kind, u, _UNIVERSE[kind])


def _ret_at_lower_bounds(sig: GenericSig) -> Faceted:
    """`sig`'s return type with each type parameter at its lower bound,
    earlier choices substituted into later bounds."""
    return subst_type_vars(sig.ret, instantiate_tparams(sig.tparams, lambda _, lo, hi: lo))


class _Template:
    """Two values related at one closed security type for `k` steps, with
    everything but their primitive leaves built once (`_Stage.build`).

    At an object type, `term` is the object literal of both sides at once:
    each primitive leaf is a free variable of it, named in `names` in the
    order `draw` draws it, and `value` binds one side's leaves in the
    closure's environment. At a primitive type `term` is None and the
    pair is its one leaf."""

    __slots__ = ("term", "names", "specs")

    def __init__(self, stage: "_Stage", s: Faceted, k: int):
        names: list[str] = []
        specs: list[tuple] = []
        term = stage.build(s, k, names, specs)
        self.term = term if type(term) is ObjectLit else None
        self.names = tuple(names)
        self.specs = tuple(specs)

    def draw(self, h: int) -> tuple[list[PrimLit], list[PrimLit]]:
        """Both sides' leaves, drawn in order from the draw's path `h`: its
        `i`-th random number is `_fold(h, i)`. A leaf takes one number for
        its first literal and, unless public, the next for its second."""
        leaves1, leaves2 = [], []
        i = 0
        for kind, classes in self.specs:
            v1 = _rand_lit(kind, _fold(h, i))
            i += 1
            if classes is _EQUAL:
                v2 = v1
            else:
                r = _fold(h, i)
                i += 1
                if classes is _ANY:
                    v2 = _rand_lit(kind, r)
                else:
                    cls = classes[v1.value]
                    v2 = _LITS[kind][cls[r % len(cls)]]
            leaves1.append(v1)
            leaves2.append(v2)
        return leaves1, leaves2

    def value(self, leaves: list[PrimLit]):
        """The machine value of one side: its leaf, or the closure of `term`
        over its leaves."""
        if self.term is None:
            return leaves[0]
        return self.term, bind(dict(zip(self.names, leaves)))


# ---------------------------------------------------------------------------
# Relatedness checking (bounded, refutation-sound)
# ---------------------------------------------------------------------------

_UNRESOLVED = object()


class _Row:
    """One method of a probe plan at one instantiation of its type
    parameters, with everything a probe needs that does not depend on the
    probed values. Its probes draw arguments when `gens` is not empty;
    otherwise, unless a receiver is a literal of a public argument's kind,
    `fixed` holds its samples `(ai, args, args)`, one per distinct tuple."""

    __slots__ = ("name", "targs", "pubs", "pub_kinds", "gens", "ret", "node", "call", "salt", "steps", "fixed")

    def __init__(self, name: str, ti: int, inst: dict[str, DeclType], sig: GenericSig):
        self.name = name
        self.targs = tuple(inst.values())
        args_types = [subst_type_vars(a, inst) for a in sig.args]
        self.ret = subst_type_vars(sig.ret, inst)
        self.node = _UNRESOLVED  # the result type's plan, resolved when first reached
        # Public primitive positions take `_public_arg`; every other one a
        # pair from its type's template.
        public = [isinstance(at.safety, Prim) and type_equiv(at.safety, at.decl) for at in args_types]
        self.pubs = tuple((j, at.safety.kind) for j, at in enumerate(args_types) if public[j])
        self.pub_kinds = frozenset(kind for _, kind in self.pubs)
        self.gens = tuple((j, at) for j, at in enumerate(args_types) if not public[j])
        # The probe call; `interp.call` enters it at its contraction.
        self.call = Invoke(Var("r"), name, self.targs, tuple(Var(f"a{j}") for j in range(len(args_types))))
        # A probe's arguments are seeded by its path, the row and the
        # sample (`args`); the path below sample `ai` adds `steps[ai]`.
        # Both are folded as the ints `_mix` reads their strings as.
        self.salt = (_crc(name), ti)
        self.steps = tuple(_crc(str((name, ti, ai))) for ai in range(ASAMPLES))
        # With public arguments only, each sample's arguments are fixed
        # unless a receiver is a literal of one of their kinds, which
        # `_public_arg` probes with; a repeat is left out.
        self.fixed = None
        if not self.gens:
            samples = [tuple(_public_arg(kind, (), ai + j) for j, kind in self.pubs) for ai in range(ASAMPLES)]
            self.fixed = tuple((ai, args, args) for ai, args in enumerate(samples) if args not in samples[:ai])

    def samples(self, v1, v2, k: int, ctx: "ProbeContext", path: int):
        """The samples `(ai, args1, args2)` of arguments that depend on the
        probed values (`args`), each distinct pair once, while budget lasts."""
        tried: set = set()
        for ai in range(ASAMPLES):
            if ctx.budget <= 0:
                return
            args1, args2, key = self.args(ai, v1, v2, k, ctx, path)
            if key not in tried:
                tried.add(key)
                yield ai, args1, args2

    def args(self, ai: int, v1, v2, k: int, ctx: "ProbeContext", path: int) -> tuple:
        """The arguments of sample `ai` on each side, and their probe key. A
        non-public argument `j` is a pair from its template at `k - 1`,
        drawn from the fold of the probe's path (`path`, the fold of the
        steps above it), the row, the sample and `j`."""
        n = len(self.call.args)
        args1, args2, keys1, keys2 = [None] * n, [None] * n, [None] * n, [None] * n
        for j, kind in self.pubs:
            args1[j] = args2[j] = keys1[j] = keys2[j] = _public_arg(kind, (v1, v2), ai + j)
        if self.gens:
            h = _mix(*self.salt, ai, h=path)
            for j, at in self.gens:
                template = ctx.stage.template(at, k - 1)
                leaves1, leaves2 = template.draw(_fold(h, j))
                args1[j], args2[j] = template.value(leaves1), template.value(leaves2)
                keys1[j], keys2[j] = tuple(leaves1), tuple(leaves2)
        return args1, args2, (tuple(keys1), tuple(keys2))

    def observation(self, args1: list, args2: list) -> Observation:
        return Observation(
            self.name,
            tuple(pretty_print(t) for t in self.targs),
            tuple(pretty_print(_term(a)) for a in args1),
            tuple(pretty_print(_term(a)) for a in args2),
        )


def _term(v) -> Expr:
    """The term of a machine value, read back only when it is a closure."""
    return readback(v) if type(v) is tuple else v


def _sample_instantiations(sig: GenericSig, candidates) -> list[dict[str, DeclType]]:
    """Up to TSAMPLES instantiations of `sig`'s type parameters: the i-th
    takes each parameter's i-th interval candidate (or its last), falling
    back to the upper bound when no candidate fits."""
    out: list[dict[str, DeclType]] = []
    for i in range(TSAMPLES):

        def pick(_, lo: DeclType, hi: DeclType) -> DeclType:
            cands = candidates(lo, hi)
            return cands[min(i, len(cands) - 1)] if cands else hi

        inst = instantiate_tparams(sig.tparams, pick)
        if inst not in out:
            out.append(inst)
    return out


class _Stage:
    """The part of one verdict's generation and probing that depends on the
    types alone, each piece built the first time it is needed and kept in
    one memo, keyed by value (a type hashes its tree once, on its node):
    a security type's template per step index and its probe node, a
    policy's reading (`_policy`) and probe plan, and an object type's
    method table at a policy. A probe node is None where everything is
    related, a primitive kind where two literals of it are compared, or
    the plan of an object facet: its rows (`_Row`), probed in order. A
    node is blind when no row reachable from it, in a cycle or not, draws
    arguments: a value probed against itself there is never refuted.
    Nothing in the memo refers to the stage, so reference counting frees
    a verdict's stage when the verdict returns."""

    def __init__(self, pool: dict[str, DeclType]):
        self.candidates = _candidates(pool)
        self._memo: dict = {}

    def _once(self, key: tuple, make):
        made = self._memo.get(key, _UNRESOLVED)
        if made is _UNRESOLVED:
            made = self._memo[key] = make()
        return made

    def template(self, s: Faceted, k: int) -> _Template:
        return self._once(("template", s, k), lambda: _Template(self, s, k))

    def node(self, s: Faceted):
        return self._once(("node", s), lambda: self._node(s))

    def policy(self, u: ObjType) -> tuple[tuple[str, GenericSig], ...]:
        return self._once(("policy", u), lambda: _policy(u))

    def blind(self, s: Faceted) -> bool:
        return self._once(("blind", s), lambda: self._blind(self.node(s)))

    def _blind(self, node) -> bool:
        seen, todo = set(), [node]
        while todo:
            node = todo.pop()
            if type(node) is tuple and id(node) not in seen:
                seen.add(id(node))
                for row in node:
                    if row.gens:
                        return False
                    if row.node is _UNRESOLVED:
                        row.node = self.node(row.ret)
                    todo.append(row.node)
        return True

    def _node(self, s: Faceted):
        t, u = s.safety, s.decl
        if isinstance(u, TypeVar):
            raise GobsecError(f"relatedness at an open type {u.name}")
        if isinstance(t, Prim) and isinstance(u, Prim):
            return t.kind if u.kind == t.kind else None
        if not isinstance(u, ObjType):
            return None
        return self._once(
            ("plan", u),
            lambda: tuple(
                _Row(name, ti, inst, sig)
                for name, sig in self.policy(u)
                for ti, inst in enumerate(_sample_instantiations(sig, self.candidates))
            ),
        )

    def _table(self, t: ObjType, u: DeclType):
        """For each method of `t`: its name, its closed signature, the type
        at which its two results are related, and that type's leaf spec when
        it is primitive."""
        observable = dict(self.policy(u)) if isinstance(u, ObjType) else {}
        for name, _ in t.methods:
            sig = msig({}, t, name)
            if isinstance(sig, PrimSig):
                raise NoGenerator(f"object type with primitive-signature method {name} has no object values")
            decl = _ret_at_lower_bounds(observable[name]).decl if name in observable else TOP
            ret = Faceted(_ret_at_lower_bounds(sig).safety, decl)
            leaf = None
            if isinstance(ret.safety, Prim) and not isinstance(decl, TypeVar):
                leaf = _leaf(ret.safety.kind, decl)
            yield name, sig, ret, leaf

    def build(self, s: Faceted, k: int, names: list[str], specs: list[tuple]) -> Expr:
        """The term of a template at `s` for `k` steps (see `_Template`),
        appending each leaf's variable and spec to `names` and `specs` in
        draw order.

        A primitive pair is a single leaf: a literal and a second one drawn
        uniformly from its class in the policy's partition of the literal
        universe (`_partition`), so equal literals when public and
        independent ones at `Top`. Every object, a list included, is built
        from the relation at `T<U>`: a method in `U` returns a pair related
        at `U`'s return declassification over `T`'s return safety; a method
        only in `T` returns a pair at declassification `Top`, which the
        observer cannot tell apart. Type parameters sit at their lower
        bounds, the instantiation that observes most; the bodies ignore
        their arguments. At `k <= 0` every method calls itself and diverges,
        which relates to everything. A recursive type such as a list is thus
        a chain of `k` levels whose last one diverges.
        """
        t, u = s.safety, s.decl
        if isinstance(u, TypeVar):
            raise NoGenerator(f"declassification facet {u.name} is not closed")
        if isinstance(t, Prim):
            return self._leaf_var(_leaf(t.kind, u), names, specs)
        if not isinstance(t, ObjType):
            raise NoGenerator(f"cannot generate values at {pretty_print(s)}")
        z = fresh("z")
        methods = []
        for name, sig, ret, leaf in self._once(("table", t, u), lambda: tuple(self._table(t, u))):
            params = tuple(fresh("x") for _ in sig.args)
            if k <= 0:
                body = Invoke(Var(z), name, tuple(TypeVar(tp.name) for tp in sig.tparams), tuple(Var(p) for p in params))
            elif leaf is not None:
                body = self._leaf_var(leaf, names, specs)
            else:
                body = self.build(ret, k - 1, names, specs)
            methods.append(MethodDef(name, params, body))
        return ObjectLit(z, public(t), tuple(methods))

    @staticmethod
    def _leaf_var(leaf: tuple, names: list[str], specs: list[tuple]) -> Var:
        names.append(fresh("v"))
        specs.append(leaf)
        return Var(names[-1])


@dataclass
class ProbeContext:
    """The probe seed and budget of one relatedness check, and the types'
    templates and plans (`stage`) of every check made in the context. It
    holds no generator: each draw is a function of the seed and its path."""

    pool: dict[str, DeclType] = field(default_factory=dict)
    seed: int = 0
    budget: int = PROBE_BUDGET
    stage: _Stage = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.stage = _Stage(self.pool)


_ARGS = _crc("args")  # the probe paths' constant, as `_mix` reads the string


def check_related(k: int, v1, v2, s: Faceted, ctx: ProbeContext) -> tuple[bool, list[Observation] | None]:
    """Probe whether `v1` and `v2`, machine values or closed value terms,
    are related at `s` for `k` steps.

    Returns (False, observation path) on refutation; (True, None) when no
    probe distinguishes them within the step index and budget. Probes are
    keyed by structural path so a larger `k` replays the shallower probes
    identically (refutations are monotone in `k`). Every method of the
    declassification facet is probed at its observable signature, through
    the facet's probe plan.
    """
    if k <= 0 or ctx.budget <= 0:
        return True, None
    return _related(k, v1, v2, ctx.stage.node(s), ctx, _mix(ctx.seed, _ARGS))


def _related(k: int, v1, v2, node, ctx: ProbeContext, path: int) -> tuple[bool, list[Observation] | None]:
    """`check_related` at a probe node, with `k > 0` and budget left. `path`
    is the fold (`_mix`) of the context's seed, `"args"` and the probe
    steps above, which seeds their arguments."""
    if node is None:
        return True, None
    if type(node) is str:
        if type(v1) is PrimLit and type(v2) is PrimLit and not (v1.kind == v2.kind and v1.value == v2.value):
            return False, []
        return True, None
    literal_kinds = ()
    if type(v1) is PrimLit or type(v2) is PrimLit:
        literal_kinds = {v.kind for v in (v1, v2) if type(v) is PrimLit}
    for row in node:
        samples = row.fixed
        if samples is None or literal_kinds and not row.pub_kinds.isdisjoint(literal_kinds):
            samples = row.samples(v1, v2, k, ctx, path)
        for ai, args1, args2 in samples:
            if ctx.budget <= 0:
                return True, None
            out = _outcomes(row, v1, v2, args1, args2, ctx)
            if out is None or k <= 1 or ctx.budget <= 0:
                continue
            if row.node is _UNRESOLVED:
                row.node = ctx.stage.node(row.ret)
            ok, sub = _related(k - 1, out[0], out[1], row.node, ctx, _fold(path, row.steps[ai]))
            if not ok:
                return False, [row.observation(args1, args2)] + sub
    return True, None


def _outcomes(row: _Row, v1, v2, args1, args2, ctx: ProbeContext) -> tuple | None:
    """Make the row's call `r.name<targs>(a0, ...)` on each side: the
    machine is entered at its contraction (`interp.call`), on the receiver
    and the arguments as they are, so a closure is called in its own
    environment. The call costs the one contraction that invoking the
    read-back receiver would. The pair of calls costs one unit of budget,
    and the second side is not called when the first does not return."""
    ctx.budget -= 1
    # Termination-insensitive: a timeout (or stuck probe, possible only on
    # ill-typed inputs) never distinguishes, whatever the other side does.
    r1 = call(row.call, v1, args1, PROBE_FUEL)
    r2 = call(row.call, v2, args2, PROBE_FUEL) if type(r1) is Value else None
    return (r1.expr, r2.expr) if type(r2) is Value else None


_PROBE_BASE = {"Int": (0, 1, 2), "String": ("a", "", "b"), "Bool": (True, False), "Unit": (None,)}


def _public_arg(kind: str, receivers: tuple, salt: int) -> PrimLit:
    """The argument at a public primitive position: candidates cycle
    through the probed receivers themselves, then fixed base values. An
    equality-style method only tells two values apart when probed with one
    of them."""
    vals: list = []
    for v in [r.value for r in receivers if isinstance(r, PrimLit) and r.kind == kind] + list(_PROBE_BASE[kind]):
        if v not in vals:
            vals.append(v)
    return PrimLit(vals[salt % len(vals)], kind)


# ---------------------------------------------------------------------------
# The differential test
# ---------------------------------------------------------------------------


def default_pool(program: SourceProgram) -> dict[str, DeclType]:
    pool = dict(program.named_closed_types())
    pool.setdefault("Top", TOP)
    for kind in ("Int", "String", "Bool", "Unit"):
        pool.setdefault(kind, Prim(kind))
    return pool


def prni_test(
    program: SourceProgram,
    observe_at: Faceted,
    config: PrniConfig,
    pool: dict[str, DeclType] | None = None,
) -> Verdict:
    """Empirically test the program's noninterference at `observe_at`.

    The body must be simply well-typed under the declared inputs; security
    typing is deliberately not required, since the whole point is to run
    programs the checker rejects and exhibit their leaks.
    """
    from .typecheck import simple_synth

    simple_synth(program.vars, program.body)
    if pool is None:
        pool = default_pool(program)
    # One context for the whole verdict, so its templates and plans are
    # built once; each trial gets its own probe seed and budget. Every draw
    # is a function of the seed's fold with a constant (`_mix`, folded once
    # here) and the draw's indices: substitution `i`, input `xi` of a
    # trial, a probe's path.
    ctx = ProbeContext(pool=pool)
    subst_seed, pair_seed, check_seed = (_mix(config.seed, part) for part in ("subst", "pair", "check"))
    delta = dict(program.tvars)
    gamma = dict(program.vars)
    body = program.body

    def draw_subst(i: int) -> dict[str, DeclType]:
        return _sample_subst(delta, ctx.stage.candidates, _fold(subst_seed, i))

    n_substs = max(1, config.substs) if delta else 1
    substs = [draw_subst(i) if delta else {} for i in range(n_substs)]
    # Independent draws can all agree (1 seed in 512 for an interval of two
    # types), and then no trial runs the other instantiation, where a leak
    # may be. The last draw is then redrawn until it differs.
    def key(sub: dict[str, DeclType]) -> tuple:
        return tuple(canon(t) for t in sub.values())

    if len(substs) > 1 and len({key(sub) for sub in substs}) == 1:
        for i in range(n_substs, 4 * n_substs):
            sub = draw_subst(i)
            if key(sub) != key(substs[0]):
                substs[-1] = sub
                break
    pairs = config.pairs
    if not delta and not gamma:
        pairs = min(pairs, 1)  # a closed program runs deterministically
    # The body, the observation type and the input types under each
    # substitution, computed once per distinct substitution rather than per
    # trial. Draws that choose the very same types share them.
    substituted: dict = {}
    instances = []
    for sigma in substs:
        ids = tuple(map(id, sigma.values()))
        if ids not in substituted:
            substituted[ids] = (
                subst_type_vars_expr(body, sigma),
                subst_type_vars(observe_at, sigma),
                [subst_type_vars(xs, sigma) for xs in gamma.values()],
            )
        instances.append((sigma, *substituted[ids]))
    # Each instance's input templates and observation node, resolved at its
    # first use, so fresh names are drawn in the order the trials meet them.
    # The node is None where every pair is related (at `Top`, or at step
    # index 0), and then no probe runs.
    templates: dict = {}
    nodes: dict = {}
    compared = 0
    for trial in range(pairs):
        i = trial % len(instances)
        sigma, sbody, sobserve, sxs = instances[i]
        if i not in templates:
            templates[i] = [ctx.stage.template(sx, config.k) for sx in sxs]
        trial_seed = _fold(pair_seed, trial)
        drawn = [(t, *t.draw(_fold(trial_seed, xi))) for xi, t in enumerate(templates[i])]
        gamma1 = {x: t.value(leaves1) for x, (t, leaves1, _) in zip(gamma, drawn)}
        r1 = run_machine(sbody, bind(gamma1), config.fuel)
        if all(leaves1 == leaves2 for _, leaves1, leaves2 in drawn):
            # Both sides have the same inputs, and the machine is
            # deterministic, so the second run would only repeat the first.
            gamma2, r2 = gamma1, r1
        else:
            gamma2 = {x: t.value(leaves2) for x, (t, _, leaves2) in zip(gamma, drawn)}
            r2 = run_machine(sbody, bind(gamma2), config.fuel)
        if isinstance(r1, Stuck) or isinstance(r2, Stuck):
            which = r1 if isinstance(r1, Stuck) else r2
            raise GobsecError(
                f"simply well-typed program got stuck ({which.reason}); this is a bug"
            )
        if not (isinstance(r1, Value) and isinstance(r2, Value)):
            continue  # termination-insensitive
        compared += 1
        if i not in nodes:
            nodes[i] = ctx.stage.node(sobserve) if config.k > 0 else None
        if nodes[i] is None or r2 is r1 and ctx.stage.blind(sobserve):
            continue  # at a blind plan, one value is related to itself
        ctx.seed, ctx.budget = _fold(check_seed, trial), PROBE_BUDGET
        ok, path = check_related(config.k, r1.expr, r2.expr, sobserve, ctx)
        if not ok:
            terms1 = {x: _term(v) for x, v in gamma1.items()}
            terms2 = {x: _term(v) for x, v in gamma2.items()}
            return Counterexample(
                sigma={x: pretty_print(t) for x, t in sigma.items()},
                gamma1={x: pretty_print(v) for x, v in terms1.items()},
                gamma2={x: pretty_print(v) for x, v in terms2.items()},
                observation=path or [],
                outputs=(pretty_print(readback(r1.expr)), pretty_print(readback(r2.expr))),
                trial=trial,
                seed=config.seed,
                sigma_types=dict(sigma),
                gamma1_values=terms1,
                gamma2_values=terms2,
            )
    return NoCounterexample(
        pairs_tested=pairs,
        substs_tested=len(substs),
        max_k=config.k,
        seed=config.seed,
        compared=compared,
    )
