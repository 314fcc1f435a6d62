"""Differential testing of polymorphic relaxed noninterference.

The step-indexed relational interpretation of security types is a proof
device; this module operationalizes it as a sampling semi-decision
procedure. For a program with inputs declared at declassification
policies, the harness

1. samples type substitutions within the bounds of the type variable
   environment (the observer's power),
2. generates pairs of input values related at each variable's policy,
3. runs the program body on both sides, with the inputs bound in the
   machine's environment rather than substituted into the body, and
4. probes the two results at the observation type, method by method,
   recursively, with the step index bounding observation depth. A result
   is probed as the machine value it is: a closure is called in its own
   environment, and only a counterexample's outputs are read back to
   terms.

Every policy is read once, the way a public observer can use it: at
`T<U>` the observer calls exactly `U`'s methods, and a primitive
signature `P1<*> * ... -> R<*>` is the standard signature
`P1! * ... -> R!` (`_observable`), so there is one probe path. Inputs
are built from the same relation: two primitive literals share a class
of what the policy cannot tell apart in a finite universe
(`_partition`); in two objects, a method in `U` answers with related
results, a method only in `T` with independent ones, and at step index
0 every method diverges. A list is no exception: its input is a chain of
`k` levels whose last one diverges, and related lists may differ in
shape wherever the policy hides it.

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
import random
import zlib
from dataclasses import dataclass, field

from .algebra import in_interval, msig, type_equiv
from .interp import Outcome, Stuck, StuckError, Value, bind, readback, run_machine, theta
from .interp import evaluate  # noqa: F401  kept as `prni.evaluate`, which perfbench's tracer test patches
from .parser import SourceProgram, pretty_print
from .syntax import (
    TOP,
    UNIT,
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
    canon_expr,
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


def _mix(*parts) -> int:
    """SplitMix64-style combination of integers and short strings; stable
    across runs and platforms so seeded runs are byte-reproducible."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        v = zlib.crc32(p.encode()) if isinstance(p, str) else int(p) & _MASK
        h = (h ^ v) * 0xBF58476D1CE4E5B9 & _MASK
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
        h ^= h >> 31
    return h


def _rng(seed: int, *path) -> random.Random:
    return random.Random(_mix(seed, *path))


# ---------------------------------------------------------------------------
# Configuration and verdicts
# ---------------------------------------------------------------------------

PROBE_FUEL = 600  # steps per probe evaluation; divergence still relates
PROBE_BUDGET = 160  # probe evaluations per relatedness check
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


def _interval_candidates(lo: DeclType, hi: DeclType, pool: dict[str, DeclType]) -> list[DeclType]:
    """The bound endpoints and pool types that lie in `lo .. hi`, without
    duplicates, in a stable order. Candidates that cannot be placed against
    an open bound are skipped."""
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


def sample_subst(delta: TypeVarEnv, pool: dict[str, DeclType], rng: random.Random) -> dict[str, DeclType]:
    """One substitution in the relational interpretation of `delta`: for
    each variable, a closed type within its bounds, drawn uniformly from
    the bound endpoints and the pool types that fit the interval. Earlier
    choices substitute into later bounds."""

    def pick(name: str, lo: DeclType, hi: DeclType) -> DeclType:
        cands = _interval_candidates(lo, hi, pool)
        if not cands:
            raise EmptyInterval(f"no candidate type lies within the bounds of {name}")
        return rng.choice(cands)

    return instantiate_tparams([TParam(name, lo, hi) for name, (lo, hi) in delta.items()], pick)


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


_ALPHABET = "abc"

#: The literals a primitive input is drawn from: `_rand_lit` draws within
#: it, and `_partition` splits it into a policy's classes.
_UNIVERSE: dict[str, tuple] = {
    "Int": tuple(range(10)),
    "String": tuple("".join(cs) for n in range(5) for cs in itertools.product(_ALPHABET, repeat=n)),
    "Bool": (False, True),
    "Unit": (None,),
}


def _rand_lit(kind: str, rng: random.Random) -> PrimLit:
    if kind == "Int":
        return PrimLit(rng.randint(0, 9), "Int")
    if kind == "String":
        return PrimLit("".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 4))), "String")
    if kind == "Bool":
        return PrimLit(rng.random() < 0.5, "Bool")
    return UNIT


@functools.lru_cache(maxsize=1024)
def _partition(kind: str, u: ObjType, values: tuple, seen: frozenset = frozenset()) -> dict:
    """Each of `values`, literals of `kind`, mapped to its class at
    `kind<u>`: the tuple of values on which every method of `u`, read
    through `_observable`, gives related results at all public arguments
    from the universe and, at the receiver's kind, `values` (`_public_arg`
    probes with the receivers). A public result is compared by value, one
    at a policy not in `seen` by its class among the results (so at `Top`
    not at all). A method this cannot read (type parameters, a non-public
    argument, a stuck call) leaves every value in a class of its own."""
    cls = dict.fromkeys(values, 0)
    for name, _ in u.methods:
        sig = _observable(msig({}, u, name))
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


def gen_related_pair(s: Faceted, k: int, rng: random.Random) -> tuple[Expr, Expr]:
    """A pair of closed values related at the closed security type `s` for
    `k` observation steps.

    A primitive pair is a literal and a second one drawn uniformly from
    its class in the policy's partition of the literal universe
    (`_partition`): equal literals when public, independent ones at
    `Top`. Every object, a list included, is built from the relation at
    `T<U>` (`_gen_obj_pair`): a chain of `k` levels below which every
    method diverges.
    """
    t, u = s.safety, s.decl
    if isinstance(u, TypeVar):
        raise NoGenerator(f"declassification facet {u.name} is not closed")
    if isinstance(t, Prim):
        return _gen_prim_pair(t.kind, u, rng)
    if isinstance(t, ObjType):
        return _gen_obj_pair(t, u, k, rng)
    raise NoGenerator(f"cannot generate values at {pretty_print(s)}")


def _gen_prim_pair(kind: str, u: DeclType, rng: random.Random) -> tuple[Expr, Expr]:
    v1 = _rand_lit(kind, rng)
    if isinstance(u, Prim):
        return v1, v1  # public: syntactically equal
    if is_top(u):
        return v1, _rand_lit(kind, rng)
    return v1, PrimLit(rng.choice(_partition(kind, u, _UNIVERSE[kind])[v1.value]), kind)


def _ret_at_lower_bounds(sig: GenericSig) -> Faceted:
    """`sig`'s return type with each type parameter at its lower bound,
    earlier choices substituted into later bounds."""
    return subst_type_vars(sig.ret, instantiate_tparams(sig.tparams, lambda _, lo, hi: lo))


@functools.lru_cache(maxsize=1024)
def _method_table(t: ObjType, u: DeclType) -> tuple[tuple[str, GenericSig, Faceted], ...]:
    """For each method of `t`: its name, its closed signature, and the type
    at which `_gen_obj_pair` relates its two results. Built once per
    `T<U>`, since `msig` unfolds a recursive type such as a list's on every
    call."""
    rows = []
    for name, _ in t.methods:
        sig = msig({}, t, name)
        if isinstance(sig, PrimSig):
            raise NoGenerator(f"object type with primitive-signature method {name} has no object values")
        decl = TOP
        if isinstance(u, ObjType) and u.sig(name) is not None:
            decl = _ret_at_lower_bounds(_observable(msig({}, u, name))).decl
        rows.append((name, sig, Faceted(_ret_at_lower_bounds(sig).safety, decl)))
    return tuple(rows)


def _gen_obj_pair(t: ObjType, u: DeclType, k: int, rng: random.Random) -> tuple[Expr, Expr]:
    """Two objects related at `T<U>` for `k` steps, built from the relation.

    A method in `U` returns a pair related at `U`'s return declassification
    over `T`'s return safety; a method only in `T` returns a pair at
    declassification `Top`, which the observer cannot tell apart. Type
    parameters sit at their lower bounds, the instantiation that observes
    most; the bodies ignore their arguments. At `k <= 0` every method calls
    itself and diverges, which relates to everything. A recursive type
    such as a list is thus a chain of `k` levels whose last one diverges.
    """
    z = fresh("z")
    methods1, methods2 = [], []
    for name, sig, ret in _method_table(t, u):
        params = tuple(fresh("x") for _ in sig.args)
        if k <= 0:
            b1 = b2 = Invoke(Var(z), name, tuple(TypeVar(tp.name) for tp in sig.tparams), tuple(Var(p) for p in params))
        else:
            b1, b2 = gen_related_pair(ret, k - 1, rng)
        methods1.append(MethodDef(name, params, b1))
        methods2.append(MethodDef(name, params, b2))
    return ObjectLit(z, public(t), tuple(methods1)), ObjectLit(z, public(t), tuple(methods2))


# ---------------------------------------------------------------------------
# Relatedness checking (bounded, refutation-sound)
# ---------------------------------------------------------------------------


@dataclass
class ProbeContext:
    pool: dict[str, DeclType] = field(default_factory=dict)
    seed: int = 0
    budget: int = PROBE_BUDGET


def check_related(
    k: int, v1: Expr, v2: Expr, s: Faceted, ctx: ProbeContext, _path: tuple = ()
) -> tuple[bool, list[Observation] | None]:
    """Probe whether `v1` and `v2`, machine values or closed value terms,
    are related at `s` for `k` steps.

    Returns (False, observation path) on refutation; (True, None) when no
    probe distinguishes them within the step index and budget. Probes are
    keyed by structural path so a larger `k` replays the shallower probes
    identically (refutations are monotone in `k`). Every method of the
    declassification facet is probed at its observable signature.
    """
    if k <= 0 or ctx.budget <= 0:
        return True, None
    t, u = s.safety, s.decl
    if isinstance(u, TypeVar):
        raise GobsecError(f"relatedness at an open type {u.name}")
    if isinstance(t, Prim) and isinstance(u, Prim):
        if u.kind == t.kind and isinstance(v1, PrimLit) and isinstance(v2, PrimLit):
            if v1.kind == v2.kind and v1.value == v2.value:
                return True, None
            return False, []
        return True, None
    if not isinstance(u, ObjType):
        return True, None
    for name, _ in u.methods:
        ok, path = _probe_generic_method(k, v1, v2, name, _observable(msig({}, u, name)), ctx, _path)
        if not ok:
            return False, path
    return True, None


def _outcomes(v1, v2, name, targs, args1, args2, ctx) -> tuple | None:
    ctx.budget -= 1
    r1 = _probe(v1, name, targs, args1)
    r2 = _probe(v2, name, targs, args2)
    if isinstance(r1, Value) and isinstance(r2, Value):
        return r1.expr, r2.expr
    # Termination-insensitive: a timeout (or stuck probe, possible only on
    # ill-typed inputs) never distinguishes.
    return None


def _probe(recv, name: str, targs: tuple, args: list) -> Outcome:
    """Run the call `r.name<targs>(a0, ...)` with the receiver and the
    arguments bound in the environment, so a closure is called as it is.
    Looking them up costs no step, so the call costs the one contraction
    that invoking the read-back receiver would."""
    params = tuple(f"a{i}" for i in range(len(args)))
    call = Invoke(Var("r"), name, targs, tuple(Var(p) for p in params))
    return run_machine(call, bind({"r": recv, **dict(zip(params, args))}), PROBE_FUEL)


def _probe_generic_method(k, v1, v2, name, sig: GenericSig, ctx, path) -> tuple[bool, list | None]:
    tried: set = set()
    for ti, inst in enumerate(_sample_instantiations(sig, ctx)):
        targs = tuple(inst.values())
        args_types = [subst_type_vars(a, inst) for a in sig.args]
        ret = subst_type_vars(sig.ret, inst)
        for ai in range(ASAMPLES):
            if ctx.budget <= 0:
                return True, None
            arng = None
            args1, args2 = [], []
            for j, at in enumerate(args_types):
                if isinstance(at.safety, Prim) and type_equiv(at.safety, at.decl):
                    a1 = a2 = _public_arg(at.safety.kind, (v1, v2), ai + j)
                else:
                    if arng is None:
                        arng = _rng(ctx.seed, "args", *[str(p) for p in path], name, ti, ai)
                    a1, a2 = gen_related_pair(at, k - 1, arng)
                args1.append(a1)
                args2.append(a2)
            probe_key = (
                tuple(canon(t) for t in targs),
                tuple(_probe_key(a) for a in args1),
                tuple(_probe_key(a) for a in args2),
            )
            if probe_key in tried:
                continue
            tried.add(probe_key)
            out = _outcomes(v1, v2, name, targs, args1, args2, ctx)
            if out is None:
                continue
            r1, r2 = out
            ok, sub = check_related(k - 1, r1, r2, ret, ctx, path + ((name, ti, ai),))
            if not ok:
                step = Observation(
                    name,
                    tuple(pretty_print(t) for t in targs),
                    tuple(pretty_print(a) for a in args1),
                    tuple(pretty_print(a) for a in args2),
                )
                return False, [step] + (sub or [])
    return True, None


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


def _probe_key(a: Expr):
    if isinstance(a, PrimLit):
        return ("lit", a.kind, a.value)
    return ("expr", canon_expr(a))


def _sample_instantiations(sig: GenericSig, ctx: ProbeContext) -> list[dict[str, DeclType]]:
    """Up to TSAMPLES instantiations of `sig`'s type parameters: the i-th
    takes each parameter's i-th interval candidate (or its last), falling
    back to the upper bound when no candidate fits."""
    out: list[dict[str, DeclType]] = []
    for i in range(TSAMPLES):

        def pick(_, lo: DeclType, hi: DeclType) -> DeclType:
            cands = _interval_candidates(lo, hi, ctx.pool)
            return cands[min(i, len(cands) - 1)] if cands else hi

        inst = instantiate_tparams(sig.tparams, pick)
        if inst not in out:
            out.append(inst)
    return out


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
    delta = dict(program.tvars)
    gamma = dict(program.vars)
    body = program.body
    substs: list[dict[str, DeclType]] = []
    n_substs = max(1, config.substs) if delta else 1
    for i in range(n_substs):
        substs.append(sample_subst(delta, pool, _rng(config.seed, "subst", i)) if delta else {})
    # Independent draws can all agree (1 seed in 512 for an interval of two
    # types), and then no trial runs the other instantiation, where a leak
    # may be. The last draw is then redrawn until it differs.
    def key(sub: dict[str, DeclType]) -> tuple:
        return tuple(canon(t) for t in sub.values())

    if len(substs) > 1 and len({key(sub) for sub in substs}) == 1:
        for i in range(n_substs, 4 * n_substs):
            sub = sample_subst(delta, pool, _rng(config.seed, "subst", i))
            if key(sub) != key(substs[0]):
                substs[-1] = sub
                break
    pairs = config.pairs
    if not delta and not gamma:
        pairs = min(pairs, 1)  # a closed program runs deterministically
    # The body, the observation type and the input types under each
    # substitution, computed once rather than per trial.
    instances = [
        (
            sigma,
            subst_type_vars_expr(body, sigma),
            subst_type_vars(observe_at, sigma),
            [subst_type_vars(xs, sigma) for xs in gamma.values()],
        )
        for sigma in substs
    ]
    compared = 0
    for trial in range(pairs):
        sigma, sbody, sobserve, sxs = instances[trial % len(instances)]
        gamma1: dict[str, Expr] = {}
        gamma2: dict[str, Expr] = {}
        for xi, (x, sx) in enumerate(zip(gamma, sxs)):
            v1, v2 = gen_related_pair(sx, config.k, _rng(config.seed, "pair", trial, xi))
            gamma1[x] = v1
            gamma2[x] = v2
        r1 = run_machine(sbody, bind(gamma1), config.fuel)
        r2 = run_machine(sbody, bind(gamma2), config.fuel)
        if isinstance(r1, Stuck) or isinstance(r2, Stuck):
            which = r1 if isinstance(r1, Stuck) else r2
            raise GobsecError(
                f"simply well-typed program got stuck ({which.reason}); this is a bug"
            )
        if not (isinstance(r1, Value) and isinstance(r2, Value)):
            continue  # termination-insensitive
        compared += 1
        ctx = ProbeContext(pool=pool, seed=_mix(config.seed, "check", trial))
        ok, path = check_related(config.k, r1.expr, r2.expr, sobserve, ctx)
        if not ok:
            return Counterexample(
                sigma={x: pretty_print(t) for x, t in sigma.items()},
                gamma1={x: pretty_print(v) for x, v in gamma1.items()},
                gamma2={x: pretty_print(v) for x, v in gamma2.items()},
                observation=path or [],
                outputs=(pretty_print(readback(r1.expr)), pretty_print(readback(r2.expr))),
                trial=trial,
                seed=config.seed,
                sigma_types=dict(sigma),
                gamma1_values=dict(gamma1),
                gamma2_values=dict(gamma2),
            )
    return NoCounterexample(
        pairs_tested=pairs,
        substs_tested=len(substs),
        max_k=config.k,
        seed=config.seed,
        compared=compared,
    )
