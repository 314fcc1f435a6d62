"""GObSec: a security-typed object calculus with bounded polymorphic
declassification, its checker, interpreter, and a differential-testing
harness for relaxed noninterference."""

from .algebra import (
    has_method,
    in_interval,
    meths,
    msig,
    rdecl,
    sectype_equiv,
    soundsig,
    type_equiv,
    unfold,
    upper_bound,
)
from .interp import Outcome, Stuck, Timeout, Value, evaluate, gen_welltyped, step
from .parser import (
    ParseError,
    SourceProgram,
    parse_expr,
    parse_program,
    parse_sectype,
    pretty_print,
    print_program,
)
from .prni import (
    Counterexample,
    NoCounterexample,
    PrniConfig,
    Verdict,
    check_related,
    prni_test,
    sample_subst,
)
from .subtyping import declarative_oracle, sub_record, sub_sectype, sub_sig, sub_type
from .syntax import (
    TOP,
    Ascribe,
    Expr,
    Faceted,
    GenericSig,
    GobsecError,
    If,
    Invoke,
    Let,
    MethodDef,
    MethodSig,
    ObjType,
    ObjectLit,
    Prim,
    PrimLit,
    PrimSig,
    SelfVar,
    TParam,
    TypeVar,
    Var,
    public,
    private,
    subst_self_var,
    subst_term,
    subst_type_vars,
)
from .typecheck import Diagnostic, TypeError_, sec_check, sec_synth, simple_synth
from .wellformed import WfIssue, wf_sectype, wf_term_env, wf_tvar_env, wf_type

__version__ = "0.1.0"
