(** The Otter compiler driver: the paper's multi-pass pipeline as one
    call, plus execution on the simulated machines, the sequential
    baselines, and cross-back-end verification.

    All execution goes through a single {!Config.t} record built by
    {!config}: two canonical entry points ({!run} and {!verify})
    replace the old per-knob optional-argument families. *)

type compiled = {
  source : string;
  ast : Mlang.Ast.program; (** after identifier resolution *)
  info : Analysis.Infer.result;
  prog : Spmd.Ir.prog; (** after rewriting, guards, and the pass pipeline *)
  passes : Spmd.Pass.record list; (** what each middle-end pass did *)
}

val compile :
  ?path:(string -> Mlang.Ast.func option) ->
  ?datadir:string ->
  ?opt:Spmd.Pass.level ->
  ?passes:string list ->
  ?validate:bool ->
  ?dump_after:(string -> Spmd.Ir.prog -> unit) ->
  string ->
  compiled
(** Passes 1-6.  [path] resolves M-file functions by name; [datadir]
    locates sample data files for [load] (paper section 3).  The middle
    end runs the pass pipeline of [opt] (default {!Spmd.Pass.O2});
    [passes] overrides it with an explicit pass list; [validate] runs
    the structural IR validator between passes; [dump_after] is called
    with the program after each pass.  Raises {!Mlang.Source.Error},
    {!Spmd.Lower.Unsupported}, {!Spmd.Pass.Unknown_pass}, or
    {!Spmd.Validate.Invalid}. *)

type frontend = {
  fe_source : string;
  fe_ast : Mlang.Ast.program; (** after identifier resolution *)
  fe_info : Analysis.Infer.result;
}

val compile_frontend :
  ?path:(string -> Mlang.Ast.func option) ->
  ?datadir:string ->
  string ->
  frontend
(** Passes 1-3 only (parse, resolve, infer): enough to run the
    reference interpreter, which accepts a superset of what the back
    end compiles (e.g. matrix growth through indexed assignment). *)

(** Every knob a run or verification takes, in one record.  Build one
    with {!config}; entry points take the whole record, so adding a
    knob never changes their signatures. *)
module Config : sig
  (** What executes the program: [Etcode] is the SPMD executor
      ({!Exec.Tcode}, the default).  [Einterp] and [Ematcom] are the
      sequential baselines of Figure 2 (the reference interpreter under
      the interpreter / MATCOM cost model). *)
  type engine = Etcode | Einterp | Ematcom

  type t = {
    machine : Mpisim.Machine.t;
    nprocs : int;
    engine : engine;
    seed : int;  (** replicated RNG seed *)
    datadir : string;  (** where [load] finds sample data files *)
    capture : string list;
        (** script variables whose final values are returned / compared;
            for {!verify}, [[]] means "every inferred variable" *)
    tol : float;  (** relative comparison tolerance for {!verify} *)
    ckpt_interval : float;
        (** simulated seconds between checkpoints (0 = none) *)
    max_recoveries : int;  (** rollback/replay budget (0 = no retries) *)
    layout : Runtime.Dmat.layout;
        (** the data-distribution policy for the SPMD executor: block
            (the paper's layout, the default) or block-cyclic.
            Sequential baselines ignore it. *)
  }

  val default_engine : engine

  val engine_of_string : string -> engine option
  (** ["tcode"] / ["interp"] / ["matcom"]; anything else is [None]. *)

  val engine_name : engine -> string

  val layout_of_string : string -> Runtime.Dmat.layout option
  (** ["block"] / ["cyclic"] / ["cyclic:B"]. *)

  val layout_name : Runtime.Dmat.layout -> string

  val make :
    ?machine:Mpisim.Machine.t ->
    ?nprocs:int ->
    ?engine:engine ->
    ?seed:int ->
    ?datadir:string ->
    ?capture:string list ->
    ?tol:float ->
    ?chaos:bool ->
    ?ckpt_interval:float ->
    ?max_recoveries:int ->
    ?layout:Runtime.Dmat.layout ->
    unit ->
    t
  (** See {!config}. *)
end

val config :
  ?machine:Mpisim.Machine.t ->
  ?nprocs:int ->
  ?engine:Config.engine ->
  ?seed:int ->
  ?datadir:string ->
  ?capture:string list ->
  ?tol:float ->
  ?chaos:bool ->
  ?ckpt_interval:float ->
  ?max_recoveries:int ->
  ?layout:Runtime.Dmat.layout ->
  unit ->
  Config.t
(** The smart constructor (= {!Config.make}).  Defaults: the Meiko
    CS-2, 4 processors, the [Etcode] engine, seed 42, datadir ["."],
    no captures, tolerance 1e-9, no checkpointing or recovery, the
    block data layout.  [~chaos:true] is shorthand for "survive the
    fault model": it fills in [ckpt_interval = 0.05] and
    [max_recoveries = 3] unless those were given explicitly. *)

val interpret : Config.t -> frontend -> Interp.Eval.outcome
(** Run the reference interpreter over a front-end-only compile (which
    accepts a superset of what the back end compiles).  The cost model
    follows [cfg.engine]: [Ematcom] prices MATCOM-compiled code, any
    other engine the interpreter baseline. *)

val dump_ir : compiled -> string
val dump_ssa : compiled -> string

val report : compiled -> string
(** One-paragraph compilation report (variables, IR, per-pass table). *)

val pass_table : Spmd.Pass.record list -> string
(** Just the per-pass statistics table (name, wall-clock time, rewrite
    counts) from a {!compiled.passes} list. *)

val ledger_table : Mpisim.Sim.report -> string
(** A run's ledger ({!Mpisim.Sim.report.ledger}) as text, one line per
    category of {!Mpisim.Sim.ledger_categories}: its seconds averaged
    over the ranks, and that average as a share of the makespan.
    [otterc run --stats] prints it after the report's counters. *)

val run : Config.t -> compiled -> Exec.State.recovery
(** Execute the compiled program under [cfg].  The SPMD executor runs on
    [cfg.nprocs] simulated processors of [cfg.machine], always through
    {!Exec.Tcode.run_recovering}: with neither [cfg.ckpt_interval] nor
    [cfg.max_recoveries] set that is exactly one attempt, and
    [r_gave_up] stays [false].  The sequential baseline engines
    ([Einterp]/[Ematcom]) run {!interpret} and present its result in
    the same shape: one attempt whose one-rank report has makespan =
    compute time = the modeled sequential time and every counter 0.  A
    failing rank surfaces as a structured [Partial], never an
    exception. *)

val outcome_exn : Exec.State.recovery -> Exec.State.outcome
(** The final outcome of a {!run}, raising {!Exec.State.Runtime_error}
    with the failure detail when the final attempt still failed. *)

type mismatch = { variable : string; detail : string }

type verdict =
  | Verified
  | Mismatched of mismatch list
  | Aborted of {
      failed_rank : int;
      operation : string;
      detail : string;
      kind : Exec.State.failure_kind;
      report : Mpisim.Sim.report;
          (** fault counters accumulated up to the abort *)
      recoveries : int;  (** rollbacks attempted before giving up *)
    }
      (** The parallel run died (rank failure, permanent kill, receive
          timeout under an injected fault model, exhausted
          retransmissions) before its results could be compared. *)

val values_close : tol:float -> float -> float -> bool
(** Equal within the relative tolerance [tol] (scaled by the larger
    magnitude, at least 1); NaN matches NaN and an infinity matches only
    itself.  {!verify} compares captured elements with it. *)

val outputs_agree : ?tol:float -> string -> string -> string option
(** Compare two program outputs token by token, splitting at blanks,
    newlines and ['=']: numeric tokens with {!values_close} at [tol]
    (default [1e-9]), everything else literally.  [None] when they
    agree, else the first difference (a token pair, or the two token
    counts). *)

val verify : Config.t -> compiled -> verdict
(** Run the reference interpreter and the compiled program under [cfg]
    and compare the captured variables, then the printed output with
    {!outputs_agree}; [cfg.tol] absorbs reduction-order rounding and
    [cfg.capture = []] compares every inferred script variable.  An
    output difference is reported after the variables, as a mismatch
    whose [variable] is [<stdout>].  The parallel leg always runs the SPMD
    executor, whatever [cfg.engine].
    Never raises for a failing parallel run — it degrades to
    {!verdict.Aborted}.  Nonzero [cfg.ckpt_interval]/
    [cfg.max_recoveries] route the parallel run through
    checkpoint/rollback recovery first. *)

val verify_list : Config.t -> compiled -> mismatch list
(** {!verify} for callers that treat an abort as fatal: empty result =
    verified, mismatches returned as a list, [Aborted] raised as
    {!Exec.State.Runtime_error}. *)

module Sched = Sched
(** The multi-tenant space-sharing job scheduler (see {!Sched}). *)
