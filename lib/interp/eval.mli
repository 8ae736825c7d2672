(** Reference interpreter for the MATLAB subset: the semantics oracle
    for the compiler and, with a {!Cost} model, the paper's sequential
    baselines. *)

exception Runtime_error of string

type captured = Runtime.Captured.t =
  | Cscalar of float
  | Cmat of int * int * float array
  | Cnd of int array * float array  (** dims, row-major data *)

type outcome = {
  output : string;
  captures : (string * captured) list;
  time : float; (** modeled sequential execution time *)
}

val run :
  ?capture:string list ->
  ?seed:int ->
  ?datadir:string ->
  mode:Cost.mode ->
  machine:Mpisim.Machine.t ->
  Mlang.Ast.program ->
  outcome
(** Interpret a resolved program, charging the given cost model against
    [machine]'s single-CPU parameters. *)
