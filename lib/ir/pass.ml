(* The middle-end pass manager.

   Every IR->IR optimization is a named pass in one registry; the driver
   assembles a pipeline from an optimization level (or an explicit
   pass list), and this module runs it, recording per-pass wall-clock
   time and rewrite statistics.  With [validate] set, the structural IR
   validator runs before the first pass and again after every pass, so
   a miscompiling rewrite is pinned to the pass that introduced it.

   Levels:
   - O0: no passes -- the IR exactly as lowered;
   - O1: the peephole pass alone (the historical default pipeline);
   - O2: peephole, then the global dataflow passes, then the
     communication optimizer. *)

type t = {
  name : string;
  descr : string;
  run : Ir.prog -> Ir.prog * (string * int) list;
}

let peephole : t =
  {
    name = "peephole";
    descr = "straight-line rewrites: copy forwarding, broadcast reuse, \
             transpose/shift collapsing, dead temporaries";
    run =
      (fun p ->
        let stats = Peephole.fresh_stats () in
        let p' = Peephole.optimize ~stats p in
        ( p',
          [
            ("copies-forwarded", stats.Peephole.copies_forwarded);
            ("broadcasts-reused", stats.Peephole.broadcasts_reused);
            ("transposes-collapsed", stats.Peephole.transposes_collapsed);
            ("shifts-combined", stats.Peephole.shifts_combined);
            ("dead-removed", stats.Peephole.dead_removed);
          ] ));
  }

let licm : t =
  {
    name = "licm";
    descr = "loop-invariant communication motion: hoist broadcasts, \
             constructors and pure reductions out of loops";
    run = Licm.run;
  }

let gre : t =
  {
    name = "gre";
    descr = "global redundancy elimination: reuse earlier broadcasts, \
             transposes and reductions of unmodified operands";
    run = Gre.run;
  }

let copyprop : t =
  {
    name = "copyprop";
    descr = "copy propagation and liveness dead code elimination over \
             named variables";
    run = Copyprop.run;
  }

let fold_construct : t =
  {
    name = "fold-construct";
    descr = "fold single-use zeros/ones/eye constructors into the \
             element-wise expressions that consume them";
    run = Fold.run;
  }

let comm : t =
  {
    name = "comm";
    descr = "communication optimization: batch adjacent element \
             broadcasts, fuse sum-combining reductions into one vector \
             allreduce, eliminate transpose-feeding-matmul pairs";
    run = Comm.run;
  }

let registry : t list = [ peephole; licm; gre; copyprop; fold_construct; comm ]

exception Unknown_pass of string

let find (name : string) : t =
  match List.find_opt (fun p -> p.name = name) registry with
  | Some p -> p
  | None -> raise (Unknown_pass name)

type level = O0 | O1 | O2

let level_passes = function
  | O0 -> []
  | O1 -> [ "peephole" ]
  | O2 -> [ "peephole"; "licm"; "gre"; "copyprop"; "fold-construct"; "comm" ]

(* What one pass did on one program. *)
type record = {
  pass : string;
  rewrites : int;  (** total rewrites, summed over [detail] *)
  detail : (string * int) list;
  seconds : float;
}

(* Run [names] in order.  [validate] checks structural invariants
   before the first pass and after every pass; [dump_after] sees the
   program after each pass (the caller filters by name).  Unreferenced
   temporaries are pruned from the variable tables at the end, whatever
   the pipeline was. *)
let run_pipeline ?(validate = false) ?dump_after (names : string list)
    (prog : Ir.prog) : Ir.prog * record list =
  let passes = List.map find names in
  if validate then Validate.run ~where:"after lowering" prog;
  let prog, records =
    List.fold_left
      (fun (prog, records) pass ->
        let t0 = Unix.gettimeofday () in
        let prog', detail = pass.run prog in
        let seconds = Unix.gettimeofday () -. t0 in
        if validate then
          Validate.run ~where:(Printf.sprintf "after pass %s" pass.name) prog';
        (match dump_after with Some f -> f pass.name prog' | None -> ());
        let rewrites = List.fold_left (fun a (_, n) -> a + n) 0 detail in
        (prog', { pass = pass.name; rewrites; detail; seconds } :: records))
      (prog, []) passes
  in
  let prog = Dataflow.prune_temp_vars prog in
  if validate then Validate.run ~where:"after temp pruning" prog;
  (prog, List.rev records)
