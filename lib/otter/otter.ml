(* The Otter compiler driver: the paper's multi-pass pipeline as one
   call, plus helpers to execute the result on the simulated machines,
   run the sequential baselines, and verify that all back ends agree. *)

module Ty = Analysis.Ty

type compiled = {
  source : string;
  ast : Mlang.Ast.program; (* resolved *)
  info : Analysis.Infer.result;
  prog : Spmd.Ir.prog; (* after rewriting, guards, and the pass pipeline *)
  passes : Spmd.Pass.record list;
}

(* Passes 1-6: scan/parse, resolve, SSA + inference, rewrite, owner
   guards, then the middle-end pass pipeline ([passes] overrides the
   [opt] level's pass list; [validate] checks IR invariants between
   passes; [dump_after] sees the program after each pass). *)
let compile ?path ?datadir ?(opt = Spmd.Pass.O2) ?passes ?validate ?dump_after
    (source : string) : compiled =
  let ast = Mlang.Parser.parse_program source in
  let ast = Analysis.Resolve.run ?path ast in
  let info = Analysis.Infer.program ?datadir ast in
  Analysis.Ast_check.validate ast;
  let prog = Spmd.Lower.lower_program info ast in
  let names =
    match passes with Some ps -> ps | None -> Spmd.Pass.level_passes opt
  in
  let prog, records =
    Spmd.Pass.run_pipeline ?validate ?dump_after names prog
  in
  { source; ast; info; prog; passes = records }

(* Pass 7 lives in [Codegen.emit_c]. *)

(* Passes 1-3 only: enough to run the reference interpreter, which
   supports a superset of what the back end compiles (e.g. matrix
   growth through indexed assignment). *)
type frontend = {
  fe_source : string;
  fe_ast : Mlang.Ast.program; (* resolved *)
  fe_info : Analysis.Infer.result;
}

let compile_frontend ?path ?datadir (source : string) : frontend =
  let ast = Mlang.Parser.parse_program source in
  let ast = Analysis.Resolve.run ?path ast in
  let info = Analysis.Infer.program ?datadir ast in
  Analysis.Ast_check.validate ast;
  { fe_source = source; fe_ast = ast; fe_info = info }

(* --- the run configuration ---------------------------------------------- *)

(* Every knob a run or verification can take, in one record.  The smart
   constructor [config] owns the defaults (and the [chaos] shorthand),
   so adding a knob is one field + one optional argument instead of a
   change to every entry point. *)
module Config = struct
  (* What executes the program: the SPMD executor ([Exec.Tcode]) or
     one of the two sequential baselines of Figure 2. *)
  type engine = Etcode | Einterp | Ematcom

  type t = {
    machine : Mpisim.Machine.t;
    nprocs : int;
    engine : engine;
    seed : int;
    datadir : string;
    capture : string list;
    tol : float;
    ckpt_interval : float;
    max_recoveries : int;
    layout : Runtime.Dmat.layout;
  }

  let default_engine = Etcode

  let engine_of_string = function
    | "tcode" -> Some Etcode
    | "interp" -> Some Einterp
    | "matcom" -> Some Ematcom
    | _ -> None

  let engine_name = function
    | Etcode -> "tcode"
    | Einterp -> "interp"
    | Ematcom -> "matcom"

  let layout_of_string (s : string) : Runtime.Dmat.layout option =
    match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
    | [ "block" ] -> Some Runtime.Dmat.Lblock
    | [ "cyclic" ] -> Some (Runtime.Dmat.Lcyclic 1)
    | [ "cyclic"; b ] -> (
        match int_of_string_opt b with
        | Some b when b >= 1 -> Some (Runtime.Dmat.Lcyclic b)
        | _ -> None)
    | _ -> None

  let layout_name = function
    | Runtime.Dmat.Lblock -> "block"
    | Runtime.Dmat.Lcyclic b -> Printf.sprintf "cyclic:%d" b

  let make ?(machine = Mpisim.Machine.meiko_cs2) ?(nprocs = 4)
      ?(engine = default_engine) ?(seed = 42) ?(datadir = ".") ?(capture = [])
      ?(tol = 1e-9) ?(chaos = false) ?(ckpt_interval = 0.)
      ?(max_recoveries = 0) ?(layout = Runtime.Dmat.Lblock) () : t =
    let reject fmt = Printf.ksprintf invalid_arg fmt in
    if nprocs < 1 then reject "run: need at least one rank, got -p %d" nprocs;
    (* [not (x >= 0.)] also catches NaN. *)
    if not (tol >= 0.) then reject "--tol must be non-negative, got %g" tol;
    if not (ckpt_interval >= 0.) then
      reject "--ckpt-interval must be non-negative, got %g" ckpt_interval;
    if max_recoveries < 0 then
      reject "--max-recoveries must be non-negative, got %d" max_recoveries;
    (match machine.Mpisim.Machine.faults with
    | Some { Mpisim.Machine.kill_rank = r; _ } when r >= nprocs ->
        reject "--faults kill_rank=%d is not a rank of a -p %d run" r nprocs
    | _ -> ());
    (* [chaos] is the one-flag shorthand for "survive the fault model":
       it fills in the recovery knobs the caller left at their
       defaults. *)
    let ckpt_interval =
      if ckpt_interval > 0. then ckpt_interval else if chaos then 0.05 else 0.
    in
    let max_recoveries =
      if max_recoveries > 0 then max_recoveries else if chaos then 3 else 0
    in
    {
      machine;
      nprocs;
      engine;
      seed;
      datadir;
      capture;
      tol;
      ckpt_interval;
      max_recoveries;
      layout;
    }
end

let config = Config.make

(* The sequential baselines: the reference interpreter, priced by the
   MATCOM cost model under [Ematcom] and by the interpreter's under any
   other engine. *)
let interpret_ast (cfg : Config.t) ast =
  let mode =
    match cfg.Config.engine with
    | Config.Ematcom -> Interp.Cost.Matcom
    | _ -> Interp.Cost.Interpreter
  in
  Interp.Eval.run ~capture:cfg.Config.capture ~seed:cfg.Config.seed
    ~datadir:cfg.Config.datadir ~mode ~machine:cfg.Config.machine ast

let interpret cfg (fe : frontend) = interpret_ast cfg fe.fe_ast

let dump_ir c = Spmd.Ir_pp.prog_to_string c.prog

let dump_ssa (c : compiled) =
  let script, _ = Analysis.Ssa.convert_script c.ast.Mlang.Ast.script in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Analysis.Ssa_pp.script_to_string script);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Analysis.Ssa_pp.func_to_string (Analysis.Ssa.convert_func f)))
    c.ast.Mlang.Ast.funcs;
  Buffer.contents buf

(* Per-pass statistics table: name, wall-clock, total rewrites, and the
   per-rule breakdown for every pass that ran. *)
let pass_table (records : Spmd.Pass.record list) : string =
  match records with
  | [] -> "passes: none (O0)"
  | rs ->
      let rows =
        List.map
          (fun (r : Spmd.Pass.record) ->
            let detail =
              if r.Spmd.Pass.rewrites = 0 then "-"
              else
                String.concat ", "
                  (List.filter_map
                     (fun (k, n) ->
                       if n = 0 then None else Some (Printf.sprintf "%s %d" k n))
                     r.Spmd.Pass.detail)
            in
            Printf.sprintf "  %-16s %8.3f ms %6d rewrites  %s" r.Spmd.Pass.pass
              (r.Spmd.Pass.seconds *. 1000.)
              r.Spmd.Pass.rewrites detail)
          rs
      in
      String.concat "\n" ("passes:" :: rows)

(* One-paragraph compilation report (otterc compile --stats). *)
let report (c : compiled) : string =
  let insts = ref 0 and comm = ref 0 and elem = ref 0 in
  let count_block b =
    Spmd.Ir.iter_insts
      (fun i ->
        incr insts;
        match i with
        | Spmd.Ir.Ilib _ | Spmd.Ir.Isort _ | Spmd.Ir.Ireduce_loc _
        | Spmd.Ir.Ibcast _ | Spmd.Ir.Ibcast_batch _ | Spmd.Ir.Ireduce_fused _
        | Spmd.Ir.Isection _ | Spmd.Ir.Iconcat _ ->
            incr comm
        | Spmd.Ir.Ielem _ -> incr elem
        | _ -> ())
      b
  in
  count_block c.prog.Spmd.Ir.p_body;
  List.iter (fun (f : Spmd.Ir.func) -> count_block f.f_body) c.prog.Spmd.Ir.p_funcs;
  let scalars = ref 0 and matrices = ref 0 in
  Hashtbl.iter
    (fun _ (t : Ty.t) ->
      if t.Ty.rank = Ty.Rscalar then incr scalars else incr matrices)
    c.info.Analysis.Infer.var_ty;
  String.concat "\n"
    [
      Printf.sprintf "variables: %d scalar (replicated), %d matrix (distributed)"
        !scalars !matrices;
      Printf.sprintf "functions: %d" (List.length c.prog.Spmd.Ir.p_funcs);
      Printf.sprintf
        "IR: %d instructions; %d run-time library calls (communication); %d fused element-wise loops"
        !insts !comm !elem;
      pass_table c.passes;
      "";
    ]

(* The modeled-time ledger of a run (otterc run --stats): each
   category's seconds averaged over the ranks, and that average as a
   share of the makespan. *)
let ledger_table (r : Mpisim.Sim.report) : string =
  let ranks = float_of_int (Array.length r.Mpisim.Sim.ledger) in
  let rows =
    Array.to_list
      (Array.mapi
         (fun c name ->
           let avg =
             Array.fold_left (fun s row -> s +. row.(c)) 0. r.Mpisim.Sim.ledger
             /. ranks
           in
           let share =
             if r.Mpisim.Sim.makespan > 0. then
               100. *. avg /. r.Mpisim.Sim.makespan
             else 0.
           in
           Printf.sprintf "    %-17s %.6f s %6.2f%%" name avg share)
         Mpisim.Sim.ledger_categories)
  in
  String.concat "\n"
    ("  ledger (rank average, share of simulated time):" :: rows)

(* --- execution ------------------------------------------------------------ *)

(* The one way to execute a compiled program: run it under [cfg]'s
   engine and return the recovery-shaped result (a clean run is one
   attempt with no rollbacks). *)
let run (cfg : Config.t) (c : compiled) : Exec.State.recovery =
  match cfg.Config.engine with
  | Config.Einterp | Config.Ematcom ->
      (* A sequential baseline never fails partially: one attempt whose
         one-rank report carries the modeled sequential time. *)
      let o = interpret_ast cfg c.ast in
      let t = o.Interp.Eval.time in
      let report = Mpisim.Sim.new_report ~compute_time:t [| t |] in
      {
        Exec.State.r_result =
          Complete
            {
              output = o.Interp.Eval.output;
              captures = o.Interp.Eval.captures;
              lib_calls = 0;
              report;
            };
        r_attempts = 1;
        r_gave_up = false;
        r_reports = [ report ];
        r_penalty = 0.;
      }
  | Config.Etcode ->
      let { Config.machine; nprocs; seed; datadir; capture; layout; _ } = cfg in
      let { Config.ckpt_interval; max_recoveries; _ } = cfg in
      (* The distribution policy is ambient state read at matrix
         creation: set it for the whole parallel run (checkpointed
         replays included) and restore it afterwards. *)
      let saved = !Runtime.Dmat.default_layout in
      Runtime.Dmat.default_layout := layout;
      Fun.protect
        ~finally:(fun () -> Runtime.Dmat.default_layout := saved)
        (fun () ->
          Exec.Tcode.run_recovering ~capture ~seed ~datadir ~ckpt_interval
            ~max_recoveries ~machine ~nprocs c.prog)

(* The outcome of a recovery, or [Exec.State.Runtime_error] if the final
   attempt still failed — the raising entry point most callers want. *)
let outcome_exn (rc : Exec.State.recovery) : Exec.State.outcome =
  match rc.Exec.State.r_result with
  | Exec.State.Complete o -> o
  | Exec.State.Partial { detail; _ } -> raise (Exec.State.Runtime_error detail)

(* --- cross-back-end verification ---------------------------------------- *)

type mismatch = {
  variable : string;
  detail : string;
}

let values_close ~tol x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.is_finite x && Float.is_finite y
     &&
     let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
     Float.abs (x -. y) <= tol *. scale

(* Compare two program outputs token by token: numeric tokens with
   [values_close] (reduction order, printf rounding), everything else
   literally.  Tokens split at blanks and at '=', so a number printed
   as name=value is compared as a number too. *)
let outputs_agree ?(tol = 1e-9) (a : string) (b : string) : string option =
  let tokens s =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char ' ')
    |> List.concat_map (String.split_on_char '=')
    |> List.filter (fun t -> t <> "")
  in
  let ta = tokens a and tb = tokens b in
  if List.length ta <> List.length tb then
    Some
      (Printf.sprintf "output length differs: %d tokens vs %d"
         (List.length ta) (List.length tb))
  else
    let close = values_close ~tol in
    List.fold_left2
      (fun acc x y ->
        match acc with
        | Some _ -> acc
        | None -> (
            match (float_of_string_opt x, float_of_string_opt y) with
            | Some fx, Some fy ->
                if close fx fy then None
                else Some (Printf.sprintf "output token %s vs %s" x y)
            | _ ->
                if x = y then None
                else Some (Printf.sprintf "output token %S vs %S" x y)))
      None ta tb

let compare_values ~tol (a : Exec.State.captured) (b : Exec.State.captured) :
    string option =
  let close = values_close ~tol in
  let first_bad d1 d2 =
    let bad = ref None in
    Array.iteri
      (fun i x ->
        if !bad = None && not (close x d2.(i)) then
          bad := Some (Printf.sprintf "element %d: %g vs %g" i x d2.(i)))
      d1;
    !bad
  in
  match (a, b) with
  | Cscalar x, Cscalar y
  | Cscalar x, Cmat (1, 1, [| y |])
  | Cmat (1, 1, [| x |]), Cscalar y
  | Cscalar x, Cnd (_, [| y |])
  | Cnd (_, [| x |]), Cscalar y ->
      if close x y then None else Some (Printf.sprintf "%g vs %g" x y)
  | Cmat (r1, c1, d1), Cmat (r2, c2, d2) ->
      if r1 <> r2 || c1 <> c2 then
        Some (Printf.sprintf "shape %dx%d vs %dx%d" r1 c1 r2 c2)
      else first_bad d1 d2
  | Cnd (d1, a1), Cnd (d2, a2) ->
      if d1 <> d2 then
        let show d =
          String.concat "x" (Array.to_list (Array.map string_of_int d))
        in
        Some (Printf.sprintf "dims %s vs %s" (show d1) (show d2))
      else first_bad a1 a2
  | _ -> Some "rank mismatch"

type verdict =
  | Verified
  | Mismatched of mismatch list
  | Aborted of {
      failed_rank : int;
      operation : string;
      detail : string;
      kind : Exec.State.failure_kind;
      report : Mpisim.Sim.report;
      recoveries : int;
    }

(* Every inferred script variable, for verify's default capture set. *)
let all_variables (c : compiled) : string list =
  Hashtbl.fold (fun name _ acc -> name :: acc) c.info.Analysis.Infer.var_ty []
  |> List.sort_uniq compare

(* Run the reference interpreter and the compiled program under [cfg]
   and compare the captured variables (within [cfg.tol], which absorbs
   reduction-order rounding) and then the printed output, which
   [outputs_agree] compares token by token within the same tolerance
   and which mismatches as the pseudo-variable [<stdout>].  An empty
   [cfg.capture] means "every inferred script variable".  The parallel leg always runs the SPMD
   executor, whatever [cfg]'s engine (verifying the interpreter
   against itself proves nothing).  When the parallel
   run dies — e.g. under an injected fault model without the reliable
   layer — the verdict is a structured [Aborted] naming the failing
   rank and operation rather than an exception.  Nonzero
   [cfg.ckpt_interval]/[cfg.max_recoveries] route the parallel run
   through the checkpoint/rollback driver, so a verdict of [Verified]
   can also mean "failed, recovered, and still bit-compatible with the
   reference". *)
let verify (cfg : Config.t) (c : compiled) : verdict =
  let capture =
    match cfg.Config.capture with [] -> all_variables c | cs -> cs
  in
  let cfg = { cfg with Config.capture; engine = Config.Etcode } in
  let ref_run = interpret_ast cfg c.ast in
  let rc = run cfg c in
  let recoveries = rc.Exec.State.r_attempts - 1 in
  match rc.Exec.State.r_result with
  | Exec.State.Partial { failed_rank; operation; detail; kind; report } ->
      Aborted { failed_rank; operation; detail; kind; report; recoveries }
  | Exec.State.Complete par_run -> (
      let mismatches =
        List.filter_map
          (fun name ->
            match
              ( List.assoc_opt name ref_run.Interp.Eval.captures,
                List.assoc_opt name par_run.Exec.State.captures )
            with
            | Some a, Some b -> (
                match compare_values ~tol:cfg.Config.tol a b with
                | None -> None
                | Some detail -> Some { variable = name; detail })
            | None, None ->
                (* Absent from both runs (e.g. the index variable of a
                   zero-trip loop, or a non-numeric value neither back
                   end captures): the runs agree, so this is clean. *)
                None
            | None, _ ->
                Some { variable = name; detail = "missing in interpreter" }
            | _, None ->
                Some { variable = name; detail = "missing in compiled run" })
          capture
      in
      let mismatches =
        match
          outputs_agree ~tol:cfg.Config.tol ref_run.Interp.Eval.output
            par_run.Exec.State.output
        with
        | None -> mismatches
        | Some detail -> mismatches @ [ { variable = "<stdout>"; detail } ]
      in
      match mismatches with [] -> Verified | ms -> Mismatched ms)

let verify_list (cfg : Config.t) (c : compiled) : mismatch list =
  match verify cfg c with
  | Verified -> []
  | Mismatched ms -> ms
  | Aborted { detail; _ } -> raise (Exec.State.Runtime_error detail)

(* The multi-tenant space-sharing scheduler, re-exported so library
   users reach it as [Otter.Sched]. *)
module Sched = Sched
