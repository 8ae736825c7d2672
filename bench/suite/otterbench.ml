(* otterbench: the end-to-end benchmark of the Otter compiler.

     otterbench run [--workload W|all] [--seed S] [--seconds T]
                    [--trace 0|1] [--json F] [--out F] [--quick]
     otterbench trace [same options]          (run --trace 1)
     otterbench compare PARENT.json... -- CHANGE.json...

   [run] executes each workload in a child process of its own, one after
   another.  A child compiles the workload's programs, computes the
   reference interpreter's results untimed, runs one verified warm-up
   pass, then alternates a timed compile round (for setup_s) with a
   timed pass until T seconds have gone by.  Every operation (one
   configuration run) is checked against the interpreter and against
   the warm-up pass.  With
   --trace 1 the child then makes one more pass with spans around every
   call into a layer, and the per-layer metrics are printed instead of
   the end-to-end ones.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.

   Only public functions of mlang, analysis, spmd, exec and otter are
   timed, from outside; the counters are the ones those calls return. *)

module W = Workloads

let now = Unix.gettimeofday

(* End-to-end metrics whose values repeat exactly for a given seed;
   [compare] tests them for equality rather than against a bound. *)
let exact_metrics = [ "modeled_s" ]

(* --- one operation -------------------------------------------------------- *)

(* What set-up knows about one program. *)
type built = {
  key : string;
  compiled : Otter.compiled;
  records : Spmd.Pass.record list;  (** the staged compile's pass records *)
  ir_ok : bool;  (** the staged compile produced Otter.compile's IR *)
  capture : string list;
  reference : (string * Interp.Eval.captured) list;
}

(* One configuration, ready to run. *)
type prepared = {
  index : int;  (** configuration id within the workload *)
  label : string;
  cfg : Otter.Config.t;
  prog : built;
  clean : Exec.State.outcome option;
      (** chaos-cg: the fault-free outcome the recovered run must equal *)
}

type obs = {
  host_s : float;
  modeled_s : float;
  messages : int;
  bytes : int;
  picks : int;
  dispatched : int;
  alloc_words : float;
  major_gcs : int;
  lib_calls : int;
  compute_s : float;
  proc_s : float;  (** sum over attempts of P x makespan *)
  retries : int;
  acks : int;
  drops : int;
  attempts : int;
  penalty_s : float;
  result : Exec.State.run_result;
}

(* The runtime adds a domain's allocation counts into [Gc.quick_stat]
   at minor collections, so one is forced (untimed) before each read. *)
let gc_stat () =
  Gc.minor ();
  Gc.quick_stat ()

let execute (p : prepared) : obs =
  Exec.State.dispatched := 0;
  let g0 = gc_stat () in
  let t0 = now () in
  let rc = Otter.run p.cfg p.prog.compiled in
  let host_s = now () -. t0 in
  let g1 = gc_stat () in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let reports = rc.Exec.State.r_reports in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0. reports in
  let final = List.nth reports (List.length reports - 1) in
  let nprocs = float_of_int p.cfg.Otter.Config.nprocs in
  {
    host_s;
    modeled_s = final.Mpisim.Sim.makespan +. rc.Exec.State.r_penalty;
    messages = sum (fun r -> r.Mpisim.Sim.messages);
    bytes = sum (fun r -> r.Mpisim.Sim.bytes);
    picks = sum (fun r -> r.Mpisim.Sim.sched_picks);
    dispatched = !Exec.State.dispatched;
    alloc_words = words g1 -. words g0;
    major_gcs = g1.major_collections - g0.major_collections;
    lib_calls =
      (match rc.Exec.State.r_result with
      | Exec.State.Complete o -> o.Exec.State.lib_calls
      | Exec.State.Partial _ -> 0);
    compute_s = sumf (fun r -> r.Mpisim.Sim.compute_time);
    proc_s = sumf (fun r -> nprocs *. r.Mpisim.Sim.makespan);
    retries = sum (fun r -> r.Mpisim.Sim.retries);
    acks = sum (fun r -> r.Mpisim.Sim.acks);
    drops = sum (fun r -> r.Mpisim.Sim.drops);
    attempts = rc.Exec.State.r_attempts;
    penalty_s = rc.Exec.State.r_penalty;
    result = rc.Exec.State.r_result;
  }

(* --- checking an operation ------------------------------------------------ *)

let tol = 1e-9

let close ~tol x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.abs (x -. y)
     <= tol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))

(* Shape and row-major data; a scalar is a 1x1 matrix. *)
let of_interp : Interp.Eval.captured -> int array * float array = function
  | Interp.Eval.Cscalar x -> ([| 1; 1 |], [| x |])
  | Interp.Eval.Cmat (r, c, d) -> ([| r; c |], d)
  | Interp.Eval.Cnd (dims, d) -> (dims, d)

let of_exec : Exec.State.captured -> int array * float array = function
  | Exec.State.Cscalar x -> ([| 1; 1 |], [| x |])
  | Exec.State.Cmat (r, c, d) -> ([| r; c |], d)
  | Exec.State.Cnd (dims, d) -> (dims, d)

(* None when the values agree within [tol]; one-element values agree
   whatever their shapes. *)
let differ ~tol (d1, a1) (d2, a2) =
  if Array.length a1 = 1 && Array.length a2 = 1 then
    if close ~tol a1.(0) a2.(0) then None
    else Some (Printf.sprintf "%g vs %g" a1.(0) a2.(0))
  else if d1 <> d2 || Array.length a1 <> Array.length a2 then Some "shape differs"
  else
    let bad = ref None in
    Array.iteri
      (fun i x ->
        if !bad = None && not (close ~tol x a2.(i)) then
          bad := Some (Printf.sprintf "element %d: %g vs %g" i x a2.(i)))
      a1;
    !bad

(* Why an operation failed; [] when it did not.  [warm] is the same
   configuration's warm-up observation (None for the warm-up itself). *)
let problems (p : prepared) ~(warm : obs option) (o : obs) : string list =
  let out = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  if not p.prog.ir_ok then fail "staged compile IR differs from Otter.compile";
  (match o.result with
  | Exec.State.Partial { detail; _ } -> fail "aborted: %s" detail
  | Exec.State.Complete run ->
      List.iter
        (fun name ->
          match
            ( List.assoc_opt name p.prog.reference,
              List.assoc_opt name run.Exec.State.captures )
          with
          | Some a, Some b -> (
              match differ ~tol (of_interp a) (of_exec b) with
              | Some d -> fail "%s differs from the interpreter: %s" name d
              | None -> ())
          | None, None -> ()
          | None, Some _ -> fail "%s missing in the interpreter" name
          | Some _, None -> fail "%s missing in the compiled run" name)
        p.prog.capture;
      Option.iter
        (fun (clean : Exec.State.outcome) ->
          let same =
            clean.Exec.State.output = run.Exec.State.output
            && List.length clean.Exec.State.captures
               = List.length run.Exec.State.captures
            && List.for_all2
                 (fun (n1, a) (n2, b) ->
                   n1 = n2 && differ ~tol:0. (of_exec a) (of_exec b) = None)
                 clean.Exec.State.captures run.Exec.State.captures
          in
          if not same then fail "recovered run differs from the fault-free run")
        p.clean);
  Option.iter
    (fun w ->
      let check what a b = if a <> b then fail "%s drifted from the warm-up" what in
      check "modeled_s" (Int64.bits_of_float w.modeled_s)
        (Int64.bits_of_float o.modeled_s);
      check "messages" (Int64.of_int w.messages) (Int64.of_int o.messages);
      check "mpisim.bytes" (Int64.of_int w.bytes) (Int64.of_int o.bytes);
      check "mpisim.picks" (Int64.of_int w.picks) (Int64.of_int o.picks);
      check "exec.dispatched" (Int64.of_int w.dispatched)
        (Int64.of_int o.dispatched);
      (* Allocation repeats to the word on most configurations; the
         runtime's own bookkeeping moves it by well under 1% on some. *)
      if Float.abs (w.alloc_words -. o.alloc_words) > 0.01 *. w.alloc_words then
        Printf.eprintf "warning: %s: exec.alloc_mwords %.6f, warm-up %.6f\n%!"
          p.label (o.alloc_words /. 1e6) (w.alloc_words /. 1e6))
    warm;
  List.rev !out

(* --- set-up ---------------------------------------------------------------- *)

(* Otter.compile's stages called one by one, so each gets a span; the
   per-pass spans come from the pipeline's after-pass callback. *)
let staged_compile tr (prog : W.program) : Spmd.Ir.prog * Spmd.Pass.record list
    =
  Trace.span tr "bench.compile"
    ~args:(fun _ -> [ ("program", Json.Str prog.key) ])
    (fun () ->
      let ast =
        Trace.span tr "mlang.parse" (fun () ->
            Mlang.Parser.parse_program prog.source)
      in
      let ast = Trace.span tr "analysis.resolve" (fun () -> Analysis.Resolve.run ast) in
      let info = Trace.span tr "analysis.infer" (fun () -> Analysis.Infer.program ast) in
      Trace.span tr "analysis.check" (fun () -> Analysis.Ast_check.validate ast);
      let ir = Trace.span tr "ir.lower" (fun () -> Spmd.Lower.lower_program info ast) in
      let mark = ref (now ()) in
      let stamp name =
        let t = now () in
        Option.iter (fun tr -> Trace.add tr name ~start:!mark ~stop:t) tr;
        mark := t
      in
      let result =
        Spmd.Pass.run_pipeline
          ~dump_after:(fun pass _ -> stamp ("ir.pass." ^ pass))
          (Spmd.Pass.level_passes Spmd.Pass.O2)
          ir
      in
      stamp "ir.prune";
      result)

(* One set-up sample: host seconds per compile of every program, with
   the compiles repeated for at least [min_s] seconds, since one compile
   takes well under a millisecond. *)
let compile_round ~min_s (programs : W.program list) =
  let t0 = now () and k = ref 0 in
  while
    incr k;
    List.iter (fun (p : W.program) -> ignore (Otter.compile p.source)) programs;
    now () -. t0 < min_s
  do
    ()
  done;
  (now () -. t0) /. float_of_int !k

let all_variables (c : Otter.compiled) =
  Hashtbl.fold (fun n _ acc -> n :: acc) c.Otter.info.Analysis.Infer.var_ty []
  |> List.sort_uniq compare

let build tr ~seed (prog : W.program) : built =
  let compiled = Otter.compile prog.source in
  let staged, records = staged_compile tr prog in
  let capture = if prog.capture = [] then all_variables compiled else prog.capture in
  let reference =
    Trace.span tr "interp.reference"
      ~args:(fun _ -> [ ("program", Json.Str prog.key) ])
      (fun () ->
        (Otter.interpret
           (Otter.config ~seed ~capture ())
           (Otter.compile_frontend prog.source))
          .Interp.Eval.captures)
  in
  {
    key = prog.key;
    compiled;
    records;
    ir_ok = Spmd.Ir_pp.prog_to_string staged = Otter.dump_ir compiled;
    capture;
    reference;
  }

(* chaos-cg: the fault-free run fixes the fault schedule's timing and
   the outcome recovery must reproduce. *)
let with_faults tr ~seed (p : prepared) =
  Trace.span tr "bench.fault_free" ~config:p.index (fun () ->
      match (Otter.run p.cfg p.prog.compiled).Exec.State.r_result with
      | Exec.State.Complete o ->
          let span = o.Exec.State.report.Mpisim.Sim.makespan in
          { p with cfg = W.chaos_config ~seed ~span p.cfg; clean = Some o }
      | Exec.State.Partial { detail; _ } ->
          failwith ("fault-free run aborted: " ^ detail))

let setup tr ~seed (w : W.t) : prepared list * built list =
  Trace.span tr "bench.setup" (fun () ->
      let built = List.map (build tr ~seed) w.programs in
      let prepared =
        List.mapi
          (fun index (cf : W.config) ->
            let b = List.find (fun b -> b.key = cf.prog.key) built in
            let p =
              {
                index;
                label =
                  Printf.sprintf "%s %s P=%d" b.key cf.machine.Mpisim.Machine.name
                    cf.nprocs;
                cfg =
                  Otter.config ~seed ~capture:b.capture ~machine:cf.machine
                    ~nprocs:cf.nprocs ();
                prog = b;
                clean = None;
              }
            in
            if w.chaos then with_faults tr ~seed p else p)
          w.configs
      in
      (prepared, built))

(* --- passes ---------------------------------------------------------------- *)

let obs_args o =
  Json.
    [
      ("modeled_s", Num o.modeled_s);
      ("messages", int o.messages);
      ("bytes", int o.bytes);
      ("picks", int o.picks);
      ("dispatched", int o.dispatched);
      ("alloc_mwords", Num (o.alloc_words /. 1e6));
      ("major_gcs", int o.major_gcs);
      ("lib_calls", int o.lib_calls);
      ("retries", int o.retries);
      ("attempts", int o.attempts);
    ]

(* One pass over every configuration: (observation, problems) each. *)
let pass tr ~(warm : obs option list) (prepared : prepared list) =
  Trace.span tr "bench.pass" (fun () ->
      List.map2
        (fun p w ->
          let o =
            Trace.span tr "exec.run" ~config:p.index ~args:obs_args (fun () ->
                execute p)
          in
          let probs =
            Trace.span tr "verify.compare" ~config:p.index (fun () ->
                problems p ~warm:w o)
          in
          List.iter (fun m -> Printf.eprintf "FAILED %s: %s\n%!" p.label m) probs;
          (o, probs))
        prepared warm)

let total f l = List.fold_left (fun a (o, _) -> a + f o) 0 l
let totalf f l = List.fold_left (fun a (o, _) -> a +. f o) 0. l
let failures l = List.length (List.filter (fun (_, ps) -> ps <> []) l)

(* --- the child: one workload ------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else find ()
      in
      find ())

let metric ?(extra = []) value unit =
  Json.Obj ([ ("value", Json.Num value); ("unit", Json.Str unit) ] @ extra)

let summary_metric samples unit =
  let s = Stats.summarize samples in
  metric s.Stats.median unit
    ~extra:
      ([
         ("n", Json.int s.Stats.n);
         ("q1", Json.Num s.Stats.q1);
         ("q3", Json.Num s.Stats.q3);
       ]
      @ match s.Stats.p80 with Some v -> [ ("p80", Json.Num v) ] | None -> [])

(* "IR: N instructions; M run-time library calls ..." from Otter.report,
   so the counting is the compiler's own. *)
let ir_counts (c : Otter.compiled) =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"IR: " l)
      (String.split_on_char '\n' (Otter.report c))
  in
  Scanf.sscanf line "IR: %d instructions; %d run-time library calls" (fun a b ->
      (a, b))

let layer_metrics ~spans ~(built : built list) ~traced ~run_s =
  let sum_span name =
    List.fold_left
      (fun a (s : Trace.span) -> if s.name = name then a +. Trace.duration s else a)
      0. spans
  in
  let passes = Spmd.Pass.level_passes Spmd.Pass.O2 in
  let rewrites pass =
    List.fold_left
      (fun a b ->
        List.fold_left
          (fun a (r : Spmd.Pass.record) ->
            if r.Spmd.Pass.pass = pass then a + r.Spmd.Pass.rewrites else a)
          a b.records)
      0 built
  in
  let insts, sites =
    List.fold_left
      (fun (a, b) { compiled; _ } ->
        let i, s = ir_counts compiled in
        (a + i, b + s))
      (0, 0) built
  in
  let exec_s = sum_span "exec.run" in
  let per d n = if d = 0 then 0. else n /. float_of_int d in
  let count n = metric (float_of_int n) "count" in
  let root = List.find (fun (s : Trace.span) -> s.name = "bench.pass") spans in
  let stage n = (n ^ "_s", metric (sum_span n) "s") in
  List.map stage
    ([ "mlang.parse"; "analysis.resolve"; "analysis.infer"; "analysis.check"; "ir.lower" ]
    @ List.map (fun p -> "ir.pass." ^ p) passes
    @ [ "ir.prune" ])
  @ List.map (fun p -> ("ir.pass." ^ p ^ ".rewrites", count (rewrites p))) passes
  @ [
      ("ir.insts", count insts);
      ("ir.lib_call_sites", count sites);
      ("exec.run_s", metric exec_s "s");
      ("exec.dispatched", count (total (fun o -> o.dispatched) traced));
      ( "exec.mops_per_s",
        metric (float_of_int (total (fun o -> o.dispatched) traced) /. exec_s /. 1e6) "M/s" );
      ("exec.alloc_mwords", metric (totalf (fun o -> o.alloc_words) traced /. 1e6) "Mwords");
      ("exec.major_gcs", count (total (fun o -> o.major_gcs) traced));
      ("runtime.lib_calls", count (total (fun o -> o.lib_calls) traced));
      ("mpisim.compute_s", metric (totalf (fun o -> o.compute_s) traced) "sim_s");
      ( "mpisim.compute_share",
        metric (totalf (fun o -> o.compute_s) traced /. totalf (fun o -> o.proc_s) traced) "ratio" );
      ("mpisim.messages", count (total (fun o -> o.messages) traced));
      ("mpisim.bytes", metric (float_of_int (total (fun o -> o.bytes) traced)) "B");
      ("mpisim.ns_per_byte", metric (per (total (fun o -> o.bytes) traced) (exec_s *. 1e9)) "ns/B");
      ("mpisim.picks", count (total (fun o -> o.picks) traced));
      ("mpisim.us_per_msg", metric (per (total (fun o -> o.messages) traced) (exec_s *. 1e6)) "us");
      ("mpisim.retries", count (total (fun o -> o.retries) traced));
      ("mpisim.acks", count (total (fun o -> o.acks) traced));
      ("mpisim.drops", count (total (fun o -> o.drops) traced));
      ("recovery.attempts", count (total (fun o -> o.attempts) traced));
      ("recovery.penalty_s", metric (totalf (fun o -> o.penalty_s) traced) "sim_s");
      ("bench.span_coverage", metric (Trace.coverage spans root) "ratio");
      ("bench.trace_overhead", metric ((exec_s /. run_s) -. 1.) "ratio");
    ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  json : string option;
  out : string option;
}

let child (o : opts) : Json.t =
  let w =
    match W.make ~quick:o.quick o.workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ o.workload)
  in
  let tr = if o.trace then Some (Trace.create ()) else None in
  let prepared, built = setup tr ~seed:o.seed w in
  let warmup = pass None ~warm:(List.map (fun _ -> None) prepared) prepared in
  let warm = List.map (fun (obs, _) -> Some obs) warmup in
  (* Read once every configuration has run, and before any work whose
     amount depends on the host's speed (how many set-up rounds and
     passes fit in [seconds]), which would add heap fragmentation. *)
  let peak_rss_mb = peak_rss_mb () in
  (* Each timed pass is preceded by a set-up round lasting a tenth of
     the pass before it, so the set-up samples span the whole run.  On
     a shared host the CPU's speed changes every few seconds, and
     samples taken together at the start would all see one speed. *)
  let timed = ref [] and setup_samples = ref [] in
  let last = ref (totalf (fun o -> o.host_s) warmup) in
  let t0 = now () in
  while !timed = [] || now () -. t0 < o.seconds do
    setup_samples := compile_round ~min_s:(0.1 *. !last) w.programs :: !setup_samples;
    Gc.full_major ();
    let p = pass None ~warm prepared in
    last := totalf (fun o -> o.host_s) p;
    timed := p :: !timed
  done;
  let timed = List.rev !timed and setup_samples = List.rev !setup_samples in
  let run_samples = List.map (totalf (fun o -> o.host_s)) timed in
  let layer =
    Option.map
      (fun t ->
        Gc.full_major ();
        let traced = pass (Some t) ~warm prepared in
        (traced, Trace.spans t))
      tr
  in
  let ops = warmup :: timed @ Option.fold ~none:[] ~some:(fun (l, _) -> [ l ]) layer in
  let attempted = List.fold_left (fun a l -> a + List.length l) 0 ops in
  let failed = List.fold_left (fun a l -> a + failures l) 0 ops in
  let end_to_end =
    [
      ("run_s", summary_metric run_samples "s");
      ("setup_s", summary_metric setup_samples "s");
      ("modeled_s", metric (totalf (fun o -> o.modeled_s) warmup) "sim_s");
      ("peak_rss_mb", metric peak_rss_mb "MB");
      ( "failed_frac",
        metric (float_of_int failed /. float_of_int attempted) "ratio" );
    ]
  in
  Json.Obj
    ([
       ("workload", Json.Str w.name);
       ("seed", Json.int o.seed);
       ("attempted", Json.int attempted);
       ("failed", Json.int failed);
       ("end_to_end", Json.Obj end_to_end);
       ("run_s_samples", Json.Arr (List.map (fun v -> Json.Num v) run_samples));
       ("setup_s_samples", Json.Arr (List.map (fun v -> Json.Num v) setup_samples));
     ]
    @
    match layer with
    | None -> []
    | Some (traced, spans) ->
        let run_s = Stats.median run_samples in
        [
          ("layer", Json.Obj (layer_metrics ~spans ~built ~traced ~run_s));
          ("spans", Json.Arr (List.map Trace.to_json spans));
        ])

(* --- the parent ------------------------------------------------------------- *)

let child_args (o : opts) workload =
  [ Sys.executable_name; "child"; "--workload"; workload; "--seed";
    string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
    "--trace"; (if o.trace then "1" else "0") ]
  @ if o.quick then [ "--quick" ] else []

(* Run one workload's child and read its record from the last line of
   its standard output.  A child that dies counts as one failed
   operation. *)
let spawn (o : opts) workload : Json.t =
  let args = Array.of_list (child_args o workload) in
  let ic = Unix.open_process_args_in args.(0) args in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  match (status, !lines) with
  | Unix.WEXITED 0, last :: _ -> Json.of_string last
  | _ ->
      Printf.eprintf "FAILED %s: the workload's process did not finish\n%!"
        workload;
      Json.Obj
        [
          ("workload", Json.Str workload);
          ("attempted", Json.int 1);
          ("failed", Json.int 1);
          ("end_to_end", Json.Obj []);
        ]

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let default_file (o : opts) kind =
  Printf.sprintf "_build/otterbench/%s-%s-seed%d%s.json" kind o.workload o.seed
    (if o.quick then "-quick" else "")

let write_json file v =
  mkdir_p (Filename.dirname file);
  Json.write_file file v

let num_field k j = Json.to_num (Json.member k j)

let print_metrics workload (metrics : (string * Json.t) list) =
  List.iter
    (fun (name, m) ->
      let extra =
        List.filter_map
          (fun k ->
            match m with
            | Json.Obj l when List.mem_assoc k l ->
                Some (Printf.sprintf "%s=%s" k (Json.number (num_field k m)))
            | _ -> None)
          [ "n"; "q1"; "q3"; "p80" ]
      in
      Printf.printf "%s %s %s %s%s\n" workload name
        (Json.number (num_field "value" m))
        (Json.to_str (Json.member "unit" m))
        (if extra = [] then "" else "  " ^ String.concat " " extra))
    metrics

(* Write the children's spans as one Chrome trace, print each
   workload's self time per layer, and check that the spans cover at
   least 95% of every traced pass. *)
let write_trace (o : opts) records =
  let groups =
    List.filter_map
      (fun r ->
        match r with
        | Json.Obj l when List.mem_assoc "spans" l ->
            Some
              ( Json.to_str (Json.member "workload" r),
                List.map Trace.of_json (Json.to_list (List.assoc "spans" l)) )
        | _ -> None)
      records
  in
  let out = Option.value o.out ~default:(default_file o "trace") in
  write_json out (Trace.chrome groups);
  Printf.printf "wrote %s\n" out;
  List.for_all
    (fun (w, spans) ->
      Printf.printf "%s self time by layer:\n" w;
      List.iter
        (fun (l, v) -> Printf.printf "  %-10s %10.6f s\n" l v)
        (Trace.layer_table spans);
      List.for_all
        (fun (s : Trace.span) ->
          let c = Trace.coverage spans s in
          if s.name = "bench.pass" && c < 0.95 then begin
            Printf.printf "  spans cover only %.1f%% of the traced pass\n" (100. *. c);
            false
          end
          else true)
        spans)
    groups

let run (o : opts) =
  let workloads = if o.workload = "all" then W.names else [ o.workload ] in
  let records = List.map (spawn o) workloads in
  let field k r = match r with Json.Obj l -> List.assoc_opt k l | _ -> None in
  let attempted = List.fold_left (fun a r -> a + int_of_float (num_field "attempted" r)) 0 records in
  let failed = List.fold_left (fun a r -> a + int_of_float (num_field "failed" r)) 0 records in
  let section r = if o.trace then field "layer" r else field "end_to_end" r in
  List.iter2
    (fun w r ->
      Option.iter (fun m -> print_metrics w (Json.to_obj m)) (section r))
    workloads records;
  let json = Option.value o.json ~default:(default_file o "run") in
  write_json json
    (Json.Obj
       [
         ("suite", Json.Str "otterbench");
         ("seed", Json.int o.seed);
         ("seconds", Json.Num o.seconds);
         ("quick", Json.Bool o.quick);
         ("trace", Json.Bool o.trace);
         ( "workloads",
           Json.Arr
             (List.map
                (fun r ->
                  Json.Obj (List.filter (fun (k, _) -> k <> "spans") (Json.to_obj r)))
                records) );
       ]);
  Printf.printf "wrote %s\n" json;
  let coverage_ok = (not o.trace) || write_trace o records in
  let metrics =
    List.concat
      (List.map2
         (fun w r ->
           match section r with
           | None -> []
           | Some m ->
               List.filter_map
                 (fun (name, v) ->
                   if name = "failed_frac" then None
                   else
                     let key = if List.length workloads = 1 then name else w ^ "." ^ name in
                     Some
                       ( key,
                         Json.Obj
                           [ ("value", Json.member "value" v); ("unit", Json.member "unit" v) ] ))
                 (Json.to_obj m))
         workloads records)
  in
  let correct = failed = 0 && coverage_ok in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1

(* --- compare -------------------------------------------------------------- *)

let compare_files parents changes =
  if List.length parents < 10 || List.length changes < 10 then begin
    prerr_endline "compare: give at least 10 result files per side";
    exit 2
  end;
  if List.length parents <> List.length changes then begin
    prerr_endline "compare: give as many change files as parent files";
    exit 2
  end;
  let spec = Json.read_file "BENCHMARK.json" in
  let metrics = Json.to_list (Json.member "end_to_end" spec) in
  let load f = Json.to_list (Json.member "workloads" (Json.read_file f)) in
  let ps = List.map load parents and cs = List.map load changes in
  let values runs workload metric =
    List.map
      (fun ws ->
        match List.find_opt (fun w -> Json.to_str (Json.member "workload" w) = workload) ws with
        | Some w -> num_field "value" (Json.member metric (Json.member "end_to_end" w))
        | None -> raise (Json.Parse_error ("a result file lacks workload " ^ workload)))
      runs
  in
  let failed runs =
    List.fold_left
      (fun a ws -> List.fold_left (fun a w -> a + int_of_float (num_field "failed" w)) a ws)
      0 runs
  in
  let more_failures = failed cs > failed ps in
  if more_failures then
    Printf.printf "the change failed %d operations, the parent %d: no gain counts\n"
      (failed cs) (failed ps);
  let workloads = List.map (fun w -> Json.to_str (Json.member "workload" w)) (List.hd ps) in
  Printf.printf "%-17s %-12s %12s %23s %12s %23s %5s  %s\n" "workload" "metric"
    "parent" "(q1..q3)" "change" "(q1..q3)" "wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let name = Json.to_str (Json.member "name" m) in
          let row =
            Compare.judge
              ~better:(Compare.better_of_string (Json.to_str (Json.member "better" m)))
              ~bound:(num_field "bound" m) ~exact:(List.mem name exact_metrics)
              (values ps w name) (values cs w name)
          in
          let verdict =
            if more_failures && row.Compare.verdict = Compare.Improved then Compare.Unresolved
            else row.Compare.verdict
          in
          if verdict = Compare.Regressed then regressed := true;
          let p = row.Compare.parent and c = row.Compare.change in
          Printf.printf "%-17s %-12s %12.6g (%10.6g..%10.6g) %12.6g (%10.6g..%10.6g) %5.2f  %s\n"
            w name p.Stats.median p.Stats.q1 p.Stats.q3 c.Stats.median c.Stats.q1
            c.Stats.q3 row.Compare.wins (Compare.verdict_name verdict))
        metrics)
    workloads;
  if !regressed then exit 1

(* --- command line ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: otterbench run|trace [--workload W|all] [--seed S] [--seconds T] \
     [--trace 0|1] [--json F] [--out F] [--quick]\n\
    \       otterbench compare PARENT.json... -- CHANGE.json...";
  exit 2

let parse_opts ~trace args =
  let o =
    ref
      { workload = "all"; seed = 42; seconds = 12.; trace; quick = false;
        json = None; out = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o := { !o with workload = v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> o := { !o with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--json" :: v :: rest -> o := { !o with json = Some v }; go rest
    | "--out" :: v :: rest -> o := { !o with out = Some v }; go rest
    | "--quick" :: rest -> o := { !o with quick = true; seconds = 0. }; go rest
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  if !o.workload <> "all" && not (List.mem !o.workload W.names) then begin
    Printf.eprintf "unknown workload %s (expected all or %s)\n" !o.workload
      (String.concat ", " W.names);
    exit 2
  end;
  !o

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run (parse_opts ~trace:false args)
  | "trace" :: args -> run (parse_opts ~trace:true args)
  | "child" :: args ->
      print_endline (Json.to_string (child (parse_opts ~trace:false args)))
  | "compare" :: args -> (
      let rec split acc = function
        | "--" :: rest -> Some (List.rev acc, rest)
        | x :: rest -> split (x :: acc) rest
        | [] -> None
      in
      match split [] args with
      | Some (parents, changes) -> compare_files parents changes
      | None -> usage ())
  | _ -> usage ()
