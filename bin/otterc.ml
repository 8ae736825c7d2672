(* otterc: command-line driver for the Otter MATLAB compiler.

     otterc compile prog.m -o outdir     emit SPMD C + run-time library
     otterc run prog.m -p 8 -m meiko     compile and execute on a
                                         simulated parallel machine
     otterc interp prog.m                run the reference interpreter
     otterc dump prog.m --ir|--ast|--types
     otterc bench ...                    (see bench/main.exe)

   M-file functions referenced by the script are looked up as
   <name>.m next to the input file, like a MATLAB path. *)

open Cmdliner

let read_file = Fuzz.read_file

let path_of input name =
  let file = Filename.concat (Filename.dirname input) (name ^ ".m") in
  if Sys.file_exists file then begin
    let p = Mlang.Parser.parse_program (read_file file) in
    match p.Mlang.Ast.funcs with
    | f :: _ when f.Mlang.Ast.fname = name -> Some f
    | f :: _ -> Some { f with Mlang.Ast.fname = name }
    | [] -> None
  end
  else None

(* Distinct process exit codes per failure class, so scripts (and the
   chaos harness) can tell a network-induced abort from a program bug:
     0 success          1 run-time error / verify mismatch
     2 usage            3 deadlock
     4 internal error   5 receive timeout
     6 protocol error   7 rank failure (kill, dead peer, retransmission
                          budget)
     8 aborted: recovery enabled but the retry budget ran out *)
let exit_recovery_aborted = 8

let exit_code_of_kind = function
  | Exec.State.Ftimeout -> 5
  | Exec.State.Fprotocol -> 6
  | Exec.State.Fkilled | Exec.State.Fpeer | Exec.State.Fexhausted -> 7
  | Exec.State.Fdeadlock -> 3
  | Exec.State.Fruntime -> 1

let handle_errors f =
  try f () with
  | Mlang.Source.Error (pos, msg) ->
      Fmt.epr "error: %a: %s@." Mlang.Source.pp_pos pos msg;
      exit 1
  | Spmd.Lower.Unsupported (pos, msg) ->
      Fmt.epr "error: %a: %s@." Mlang.Source.pp_pos pos msg;
      exit 1
  | Codegen.Unsupported msg ->
      Fmt.epr "error: %s@." msg;
      exit 1
  | Exec.State.Runtime_error msg | Interp.Eval.Runtime_error msg ->
      Fmt.epr "run-time error: %s@." msg;
      exit 1
  | Mpisim.Sim.Deadlock msg ->
      Fmt.epr "deadlock: %s@." msg;
      exit 3
  | Mpisim.Sim.Rank_failure { rank; exn } ->
      Fmt.epr "rank %d failed: %s@." rank (Printexc.to_string exn);
      exit (exit_code_of_kind (Exec.State.classify_failure exn))
  | Spmd.Pass.Unknown_pass name ->
      Fmt.epr "error: unknown pass '%s' (known: %s)@." name
        (String.concat ", "
           (List.map (fun (p : Spmd.Pass.t) -> p.Spmd.Pass.name)
              Spmd.Pass.registry));
      exit 2
  | Spmd.Validate.Invalid msg ->
      Fmt.epr "internal error: %s@." msg;
      exit 4
  | Invalid_argument msg ->
      (* e.g. a -p above the machine model's processor count *)
      Fmt.epr "error: %s@." msg;
      exit 2

(* The middle-end pipeline options, shared by every subcommand that
   compiles: an optimization level, an explicit pass list overriding
   it, the inter-pass IR validator, and per-pass IR dumps. *)
let opt_arg =
  Arg.(
    value
    & vflag Spmd.Pass.O2
        [
          (Spmd.Pass.O0, info [ "O0" ] ~doc:"No optimization passes.");
          ( Spmd.Pass.O1,
            info [ "O1" ] ~doc:"The peephole pass only (historical default)."
          );
          ( Spmd.Pass.O2,
            info [ "O2" ]
              ~doc:"Peephole, the global dataflow passes, then the \
                    communication optimizer (default)." );
        ])

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"LIST"
        ~doc:
          "Comma-separated middle-end pass list, overriding -O<n>; e.g. \
           $(b,--passes peephole,licm).  Known passes: peephole, licm, gre, \
           copyprop, fold-construct, comm.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate-ir" ]
        ~doc:
          "Run the structural IR validator after lowering and between \
           passes; a violation is a compiler bug and exits with status 4.")

let dump_after_arg =
  Arg.(
    value & opt_all string []
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:"Print the IR after $(docv) runs (repeatable).")

let compile_input input opt passes validate dumps =
  let passes =
    Option.map
      (fun s -> List.filter (fun p -> p <> "") (String.split_on_char ',' s))
      passes
  in
  let dump_after =
    if dumps = [] then None
    else
      Some
        (fun name prog ->
          if List.mem name dumps then
            Fmt.pr "-- after %s --@.%s@." name (Spmd.Ir_pp.prog_to_string prog))
  in
  Otter.compile ~path:(path_of input) ~opt ?passes ~validate ?dump_after
    (read_file input)

(* --- compile ------------------------------------------------------------- *)

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.m")

let outdir_arg =
  Arg.(value & opt string "." & info [ "o"; "output" ] ~docv:"DIR"
         ~doc:"Directory for the generated C files.")

let compile_cmd =
  let run input outdir stats opt passes validate dumps =
    handle_errors (fun () ->
        let c = compile_input input opt passes validate dumps in
        let base = Filename.remove_extension (Filename.basename input) in
        if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
        let write (f, content) =
          let oc = open_out (Filename.concat outdir f) in
          output_string oc content;
          close_out oc
        in
        write (base ^ ".c", Codegen.emit_c ~name:(Filename.basename input) c.Otter.prog);
        List.iter write Codegen.support_files;
        Fmt.pr "wrote %s/%s.c (+ run-time library).@." outdir base;
        Fmt.pr "one machine: cc -O2 -I. -o %s %s.c otter_rt.c \
                otter_mpi_shim.c -lm && OTTER_NP=4 ./%s@."
          base base base;
        Fmt.pr "MPI build:   mpicc -O2 -o %s %s.c otter_rt.c -lm@." base base;
        if stats then Fmt.pr "@.%s" (Otter.report c))
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print a compilation report (types, IR, per-pass table).")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Translate a MATLAB script to SPMD C + MPI.")
    Term.(const run $ input_arg $ outdir_arg $ stats_arg $ opt_arg
          $ passes_arg $ validate_arg $ dump_after_arg)

(* --- run ------------------------------------------------------------------ *)

let procs_arg =
  Arg.(value & opt int 4 & info [ "p"; "procs" ] ~docv:"N"
         ~doc:"Number of simulated processors.")

let machine_arg =
  Arg.(value & opt string "meiko" & info [ "m"; "machine" ] ~docv:"NAME"
         ~doc:"Machine model: meiko, smp, cluster, workstation, or \
               $(b,fattree) (a parametric fat-tree for large-P scaling; \
               $(b,fattree:RxL) picks radix R and L levels).")

let get_machine name =
  match Mpisim.Machine.by_name name with
  | Some m -> m
  | None ->
      Fmt.epr
        "unknown machine '%s' (try meiko, smp, cluster, workstation, \
         fattree or fattree:RxL)@."
        name;
      exit 2

let engine_arg =
  Arg.(value & opt string (Otter.Config.engine_name Otter.Config.default_engine)
         & info [ "engine" ] ~docv:"NAME"
         ~doc:"Execution engine for simulated runs: $(b,tcode) (the \
               SPMD executor, default), or the sequential baselines \
               $(b,interp) / $(b,matcom).")

let get_engine name =
  match Otter.Config.engine_of_string name with
  | Some e -> e
  | None ->
      Fmt.epr "unknown engine '%s' (try tcode, interp or matcom)@." name;
      exit 2

let faults_arg =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Inject faults, e.g. $(b,drop=0.01,dup=0.005,seed=42).  Keys: \
               drop, dup, delay, stall, degrade, kill (probabilities), seed, \
               detect (failure-detector timeout in seconds), kill_window, \
               kill_rank, kill_time (permanent rank deaths).")

let ckpt_arg =
  Arg.(value & opt float 0. & info [ "ckpt-interval" ] ~docv:"SECS"
         ~doc:"Take a coordinated checkpoint of every rank roughly every \
               $(docv) simulated seconds (0 = never; recovery then replays \
               from program start).")

let max_recoveries_arg =
  Arg.(value & opt int 0 & info [ "max-recoveries" ] ~docv:"N"
         ~doc:"On a recoverable failure (rank kill, timeout, exhausted \
               retransmissions), roll back to the last consistent snapshot \
               and replay, at most $(docv) times, before aborting.")

let chaos_arg =
  Arg.(value & flag & info [ "chaos" ]
         ~doc:"Chaos mode: enable checkpoint/rollback recovery with \
               defaults (--ckpt-interval 0.05, --max-recoveries 3 unless \
               given) and print a recovery summary.")

let reliable_arg =
  Arg.(value & flag & info [ "reliable" ]
         ~doc:"Route messages through the reliable ack/retry layer so \
               injected faults are masked.")

(* Attach the requested fault model (and reliable layer) to the machine. *)
let apply_faults machine spec reliable =
  match spec with
  | None ->
      if reliable then Mpisim.Machine.with_faults ~reliable machine
      else machine
  | Some s -> (
      match Mpisim.Machine.faults_of_spec s with
      | Ok f -> Mpisim.Machine.with_faults ~reliable ~faults:f machine
      | Error msg ->
          Fmt.epr "bad --faults spec: %s@." msg;
          exit 2)

(* Oversubscription flags: P virtual ranks on C simulated CPUs. *)
let cpus_arg =
  Arg.(value & opt int 0 & info [ "cpus" ] ~docv:"C"
         ~doc:"Oversubscribe: place the -p virtual ranks on $(docv) \
               physical CPUs (0 = one CPU per rank, the classical model).  \
               Compute serializes per CPU; message semantics stay \
               per-rank.")

let map_arg =
  Arg.(value & opt string "block" & info [ "map" ] ~docv:"POLICY"
         ~doc:"Rank-to-CPU mapping policy under --cpus: $(b,block) \
               (contiguous slabs, default), $(b,cyclic) (round-robin), or \
               $(b,random) (seeded by --map-seed).")

let map_seed_arg =
  Arg.(value & opt int 0 & info [ "map-seed" ] ~docv:"S"
         ~doc:"Seed for $(b,--map random) (same seed, same placement).")

let dist_arg =
  Arg.(value & opt string "block" & info [ "dist" ] ~docv:"LAYOUT"
         ~doc:"Matrix distribution: $(b,block) (the paper's layout, \
               default), or $(b,cyclic) or $(b,cyclic:B) (block-cyclic \
               with block size B, default 1).")

let get_layout dist =
  match Otter.Config.layout_of_string dist with
  | Some l -> l
  | None ->
      Fmt.epr "bad --dist '%s' (try block, cyclic or cyclic:B)@." dist;
      exit 2

(* Attach an oversubscription placement to the machine. *)
let apply_placement machine ~nprocs:_ ~cpus ~map ~map_seed =
  if cpus = 0 then machine
  else
    match Mpisim.Machine.mapping_of_string ~seed:map_seed map with
    | Some m -> Mpisim.Machine.with_placement ~cpus ~map:m machine
    | None ->
        Fmt.epr "unknown --map policy '%s' (try block, cyclic or random)@."
          map;
        exit 2

(* One run configuration from the shared command-line flags: this is
   the only place otterc turns its knobs into an [Otter.Config.t]. *)
let config_of_flags ?capture ?tol ?engine ~nprocs ~machine ~faults ~reliable
    ~chaos ~ckpt_interval ~max_recoveries ?(cpus = 0) ?(map = "block")
    ?(map_seed = 0) ?(dist = "block") () =
  let machine = apply_faults (get_machine machine) faults reliable in
  let machine = apply_placement machine ~nprocs ~cpus ~map ~map_seed in
  let layout = get_layout dist in
  Otter.config ~machine ~nprocs ?engine:(Option.map get_engine engine)
    ?capture ?tol ~chaos ~ckpt_interval ~max_recoveries ~layout ()

let pp_fault_counters ppf (r : Mpisim.Sim.report) =
  Fmt.pf ppf
    "[faults] %d dropped, %d duplicated, %d delayed, %d stalls, %d rank \
     kills; %d retries, %d acks@."
    r.Mpisim.Sim.drops r.dups r.delayed r.stalls r.kills r.retries r.acks

(* On any faulted abort, say what the network did to the run before it
   died — the counters make "who ate my message" debuggable. *)
let print_abort ~gave_up ~recoveries failed_rank operation detail
    (report : Mpisim.Sim.report) =
  if gave_up then
    Fmt.epr "aborted: recovery budget exhausted after %d rollback%s@."
      recoveries
      (if recoveries = 1 then "" else "s")
  else if recoveries > 0 then
    Fmt.epr "aborted after %d rollback%s@." recoveries
      (if recoveries = 1 then "" else "s");
  Fmt.epr "partial run: rank %d failed during %s: %s@." failed_rank operation
    detail;
  pp_fault_counters Fmt.stderr report

let run_cmd =
  let run input nprocs machine engine timing stats faults reliable chaos
      ckpt_interval max_recoveries cpus map map_seed dist opt passes validate
      dumps =
    handle_errors (fun () ->
        let c = compile_input input opt passes validate dumps in
        let cfg =
          config_of_flags ~nprocs ~machine ~engine ~faults ~reliable ~chaos
            ~ckpt_interval ~max_recoveries ~cpus ~map ~map_seed ~dist ()
        in
        let machine = cfg.Otter.Config.machine in
        let rc = Otter.run cfg c in
        let recoveries = rc.Exec.State.r_attempts - 1
        and gave_up = rc.Exec.State.r_gave_up in
        match rc.Exec.State.r_result with
        | Exec.State.Partial { failed_rank; operation; detail; kind; report } ->
            print_abort ~gave_up ~recoveries failed_rank operation detail
              report;
            exit
              (if gave_up then exit_recovery_aborted else exit_code_of_kind kind)
        | Exec.State.Complete o ->
            print_string o.Exec.State.output;
            let r = o.Exec.State.report in
            (* [--chaos] and any rollback both imply recovery was on. *)
            if chaos || recoveries > 0 then
              Fmt.pr "[recovery] completed after %d rollback%s@." recoveries
                (if recoveries = 1 then "" else "s");
            if timing && not stats then begin
              Fmt.pr
                "[%s, %d CPUs] modeled time %.6f s, %d messages, %d bytes@."
                machine.Mpisim.Machine.name nprocs r.Mpisim.Sim.makespan
                r.messages r.bytes;
              if machine.Mpisim.Machine.faults <> None then
                pp_fault_counters Fmt.stdout r
            end;
            if stats then begin
              Fmt.pr "-- simulator report [%s, %d CPUs] --@."
                machine.Mpisim.Machine.name nprocs;
              Fmt.pr "  simulated time  %.6f s@." r.Mpisim.Sim.makespan;
              Fmt.pr "  compute time    %.6f s (summed over ranks)@."
                r.Mpisim.Sim.compute_time;
              Fmt.pr "  messages        %d@." r.Mpisim.Sim.messages;
              Fmt.pr "  bytes           %d@." r.Mpisim.Sim.bytes;
              pp_fault_counters Fmt.stdout r;
              Fmt.pr "%s@." (Otter.ledger_table r)
            end)
  in
  let timing_arg =
    Arg.(value & flag & info [ "t"; "timing" ]
           ~doc:"Print the modeled execution time and message counts.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the full simulator report after execution: simulated \
                 and compute time, message count, bytes, fault counters and \
                 the ledger of where the ranks' modeled time went.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile and execute on a simulated parallel machine.")
    Term.(const run $ input_arg $ procs_arg $ machine_arg $ engine_arg
          $ timing_arg $ stats_arg $ faults_arg $ reliable_arg $ chaos_arg
          $ ckpt_arg $ max_recoveries_arg $ cpus_arg $ map_arg $ map_seed_arg
          $ dist_arg $ opt_arg $ passes_arg $ validate_arg $ dump_after_arg)

(* --- interp --------------------------------------------------------------- *)

let interp_cmd =
  let run input matcom timing =
    handle_errors (fun () ->
        (* front end only: the interpreter accepts a superset of what
           the back end compiles (e.g. matrix growth) *)
        let fe = Otter.compile_frontend ~path:(path_of input) (read_file input) in
        let engine =
          if matcom then Otter.Config.Ematcom else Otter.Config.Einterp
        in
        let cfg =
          Otter.config ~machine:Mpisim.Machine.workstation ~nprocs:1 ~engine ()
        in
        let o = Otter.interpret cfg fe in
        print_string o.Interp.Eval.output;
        if timing then
          Fmt.pr "[%s] modeled time %.6f s@."
            (if matcom then "MATCOM model" else "interpreter model")
            o.Interp.Eval.time)
  in
  let matcom_arg =
    Arg.(value & flag & info [ "matcom" ]
           ~doc:"Use the MATCOM (compiled sequential) cost model.")
  in
  let timing_arg =
    Arg.(value & flag & info [ "t"; "timing" ] ~doc:"Print the modeled time.")
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Run the reference interpreter (the oracle).")
    Term.(const run $ input_arg $ matcom_arg $ timing_arg)

(* --- dump ----------------------------------------------------------------- *)

let dump_cmd =
  let run input what opt passes validate dumps =
    handle_errors (fun () ->
        let c = compile_input input opt passes validate dumps in
        match what with
        | `Ir -> print_string (Otter.dump_ir c)
        | `Ssa -> print_string (Otter.dump_ssa c)
        | `Ast -> print_string (Mlang.Pp.annotated_program_to_string c.Otter.ast)
        | `Types ->
            let vars =
              Hashtbl.fold
                (fun v t acc -> (v, t) :: acc)
                c.Otter.info.Analysis.Infer.var_ty []
            in
            List.iter
              (fun (v, t) -> Fmt.pr "%-16s : %a@." v Analysis.Ty.pp t)
              (List.sort compare vars)
        | `C -> print_string (Codegen.emit_c c.Otter.prog))
  in
  let what_arg =
    Arg.(value
         & vflag `Ir
             [
               (`Ir, info [ "ir" ] ~doc:"Dump the SPMD IR (default).");
               (`Ssa, info [ "ssa" ] ~doc:"Dump the SSA form (pass 3).");
               (`Ast,
                 info [ "ast" ]
                   ~doc:
                     "Dump the annotated AST: one node per line with the \
                      inferred type/shape and any frame lift.");
               (`Types, info [ "types" ] ~doc:"Dump inferred variable types.");
               (`C, info [ "c" ] ~doc:"Dump the generated C.");
             ])
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Show intermediate compiler results.")
    Term.(const run $ input_arg $ what_arg $ opt_arg $ passes_arg
          $ validate_arg $ dump_after_arg)

(* --- verify ---------------------------------------------------------------- *)

let verify_cmd =
  let run input nprocs machine vars tol faults reliable chaos ckpt_interval
      max_recoveries cpus map map_seed dist opt passes validate dumps =
    handle_errors (fun () ->
        let c = compile_input input opt passes validate dumps in
        let cfg =
          config_of_flags ~capture:vars ~tol ~nprocs ~machine ~faults
            ~reliable ~chaos ~ckpt_interval ~max_recoveries ~cpus ~map
            ~map_seed ~dist ()
        in
        let max_recoveries = cfg.Otter.Config.max_recoveries in
        let n_compared =
          match vars with
          | [] -> Hashtbl.length c.Otter.info.Analysis.Infer.var_ty
          | vs -> List.length vs
        in
        match Otter.verify cfg c with
        | Otter.Verified ->
            Fmt.pr "verified: %d variables and the printed output agree \
                    between the interpreter and the %d-CPU compiled run.@."
              n_compared nprocs
        | Otter.Mismatched mm ->
            List.iter
              (fun m ->
                Fmt.pr "MISMATCH %s: %s@." m.Otter.variable m.Otter.detail)
              mm;
            exit 1
        | Otter.Aborted { failed_rank; operation; detail; kind; report;
                          recoveries } ->
            let gave_up =
              max_recoveries > 0 && Exec.State.recoverable kind
              && recoveries >= max_recoveries
            in
            Fmt.epr "ABORTED%s: rank %d failed during %s: %s@."
              (if gave_up then
                 Printf.sprintf " (recovery budget exhausted after %d \
                                 rollbacks)" recoveries
               else "")
              failed_rank operation detail;
            pp_fault_counters Fmt.stderr report;
            exit
              (if gave_up then exit_recovery_aborted else exit_code_of_kind kind))
  in
  let vars_arg =
    Arg.(value & opt_all string [] & info [ "var" ] ~docv:"NAME"
           ~doc:"Variable to compare (repeatable; default: all).")
  in
  let tol_arg =
    Arg.(value & opt float 1e-9 & info [ "tol" ] ~docv:"EPS"
           ~doc:"Relative tolerance absorbing reduction-order rounding \
                 (the application suite uses 1e-6).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check compiled results against the reference interpreter.")
    Term.(const run $ input_arg $ procs_arg $ machine_arg $ vars_arg $ tol_arg
          $ faults_arg $ reliable_arg $ chaos_arg $ ckpt_arg
          $ max_recoveries_arg $ cpus_arg $ map_arg $ map_seed_arg $ dist_arg
          $ opt_arg $ passes_arg $ validate_arg $ dump_after_arg)

(* --- serve ----------------------------------------------------------------- *)

(* Multi-tenant mode: space-share one simulated machine's ranks across
   many concurrent scripts through the job scheduler, and report who
   ran where with what traffic — MatlabMPI's "many users, one machine"
   picture as a measured number. *)
let serve_cmd =
  let run inputs nprocs machine engine jobs job_procs opt passes validate
      dumps =
    handle_errors (fun () ->
        if inputs = [] then begin
          Fmt.epr "serve: need at least one script@.";
          exit 2
        end;
        if jobs < 0 then
          invalid_arg
            (Printf.sprintf "serve: --jobs must be non-negative, got %d" jobs);
        let machine = get_machine machine in
        (* serve is the scale-out mode: a -p beyond the paper's machine
           grows the model rather than erroring. *)
        let machine =
          if nprocs > machine.Mpisim.Machine.max_procs then
            Mpisim.Machine.with_procs nprocs machine
          else machine
        in
        let engine = get_engine engine in
        let compiled =
          List.map
            (fun input ->
              ( Filename.remove_extension (Filename.basename input),
                compile_input input opt passes validate dumps ))
            inputs
        in
        let scripts = Array.of_list compiled in
        let njobs = if jobs > 0 then jobs else Array.length scripts in
        let job i =
          let name, c = scripts.(i mod Array.length scripts) in
          {
            Otter.Sched.j_name = Printf.sprintf "%s[%d]" name i;
            j_procs = min job_procs nprocs;
            j_run =
              (fun ~nprocs ->
                let cfg =
                  Otter.config ~machine ~nprocs ~engine ~seed:(42 + i) ()
                in
                let o = Otter.outcome_exn (Otter.run cfg c) in
                o.Exec.State.report);
          }
        in
        let sched =
          Otter.Sched.run ~machine ~procs:nprocs
            (List.init njobs job)
        in
        Fmt.pr "serving %d jobs on %s (%d ranks space-shared, %s engine)@."
          njobs machine.Mpisim.Machine.name nprocs
          (Otter.Config.engine_name engine);
        print_string (Otter.Sched.table sched))
  in
  let inputs_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"PROG.m")
  in
  let serve_procs_arg =
    Arg.(value & opt int 16 & info [ "p"; "procs" ] ~docv:"N"
           ~doc:"Rank slots to space-share.  Beyond the machine model's \
                 processor count, the model is scaled out ($(docv) of the \
                 same CPUs and links).")
  in
  let jobs_arg =
    Arg.(value & opt int 0 & info [ "jobs" ] ~docv:"N"
           ~doc:"Total job instances to run, cycling over the given scripts \
                 round-robin (default: one per script).")
  in
  let job_procs_arg =
    Arg.(value & opt int 4 & info [ "job-procs" ] ~docv:"K"
           ~doc:"Ranks each job requests (clamped to the machine).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Space-share a simulated machine across concurrent scripts \
             (multi-tenant scheduler).")
    Term.(const run $ inputs_arg $ serve_procs_arg $ machine_arg $ engine_arg
          $ jobs_arg $ job_procs_arg $ opt_arg $ passes_arg $ validate_arg
          $ dump_after_arg)

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run cases seed corpus no_cc rank3 =
    let use_cc = not no_cc in
    let corpus_failures, corpus_total =
      match corpus with
      | None -> ([], 0)
      | Some dir ->
          if not (Sys.file_exists dir && Sys.is_directory dir) then begin
            Fmt.epr "no such corpus directory: %s@." dir;
            exit 2
          end;
          Fuzz.replay ~use_cc dir
    in
    if corpus_total > 0 then
      if corpus_failures = [] then
        Fmt.pr "corpus: %d/%d scripts replayed clean.@." corpus_total
          corpus_total
      else
        List.iter
          (fun f ->
            Fmt.pr "CORPUS FAILURE %s: %s@." f.Fuzz.file f.Fuzz.reason)
          corpus_failures;
    let random_failed =
      if cases <= 0 then false
      else
        match Fuzz.run_random ~use_cc ~rank3 ~cases ~seed () with
        | Fuzz.All_passed s ->
            Fmt.pr
              "fuzz: %d cases (seed %d): %d compared across all back ends, \
               %d discarded, 0 counterexamples.@."
              s.Fuzz.cases seed s.Fuzz.passed s.Fuzz.discarded;
            false
        | Fuzz.Counterexample { script; detail; shrink_steps } ->
            Fmt.pr
              "COUNTEREXAMPLE (seed %d, minimized in %d shrink steps)@.  \
               %s@.--- script ---@.%s--------------@."
              seed shrink_steps detail script;
            true
    in
    if corpus_failures <> [] || random_failed then exit 1
  in
  let cases_arg =
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N"
           ~doc:"Number of random scripts to generate and check.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Random seed (same seed, same scripts).")
  in
  let corpus_arg =
    Arg.(value & opt (some dir) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Also replay every .m script in $(docv) through the oracle.")
  in
  let no_cc_arg =
    Arg.(value & flag & info [ "no-cc" ]
           ~doc:"Skip the compiled-C leg even when a C compiler is found.")
  in
  let rank3_arg =
    Arg.(value & flag & info [ "rank3" ]
           ~doc:
             "Enable the rank-N tensor grammar: rank-3 constructors, \
              frame-broadcast operators, leading-axis sections, element \
              reads/writes and full reductions.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random scripts through every back end.")
    Term.(const run $ cases_arg $ seed_arg $ corpus_arg $ no_cc_arg $ rank3_arg)

let main_cmd =
  let doc = "Otter: a parallel MATLAB compiler (OCaml reproduction)" in
  Cmd.group (Cmd.info "otterc" ~version:"1.0" ~doc)
    [ compile_cmd; run_cmd; interp_cmd; dump_cmd; verify_cmd; serve_cmd;
      fuzz_cmd ]

let () = exit (Cmd.eval main_cmd)
