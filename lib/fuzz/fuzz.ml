(* Differential fuzzing oracle for the whole Otter pipeline.

   A generated script (see {!Gen}) is pushed through every back end we
   have and all results are compared:

     - the reference interpreter (the semantics oracle),
     - the SPMD executor at P in {1,2,3,4} on two machine models and
       at P = 65 on the fat-tree, each compared with [Otter.verify]:
       the captured variables and the printed output,
     - when a C compiler is available, the emitted C, linked with the
       run-time library and the one-machine MPI shim and executed for
       real at P in {1,2}, its stdout compared numerically against the
       interpreter's.

   Any disagreement is a counterexample; QCheck2's integrated
   shrinking then minimizes the script before it is reported. *)

module Gen = Gen (* the script grammar *)

type case_result =
  | Pass
  | Discard of string  (** front end or interpreter rejected the case *)
  | Fail of string  (** back ends disagree: the detail *)

(* The (machine, P) legs of the SPMD check.  The two paper machines at
   P <= 4 take [Coll]'s ring allgather; the fat-tree at P = 65 is one
   rank past the ring's limit, so it takes the doubling schedule. *)
let configs =
  List.concat_map
    (fun m -> List.map (fun p -> (m, p)) [ 1; 2; 3; 4 ])
    [ Mpisim.Machine.meiko_cs2; Mpisim.Machine.enterprise_smp ]
  @ [ (Mpisim.Machine.fattree_default, 65) ]

(* --- the compiled-C leg --------------------------------------------------- *)

let cc_available =
  lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

(* The C back end refuses explicit message passing and
   rank-N tensors, so the C leg only runs for scripts that never
   mention an MPI builtin and whose inferred types stay on the
   scalar/matrix floor of the lattice. *)
let has_tensor (c : Otter.compiled) : bool =
  Hashtbl.fold
    (fun _ t acc -> acc || Analysis.Ty.is_tensor t)
    c.Otter.info.Analysis.Infer.var_ty false

let uses_mpi (script : string) : bool =
  let needle = "MPI_" in
  let nh = String.length script and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub script i nn = needle || go (i + 1)) in
  go 0

(* One scratch directory per process holding the run-time library and
   the MPI shim, compiled to objects exactly once; each case then only
   compiles its own small generated file and links. *)
let rt_objects =
  lazy
    (let dir = Filename.temp_file "otter_fuzz" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o700;
     List.iter
       (fun (name, content) ->
         let oc = open_out (Filename.concat dir name) in
         output_string oc content;
         close_out oc)
       Codegen.support_files;
     if
       Sys.command
         (Printf.sprintf
            "cd %s && cc -O1 -I. -c otter_rt.c otter_mpi_shim.c > /dev/null 2>&1"
            (Filename.quote dir))
       <> 0
     then failwith "fuzz: cannot compile the run-time library";
     dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Write [c_source] to [exe].c and build it into [exe], linked with the
   compiled run-time library and the shim; the compiler's output on
   failure. *)
let build_c (c_source : string) (exe : string) : (unit, string) result =
  let dir = Lazy.force rt_objects in
  let src = exe ^ ".c" and log = exe ^ ".log" in
  Out_channel.with_open_bin src (fun oc -> output_string oc c_source);
  let code =
    Sys.command
      (Printf.sprintf "cc -O1 -I %s -o %s %s %s %s -lm > %s 2>&1"
         (Filename.quote dir) (Filename.quote exe) (Filename.quote src)
         (Filename.quote (Filename.concat dir "otter_rt.o"))
         (Filename.quote (Filename.concat dir "otter_mpi_shim.o"))
         (Filename.quote log))
  in
  let out = read_file log in
  List.iter Sys.remove [ src; log ];
  if code = 0 then Ok () else Error out

(* Emit and build the C for [c], run it as 1 and as 2 processes, and
   compare each stdout against the interpreter's output.  The shim's
   message directory goes under [rt_objects] too, so a run killed by
   [timeout] leaves nothing in the system temporary directory. *)
let check_c_leg (c : Otter.compiled) (ref_output : string) : string option =
  let dir = Lazy.force rt_objects in
  let exe = Filename.temp_file ~temp_dir:dir "case" ".exe" in
  let out_file = exe ^ ".out" in
  let run np =
    if
      Sys.command
        (Printf.sprintf "OTTER_NP=%d TMPDIR=%s timeout 60 %s > %s 2>&1" np
           (Filename.quote dir) (Filename.quote exe) (Filename.quote out_file))
      <> 0
    then Some (Printf.sprintf "compiled C at P=%d exited non-zero" np)
    else
      Option.map
        (Printf.sprintf "compiled C at P=%d: %s" np)
        (Otter.outputs_agree ref_output (read_file out_file))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ exe; out_file ])
    (fun () ->
      match build_c (Codegen.emit_c ~name:"fuzz_case" c.Otter.prog) exe with
      | Error _ -> Some "generated C does not compile"
      | Ok () -> List.find_map run [ 1; 2 ])

(* --- the oracle ----------------------------------------------------------- *)

let capture_list (info : Analysis.Infer.result) : string list =
  Hashtbl.fold (fun v _ acc -> v :: acc) info.Analysis.Infer.var_ty []
  |> List.sort compare

let check_case ?(use_cc = true) (script : string) : case_result =
  (* full O2 pipeline, with the IR validator between passes: a
     validator violation is a compiler bug, hence a counterexample *)
  match Otter.compile ~validate:true script with
  | exception Mlang.Source.Error (_, msg) -> Discard ("compile: " ^ msg)
  | exception Spmd.Lower.Unsupported (_, msg) -> Discard ("lower: " ^ msg)
  | exception Spmd.Validate.Invalid msg -> Fail ("IR validation: " ^ msg)
  | c -> (
      let capture = capture_list c.Otter.info in
      match
        Otter.run
          (Otter.config ~capture ~engine:Otter.Config.Einterp
             ~machine:Mpisim.Machine.workstation ())
          c
        |> Otter.outcome_exn
      with
      | exception Exec.State.Runtime_error msg -> Discard ("interpreter: " ^ msg)
      | exception Interp.Eval.Runtime_error msg ->
          Discard ("interpreter: " ^ msg)
      | ref_run -> (
          let check_config ~label c machine nprocs =
            match
              Otter.verify (Otter.config ~machine ~nprocs ~capture ()) c
            with
            | Otter.Verified -> None
            | Otter.Mismatched ms ->
                let m = List.hd ms in
                Some
                  (Printf.sprintf "[%s, P=%d, %s] %s: %s"
                     machine.Mpisim.Machine.name nprocs label m.Otter.variable
                     m.Otter.detail)
            | Otter.Aborted { failed_rank; operation; detail; _ } ->
                Some
                  (Printf.sprintf "[%s, P=%d, %s] rank %d failed during %s: %s"
                     machine.Mpisim.Machine.name nprocs label failed_rank
                     operation detail)
            | exception Exec.State.Runtime_error msg ->
                Some
                  (Printf.sprintf "[%s, P=%d, %s] run-time error: %s"
                     machine.Mpisim.Machine.name nprocs label msg)
            | exception Mpisim.Sim.Deadlock msg ->
                Some
                  (Printf.sprintf "[%s, P=%d, %s] deadlock: %s"
                     machine.Mpisim.Machine.name nprocs label msg)
          in
          let spmd_failure =
            List.find_map
              (fun (machine, p) -> check_config ~label:"O2" c machine p)
              configs
          in
          (* the unoptimized pipeline against the same reference: both
             levels verify against one interpreter run, so any O0-vs-O2
             divergence surfaces as a failure on exactly one level *)
          let spmd_failure =
            match spmd_failure with
            | Some _ -> spmd_failure
            | None -> (
                match Otter.compile ~opt:Spmd.Pass.O0 ~validate:true script with
                | exception Spmd.Validate.Invalid msg ->
                    Some ("[O0] IR validation: " ^ msg)
                | c0 ->
                    List.fold_left
                      (fun acc p ->
                        match acc with
                        | Some _ -> acc
                        | None ->
                            check_config ~label:"O0" c0
                              Mpisim.Machine.meiko_cs2 p)
                      None [ 1; 3 ])
          in
          match spmd_failure with
          | Some d -> Fail d
          | None ->
              if
                use_cc
                && (not (uses_mpi script))
                && (not (has_tensor c))
                && Lazy.force cc_available
              then
                match check_c_leg c ref_run.Exec.State.output with
                | Some d -> Fail d
                | None -> Pass
              else Pass))

(* --- random testing with shrinking ---------------------------------------- *)

type stats = { cases : int; passed : int; discarded : int }

type run_result =
  | All_passed of stats
  | Counterexample of { script : string; detail : string; shrink_steps : int }

let run_random ?(use_cc = true) ?(rank3 = false) ~cases ~seed () : run_result =
  let passed = ref 0 and discarded = ref 0 in
  let last_fail = ref "" in
  let prop s =
    match check_case ~use_cc s with
    | Pass ->
        incr passed;
        true
    | Discard _ ->
        incr discarded;
        true
    | Fail detail ->
        last_fail := detail;
        false
  in
  let cell =
    QCheck2.Test.make_cell ~count:cases ~name:"differential"
      ~print:(fun s -> s)
      (if rank3 then Gen.script_rank3 else Gen.script)
      prop
  in
  let rand = Random.State.make [| seed |] in
  let result = QCheck2.Test.check_cell ~rand cell in
  match QCheck2.TestResult.get_state result with
  | QCheck2.TestResult.Success -> All_passed { cases; passed = !passed; discarded = !discarded }
  | QCheck2.TestResult.Failed { instances = ce :: _ } ->
      Counterexample
        {
          script = ce.QCheck2.TestResult.instance;
          detail = !last_fail;
          shrink_steps = ce.QCheck2.TestResult.shrink_steps;
        }
  | QCheck2.TestResult.Failed { instances = [] } ->
      Counterexample
        { script = ""; detail = !last_fail; shrink_steps = 0 }
  | QCheck2.TestResult.Failed_other { msg } ->
      Counterexample { script = ""; detail = msg; shrink_steps = 0 }
  | QCheck2.TestResult.Error { instance; exn; backtrace = _ } ->
      Counterexample
        {
          script = instance.QCheck2.TestResult.instance;
          detail = "exception: " ^ Printexc.to_string exn;
          shrink_steps = instance.QCheck2.TestResult.shrink_steps;
        }

(* --- regression-corpus replay --------------------------------------------- *)

type replay_failure = { file : string; reason : string }

(* A corpus file is an ordinary script expected to pass the full
   oracle, unless its first line carries a directive:

     % expect: compile-error <substring>

   in which case the compile must reject it with a diagnostic
   containing <substring>.  A back-end diagnostic must leave the front
   end + interpreter running it cleanly (the interpreter accepts a
   superset of the compiled language, e.g. matrix growth); a front-end
   one rejects the script for every engine, so there is nothing left
   to run. *)
let replay_file ?(use_cc = true) (path : string) : replay_failure option =
  let source = read_file path in
  let file = Filename.basename path in
  let directive =
    match String.index_opt source '\n' with
    | None -> None
    | Some i ->
        let first = String.sub source 0 i in
        let prefix = "% expect: compile-error " in
        if String.length first > String.length prefix
           && String.sub first 0 (String.length prefix) = prefix
        then
          Some
            (String.sub first (String.length prefix)
               (String.length first - String.length prefix))
        else None
  in
  match directive with
  | Some substring -> (
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      match Otter.compile source with
      | _ ->
          Some { file; reason = "expected a compile error, but it compiled" }
      | exception (Mlang.Source.Error (_, msg) | Spmd.Lower.Unsupported (_, msg))
        -> (
          if not (contains msg substring) then
            Some
              {
                file;
                reason =
                  Printf.sprintf "compile error %S does not mention %S" msg
                    substring;
              }
          else
            (* the interpreter must still accept it *)
            match Otter.compile_frontend source with
            | exception Mlang.Source.Error (_, fmsg) ->
                if fmsg = msg then None
                else Some { file; reason = "front end rejected it: " ^ fmsg }
            | fe -> (
                match
                  Otter.interpret
                    (Otter.config ~machine:Mpisim.Machine.workstation ())
                    fe
                with
                | exception Interp.Eval.Runtime_error msg ->
                    Some { file; reason = "interpreter failed: " ^ msg }
                | _ -> None)))
  | None -> (
      match check_case ~use_cc source with
      | Pass -> None
      | Discard reason ->
          Some { file; reason = "discarded (should pass): " ^ reason }
      | Fail reason -> Some { file; reason })

let replay ?use_cc (dir : string) : replay_failure list * int =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".m")
    |> List.sort compare
  in
  ( List.filter_map
      (fun f -> replay_file ?use_cc (Filename.concat dir f))
      files,
    List.length files )
