(* Shared helpers for the test suites. *)

let check = Alcotest.check
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b

let check_close ?(tol = 1e-9) msg a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  if Float.abs (a -. b) > tol *. scale then
    Alcotest.failf "%s: %.17g vs %.17g" msg a b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_array_close ?(tol = 1e-9) msg (a : float array) (b : float array) =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: lengths %d vs %d" msg (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_close ~tol (Printf.sprintf "%s[%d]" msg i) x b.(i)) a

let compile = Otter.compile

(* Locate [rel] (a path from the repository root) by walking up from
   the dune sandbox; [None] when the sources are not reachable. *)
let find_up rel =
  let rec up dir n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat dir rel) then
      Some (Filename.concat dir rel)
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 8

let read_file = Fuzz.read_file

(* The fault model of a spec that must parse. *)
let faults spec =
  match Mpisim.Machine.faults_of_spec spec with
  | Ok f -> f
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg

(* Run a script on [nprocs] simulated CPUs and return (output, captures). *)
let run_parallel ?(machine = Mpisim.Machine.meiko_cs2) ?(nprocs = 4) ?capture src
    =
  let c = compile src in
  let o =
    Otter.outcome_exn (Otter.run (Otter.config ~machine ~nprocs ?capture ()) c)
  in
  (o.Exec.State.output, o.Exec.State.captures)

(* Run a script in the reference interpreter (front end only: the
   interpreter supports dynamic features the compiler rejects). *)
let run_interp ?capture src =
  let ast = Analysis.Resolve.run (Mlang.Parser.parse_program src) in
  let o =
    Interp.Eval.run ?capture ~mode:Interp.Cost.Interpreter
      ~machine:Mpisim.Machine.workstation ast
  in
  (o.Interp.Eval.output, o.Interp.Eval.captures)

(* One captured scalar, from either engine (both return
   [Runtime.Captured.t]). *)
let vm_scalar captures name =
  match List.assoc_opt name captures with
  | Some (Exec.State.Cscalar f) -> f
  | Some (Exec.State.Cmat (1, 1, [| f |])) -> f
  | Some (Exec.State.Cmat (r, c, _)) ->
      Alcotest.failf "%s: expected scalar, got %dx%d matrix" name r c
  | Some (Exec.State.Cnd (dims, _)) ->
      Alcotest.failf "%s: expected scalar, got rank-%d tensor" name
        (Array.length dims)
  | None -> Alcotest.failf "%s: not captured" name

(* Shorthand: evaluate a script in the interpreter and give one scalar. *)
let interp_value src name =
  let _, caps = run_interp ~capture:[ name ] src in
  vm_scalar caps name

(* Shorthand: same on the 4-CPU simulated machine. *)
let parallel_value ?(nprocs = 4) src name =
  let _, caps = run_parallel ~nprocs ~capture:[ name ] src in
  vm_scalar caps name

(* A fresh directory for [f], removed with everything in it afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "otter_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* --- emitted C, run under the one-machine MPI shim ---------------------- *)

(* Build [c_source] into [dir]/prog against the run-time library and
   the shim, failing the test with the compiler log. *)
let build_c dir c_source =
  match Fuzz.build_c c_source (Filename.concat dir "prog") with
  | Ok () -> ()
  | Error log -> Alcotest.failf "C build failed:\n%s" log

(* Run ./prog in [dir] with OTTER_NP=[np]; returns the exit code and the
   merged stdout and stderr.  Fails the test if the run leaves a message
   directory behind. *)
let run_c dir np =
  let tmp = Filename.concat dir "tmp" in
  if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
  let out = Filename.concat dir "out.txt" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && OTTER_NP=%s TMPDIR=%s timeout 60 ./prog > %s 2>&1"
         (Filename.quote dir) (Filename.quote np) (Filename.quote tmp)
         (Filename.quote out))
  in
  (match Sys.readdir tmp with
  | [||] -> ()
  | left -> Alcotest.failf "OTTER_NP=%s left %s behind" np left.(0));
  (code, read_file out)

(* [run_c] at P = 1, 2 and 4 against the interpreter's [expected]
   output: byte for byte at P = 1, and at P > 1 token by token with the
   fuzz oracle's tolerance, since reduction order changes the last
   digits. *)
let check_c_runs dir expected =
  List.iter
    (fun np ->
      let code, got = run_c dir (string_of_int np) in
      if code <> 0 then Alcotest.failf "P=%d: exit %d\n%s" np code got;
      if np = 1 then
        Alcotest.(check string) "C output == interpreter output" expected got
      else
        Option.iter (Alcotest.failf "P=%d: %s" np)
          (Otter.outputs_agree expected got))
    [ 1; 2; 4 ]

(* (name, arity) of each element-wise builtin in the registry, sorted;
   [min]/[max] in their binary, element-wise form. *)
let elementwise_builtins () =
  let module B = Analysis.Builtins in
  B.all ()
  |> List.filter_map (fun (b : B.t) ->
         match b.kind with
         | B.Map1 _ -> Some (b.name, 1)
         | B.Map2 _ | B.Minmax _ -> Some (b.name, 2)
         | _ -> None)
  |> List.sort compare

(* The raw bits of a captured value's elements, so -0 and NaN payloads
   count. *)
let captured_bits = function
  | Runtime.Captured.Cscalar x -> [| Int64.bits_of_float x |]
  | Runtime.Captured.Cmat (_, _, d) | Runtime.Captured.Cnd (_, d) ->
      Array.map Int64.bits_of_float d

(* Run [src] in the reference interpreter, then under tcode on each P
   of [procs] (with [layout]), and fail unless every variable of
   [capture] has the same shape and the same bits.  The shape check is
   strict: a 1 x 1 matrix and a scalar differ, unless [~scalar_1x1:true]
   lets them match (the same MATLAB value, which the engines may return
   in either form when a vector's length is 1). *)
let check_bits_vs_interp ?(machine = Mpisim.Machine.meiko_cs2) ?layout
    ?(scalar_1x1 = false) ~capture ~procs what src =
  let c = compile src in
  let run engine nprocs =
    (Otter.outcome_exn
       (Otter.run (Otter.config ~capture ?engine ?layout ~machine ~nprocs ()) c))
      .Exec.State.captures
  in
  let value caps name =
    match List.assoc name caps with
    | Runtime.Captured.Cmat (1, 1, [| x |]) when scalar_1x1 ->
        Runtime.Captured.Cscalar x
    | v -> v
  in
  let reference = run (Some Otter.Config.Einterp) 1 in
  List.iter
    (fun p ->
      let got = run None p in
      List.iter
        (fun name ->
          let want = value reference name and have = value got name in
          if
            not
              (Exec.State.captured_equal want have
              && captured_bits want = captured_bits have)
          then Alcotest.failf "%s: %s at P=%d: shape or bits differ" what name p)
        capture)
    procs

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)
