(* A golden digest of the six applications on the Meiko CS-2: for each
   (app, P) the stdout, the exact bits of every captured value, the
   makespan, and the message, byte and scheduler-pick counts.  A change
   that claims to leave every run bit-identical (an executor or
   run-time speed-up) must pass this test with the golden file
   untouched.  On a mismatch the test prints the whole actual table, so
   a change that means to move the numbers can replace the file with
   it. *)

let t name f = Alcotest.test_case name `Quick f
let golden_file = "test/golden/app_digests.txt"
let scale = 50
let procs = [ 1; 4; 16 ]

(* The bits of a float, in hex, so NaN payloads and -0 count. *)
let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let capture_digest (caps : (string * Exec.State.captured) list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, (c : Exec.State.captured)) ->
      Buffer.add_string b name;
      let shape =
        match c with
        | Exec.State.Cscalar _ -> [||]
        | Exec.State.Cmat (r, c, _) -> [| r; c |]
        | Exec.State.Cnd (dims, _) -> dims
      in
      Array.iter (fun n -> Buffer.add_string b (Printf.sprintf ":%d" n)) shape;
      Array.iter
        (fun x -> Buffer.add_string b (Printf.sprintf "%016Lx" x))
        (Testutil.captured_bits c);
      Buffer.add_char b ';')
    caps;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The columns of one run after its key:
   stdout-md5 captures-md5 makespan-bits messages bytes picks *)
let digest_columns ?layout (app : Apps.Scripts.app) c nprocs =
  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs ?layout
            ~capture:app.capture ())
         c)
  in
  let r = o.Exec.State.report in
  Printf.sprintf "%s %s %s %d %d %d"
    (Digest.to_hex (Digest.string o.Exec.State.output))
    (capture_digest o.Exec.State.captures)
    (bits r.Mpisim.Sim.makespan) r.Mpisim.Sim.messages r.Mpisim.Sim.bytes
    r.Mpisim.Sim.sched_picks

(* One line per run: app P, then [digest_columns]. *)
let digest_line (app : Apps.Scripts.app) c nprocs =
  Printf.sprintf "%s %d %s" app.key nprocs (digest_columns app c nprocs)

let actual_table () =
  List.concat_map
    (fun (app : Apps.Scripts.app) ->
      let c = Otter.compile (app.source scale) in
      List.map (digest_line app c) procs)
    Apps.Scripts.all

(* The non-block layouts: the two tensor apps and CG at P = 4, each
   under a block-cyclic and a 2-D grid policy.  A rank >= 3 array is
   always block-distributed over its leading axis, whatever the policy,
   so the tensor rows pin that rule; CG pins the matrix layouts.  CG
   runs at scale 10: under the grid its matrix-vector products gather
   the whole matrix, which at scale 50 costs ten seconds of host time.
   One line per run: app P layout, then [digest_columns]. *)
let layout_file = "test/golden/layout_digests.txt"
let layout_apps = [ ("heat3d", scale); ("logistic", scale); ("cg", 10) ]
let layout_names = [ "cyclic:2"; "grid:2x2" ]

let layout_table () =
  List.concat_map
    (fun (key, scale) ->
      let app = Option.get (Apps.Scripts.find key) in
      let c = Otter.compile (app.source scale) in
      List.map
        (fun name ->
          let layout = Option.get (Otter.Config.layout_of_string name) in
          Printf.sprintf "%s 4 %s %s" key name
            (digest_columns ~layout app c 4))
        layout_names)
    layout_apps

let check_table file actual =
  let path =
    match Testutil.find_up file with
    | Some f -> f
    | None -> Alcotest.failf "%s not found" file
  in
  let expected =
    String.split_on_char '\n' (Testutil.read_file path)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  if actual <> expected then
    Alcotest.failf "app digests differ from %s; the actual table is:\n%s" file
      (String.concat "\n" actual)

let test_digests () = check_table golden_file (actual_table ())
let test_layouts () = check_table layout_file (layout_table ())

let suite =
  [
    t "six apps at P = 1, 4, 16 match the golden digests" test_digests;
    t "tensor apps and CG under cyclic and grid layouts match" test_layouts;
  ]
