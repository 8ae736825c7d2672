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
let procs = [ 1; 3; 4; 7; 16 ]

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

let run_app ?layout (app : Apps.Scripts.app) c nprocs =
  Otter.outcome_exn
    (Otter.run
       (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs ?layout
          ~capture:app.capture ())
       c)

(* The columns of one run's outcome after its key:
   stdout-md5 captures-md5 makespan-bits messages bytes picks *)
let digest_columns (o : Exec.State.outcome) =
  let r = o.Exec.State.report in
  Printf.sprintf "%s %s %s %d %d %d"
    (Digest.to_hex (Digest.string o.Exec.State.output))
    (capture_digest o.Exec.State.captures)
    (bits r.Mpisim.Sim.makespan) r.Mpisim.Sim.messages r.Mpisim.Sim.bytes
    r.Mpisim.Sim.sched_picks

(* Every (app, P) run of the golden table, made once for the tests
   below. *)
let runs =
  lazy
    (List.concat_map
       (fun (app : Apps.Scripts.app) ->
         let c = Otter.compile (app.source scale) in
         List.map (fun nprocs -> (app.key, nprocs, run_app app c nprocs)) procs)
       Apps.Scripts.all)

(* One line per run: app P, then [digest_columns]. *)
let actual_table () =
  List.map
    (fun (key, nprocs, o) -> Printf.sprintf "%s %d %s" key nprocs (digest_columns o))
    (Lazy.force runs)

(* The non-block layout: the two tensor apps and CG at P = 4 under a
   block-cyclic policy.  A rank >= 3 array is always block-distributed
   over its leading axis, whatever the policy, so the tensor rows pin
   that rule; CG pins the matrix layout.  CG runs at scale 10, the scale
   its row was recorded at, so that row stays as it was.  One line per
   run: app P layout, then [digest_columns]. *)
let layout_file = "test/golden/layout_digests.txt"
let layout_apps = [ ("heat3d", scale); ("logistic", scale); ("cg", 10) ]
let layout_names = [ "cyclic:2" ]

let layout_table () =
  List.concat_map
    (fun (key, scale) ->
      let app = Option.get (Apps.Scripts.find key) in
      let c = Otter.compile (app.source scale) in
      List.map
        (fun name ->
          let layout = Option.get (Otter.Config.layout_of_string name) in
          Printf.sprintf "%s 4 %s %s" key name
            (digest_columns (run_app ~layout app c 4)))
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

(* Every rank's ledger accounts for its whole clock: the categories sum
   to [per_rank_clock] within 1e-12 relative, and none is negative. *)
let test_ledger () =
  List.iter
    (fun (key, nprocs, (o : Exec.State.outcome)) ->
      Option.iter
        (Alcotest.failf "%s P=%d: %s" key nprocs)
        (Testutil.ledger_error o.Exec.State.report))
    (Lazy.force runs)

(* Message conservation: sends are eager, so a run could finish with a
   message nobody received.  None of the six apps leaves one. *)
let test_nothing_queued () =
  List.iter
    (fun (key, nprocs, (o : Exec.State.outcome)) ->
      Alcotest.(check int)
        (Printf.sprintf "%s P=%d: messages left queued" key nprocs)
        0 o.Exec.State.report.Mpisim.Sim.queued)
    (Lazy.force runs)

(* The ledger block [otterc run --stats] prints, for tc at scale 5 on
   the Meiko at P = 4. *)
let test_ledger_table () =
  let app = Option.get (Apps.Scripts.find "tc") in
  let o = run_app app (Otter.compile (app.source 5)) 4 in
  Alcotest.(check string) "tc ledger"
    (String.concat "\n"
       [
         "  ledger (rank average, share of simulated time):";
         "    compute           0.001665 s  47.06%";
         "    cpu wait          0.000000 s   0.00%";
         "    stall             0.000000 s   0.00%";
         "    send overhead     0.000264 s   7.46%";
         "    idle receive      0.001304 s  36.85%";
         "    receive overhead  0.000264 s   7.46%";
         "    deadline wait     0.000000 s   0.00%";
         "    detection wait    0.000000 s   0.00%";
         "    death             0.000000 s   0.00%";
       ])
    (Otter.ledger_table o.Exec.State.report)

let suite =
  [
    t "six apps at P = 1, 4, 16 match the golden digests" test_digests;
    t "tensor apps and CG under the cyclic layout match" test_layouts;
    t "the six apps' ledgers sum to their clocks" test_ledger;
    t "the six apps leave no message queued" test_nothing_queued;
    t "run --stats prints the ledger" test_ledger_table;
  ]
