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

(* One line per run:
   app P stdout-md5 captures-md5 makespan-bits messages bytes picks *)
let digest_line (app : Apps.Scripts.app) c nprocs =
  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs
            ~capture:app.capture ())
         c)
  in
  let r = o.Exec.State.report in
  Printf.sprintf "%s %d %s %s %s %d %d %d" app.key nprocs
    (Digest.to_hex (Digest.string o.Exec.State.output))
    (capture_digest o.Exec.State.captures)
    (bits r.Mpisim.Sim.makespan) r.Mpisim.Sim.messages r.Mpisim.Sim.bytes
    r.Mpisim.Sim.sched_picks

let actual_table () =
  List.concat_map
    (fun (app : Apps.Scripts.app) ->
      let c = Otter.compile (app.source scale) in
      List.map (digest_line app c) procs)
    Apps.Scripts.all

let test_digests () =
  let file =
    match Testutil.find_up golden_file with
    | Some f -> f
    | None -> Alcotest.failf "%s not found" golden_file
  in
  let expected =
    String.split_on_char '\n' (Testutil.read_file file)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let actual = actual_table () in
  if actual <> expected then
    Alcotest.failf
      "app digests differ from %s; the actual table is:\n%s" golden_file
      (String.concat "\n" actual)

let suite = [ t "six apps at P = 1, 4, 16 match the golden digests" test_digests ]
