(* The committed bench baselines (bench/baseline.ml): every committed
   baseline round-trips through the codec byte for byte, and each gate
   rule passes at its limit and fails just past it. *)

open Testutil
module B = Baseline

let t name f = Alcotest.test_case name `Quick f

let test_round_trip () =
  List.iter
    (fun (name, mode) ->
      let rel = Printf.sprintf "bench/BENCH_%s_baseline.json" name in
      let file =
        match find_up rel with
        | Some f -> f
        | None -> Alcotest.failf "%s not found" rel
      in
      match B.read file with
      | Error e -> Alcotest.failf "%s: %s" rel e
      | Ok b ->
          Alcotest.(check string) (rel ^ ": benchmark") mode b.B.benchmark;
          Alcotest.(check string)
            (rel ^ ": read then written")
            (read_file file) (B.to_string b))
    [
      ("paper", "paper");
      ("paper_full", "paper");
      ("chaos", "chaos");
      ("throughput", "throughput");
      ("scale", "scale");
    ]

let rules =
  B.[ ("procs", Key); ("job", Key); ("time", Time); ("throughput", Rate);
      ("messages", Count);
      ("status", Class [ "ok"; "recovered"; "aborted"; "mismatch" ]) ]

let doc rows =
  { B.benchmark = "test"; scale = 1; sections = [ ("jobs", rows) ] }
let job name fields = B.[ ("procs", Int 16); ("job", Str name) ] @ fields

(* The gate's verdict on one job whose baseline row holds [base] and
   whose run row holds [run]. *)
let gate ~base ~run =
  B.gate rules ~baseline:(doc [ job "cg[0]" base ]) (doc [ job "cg[0]" run ])

let passes name ~base ~run =
  Alcotest.(check (list string)) (name ^ " passes") [] (gate ~base ~run)

let fails name ~base ~run =
  Alcotest.(check int) (name ^ " fails") 1 (List.length (gate ~base ~run))

let test_missing_row () =
  let msgs n = [ ("messages", B.Int n) ] in
  Alcotest.(check (list string))
    "a baseline row the run lacks is named"
    [ "MISSING procs=16 job=ghost[0]" ]
    (B.gate rules
       ~baseline:(doc [ job "cg[0]" (msgs 40); job "ghost[0]" (msgs 5) ])
       (doc [ job "cg[0]" (msgs 40) ]))

let test_time () =
  let time f = [ ("time", B.Float (f, 9)) ] in
  passes "+10% time" ~base:(time 1.0) ~run:(time 1.1);
  fails "+10% time and a nanosecond" ~base:(time 1.0) ~run:(time (1.1 +. 1e-9));
  passes "ungated fields"
    ~base:[ ("bytes", B.Int 10); ("wall", B.Float (1., 4)) ]
    ~run:[ ("bytes", B.Int 99); ("wall", B.Float (50., 4)) ]

let test_messages () =
  let msgs n = [ ("messages", B.Int n) ] in
  passes "equal message count" ~base:(msgs 10) ~run:(msgs 10);
  fails "one extra message" ~base:(msgs 10) ~run:(msgs 11)

let test_throughput () =
  let tp f = [ ("throughput", B.Float (f, 6)) ] in
  passes "-10% throughput" ~base:(tp 100.) ~run:(tp 90.);
  fails "just under -10% throughput" ~base:(tp 100.) ~run:(tp 89.99)

let test_class () =
  let status s = [ ("status", B.Str s) ] in
  fails "ok -> recovered" ~base:(status "ok") ~run:(status "recovered");
  passes "recovered -> ok" ~base:(status "recovered") ~run:(status "ok")

let suite =
  [
    t "codec round-trips the committed baselines" test_round_trip;
    t "gate: a missing row fails" test_missing_row;
    t "gate: time grows at most 10%" test_time;
    t "gate: one extra message fails" test_messages;
    t "gate: throughput drops at most 10%" test_throughput;
    t "gate: chaos class order" test_class;
  ]
