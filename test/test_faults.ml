(* Fault-injection and recovery tests: the deterministic fault model,
   the reliable ack/retry layer, graceful degradation of the VM, and
   the headline guarantee — under injected faults with the reliable
   layer on, every paper application completes bit-for-bit identical
   to a fault-free run on every machine model. *)

module Sim = Mpisim.Sim
module Machine = Mpisim.Machine
module Reliable = Mpisim.Reliable

let t name f = Alcotest.test_case name `Quick f

let faults = Testutil.faults

(* A lossy variant of a machine, with or without the reliable layer. *)
let faulty ?(reliable = true) spec m =
  Machine.with_faults ~reliable ~faults:(faults spec) m

(* --- the fault-spec parser ---------------------------------------------- *)

let test_spec_parser () =
  let f = faults "drop=0.01,dup=0.005,seed=42" in
  Alcotest.(check int) "seed" 42 f.Machine.fault_seed;
  Testutil.check_close "drop" 0.01 f.Machine.drop;
  Testutil.check_close "dup" 0.005 f.Machine.dup;
  Testutil.check_close "delay off" 0. f.Machine.delay;
  (match Machine.faults_of_spec "frobnicate=1" with
  | Error msg ->
      Alcotest.(check bool) "names bad key" true
        (Testutil.contains msg "frobnicate")
  | Ok _ -> Alcotest.fail "unknown key must be rejected");
  (match Machine.faults_of_spec "drop=lots" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad number must be rejected");
  (* out-of-range values are rejected with the key named *)
  List.iter
    (fun (spec, key) ->
      match Machine.faults_of_spec spec with
      | Error msg ->
          Alcotest.(check bool) (spec ^ " names " ^ key) true
            (Testutil.contains msg key)
      | Ok _ -> Alcotest.failf "%s must be rejected" spec)
    [
      ("drop=1.5", "drop");
      ("dup=-0.1", "dup");
      ("kill=2", "kill");
      ("stall=1,stall_time=-0.5", "stall_time");
      ("degrade=0.1,degrade_period=0", "degrade_period");
      ("degrade_factor=-2", "degrade_factor");
      ("delay_factor=0", "delay_factor");
      ("detect=-1", "detect");
      ("kill_time=-0.01", "kill_time");
      ("drop=nan", "drop");
      ("kill_window=inf", "kill_window");
      ("kill_rank=-5", "kill_rank");
    ];
  (* the boundaries stay valid *)
  List.iter
    (fun spec -> ignore (faults spec))
    [
      "drop=0,dup=1";
      "detect=0";
      "stall=1,stall_time=0";
      "kill=1,kill_window=0";
      "kill_rank=-1";
    ]

(* --- point-to-point under loss ------------------------------------------ *)

(* One sender, one receiver, a stream of messages over a very lossy
   link.  With the reliable layer the stream arrives intact and in
   order; the report shows the recovery work. *)
let test_reliable_stream_survives_loss () =
  let m = faulty "drop=0.3,seed=11" Machine.sparc20_cluster in
  let n = 40 in
  let results, r =
    Sim.run ~machine:m ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          for i = 1 to n do
            Reliable.send ~dst:1 ~tag:5 (Sim.Floats [| float_of_int i |])
          done;
          []
        end
        else
          List.init n (fun _ ->
              match Reliable.recv ~src:0 ~tag:5 with
              | Sim.Floats [| x |] -> x
              | _ -> nan))
  in
  Alcotest.(check (list (float 0.)))
    "in order, no loss"
    (List.init n (fun i -> float_of_int (i + 1)))
    results.(1);
  Alcotest.(check bool) "faults actually fired" true (r.Sim.drops > 0);
  Alcotest.(check bool) "losses were retransmitted" true
    (r.Sim.retries >= r.Sim.drops / 2)

(* Duplicates injected by the network are silently discarded. *)
let test_reliable_filters_duplicates () =
  let m = faulty "dup=0.5,seed=3" Machine.sparc20_cluster in
  let n = 25 in
  let results, r =
    Sim.run ~machine:m ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          for i = 1 to n do
            Reliable.send ~dst:1 ~tag:2 (Sim.Ints [| i |])
          done;
          []
        end
        else
          List.init n (fun _ ->
              match Reliable.recv_ints ~src:0 ~tag:2 with
              | [| x |] -> x
              | _ -> -1))
  in
  Alcotest.(check (list int)) "exactly once"
    (List.init n (fun i -> i + 1))
    results.(1);
  Alcotest.(check bool) "duplicates injected" true (r.Sim.dups > 0)

(* A window payload names [l1 + l2] floats of the sender's array in
   place, wrapping past its end.  [recv_floats] hands the receiver
   their concatenation in order, both when the window arrives as sent
   and when the reliable layer flattened it into its envelope; either
   way the message is priced at its [l1 + l2] floats (plus the
   sequence number under the reliable layer). *)
let test_recv_floats_of_wrapped_window () =
  let a = [| 0.; 1.; 2.; 3.; 4. |] in
  let expected = [| 3.; 4.; 0.; 1. |] in
  List.iter
    (fun (name, machine, bytes) ->
      let results, r =
        Sim.run ~machine ~nprocs:2 (fun rank ->
            if rank = 0 then begin
              Reliable.send ~dst:1 ~tag:3 (Sim.Window (a, 3, 2, 2));
              [||]
            end
            else Reliable.recv_floats ~src:0 ~tag:3)
      in
      Alcotest.(check (array (float 0.))) (name ^ ": concatenation") expected
        results.(1);
      Alcotest.(check (array (float 0.))) (name ^ ": sender's array intact")
        [| 0.; 1.; 2.; 3.; 4. |] a;
      Alcotest.(check int) (name ^ ": bytes") bytes r.Sim.bytes)
    [
      ("plain", Machine.sparc20_cluster, 32);
      (* 40 bytes of data and 8 of ack per delivery *)
      ( "reliable",
        Machine.with_faults ~reliable:true ~faults:(faults "seed=1")
          Machine.sparc20_cluster,
        48 );
    ]

(* Without the reliable layer, a dropped message surfaces as a typed
   [Timeout] naming the waiting rank and the missing (src, tag) — never
   an unattributed Deadlock. *)
let test_unreliable_drop_is_typed_timeout () =
  let m =
    faulty ~reliable:false "drop=1.0,detect=0.5,seed=1" Machine.sparc20_cluster
  in
  match
    Sim.run ~machine:m ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.send ~dst:1 ~tag:7 (Sim.Floats [| 1. |])
        else ignore (Sim.recv ~src:0 ~tag:7))
  with
  | exception Sim.Rank_failure
      { rank = 1; exn = Sim.Timeout { rank = 1; src = 0; tag = 7; waited } }
    ->
      Testutil.check_close "detect deadline" 0.5 waited
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "dropped message must surface as Timeout"

(* The sender's retransmission budget is finite: a dead link raises a
   typed [Exhausted] with the attempt count. *)
let test_retries_exhaust_on_dead_link () =
  let m = faulty "drop=1.0,seed=5" Machine.sparc20_cluster in
  match
    Sim.run ~machine:m ~nprocs:2 (fun rank ->
        if rank = 0 then Reliable.send ~dst:1 ~tag:1 (Sim.Floats [| 1. |])
        else ignore (Sim.recv_opt ~src:0 ~tag:0 ~timeout:1e6))
  with
  | exception Sim.Rank_failure
      { rank = 0; exn = Reliable.Exhausted { rank = 0; dst = 1; tag = 1; attempts } }
    ->
      Alcotest.(check int) "attempts" (Reliable.max_retries + 1) attempts
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "dead link must exhaust the retry budget"

(* Delay spikes and rank stalls slow the run down without changing
   results, and are counted in the report. *)
let test_delay_and_stall_cost_time () =
  let body rank =
    if rank = 0 then
      for i = 1 to 20 do
        Reliable.send ~dst:1 ~tag:1 (Sim.Ints [| i |])
      done
    else
      for _ = 1 to 20 do
        ignore (Reliable.recv ~src:0 ~tag:1)
      done
  in
  let _, clean = Sim.run ~machine:Machine.sparc20_cluster ~nprocs:2 body in
  let m = faulty "delay=0.5,stall=0.3,seed=9" Machine.sparc20_cluster in
  let _, r = Sim.run ~machine:m ~nprocs:2 body in
  Alcotest.(check bool) "delays injected" true (r.Sim.delayed > 0);
  Alcotest.(check bool) "stalls injected" true (r.Sim.stalls > 0);
  Alcotest.(check bool) "slower than clean" true
    (r.Sim.makespan > clean.Sim.makespan)

(* Same seed, same schedule: the fault counters are a pure function of
   the seed.  A different seed draws a different schedule. *)
let test_fault_schedule_reproducible () =
  let body rank =
    if rank = 0 then
      for i = 1 to 30 do
        Reliable.send ~dst:1 ~tag:1 (Sim.Ints [| i |])
      done
    else
      for _ = 1 to 30 do
        ignore (Reliable.recv ~src:0 ~tag:1)
      done
  in
  let run seed =
    let m =
      faulty (Printf.sprintf "drop=0.2,dup=0.1,seed=%d" seed)
        Machine.sparc20_cluster
    in
    snd (Sim.run ~machine:m ~nprocs:2 body)
  in
  let a = run 42 and b = run 42 and c = run 43 in
  Alcotest.(check int) "same drops" a.Sim.drops b.Sim.drops;
  Alcotest.(check int) "same dups" a.Sim.dups b.Sim.dups;
  Alcotest.(check int) "same retries" a.Sim.retries b.Sim.retries;
  Testutil.check_close "same makespan" a.Sim.makespan b.Sim.makespan;
  Alcotest.(check bool) "different seed, different schedule" true
    (a.Sim.drops <> c.Sim.drops || a.Sim.dups <> c.Sim.dups
    || a.Sim.makespan <> c.Sim.makespan)

(* Reliable collectives: a lossy allreduce still agrees everywhere. *)
let test_collectives_survive_loss () =
  let m = faulty "drop=0.15,dup=0.05,seed=21" Machine.sparc20_cluster in
  let results, r =
    Sim.run ~machine:m ~nprocs:8 (fun rank ->
        Mpisim.Coll.allreduce_scalar ~op:Mpisim.Coll.Sum (float_of_int rank))
  in
  Array.iter (Testutil.check_close "allreduce sum" 28.) results;
  Alcotest.(check bool) "faults actually fired" true (r.Sim.drops > 0)

(* --- the headline guarantee (acceptance criterion) ---------------------- *)

(* Transitive closure at P=96 on the fat-tree replicates its operand
   with the doubling allgather, whose rounds send windows; the
   reliable layer flattens each into its envelope.  Under drops,
   duplicates and delays the run still matches the fault-free one bit
   for bit. *)
let test_windows_survive_faults () =
  let app =
    match Apps.Scripts.find "tc" with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 10) in
  let run machine =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~capture:app.capture ~machine ~nprocs:96 ())
         c)
  in
  let clean = run Machine.fattree_default in
  let faulted =
    run (faulty "drop=0.05,dup=0.02,delay=0.05,seed=5" Machine.fattree_default)
  in
  let r = faulted.Exec.State.report in
  Alcotest.(check bool) "faults fired" true
    (r.Sim.drops > 0 && r.Sim.dups > 0 && r.Sim.delayed > 0);
  Alcotest.(check bool) "captures bit-for-bit" true
    (clean.Exec.State.captures = faulted.Exec.State.captures);
  Alcotest.(check string) "output identical" clean.Exec.State.output
    faulted.Exec.State.output

(* Every paper application, on every parallel machine model, under
   injected faults with the reliable layer on: completes with captures
   and output bit-for-bit identical to the fault-free run. *)
let test_apps_bit_for_bit_under_faults () =
  let spec = "drop=0.02,dup=0.01,delay=0.01,seed=42" in
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = Otter.compile (app.source 8) in
      List.iter
        (fun m ->
          let nprocs = min 4 m.Machine.max_procs in
          let clean =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~capture:app.capture ~machine:m ~nprocs ())
                 c)
          in
          let fm = faulty spec m in
          let faulted =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~capture:app.capture ~machine:fm ~nprocs ())
                 c)
          in
          let where = Printf.sprintf "%s on %s" app.key m.Machine.name in
          Alcotest.(check bool)
            (where ^ ": captures bit-for-bit")
            true
            (clean.Exec.State.captures = faulted.Exec.State.captures);
          Alcotest.(check string)
            (where ^ ": output identical")
            clean.Exec.State.output faulted.Exec.State.output)
        [ Machine.meiko_cs2; Machine.enterprise_smp; Machine.sparc20_cluster ])
    Apps.Scripts.apps

(* And they still verify against the reference interpreter. *)
let test_apps_verify_under_faults () =
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = Otter.compile (app.source 8) in
      let m = faulty "drop=0.05,seed=7" Machine.sparc20_cluster in
      match
        Otter.verify
          (Otter.config ~machine:m ~nprocs:4 ~capture:app.capture ())
          c
      with
      | Otter.Verified -> ()
      | Otter.Mismatched ms ->
          Alcotest.failf "%s: %d mismatches under faults" app.key
            (List.length ms)
      | Otter.Aborted { failed_rank; operation; detail; _ } ->
          Alcotest.failf "%s aborted: rank %d during %s: %s" app.key
            failed_rank operation detail)
    Apps.Scripts.apps

(* --- graceful degradation of the VM ------------------------------------- *)

(* Without the reliable layer, a faulted app run degrades to a
   structured [Partial] naming the failing rank and operation. *)
let test_vm_partial_names_rank_and_operation () =
  let app =
    match Apps.Scripts.find "cg" with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 8) in
  let m =
    faulty ~reliable:false "drop=1.0,detect=0.1,seed=2" Machine.sparc20_cluster
  in
  match
    (Otter.run (Otter.config ~capture:app.capture ~machine:m ~nprocs:4 ()) c)
      .Exec.State.r_result
  with
  | Exec.State.Partial { failed_rank; operation; detail; _ } ->
      Alcotest.(check bool) "rank in range" true
        (failed_rank >= 0 && failed_rank < 4);
      Alcotest.(check bool) "operation non-empty" true (operation <> "");
      Alcotest.(check bool) "detail names the message" true
        (Testutil.contains detail "src=")
  | Exec.State.Complete _ ->
      Alcotest.fail "total loss without the reliable layer cannot complete"

(* [file] at P = 4 on a Meiko that drops messages ([spec]) without the
   reliable layer must stop with a protocol error whose detail contains
   [expected]. *)
let lossy_protocol_error file spec expected =
  match Testutil.find_up file with
  | None -> () (* sandboxed without sources: nothing to check *)
  | Some file -> (
      let c = Otter.compile (Testutil.read_file file) in
      let m = faulty ~reliable:false spec Machine.meiko_cs2 in
      match
        (Otter.run (Otter.config ~machine:m ~nprocs:4 ()) c).Exec.State.r_result
      with
      | Exec.State.Partial { kind; detail; _ } ->
          Alcotest.(check bool) "classified as a protocol error" true
            (kind = Exec.State.Fprotocol);
          if not (Testutil.contains detail expected) then
            Alcotest.failf "the detail %S does not name both lengths (%S)" detail
              expected
      | Exec.State.Complete _ -> Alcotest.fail "the lossy run cannot complete")

(* Without the reliable layer a dropped ring message lets the next
   round's block, of another length, arrive in its place: the allgather
   must classify that as a protocol error, not let an array exception
   escape from the copy.  Each product [A * v] of the script allgathers
   [v], 10 elements in blocks of 2 and 3 at P = 4. *)
let test_lossy_allgather_is_protocol_error () =
  lossy_protocol_error "test/corpus/fuzz/matvec_gather.m" "drop=0.3,seed=3"
    "allgather: expected 3 floats, received 2"

(* The same for a section's exchange: jacobi's stencil reads send each
   neighbour its boundary pages (8 x 8 = 64 floats per page at P = 4),
   so a dropped message lets the next one, of another length, arrive in
   its place. *)
let test_lossy_section_is_protocol_error () =
  lossy_protocol_error "examples/matlab/jacobi.m" "drop=0.3,seed=3"
    "section: expected 128 floats, received 64"

(* The same for circshift's runs: a dropped run lets a later one, of
   another length, arrive in its place, which must surface as a
   protocol error naming both lengths rather than an assertion. *)
let test_lossy_shift_is_protocol_error () =
  lossy_protocol_error "test/corpus/fuzz/shift_runs.m" "drop=0.2,seed=1"
    "shift: expected 1 floats, received 2"

let suite =
  [
    t "fault spec parser" test_spec_parser;
    t "reliable stream survives loss" test_reliable_stream_survives_loss;
    t "reliable filters duplicates" test_reliable_filters_duplicates;
    t "recv_floats concatenates a wrapped window"
      test_recv_floats_of_wrapped_window;
    t "unreliable drop is a typed timeout" test_unreliable_drop_is_typed_timeout;
    t "retries exhaust on a dead link" test_retries_exhaust_on_dead_link;
    t "delay and stall cost time" test_delay_and_stall_cost_time;
    t "fault schedule reproducible" test_fault_schedule_reproducible;
    t "collectives survive loss" test_collectives_survive_loss;
    t "apps bit-for-bit under faults" test_apps_bit_for_bit_under_faults;
    t "tc at P=96 bit-for-bit under faults" test_windows_survive_faults;
    t "apps verify under faults" test_apps_verify_under_faults;
    t "VM partial names rank and operation" test_vm_partial_names_rank_and_operation;
    t "lossy allgather is a protocol error" test_lossy_allgather_is_protocol_error;
    t "lossy section exchange is a protocol error"
      test_lossy_section_is_protocol_error;
    t "lossy shift is a protocol error" test_lossy_shift_is_protocol_error;
  ]
