(* Machine-simulator tests: timing model, scheduling, contention,
   determinism, deadlock detection. *)

module Sim = Mpisim.Sim
module Machine = Mpisim.Machine
module Reliable = Mpisim.Reliable

let t name f = Alcotest.test_case name `Quick f

(* A dedicated-link test machine with easy numbers: 1 us latency,
   1 MB/s bandwidth, no overheads, 1 Gflop/s. *)
let lab ?(channel = None) () =
  {
    Machine.name = "lab";
    max_procs = 64;
    flop_time = 1e-9;
    interp_overhead = 0.;
    send_overhead = 0.;
    recv_overhead = 0.;
    link = (fun _ _ -> { Machine.latency = 1e-6; bandwidth = 1e6; channel });
    channels = (fun _ -> 1);
    faults = None;
    reliable = false;
    placement = None;
  }

let test_compute_advances_clock () =
  let _, r =
    Sim.run ~machine:(lab ()) ~nprocs:1 (fun _ -> Sim.compute 0.25)
  in
  Testutil.check_close "makespan" 0.25 r.Sim.makespan

let test_flops_use_machine_rate () =
  let _, r = Sim.run ~machine:(lab ()) ~nprocs:1 (fun _ -> Sim.flops 1e6) in
  Testutil.check_close "1e6 flops at 1ns" 1e-3 r.Sim.makespan

let test_message_timing () =
  (* 1000 doubles = 8000 bytes at 1 MB/s = 8 ms, plus 1 us latency. *)
  let _, r =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.send ~dst:1 ~tag:1 (Sim.Floats (Array.make 1000 0.))
        else ignore (Sim.recv ~src:0 ~tag:1))
  in
  Testutil.check_close "latency + serialization" (8e-3 +. 1e-6) r.Sim.makespan;
  Alcotest.(check int) "bytes counted" 8000 r.Sim.bytes;
  Alcotest.(check int) "one message" 1 r.Sim.messages

let test_receiver_waits_for_arrival () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.compute 1.0;
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 42. |]);
          0.
        end
        else begin
          ignore (Sim.recv ~src:0 ~tag:1);
          Sim.time ()
        end)
  in
  Alcotest.(check bool) "receiver clock past sender's send time" true
    (results.(1) >= 1.0)

let test_sender_does_not_block () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats (Array.make 100000 0.));
          Sim.time ()
        end
        else begin
          Sim.compute 10.;
          ignore (Sim.recv ~src:0 ~tag:1);
          0.
        end)
  in
  Alcotest.(check bool) "eager send returns immediately" true
    (results.(0) < 1e-3)

let test_fifo_order_per_pair () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 1. |]);
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 2. |]);
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 3. |]);
          []
        end
        else
          List.map
            (fun _ ->
              match Sim.recv ~src:0 ~tag:1 with
              | Sim.Floats [| x |] -> x
              | _ -> nan)
            [ (); (); () ])
  in
  Alcotest.(check (list (float 0.))) "in order" [ 1.; 2.; 3. ] results.(1)

let test_tags_demultiplex () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:7 (Sim.Floats [| 7. |]);
          Sim.send ~dst:1 ~tag:5 (Sim.Floats [| 5. |]);
          0.
        end
        else begin
          (* receive in the opposite order of sending *)
          let a = Reliable.recv_floats ~src:0 ~tag:5 in
          let b = Reliable.recv_floats ~src:0 ~tag:7 in
          (a.(0) *. 10.) +. b.(0)
        end)
  in
  Testutil.check_close "tag matching" 57. results.(1)

let test_send_hands_payload_over () =
  (* Payloads change hands by reference, not by copy: the receiver
     gets the very array that was sent, which is why neither side may
     write it afterwards. *)
  let sent = [| 1.; 2. |] in
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats sent);
          false
        end
        else Reliable.recv_floats ~src:0 ~tag:1 == sent)
  in
  Alcotest.(check bool) "the receiver holds the sent array" true results.(1)

let test_shared_channel_serializes () =
  (* Two simultaneous 8 KB transfers on one shared channel take twice
     as long as on dedicated links. *)
  let payload () = Sim.Floats (Array.make 1000 0.) in
  let body rank =
    if rank = 0 || rank = 1 then
      Sim.send ~dst:(rank + 2) ~tag:1 (payload ())
    else ignore (Sim.recv ~src:(rank - 2) ~tag:1)
  in
  let _, shared = Sim.run ~machine:(lab ~channel:(Some 0) ()) ~nprocs:4 body in
  let _, dedicated = Sim.run ~machine:(lab ()) ~nprocs:4 body in
  Testutil.check_close ~tol:1e-6 "dedicated overlap" (8e-3 +. 1e-6)
    dedicated.Sim.makespan;
  Alcotest.(check bool) "shared serializes" true
    (shared.Sim.makespan > 1.9 *. dedicated.Sim.makespan)

let test_contention_respects_virtual_time () =
  (* A rank that sends late must not be charged for an early rank's
     channel reservation made in wall-clock scheduling order. *)
  let _, r =
    Sim.run ~machine:(lab ~channel:(Some 0) ()) ~nprocs:4 (fun rank ->
        match rank with
        | 0 -> Sim.send ~dst:2 ~tag:1 (Sim.Floats (Array.make 1000 0.))
        | 1 ->
            (* long compute first: its send happens at t=1s, when the
               channel has long been idle again *)
            Sim.compute 1.0;
            Sim.send ~dst:3 ~tag:1 (Sim.Floats (Array.make 1000 0.))
        | 2 -> ignore (Sim.recv ~src:0 ~tag:1)
        | _ -> ignore (Sim.recv ~src:1 ~tag:1))
  in
  (* makespan = 1s + one transfer, NOT 1s + queued-behind-everything *)
  Testutil.check_close ~tol:1e-3 "no false queueing" (1.0 +. 8e-3) r.Sim.makespan

let test_determinism () =
  let body rank =
    let v = Mpisim.Coll.allreduce_scalar ~op:Mpisim.Coll.Sum (float_of_int rank) in
    Sim.flops (100. *. v);
    v
  in
  let _, r1 = Sim.run ~machine:Machine.sparc20_cluster ~nprocs:16 body in
  let _, r2 = Sim.run ~machine:Machine.sparc20_cluster ~nprocs:16 body in
  Testutil.check_close "same makespan" r1.Sim.makespan r2.Sim.makespan;
  Alcotest.(check int) "same messages" r1.Sim.messages r2.Sim.messages

let test_deadlock_detection () =
  (match
     Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
         ignore (Sim.recv ~src:(1 - rank) ~tag:9))
   with
  | exception Sim.Deadlock _ -> ()
  | _ -> Alcotest.fail "cross recv must deadlock");
  match
    Sim.run ~machine:(lab ()) ~nprocs:1 (fun _ -> ignore (Sim.recv ~src:0 ~tag:1))
  with
  | exception Sim.Deadlock _ -> ()
  | _ -> Alcotest.fail "self recv with no message must deadlock"

let test_bad_ranks_rejected () =
  (match
     Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
         if rank = 0 then Sim.send ~dst:5 ~tag:1 (Sim.Floats [| 1. |]))
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad destination must be rejected");
  (match
     Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
         if rank = 0 then
           ignore (Sim.sendrecv ~dst:5 ~tag:1 (Sim.Floats [| 1. |]) ~src:1))
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad sendrecv destination must be rejected");
  (* A bad source fails the run with the argument error itself, and
     only after the send half is delivered and counted, as a send
     followed by a receive does. *)
  let bad_source ~fused =
    Sim.run_report ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          let data = Sim.Floats [| 1. |] in
          if fused then ignore (Sim.sendrecv ~dst:1 ~tag:1 data ~src:5)
          else begin
            Sim.send ~dst:1 ~tag:1 data;
            ignore (Sim.recv ~src:5 ~tag:1)
          end
        end)
  in
  let picks ~fused =
    match bad_source ~fused with
    | Error (Invalid_argument _), r ->
        Alcotest.(check int) "the send half is counted" 1 r.Sim.messages;
        r.Sim.sched_picks
    | Error e, _ -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
    | Ok _, _ -> Alcotest.fail "bad source must be rejected"
  in
  Alcotest.(check int) "picks of send then recv" (picks ~fused:false)
    (picks ~fused:true);
  match Sim.run ~machine:Machine.enterprise_smp ~nprocs:12 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too many processors must be rejected"

let test_rank_exception_propagates () =
  (* A failure on any rank aborts the whole simulation, wrapped with
     the failing rank's identity (the VM relies on this attribution). *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:4 (fun rank ->
        if rank = 2 then failwith "injected fault";
        Sim.compute 1.)
  with
  | exception Sim.Rank_failure { rank; exn = Failure msg } ->
      Alcotest.(check int) "failing rank named" 2 rank;
      Alcotest.(check string) "message" "injected fault" msg
  | _ -> Alcotest.fail "exception must propagate out of run"

let test_exception_after_communication () =
  (* Fault after messages are in flight: still propagates cleanly. *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 1. |]);
          Sim.compute 1.
        end
        else begin
          ignore (Sim.recv ~src:0 ~tag:1);
          failwith "late fault"
        end)
  with
  | exception Sim.Rank_failure { rank; exn = Failure msg } ->
      Alcotest.(check int) "failing rank named" 1 rank;
      Alcotest.(check string) "message" "late fault" msg
  | _ -> Alcotest.fail "late exception must propagate"

(* --- wildcard-source receive -------------------------------------------- *)

let test_recv_any_earliest_arrival () =
  (* Three workers finish at staggered times; the wildcard receive must
     deliver in arrival order, not rank order. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:4 (fun rank ->
        if rank = 0 then
          List.init 3 (fun _ -> Sim.recv_any ~tag:7)
          |> List.map (fun (src, p) ->
                 match p with
                 | Sim.Floats [| v |] -> (src, v)
                 | _ -> Alcotest.fail "unexpected payload")
        else begin
          (* rank 3 finishes first, then 2, then 1 *)
          Sim.compute (float_of_int (4 - rank) *. 0.1);
          Sim.send ~dst:0 ~tag:7 (Sim.Floats [| float_of_int (10 * rank) |]);
          []
        end)
  in
  Alcotest.(check (list (pair int (float 0.))))
    "arrival order, value matches source"
    [ (3, 30.); (2, 20.); (1, 10.) ]
    results.(0)

let test_recv_any_tie_lowest_source () =
  (* Both workers send at t=0 over identical links, and both messages
     are pending by the time rank 0 asks: the tie must go to the lowest
     source rank, deterministically. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:3 (fun rank ->
        if rank = 0 then begin
          Sim.compute 0.5;
          let first = fst (Sim.recv_any ~tag:7) in
          let second = fst (Sim.recv_any ~tag:7) in
          (first, second)
        end
        else begin
          Sim.send ~dst:0 ~tag:7 (Sim.Floats [| 1. |]);
          (-1, -1)
        end)
  in
  Alcotest.(check (pair int int)) "lowest source wins the tie" (1, 2)
    results.(0)

let test_probe_any_source () =
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:3 (fun rank ->
        if rank = 0 then begin
          let before = Sim.probe ~src:(-1) ~tag:7 in
          ignore (Sim.recv ~src:2 ~tag:9); (* wait until the send landed *)
          let after = Sim.probe ~src:(-1) ~tag:7 in
          ignore (Sim.recv_any ~tag:7);
          let drained = Sim.probe ~src:(-1) ~tag:7 in
          (before, after, drained)
        end
        else if rank = 1 then begin
          Sim.send ~dst:0 ~tag:7 (Sim.Floats [| 5. |]);
          (false, false, false)
        end
        else begin
          Sim.compute 0.5;
          Sim.send ~dst:0 ~tag:9 (Sim.Floats [| 0. |]);
          (false, false, false)
        end)
  in
  Alcotest.(check (triple bool bool bool))
    "probe any: empty, pending, drained" (false, true, false) results.(0)

(* A randomized wildcard program: every rank but 0 sends a few
   messages of random lengths to rank 0 on tag 5 after random compute,
   some preceded by one on tag 6 that nobody takes; rank 0 takes them
   all by [recv_any] on tag 5, probing first.  Times and lengths come
   from a few values each, so arrivals often tie and the tie-break
   decides.  The digest covers each match (probe result, source,
   payload, clock), the makespan and the scheduler picks.  The
   expected digests were recorded with the first matcher, which
   scanned every source's mailbox in ascending rank order: the scan of
   the destination's index must pick the same message at the same
   time. *)
let wildcard_digest ~machine ~nprocs ~seed =
  let rng = Random.State.make [| seed |] in
  let counts =
    Array.init nprocs (fun r -> if r = 0 then 0 else Random.State.int rng 6)
  in
  let plan =
    Array.init nprocs (fun r ->
        Array.init counts.(r) (fun _ ->
            ( float_of_int (Random.State.int rng 4) *. 5e-5,
              1 + (100 * Random.State.int rng 3),
              Random.State.bool rng )))
  in
  let waits =
    Array.init (Array.fold_left ( + ) 0 counts) (fun _ ->
        float_of_int (Random.State.int rng 3) *. 5e-5)
  in
  let results, r =
    Sim.run ~machine ~nprocs (fun me ->
        if me = 0 then begin
          let b = Buffer.create 256 in
          Array.iter
            (fun w ->
              Sim.compute w;
              let pending = Sim.probe ~src:(-1) ~tag:5 in
              let src, d = Sim.recv_any ~tag:5 in
              let v = match d with Sim.Floats a -> a.(0) | _ -> nan in
              Buffer.add_string b
                (Printf.sprintf "%b %d %h %h\n" pending src v (Sim.time ())))
            waits;
          Buffer.contents b
        end
        else begin
          Array.iteri
            (fun i (t, len, noise) ->
              Sim.compute t;
              if noise then Sim.send ~dst:0 ~tag:6 (Sim.Floats [| 0. |]);
              Sim.send ~dst:0 ~tag:5
                (Sim.Floats (Array.make len (float_of_int ((me * 100) + i)))))
            plan.(me);
          ""
        end)
  in
  Digest.to_hex
    (Digest.string
       (results.(0) ^ Printf.sprintf "%h %d" r.Sim.makespan r.Sim.sched_picks))

let test_recv_any_matches_full_scan () =
  List.iter
    (fun (name, machine, nprocs, seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s P=%d seed %d" name nprocs seed)
        expected
        (wildcard_digest ~machine ~nprocs ~seed))
    [
      ("meiko", Machine.meiko_cs2, 16, 1, "f1d1f220a9377f54bb52882922dc78ba");
      ("meiko", Machine.meiko_cs2, 16, 2, "5d93d68224f413d7f0b58dfb90d3fad7");
      ("meiko", Machine.meiko_cs2, 16, 3, "28d714fdd2cff51583f74cb640ba97a2");
      ("cluster", Machine.sparc20_cluster, 16, 1, "dcde64fd2da5b6e15d514b583189b0ec");
      ("cluster", Machine.sparc20_cluster, 16, 2, "ab0600a648c8c35ef101e99c2256920e");
      ("cluster", Machine.sparc20_cluster, 16, 3, "2a6382b06e9a3a00566208a8fcc480b1");
      ("fattree", Machine.fattree_default, 100, 1, "cc0ff4241dd14da06fdd6feb86c4b2d5");
      ("fattree", Machine.fattree_default, 100, 2, "076df79bc6b63958a813a43b57a97ece");
      ("fattree", Machine.fattree_default, 100, 3, "949dc4ec9413f6ab9cedd408e1349324");
    ]

let test_recv_any_deadlock_diagnostic () =
  (* A wildcard wait nobody satisfies must end the run as a deadlock
     whose diagnostic names the wildcard. *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then ignore (Sim.recv_any ~tag:9))
  with
  | exception Sim.Deadlock msg ->
      Alcotest.(check bool) "diagnostic names the wildcard wait" true
        (Testutil.contains msg "rank 0 waits for (src=any, tag=9)")
  | _ -> Alcotest.fail "unsatisfied wildcard recv must deadlock"

let test_reliable_recv_any () =
  (* The wildcard composes with the reliable (ack/retry) transport:
     sequence numbers are tracked per discovered source. *)
  let machine = Machine.with_faults ~reliable:true (lab ()) in
  let results, _ =
    Sim.run ~machine ~nprocs:3 (fun rank ->
        if rank = 0 then
          List.init 4 (fun _ ->
              match Mpisim.Reliable.recv_any ~tag:7 with
              | src, Sim.Floats [| v |] -> (src, v)
              | _ -> Alcotest.fail "unexpected payload")
          |> List.fold_left (fun acc (src, v) -> acc +. (v *. 1.) +. float_of_int src) 0.
        else begin
          Mpisim.Reliable.send ~dst:0 ~tag:7 (Sim.Floats [| float_of_int rank |]);
          Mpisim.Reliable.send ~dst:0 ~tag:7 (Sim.Floats [| float_of_int (10 * rank) |]);
          0.
        end)
  in
  (* 1 + 10 + 2 + 20 payload, 1 + 1 + 2 + 2 source ranks *)
  Testutil.check_close "all four messages, sources attributed" 39. results.(0)

(* --- timeouts and failure attribution ---------------------------------- *)

let contains = Testutil.contains

let test_deadlock_names_parties () =
  (* The diagnosis must say which rank waits for which (src, tag). *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        ignore (Sim.recv ~src:(1 - rank) ~tag:9))
  with
  | exception Sim.Deadlock msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " in diagnosis") true
            (contains msg needle))
        [ "rank 0 waits for (src=1, tag=9)"; "rank 1 waits for (src=0, tag=9)" ]
  | _ -> Alcotest.fail "cross recv must deadlock"

let test_recv_timeout_expires () =
  (* No sender: the timed receive must come back [None] at exactly the
     deadline, with the rank's clock advanced to it. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then (Sim.compute 1.; 0.)
        else begin
          match Sim.recv_opt ~src:0 ~tag:1 ~timeout:0.25 with
          | None -> Sim.time ()
          | Some _ -> -1.
        end)
  in
  Testutil.check_close "clock at deadline" 0.25 results.(1)

let test_recv_timeout_typed_exception () =
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.compute 1.
        else ignore (Sim.recv_timeout ~src:0 ~tag:3 ~timeout:0.5))
  with
  | exception Sim.Rank_failure
      { rank = 1; exn = Sim.Timeout { rank = 1; src = 0; tag = 3; waited } }
    ->
      Testutil.check_close "waited" 0.5 waited
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "recv_timeout must raise Timeout"

let test_recv_within_timeout_delivers () =
  (* The message arrives before the deadline: normal delivery. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then begin
          Sim.compute 0.1;
          Sim.send ~dst:1 ~tag:1 (Sim.Floats [| 7. |]);
          0.
        end
        else
          match Sim.recv_opt ~src:0 ~tag:1 ~timeout:5.0 with
          | Some (Sim.Floats [| x |]) -> x
          | _ -> -1.)
  in
  Testutil.check_close "delivered" 7. results.(1)

let test_protocol_error_on_wrong_kind () =
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then Sim.send ~dst:1 ~tag:1 (Sim.Ints [| 1 |])
        else ignore (Reliable.recv_floats ~src:0 ~tag:1))
  with
  | exception Sim.Rank_failure
      { exn = Sim.Protocol_error { rank = 1; src = 0; tag = 1; _ }; _ } ->
      ()
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "float receive of an int payload must be typed"

let test_ops_outside_run () =
  (* Only a running simulation has a rank to charge or to name. *)
  List.iter
    (fun (name, op) ->
      match op () with
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (name ^ " names the misuse") true
            (contains msg "called outside Sim.run")
      | _ -> Alcotest.failf "%s outside a run must be rejected" name)
    [ ("rank", fun () -> ignore (Sim.rank ())); ("flops", fun () -> Sim.flops 1.) ]

let test_recv_infinite_timeout_deadlocks () =
  (* An infinite timeout is no deadline: an unsatisfied wait is a
     deadlock naming the wait, not a [Timeout]. *)
  match
    Sim.run ~machine:(lab ()) ~nprocs:2 (fun rank ->
        if rank = 0 then ignore (Sim.recv_opt ~src:1 ~tag:9 ~timeout:infinity))
  with
  | exception Sim.Deadlock msg ->
      Alcotest.(check bool) "diagnostic names the wait" true
        (contains msg "rank 0 waits for (src=1, tag=9)")
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "an unsatisfied wait without deadline must deadlock"

(* --- random programs, and the reference simulator ----------------------- *)

(* The messaging layer a program sends through: [Reliable] on [Sim],
   or [Proto] below on either simulator. *)
module type LAYER = sig
  val send : dst:int -> tag:int -> Sim.payload -> unit
  val recv : src:int -> tag:int -> Sim.payload
  val recv_any : tag:int -> int * Sim.payload
  val sendrecv : dst:int -> tag:int -> Sim.payload -> src:int -> Sim.payload
end

(* [Reliable]'s protocol, written over [Refsim.OPS] so that it runs on
   the reference simulator too.  On a machine without [reliable] it is
   the plain operations, as [Reliable] is; on one with, the ack/retry
   protocol, step for step.  The reference comparison checks it
   against [Reliable] itself on [Sim]. *)
module Proto (O : Refsim.OPS) () : LAYER = struct
  let counters = Hashtbl.create 64

  let next key =
    let v = Option.value ~default:0 (Hashtbl.find_opt counters key) in
    Hashtbl.replace counters key (v + 1);
    v

  let rtt ~peer bytes =
    let m = O.machine () and me = O.rank () in
    let fwd = m.Machine.link me peer and back = m.Machine.link peer me in
    fwd.Machine.latency
    +. (float_of_int bytes /. fwd.Machine.bandwidth)
    +. back.Machine.latency
    +. (8. /. back.Machine.bandwidth)
    +. m.Machine.send_overhead +. m.Machine.recv_overhead

  let error ~src ~tag detail =
    raise (Sim.Protocol_error { rank = O.rank (); src; tag; detail })

  let envelope seq = function
    | Sim.Floats a -> Sim.Floats (Array.append [| float_of_int seq |] a)
    | Sim.Ints a -> Sim.Ints (Array.append [| seq |] a)
    | Sim.Window (a, off, l1, l2) ->
        Sim.Floats
          (Array.concat [ [| float_of_int seq |]; Array.sub a off l1; Array.sub a 0 l2 ])

  let unwrap ~src ~tag = function
    | Sim.Floats a when Array.length a >= 1 ->
        (int_of_float a.(0), Sim.Floats (Array.sub a 1 (Array.length a - 1)))
    | Sim.Ints a when Array.length a >= 1 ->
        (a.(0), Sim.Ints (Array.sub a 1 (Array.length a - 1)))
    | _ -> error ~src ~tag "bad envelope"

  let psend ~dst ~tag data =
    let seq = next (O.rank (), 0, dst, tag) in
    let env = envelope seq data and atag = tag + 0x400000 in
    let rec await timeout =
      match O.recv_opt ~src:dst ~tag:atag ~timeout with
      | Some (Sim.Ints [| s |]) when s = seq -> true
      | Some (Sim.Ints [| s |]) when s < seq -> await timeout
      | Some _ -> error ~src:dst ~tag:atag "bad ack"
      | None -> false
    in
    let rec attempt n timeout =
      O.send_acked ~dst ~tag ~ack_tag:atag ~seq env;
      if not (await timeout) then begin
        if n >= Reliable.max_retries then
          raise
            (Reliable.Exhausted { rank = O.rank (); dst; tag; attempts = n + 1 });
        O.note_retry ();
        attempt (n + 1) (timeout *. Reliable.backoff)
      end
    in
    attempt 0 (4. *. rtt ~peer:dst (Sim.payload_bytes env))

  (* [None]: a duplicate of a message already taken *)
  let accept ~src ~tag env =
    let seq, data = unwrap ~src ~tag env in
    let key = (O.rank (), 1, src, tag) in
    if seq = Option.value ~default:0 (Hashtbl.find_opt counters key) then begin
      ignore (next key);
      Some data
    end
    else None

  let rec precv ~src ~tag =
    let detect =
      match (O.machine ()).Machine.faults with
      | Some f when f.Machine.detect > 0. -> f.Machine.detect
      | _ -> infinity
    in
    let ladder = (Reliable.backoff ** float_of_int (Reliable.max_retries + 1)) -. 1. in
    let window = 4. *. rtt ~peer:src 65536 *. ladder /. (Reliable.backoff -. 1.) in
    match accept ~src ~tag (O.recv_timeout ~src ~tag ~timeout:(Float.max detect window)) with
    | Some d -> d
    | None -> precv ~src ~tag

  let rec precv_any ~tag =
    let src, env = O.recv_any ~tag in
    match accept ~src ~tag env with Some d -> (src, d) | None -> precv_any ~tag

  let on () = (O.machine ()).Machine.reliable
  let send ~dst ~tag data = if on () then psend ~dst ~tag data else O.send ~dst ~tag data
  let recv ~src ~tag = if on () then precv ~src ~tag else O.recv ~src ~tag
  let recv_any ~tag = if on () then precv_any ~tag else O.recv_any ~tag

  let sendrecv ~dst ~tag data ~src =
    if on () then begin
      psend ~dst ~tag data;
      precv ~src ~tag
    end
    else O.sendrecv ~dst ~tag data ~src
end

(* One round of a random program.  Every round starts with each rank
   computing for a while (times from a few values, so clocks and
   arrivals tie often) and, for some ranks, probing a key. *)
type round =
  | Exchange of { shift : int; tag : int }
      (* send to me + shift, receive from me - shift *)
  | Fan_in of { root : int; tag : int; counts : int array }
      (* [counts.(r)] messages from each rank [r] to [root], which takes
         them all by wildcard, probing the wildcard before each *)
  | Cross of { shift : int; first : int; second : int }
      (* send on [first], then on [second]; receive [second] first *)
  | Deadline of { shift : int; tag : int; skip : bool array; timeout : float }
      (* a plain send, skipped by some ranks, and a receive with a
         deadline that may expire, leaving a late message queued *)

(* A random program of [rounds] rounds on [nprocs] ranks; with
   [exchanges_only], six rounds that are all exchanges.  [fused]
   writes each exchange as one [sendrecv], otherwise as a send then a
   receive.  With [broken], one rank in one round receives from a
   rank that sends it nothing, so the run may end in a deadlock or a
   timeout.  Each rank returns its log: every probe's answer and every
   message it took (source, tag, payload, clock), so equal logs mean
   the same delivery order on every key. *)
let random_program ?(exchanges_only = false) ~seed ~nprocs ~broken ~fused () =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let rounds = if exchanges_only then 6 else 4 + int 4 in
  let shift () = 1 + int (nprocs - 1) in
  let plan =
    Array.init rounds (fun k ->
        let tag = 7 + (10 * k) in
        match if exchanges_only then 3 else int 4 with
        | 0 -> Fan_in { root = int nprocs; tag; counts = Array.init nprocs (fun _ -> int 3) }
        | 1 -> Cross { shift = shift (); first = tag; second = tag + 1 }
        | 2 ->
            Deadline
              { shift = shift (); tag = tag + 2; skip = Array.init nprocs (fun _ -> int 3 = 0);
                timeout = float_of_int (int 4) *. 5e-5 }
        | _ -> Exchange { shift = shift (); tag })
  in
  let work = Array.init rounds (fun _ -> Array.init nprocs (fun _ -> float_of_int (int 4) *. 2.5e-5)) in
  let lens = Array.init rounds (fun _ -> Array.init nprocs (fun _ -> [| 0; 1; 3; 40; 300 |].(int 5))) in
  let probes =
    Array.init rounds (fun _ ->
        Array.init nprocs (fun _ ->
            if int 3 = 0 then Some (int (nprocs + 1) - 1, 7 + (10 * int rounds) + int 3) else None))
  in
  let odd = if broken then (int rounds, int nprocs) else (-1, -1) in
  fun (module O : Refsim.OPS) (module L : LAYER) me ->
    let b = Buffer.create 256 in
    let payload k i =
      let len = lens.(k).(me) and v = float_of_int ((1000 * me) + (10 * k) + i) in
      match (me + k + i) mod 3 with
      | 0 -> Sim.Ints (Array.make len ((1000 * me) + (10 * k) + i))
      | 1 when len > 1 -> Sim.Window (Array.make (len + 2) v, 2, len - 1, 1)
      | _ -> Sim.Floats (Array.make len v)
    in
    let took src tag d =
      let n, v =
        match d with
        | Sim.Floats a -> (Array.length a, if a = [||] then nan else a.(0))
        | Sim.Ints a -> (Array.length a, if a = [||] then nan else float_of_int a.(0))
        | Sim.Window (a, _, l1, l2) -> (l1 + l2, a.(0))
      in
      Printf.bprintf b "%d/%d: %d %h at %h\n" src tag n v (O.time ())
    in
    Array.iteri
      (fun k round ->
        O.compute work.(k).(me);
        Option.iter
          (fun (src, tag) -> Printf.bprintf b "probe %d/%d %b\n" src tag (O.probe ~src ~tag))
          probes.(k).(me);
        let peers shift =
          let src = (me - shift + nprocs) mod nprocs in
          ((me + shift) mod nprocs, if odd = (k, me) then (src + 1) mod nprocs else src)
        in
        match round with
        | Exchange { shift; tag } ->
            let dst, src = peers shift in
            took src tag
              (if fused then L.sendrecv ~dst ~tag (payload k 0) ~src
               else begin
                 L.send ~dst ~tag (payload k 0);
                 L.recv ~src ~tag
               end)
        | Fan_in { root; tag; counts } when me = root ->
            for i = 1 to Array.fold_left ( + ) 0 counts - counts.(me) do
              O.compute work.(k).(i mod nprocs);
              Printf.bprintf b "any %b\n" (O.probe ~src:(-1) ~tag);
              let src, d = L.recv_any ~tag in
              took src tag d
            done
        | Fan_in { root; tag; counts } ->
            for i = 1 to counts.(me) do
              L.send ~dst:root ~tag (payload k i);
              O.compute work.(k).((me + i) mod nprocs)
            done
        | Cross { shift; first; second } ->
            let dst, src = peers shift in
            L.send ~dst ~tag:first (payload k 0);
            O.compute work.(k).(dst);
            L.send ~dst ~tag:second (payload k 1);
            took src second (L.recv ~src ~tag:second);
            took src first (L.recv ~src ~tag:first)
        | Deadline { shift; tag; skip; timeout } -> (
            let dst, src = peers shift in
            if not skip.(me) then O.send ~dst ~tag (payload k 0);
            match O.recv_opt ~src ~tag ~timeout with
            | Some d -> took src tag d
            | None -> Printf.bprintf b "%d/%d: expired at %h\n" src tag (O.time ()))
      )
      plan;
    Buffer.contents b

(* How a run ended, and everything it shows: its outcome (results, or
   the failure with its diagnostic) and the report's clocks and
   counters, floats in hex so equal means bit-identical. *)
let summarize outcome (c : Refsim.counts) =
  let floats a = String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list a)) in
  let ending, outcome =
    match outcome with
    | Ok results -> ("ok", String.concat "\n" (Array.to_list results))
    | Error (Sim.Deadlock msg) -> ("deadlock", msg)
    | Error (Sim.Rank_failure { rank; exn = Sim.Timeout { rank = w; src; tag; waited } }) ->
        ( "timeout",
          Printf.sprintf "rank %d: %d gave up on (src=%d, tag=%d) after %h" rank w src tag
            waited )
    | Error (Sim.Rank_failure { rank; exn = Sim.Peer_failed { rank = w; failed; at } }) ->
        ("peer failure", Printf.sprintf "rank %d: %d saw %d fail at %h" rank w failed at)
    | Error e -> ("other", Printexc.to_string e)
  in
  ( ending,
    Printf.sprintf
      "%s: %s\nclocks %s\ncompute %h messages %d bytes %d picks %d drops %d dups %d \
       delayed %d stalls %d retries %d acks %d kills %d queued %d\nledger %s"
      ending outcome (floats c.clocks) c.compute c.messages c.bytes c.picks c.drops
      c.dups c.delayed c.stalls c.retries c.acks c.kills c.queued
      (String.concat " | " (Array.to_list (Array.map floats c.ledger))) )

(* The categories a ledger charged something to, over every run
   [run_summary] made. *)
let charged = Array.make (Array.length Sim.ledger_categories) false

(* A run on [Sim], summarized the same way.  Its ledger must account
   for every rank's clock ([Testutil.ledger_error]). *)
let run_summary machine ~nprocs body =
  let outcome, r = Sim.run_report ~machine ~nprocs body in
  Option.iter failwith (Testutil.ledger_error r);
  Array.iter
    (Array.iteri (fun c x -> if x > 0. then charged.(c) <- true))
    r.Sim.ledger;
  summarize outcome
    {
      Refsim.clocks = r.Sim.per_rank_clock;
      messages = r.Sim.messages;
      bytes = r.Sim.bytes;
      compute = r.Sim.compute_time;
      picks = r.Sim.sched_picks;
      drops = r.Sim.drops;
      dups = r.Sim.dups;
      delayed = r.Sim.delayed;
      stalls = r.Sim.stalls;
      retries = r.Sim.retries;
      acks = r.Sim.acks;
      kills = r.Sim.kills;
      receives = 0 (* not in the report, nor in the summary *);
      queued = r.Sim.queued;
      ledger = r.Sim.ledger;
    }

let faulty spec m = Machine.with_faults ~faults:(Testutil.faults spec) m

let test_sendrecv_schedule_identity () =
  let machines =
    [
      ("meiko", Machine.meiko_cs2, 8);
      ("cluster", Machine.sparc20_cluster, 16);
      ("fattree", Machine.fattree_default, 64);
      ( "meiko --cpus 4 --map random",
        Machine.with_placement ~cpus:4 ~map:(Machine.Map_random 3)
          Machine.meiko_cs2,
        12 );
      ( "cluster, faults",
        faulty "drop=0.05,dup=0.1,delay=0.1,stall=0.1,detect=0.01,seed=4"
          Machine.sparc20_cluster,
        8 );
      ( "fattree, faults and kills",
        faulty "dup=0.1,delay=0.1,kill_rank=5,kill_time=2e-4,detect=1e-3,seed=9"
          Machine.fattree_default,
        16 );
    ]
  in
  let endings = Hashtbl.create 4 in
  List.iter
    (fun (name, machine, nprocs) ->
      for seed = 1 to 12 do
        let broken = seed mod 3 = 0 in
        let summary fused =
          run_summary machine ~nprocs
            (random_program ~exchanges_only:true ~seed ~nprocs ~broken ~fused ()
               (module Sim) (module Sim))
        in
        let ending, separate = summary false in
        Hashtbl.replace endings ending name;
        Alcotest.(check string)
          (Printf.sprintf "%s P=%d seed %d" name nprocs seed)
          separate
          (snd (summary true))
      done)
    machines;
  (* the programs reach every kind of ending *)
  List.iter
    (fun ending ->
      if not (Hashtbl.mem endings ending) then
        Alcotest.failf "no program ended with a %s (only with: %s)" ending
          (String.concat ", " (List.of_seq (Hashtbl.to_seq_keys endings))))
    [ "ok"; "deadlock"; "timeout"; "peer failure" ]

(* The machines the reference comparison runs on, with P: each model
   plain and under a placement, and with faults, with and without the
   reliable layer.  The fault seed is the case's. *)
let reference_machines =
  let f spec m seed = faulty (Printf.sprintf "%s,seed=%d" spec seed) m in
  let rel m = { m with Machine.reliable = true } in
  [|
    ("meiko", (fun _ -> Machine.meiko_cs2), 6);
    ("cluster", (fun _ -> Machine.sparc20_cluster), 10);
    ("fattree", (fun _ -> Machine.fattree_default), 20);
    ( "meiko --cpus 3 --map random",
      (fun _ -> Machine.with_placement ~cpus:3 ~map:(Machine.Map_random 5) Machine.meiko_cs2),
      8 );
    ( "cluster --cpus 4 --map cyclic",
      (fun _ -> Machine.with_placement ~cpus:4 ~map:Machine.Map_cyclic Machine.sparc20_cluster),
      9 );
    ( "fattree --cpus 6 --map block",
      (fun _ -> Machine.with_placement ~cpus:6 ~map:Machine.Map_block Machine.fattree_default),
      16 );
    ( "cluster, faults",
      f "drop=0.05,dup=0.1,delay=0.1,stall=0.1,degrade=0.3,detect=0.01" Machine.sparc20_cluster,
      8 );
    ( "cluster, kills",
      f "kill=0.2,kill_window=2e-3,detect=1e-3" Machine.sparc20_cluster,
      8 );
    ( "meiko, faults, reliable",
      (fun seed -> rel (f "drop=0.1,dup=0.1,delay=0.1,detect=0.05" Machine.meiko_cs2 seed)),
      6 );
    ( "fattree, faults and a kill, reliable",
      (fun seed ->
        rel
          (f "dup=0.1,delay=0.1,stall=0.05,kill_rank=3,kill_time=4e-4,detect=1e-3"
             Machine.fattree_default seed)),
      12 );
  |]

let reference_endings = Hashtbl.create 8

(* One case: a random program on one machine, on [Sim] with [Reliable]
   and on the reference simulator with [Proto]; on a reliable machine
   also on [Sim] with [Proto], which pins [Proto] to [Reliable]. *)
let reference_case (config, seed) =
  let name, machine, nprocs = reference_machines.(config) in
  let machine = machine seed in
  let program =
    random_program ~seed ~nprocs ~broken:(seed mod 4 = 0) ~fused:(seed mod 2 = 0) ()
  in
  let ending, fast =
    run_summary machine ~nprocs (program (module Sim) (module Reliable))
  in
  Hashtbl.replace reference_endings ending ();
  let reference =
    let module P = Proto (Refsim) () in
    let outcome, c = Refsim.run_report ~machine ~nprocs (program (module Refsim) (module P)) in
    (* message conservation: every message sent, and every duplicate,
       was received, dropped, or is still queued *)
    if c.messages + c.dups <> c.receives + c.drops + c.queued then
      QCheck.Test.fail_reportf
        "%s P=%d seed %d: %d sent + %d duplicated <> %d received + %d dropped + %d \
         queued"
        name nprocs seed c.messages c.dups c.receives c.drops c.queued;
    snd (summarize outcome c)
  in
  let mirror () =
    let module P = Proto (Sim) () in
    snd (run_summary machine ~nprocs (program (module Sim) (module P)))
  in
  if fast <> reference then
    QCheck.Test.fail_reportf "%s P=%d seed %d\n--- Sim:\n%s\n--- reference:\n%s" name nprocs
      seed fast reference;
  if machine.Machine.reliable && fast <> mirror () then
    QCheck.Test.fail_reportf "%s seed %d: Proto on Sim differs from Reliable" name seed;
  true

let reference_prop =
  QCheck.Test.make ~count:500 ~long_factor:40
    ~name:"the reference simulator agrees on random programs"
    QCheck.(
      make
        ~print:(fun (c, s) -> Printf.sprintf "%s, seed %d" (let n, _, _ = reference_machines.(c) in n) s)
        Gen.(pair (int_bound (Array.length reference_machines - 1)) (int_range 1 1_000_000)))
    reference_case

(* The comparison, and then a check that its cases reached every kind
   of ending. *)
let test_reference =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]) reference_prop
  in
  ( name,
    speed,
    fun () ->
      Hashtbl.reset reference_endings;
      Array.fill charged 0 (Array.length charged) false;
      run ();
      List.iter
        (fun e ->
          if not (Hashtbl.mem reference_endings e) then
            Alcotest.failf "no reference case ended with a %s" e)
        [ "ok"; "deadlock"; "timeout"; "peer failure" ];
      (* and that the runs charged every ledger category *)
      Array.iteri
        (fun c hit ->
          if not hit then
            Alcotest.failf "no reference case charged %s" Sim.ledger_categories.(c))
        charged )

let test_machine_lookup () =
  let is name m =
    match Machine.by_name name with
    | Some found -> found == m
    | None -> false
  in
  Alcotest.(check bool) "meiko" true (is "meiko" Machine.meiko_cs2);
  Alcotest.(check bool) "smp" true (is "smp" Machine.enterprise_smp);
  Alcotest.(check bool) "cluster" true (is "cluster" Machine.sparc20_cluster);
  Alcotest.(check bool) "beowulf" true (is "beowulf" Machine.beowulf);
  Alcotest.(check bool) "unknown" true (Machine.by_name "cray" = None)

let test_cluster_topology () =
  (* intra-node links are fast, inter-node links go over the Ethernet *)
  let m = Machine.sparc20_cluster in
  let intra = m.Machine.link 0 3 and inter = m.Machine.link 3 4 in
  Alcotest.(check bool) "intra faster" true
    (intra.Machine.latency < inter.Machine.latency /. 10.);
  Alcotest.(check bool) "ethernet shared" true
    (inter.Machine.channel <> None
    && inter.Machine.channel = (m.Machine.link 8 0).Machine.channel);
  Alcotest.(check bool) "ethernet is not a node bus" true
    (List.for_all
       (fun node_pair ->
         (m.Machine.link node_pair (node_pair + 1)).Machine.channel
         <> inter.Machine.channel)
       [ 0; 4; 8; 12 ]);
  Alcotest.(check bool) "node buses distinct" true
    ((m.Machine.link 0 1).Machine.channel <> (m.Machine.link 4 5).Machine.channel)

(* --- virtual-rank placement and the fat-tree model --------------------- *)

(* A ring exchange whose per-rank results capture finish times. *)
let ring_spmd nprocs rank =
  let next = (rank + 1) mod nprocs and prev = (rank + nprocs - 1) mod nprocs in
  Sim.compute 1e-4;
  Sim.send ~dst:next ~tag:7 (Sim.Floats (Array.make 64 (float_of_int rank)));
  ignore (Sim.recv ~src:prev ~tag:7);
  Sim.time ()

let test_placement_identity () =
  (* one CPU per rank under Map_block is the identity mapping: the run
     must be bit-identical to the same machine without a placement *)
  let m = lab () in
  let mp = Machine.with_placement ~cpus:8 ~map:Machine.Map_block m in
  let r1, rep1 = Sim.run ~machine:m ~nprocs:8 (ring_spmd 8) in
  let r2, rep2 = Sim.run ~machine:mp ~nprocs:8 (ring_spmd 8) in
  Alcotest.(check (array (float 0.))) "per-rank times identical" r1 r2;
  Alcotest.(check (float 0.)) "makespan identical" rep1.Sim.makespan
    rep2.Sim.makespan;
  Alcotest.(check int) "messages identical" rep1.Sim.messages rep2.Sim.messages

let test_placement_serializes_compute () =
  (* 8 ranks on 1 CPU: the compute phases cannot overlap, so the
     makespan is at least 8x the single-rank compute *)
  let work = 1e-3 in
  let run cpus =
    let m = Machine.with_placement ~cpus ~map:Machine.Map_block (lab ()) in
    let _, r = Sim.run ~machine:m ~nprocs:8 (fun _ -> Sim.compute work) in
    r.Sim.makespan
  in
  Alcotest.(check bool) "1 CPU serializes" true (run 1 >= 8. *. work -. 1e-12);
  Alcotest.(check bool) "8 CPUs overlap" true (run 8 < 2. *. work)

let test_placement_random_deterministic () =
  let time seed =
    let m =
      Machine.with_placement ~cpus:4 ~map:(Machine.Map_random seed) (lab ())
    in
    let _, r = Sim.run ~machine:m ~nprocs:16 (ring_spmd 16) in
    r.Sim.makespan
  in
  Alcotest.(check (float 0.)) "same seed, same schedule" (time 11) (time 11)

let test_mapping_of_string () =
  Alcotest.(check bool) "block" true
    (Machine.mapping_of_string "block" = Some Machine.Map_block);
  Alcotest.(check bool) "cyclic" true
    (Machine.mapping_of_string "cyclic" = Some Machine.Map_cyclic);
  Alcotest.(check bool) "random seeded" true
    (Machine.mapping_of_string ~seed:9 "random" = Some (Machine.Map_random 9));
  Alcotest.(check bool) "unknown" true
    (Machine.mapping_of_string "spiral" = None)

let test_oversubscribe_needs_placement () =
  (* more ranks than CPUs without a placement: the diagnostic points at
     --cpus/--map rather than failing with a bare bounds error *)
  match Sim.run ~machine:(lab ()) ~nprocs:65 (fun _ -> ()) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions --cpus" true
        (Testutil.contains msg "--cpus")
  | _ -> Alcotest.fail "65 ranks on a 64-CPU machine should be rejected"

let test_fattree_topology () =
  (* radix 2, 3 levels: 8 leaves; 0<->1 share a leaf switch, 0<->7 cross
     the root, so the far link is strictly slower and uses a different
     contention channel *)
  let m = Machine.fattree ~radix:2 ~levels:3 () in
  let near = m.Machine.link 0 1 and far = m.Machine.link 0 7 in
  Alcotest.(check bool) "far latency higher" true
    (far.Machine.latency > near.Machine.latency);
  Alcotest.(check bool) "near channel exists" true
    (near.Machine.channel <> None);
  Alcotest.(check bool) "channels differ" true
    (near.Machine.channel <> far.Machine.channel);
  Alcotest.(check bool) "self link local" true
    ((m.Machine.link 3 3).Machine.latency <= near.Machine.latency)

let test_fattree_large_p_smoke () =
  (* the heap scheduler sustains a 1024-rank ring on the default tree *)
  let m = Machine.fattree_default in
  let _, r = Sim.run ~machine:m ~nprocs:1024 (ring_spmd 1024) in
  Alcotest.(check int) "all messages delivered" 1024 r.Sim.messages;
  Alcotest.(check bool) "scheduler picks counted" true (r.Sim.sched_picks > 0)

(* Minor page faults of this process so far; None without procfs.
   minflt is the 10th field of /proc/self/stat, the 8th after the
   parenthesised command name. *)
let minor_faults () =
  match open_in "/proc/self/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let l =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
      in
      let r = String.rindex l ')' in
      let rest = String.sub l (r + 2) (String.length l - r - 2) in
      Some (int_of_string (List.nth (String.split_on_char ' ' rest) 7))

(* 64 live 1 MB blocks (OCaml puts every block over 128 words in the C
   heap), then a full collection frees them all.  With the heap kept,
   the third round reuses the pages the first two faulted in; glibc's
   default policy returns them to the kernel and faults all 16 k back
   in. *)
let test_heap_kept () =
  let round () =
    let blocks = List.init 64 (fun _ -> Array.make 131072 1.) in
    ignore (Sys.opaque_identity blocks);
    Gc.full_major ()
  in
  round ();
  round ();
  match (Sim.heap_kept, minor_faults ()) with
  | false, _ | _, None -> ()
  | true, Some before ->
      round ();
      let faults = Option.get (minor_faults ()) - before in
      if faults >= 4096 then
        Alcotest.failf "a round over freed heap took %d minor faults" faults

(* A fat-tree grown past its 4096 nodes: rank 4500 hangs off the top
   tier, so its message to rank 0 crosses the root switch, the channel
   of the in-tree pair 0 <-> 4095. *)
let test_fattree_past_max_procs () =
  let m = Machine.with_procs 5000 Machine.fattree_default in
  let top = (m.Machine.link 0 4095).Machine.channel in
  Alcotest.(check bool) "rank 4500 rides the top tier" true
    ((m.Machine.link 4500 0).Machine.channel = top);
  Alcotest.(check bool) "so do two ranks past the tree" true
    ((m.Machine.link 4500 4999).Machine.channel = top);
  let results, r =
    Sim.run ~machine:m ~nprocs:5000 (fun rank ->
        if rank = 4500 then Sim.send ~dst:0 ~tag:1 (Sim.Floats [| 42. |]);
        if rank = 0 then
          match Sim.recv ~src:4500 ~tag:1 with
          | Sim.Floats [| v |] -> v
          | _ -> nan
        else 0.)
  in
  Alcotest.(check (float 0.)) "rank 0 received the value" 42. results.(0);
  Alcotest.(check int) "one message" 1 r.Sim.messages

let test_fattree_bad_shape () =
  (match Machine.fattree ~radix:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "radix 1 should be rejected");
  match Machine.fattree ~levels:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 levels should be rejected"

(* A rank's collective keys at P = 1024 spread over its message index:
   the Bruck allgather receives from me + 2^k (tag 1004) and recursive
   doubling from me xor 2^k (tag 1006).  Hashed by identity, the
   twenty keys of rank 0 land in a few slots, and a lookup probes 16
   of them. *)
let test_mailbox_hash_spreads () =
  let p = 1024 in
  List.iter
    (fun me ->
      let keys =
        List.concat_map
          (fun k -> [ ((me + (1 lsl k)) mod p, 1004); (me lxor (1 lsl k), 1006) ])
          (List.init 10 Fun.id)
      in
      let worst = Sim.index_longest_probe keys in
      if worst > 4 then
        Alcotest.failf "rank %d: a lookup probes %d slots" me worst)
    [ 0; 777 ]

(* Live heap words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The setup transpose of CG at P = 1024 queues every message at once.
   Here each of 256 ranks sends one shared one-float payload to every
   other rank, computes for a second, then receives in source order:
   when the first receive returns, all 65,280 messages are queued, and
   the simulator state around them is what the run added to the live
   heap.  A mailbox per (destination, source, tag) kept about 19 words
   per message. *)
let test_queued_messages_keep_little_state () =
  let p = 256 in
  let queued = p * (p - 1) in
  let before = live_words () in
  let per_message = ref nan in
  ignore
    (Sim.run ~machine:Machine.fattree_default ~nprocs:p (fun me ->
         let data = Sim.Floats [| float_of_int me |] in
         for dst = 0 to p - 1 do
           if dst <> me then Sim.send ~dst ~tag:5 data
         done;
         Sim.compute 1.;
         for src = 0 to p - 1 do
           if src <> me then begin
             ignore (Sim.recv ~src ~tag:5);
             if Float.is_nan !per_message then
               per_message :=
                 float_of_int (live_words () - before) /. float_of_int queued
           end
         done));
  if !per_message > 8. then
    Alcotest.failf "%.1f live words per queued message, want at most 8"
      !per_message

(* Two bursts of 70,000 messages from rank 0 to rank 1, each taken in
   order: the run's message store grows past 2^16 slots, gives its
   arrays back once the first burst is drained, and grows again for
   the second. *)
let test_burst_space_given_back () =
  let n = 70_000 in
  ignore
    (Sim.run ~machine:(lab ()) ~nprocs:2 (fun me ->
         (* Rank 0 starts each burst 10 s after the last: rank 1 measures
            an empty run first, and has drained a burst before the next. *)
         let base = if me = 1 then live_words () else 0 in
         for burst = 0 to 1 do
           if me = 0 then
             for i = 0 to n - 1 do
               if i = 0 then Sim.compute 10.;
               Sim.send ~dst:1 ~tag:burst (Sim.Ints [| i |])
             done
           else begin
             Sim.compute 1.;
             for i = 0 to n - 1 do
               match Sim.recv ~src:0 ~tag:burst with
               | Sim.Ints [| j |] when j = i -> ()
               | _ -> Alcotest.failf "burst %d: message %d out of order" burst i
             done;
             let kept = live_words () - base in
             if kept > 10_000 then
               Alcotest.failf "burst %d drained, %d words still kept" burst kept
           end
         done))

(* A probe only reads: probing keys that hold no message, from one
   source or any, leaves nothing behind. *)
let test_probe_is_read_only () =
  ignore
    (Sim.run ~machine:(lab ()) ~nprocs:2 (fun me ->
         if me = 0 then begin
           let before = live_words () in
           for tag = 0 to 99_999 do
             if Sim.probe ~src:1 ~tag || Sim.probe ~src:(-1) ~tag then
               Alcotest.fail "nothing was sent"
           done;
           let kept = live_words () - before in
           if kept >= 1000 then
             Alcotest.failf "100,000 probes kept %d heap words" kept
         end))

(* The death of a rank that has returned is no event.  Rank 1 returns
   at t = 0 and is scheduled to die at t = 0.01; rank 0 computes for a
   second, then sends to itself and receives.  Scheduling the death
   anyway counted rank 1 finished twice and stopped the run after three
   picks with [Rank_killed], rank 0's message never taken. *)
let test_no_death_after_return () =
  let machine =
    faulty "kill_rank=1,kill_time=0.01" Machine.meiko_cs2
  in
  match
    Sim.run_report ~machine ~nprocs:2 (fun me ->
        if me = 0 then begin
          Sim.compute 1.;
          Sim.send ~dst:0 ~tag:1 (Sim.Floats [| 42. |]);
          match Sim.recv ~src:0 ~tag:1 with Sim.Floats [| v |] -> v | _ -> nan
        end
        else 0.)
  with
  | Ok results, r ->
      Alcotest.(check (float 0.)) "rank 0 took its message" 42. results.(0);
      Alcotest.(check int) "no kill" 0 r.Sim.kills
  | Error e, r ->
      Alcotest.failf "the run failed after %d picks: %s" r.Sim.sched_picks
        (Printexc.to_string e)

(* A wildcard receive only reads the destination's index: 100,000 of
   them on distinct tags, each taking one message, leave nothing
   behind.  Rank 1 computes before each send, so one message is queued
   at a time. *)
let test_recv_any_keeps_no_state () =
  ignore
    (Sim.run ~machine:(lab ()) ~nprocs:2 (fun me ->
         let n = 100_000 in
         if me = 0 then begin
           let before = live_words () in
           for tag = 0 to n - 1 do
             match Sim.recv_any ~tag with
             | 1, Sim.Ints [| i |] when i = tag -> ()
             | _ -> Alcotest.failf "recv_any on tag %d took the wrong message" tag
           done;
           let kept = live_words () - before in
           if kept >= 1000 then
             Alcotest.failf "100,000 wildcard receives kept %d heap words" kept
         end
         else
           for tag = 0 to n - 1 do
             Sim.compute 1e-3;
             Sim.send ~dst:0 ~tag (Sim.Ints [| tag |])
           done))

let suite =
  [
    t "compute advances the clock" test_compute_advances_clock;
    t "flops use the machine rate" test_flops_use_machine_rate;
    t "message timing" test_message_timing;
    t "receiver waits for arrival" test_receiver_waits_for_arrival;
    t "sends are eager" test_sender_does_not_block;
    t "FIFO per (src, tag)" test_fifo_order_per_pair;
    t "tags demultiplex" test_tags_demultiplex;
    t "send hands the payload over" test_send_hands_payload_over;
    t "shared channel serializes" test_shared_channel_serializes;
    t "contention follows virtual time" test_contention_respects_virtual_time;
    t "determinism" test_determinism;
    t "deadlock detection" test_deadlock_detection;
    t "bad ranks rejected" test_bad_ranks_rejected;
    t "rank exception propagates" test_rank_exception_propagates;
    t "exception after communication" test_exception_after_communication;
    t "deadlock diagnosis names parties" test_deadlock_names_parties;
    t "recv_any delivers in arrival order" test_recv_any_earliest_arrival;
    t "recv_any tie goes to lowest source" test_recv_any_tie_lowest_source;
    t "recv_any matches as the full scan did" test_recv_any_matches_full_scan;
    t "probe with any-source wildcard" test_probe_any_source;
    t "unsatisfied recv_any deadlocks with diagnosis"
      test_recv_any_deadlock_diagnostic;
    t "recv_any over the reliable transport" test_reliable_recv_any;
    t "recv timeout expires" test_recv_timeout_expires;
    t "recv timeout raises typed" test_recv_timeout_typed_exception;
    t "recv within timeout delivers" test_recv_within_timeout_delivers;
    t "protocol error is typed" test_protocol_error_on_wrong_kind;
    t "operations outside a run are rejected" test_ops_outside_run;
    t "infinite timeout deadlocks with diagnosis"
      test_recv_infinite_timeout_deadlocks;
    t "sendrecv keeps the schedule of send then recv"
      test_sendrecv_schedule_identity;
    test_reference;
    t "machine lookup" test_machine_lookup;
    t "cluster topology" test_cluster_topology;
    t "placement: identity mapping is bit-identical" test_placement_identity;
    t "placement: one CPU serializes compute"
      test_placement_serializes_compute;
    t "placement: random map is seed-deterministic"
      test_placement_random_deterministic;
    t "placement: mapping names parse" test_mapping_of_string;
    t "oversubscription needs a placement" test_oversubscribe_needs_placement;
    t "fat-tree: near/far latency and channels" test_fattree_topology;
    t "fat-tree: 1024-rank ring smoke" test_fattree_large_p_smoke;
    t "fat-tree: bad shapes rejected" test_fattree_bad_shape;
    t "fat-tree: grown past its size"
      test_fattree_past_max_procs;
    t "freed C heap is kept for the next run" test_heap_kept;
    t "mailbox keys spread over the hash buckets" test_mailbox_hash_spreads;
    t "queued messages keep little simulator state"
      test_queued_messages_keep_little_state;
    t "probes keep no state" test_probe_is_read_only;
    t "a drained burst gives its space back" test_burst_space_given_back;
    t "a rank that has returned cannot die" test_no_death_after_return;
    t "wildcard receives keep no state" test_recv_any_keeps_no_state;
  ]
