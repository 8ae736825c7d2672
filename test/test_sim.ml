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
  (* Both workers send at t=0 over identical links: the tie must go to
     the lowest source rank, deterministically. *)
  let results, _ =
    Sim.run ~machine:(lab ()) ~nprocs:3 (fun rank ->
        if rank = 0 then begin
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

let test_fattree_bad_shape () =
  (match Machine.fattree ~radix:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "radix 1 should be rejected");
  match Machine.fattree ~levels:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 levels should be rejected"

(* A rank's collective mailboxes at P = 1024 spread over the buckets:
   the Bruck allgather receives from me + 2^k (tag 1004) and recursive
   doubling from me xor 2^k (tag 1006).  With an identity hash the
   twenty keys of rank 0 share 16 buckets with a 12-long chain. *)
let test_mailbox_hash_spreads () =
  let p = 1024 in
  List.iter
    (fun me ->
      let t = Machine.Int_tbl.create 8 in
      for k = 0 to 9 do
        Machine.Int_tbl.add t ((1004 lsl 20) lor ((me + (1 lsl k)) mod p)) ();
        Machine.Int_tbl.add t ((1006 lsl 20) lor (me lxor (1 lsl k))) ()
      done;
      let s = Machine.Int_tbl.stats t in
      if s.Hashtbl.max_bucket_length > 6 then
        Alcotest.failf "rank %d: %d keys, longest chain %d of %d buckets" me
          s.Hashtbl.num_bindings s.Hashtbl.max_bucket_length
          s.Hashtbl.num_buckets)
    [ 0; 777 ]

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
    t "freed C heap is kept for the next run" test_heap_kept;
    t "mailbox keys spread over the hash buckets" test_mailbox_hash_spreads;
  ]
