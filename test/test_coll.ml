(* Collective-operation tests: correctness against sequential
   references for every operation, on assorted processor counts,
   plus qcheck properties. *)

module Sim = Mpisim.Sim
module Coll = Mpisim.Coll

let t name f = Alcotest.test_case name `Quick f
let machine = Mpisim.Machine.meiko_cs2
let procs = [ 1; 2; 3; 4; 7; 8; 16 ]

let on_all_p body check =
  List.iter
    (fun p ->
      let results, _ = Sim.run ~machine ~nprocs:p body in
      Array.iteri (fun r v -> check ~p ~r v) results)
    procs

let test_bcast () =
  List.iter
    (fun root ->
      let results, _ =
        Sim.run ~machine ~nprocs:8 (fun rank ->
            let data = if rank = root then [| 3.; 1.; 4. |] else [||] in
            Coll.bcast ~root data)
      in
      Array.iteri
        (fun r v ->
          Testutil.check_array_close
            (Printf.sprintf "bcast root=%d rank=%d" root r)
            [| 3.; 1.; 4. |] v)
        results)
    [ 0; 1; 5; 7 ]

let test_reduce_sum () =
  let results, _ =
    Sim.run ~machine ~nprocs:8 (fun rank ->
        Coll.reduce ~root:0 ~op:Coll.Sum [| float_of_int rank; 1. |])
  in
  Testutil.check_array_close "root value" [| 28.; 8. |] results.(0)

let test_allreduce_ops () =
  let inputs p rank = float_of_int ((rank * 3 mod p) + 1) in
  List.iter
    (fun (op, reference) ->
      on_all_p
        (fun rank ->
          let p = Sim.size () in
          Coll.allreduce_scalar ~op (inputs p rank))
        (fun ~p ~r v ->
          let expected =
            let vals = List.init p (fun rk -> inputs p rk) in
            List.fold_left reference (List.hd vals) (List.tl vals)
          in
          Testutil.check_close (Printf.sprintf "P=%d rank=%d" p r) expected v))
    [
      (Coll.Sum, ( +. ));
      (Coll.Prod, ( *. ));
      (Coll.Min, Float.min);
      (Coll.Max, Float.max);
    ]

let test_allreduce_logical () =
  let results, _ =
    Sim.run ~machine ~nprocs:4 (fun rank ->
        let has = if rank = 2 then 1. else 0. in
        ( Coll.allreduce_scalar ~op:Coll.Lor has,
          Coll.allreduce_scalar ~op:Coll.Land has ))
  in
  Array.iter
    (fun (any_v, all_v) ->
      Testutil.check_close "lor" 1. any_v;
      Testutil.check_close "land" 0. all_v)
    results

let test_gatherv () =
  on_all_p
    (fun rank ->
      let p = Sim.size () in
      let counts = Array.init p (fun i -> i + 1) in
      let local = Array.make counts.(rank) (float_of_int rank) in
      Coll.gatherv ~root:0 ~counts local)
    (fun ~p ~r v ->
      if r = 0 then begin
        let expected =
          Array.concat
            (List.init p (fun i -> Array.make (i + 1) (float_of_int i)))
        in
        Testutil.check_array_close (Printf.sprintf "gatherv P=%d" p) expected v
      end
      else Alcotest.(check int) "non-root empty" 0 (Array.length v))

let test_allgatherv () =
  on_all_p
    (fun rank ->
      let p = Sim.size () in
      let counts = Array.init p (fun i -> ((i * 2) mod 3) + 1) in
      let local =
        Array.init counts.(rank) (fun k -> (float_of_int rank *. 10.) +. float_of_int k)
      in
      Coll.allgatherv ~counts local)
    (fun ~p ~r v ->
      let counts = Array.init p (fun i -> ((i * 2) mod 3) + 1) in
      let expected =
        Array.concat
          (List.init p (fun i ->
               Array.init counts.(i) (fun k ->
                   (float_of_int i *. 10.) +. float_of_int k)))
      in
      Testutil.check_array_close (Printf.sprintf "allgatherv P=%d rank=%d" p r)
        expected v)

let test_allgatherv_empty_blocks () =
  (* More ranks than elements: some blocks are empty. *)
  let results, _ =
    Sim.run ~machine ~nprocs:8 (fun rank ->
        let counts = [| 0; 2; 0; 1; 0; 0; 3; 0 |] in
        let base = [| 10.; 11.; 30.; 60.; 61.; 62. |] in
        let offset = [| 0; 0; 2; 2; 3; 3; 3; 6 |] in
        let local = Array.sub base offset.(rank) counts.(rank) in
        Coll.allgatherv ~counts local)
  in
  Array.iter
    (fun v ->
      Testutil.check_array_close "empty blocks" [| 10.; 11.; 30.; 60.; 61.; 62. |] v)
    results

(* The doubling allgather (P > 64) on the fat-tree, against
   [Array.concat] of the blocks.  Block [i] holds 1000 i + k, so a
   block unpacked at the wrong offset shows.  Every shape has windows
   that wrap past rank P-1; the last two put data only at the wrap
   point, and at P=1024 the block shape is p1024-cg's (512 elements
   over 1024 ranks, every other block empty).  The block shape also
   runs through [allgatherv_offset] with [Dist.low] offsets, the way
   [Dmat.to_dense] calls it. *)
let test_allgatherv_doubling () =
  let machine = Mpisim.Machine.fattree_default in
  let shapes p =
    [
      ("uneven", Array.init p (fun i -> ((i * 7) mod 5) + 1));
      ( "empty blocks",
        Array.init p (fun i -> if i mod 3 = 1 then 0 else (i mod 4) + 1) );
      ("more ranks than elements", Runtime.Dist.counts ~nprocs:p ~n:(p / 2));
      ( "data at the wrap only",
        Array.init p (fun i -> if i = 0 then 2 else if i = p - 1 then 3 else 0)
      );
      ("last rank only", Array.init p (fun i -> if i = p - 1 then 4 else 0));
    ]
  in
  let block i c = Array.init c (fun k -> float_of_int ((1000 * i) + k)) in
  List.iter
    (fun p ->
      List.iter
        (fun (shape, counts) ->
          let expected =
            Array.concat (Array.to_list (Array.mapi block counts))
          in
          let results, _ =
            Sim.run ~machine ~nprocs:p (fun rank ->
                Coll.allgatherv ~counts (block rank counts.(rank)))
          in
          Array.iteri
            (fun r v ->
              if v <> expected then
                Alcotest.failf "allgatherv %s P=%d: rank %d's result differs"
                  shape p r)
            results)
        (shapes p);
      let n = p / 2 in
      let low r = Runtime.Dist.low ~rank:r ~nprocs:p ~n in
      let expected = Array.init n float_of_int in
      let results, _ =
        Sim.run ~machine ~nprocs:p (fun rank ->
            Coll.allgatherv_offset ~offset:low
              (Array.init
                 (low (rank + 1) - low rank)
                 (fun k -> float_of_int (low rank + k))))
      in
      Array.iteri
        (fun r v ->
          if v <> expected then
            Alcotest.failf "allgatherv_offset P=%d: rank %d's result differs"
              p r)
        results)
    [ 65; 100; 130; 1024 ]

(* The ownership rule: every collective but the allgather returns an
   array its caller owns, and none sends its caller's argument.  Each
   rank snapshots its result, then at once overwrites the result and
   its argument with NaN; a result another rank shares, or an argument
   still queued in a message, then shows NaN there.  The data are small
   integers, so every sum is exact and the snapshots must equal the
   sequential reference bit for bit.  The odd sizes take the
   allreduce's surplus ranks. *)
let test_results_caller_owned () =
  let machine = Mpisim.Machine.fattree_default in
  let input r = Array.init 3 (fun k -> float_of_int ((10 * r) + k)) in
  let block r = Array.init (r mod 3) (fun k -> float_of_int ((10 * r) + k)) in
  let own arg result =
    let snap = Array.copy result in
    Array.fill result 0 (Array.length result) Float.nan;
    Array.fill arg 0 (Array.length arg) Float.nan;
    snap
  in
  List.iter
    (fun p ->
      let root = p / 2 in
      let counts = Array.init p (fun r -> r mod 3) in
      let gathered = Array.concat (List.init p block) in
      let sum =
        Array.init 3 (fun k ->
            List.fold_left ( +. ) 0. (List.init p (fun r -> (input r).(k))))
      in
      let check name expected body =
        let results, _ = Sim.run ~machine ~nprocs:p body in
        Array.iteri
          (fun r got ->
            match expected r with
            | Some e when got <> e ->
                Alcotest.failf "%s P=%d: rank %d's result differs" name p r
            | _ -> ())
          results
      in
      let everywhere e _ = Some e in
      let with_input coll r =
        let a = input r in
        own a (coll a)
      and with_block coll r =
        let a = block r in
        own a (coll a)
      in
      check "bcast" (everywhere (input root)) (with_input (Coll.bcast ~root));
      check "bcast_linear" (everywhere (input root))
        (with_input (Coll.bcast_linear ~root));
      check "reduce"
        (fun r -> if r = root then Some sum else None)
        (with_input (Coll.reduce ~root ~op:Coll.Sum));
      check "allreduce" (everywhere sum) (with_input (Coll.allreduce ~op:Coll.Sum));
      check "gatherv"
        (fun r -> Some (if r = root then gathered else [||]))
        (with_block (Coll.gatherv ~root ~counts));
      check "exscan"
        (fun r -> Some [| float_of_int (10 * (r * (r - 1) / 2)) |])
        (fun r -> [| Coll.exscan ~op:Coll.Sum ~identity:0. (float_of_int (10 * r)) |]))
    [ 1; 2; 3; 5; 7; 8; 65; 96 ]

(* The allgather's result is a read-only view: past 64 ranks peers read
   windows of it after its rank has returned.  A caller that writes
   copies first, so each rank copies its result and NaN-fills the copy
   and its argument; every rank's original result must still equal
   the sequential reference.  In the second pass one rank starts a
   second late, so it returns while the peers it sent windows to have
   yet to read them.  P=65 and above take the doubling schedule; the
   data are small integers, so the comparison is bit for bit. *)
let test_allgatherv_read_only_views () =
  let machine = Mpisim.Machine.fattree_default in
  let block r = Array.init (r mod 3) (fun k -> float_of_int ((10 * r) + k)) in
  List.iter
    (fun p ->
      let counts = Array.init p (fun r -> r mod 3) in
      let gathered = Array.concat (List.init p block) in
      List.iter
        (fun late ->
          let results, _ =
            Sim.run ~machine ~nprocs:p (fun r ->
                if r = late then Sim.compute 1.0;
                let arg = block r in
                let result = Coll.allgatherv ~counts arg in
                let mine = Array.copy result in
                Array.fill mine 0 (Array.length mine) Float.nan;
                Array.fill arg 0 (Array.length arg) Float.nan;
                result)
          in
          Array.iteri
            (fun r got ->
              if got <> gathered then
                Alcotest.failf "allgatherv P=%d (late rank %d): rank %d's \
                                result differs" p late r)
            results)
        [ -1; p / 2 ])
    [ 1; 2; 3; 5; 7; 8; 65; 96; 256 ]

(* Allocation guard for the doubling allgather.  Under a fault model
   each rank gathers into a private array, and the rounds send windows
   of it, so a run allocates little beyond the P gathered arrays
   themselves; packing each round's window into a buffer of its own
   costs about as much again (2.0x), and the bound is 1.25x.  On a
   fault-free machine the P ranks share one gathered array, so the run
   allocates a few operands' worth, not P of them: the result, the P
   local blocks, and about a hundred words of effect and mailbox
   records per message (about 6 operands in all at P = 256, against
   the 257 of a private result per rank).  The bound is 8. *)
let test_allgatherv_allocation () =
  let fattree = Mpisim.Machine.fattree_default in
  let p = 256 and b = 256 in
  let counts = Array.make p b in
  let expected = Array.init (p * b) float_of_int in
  let words machine =
    let before = Gc.allocated_bytes () in
    let results, _ =
      Sim.run ~machine ~nprocs:p (fun r ->
          Coll.allgatherv ~counts (Array.sub expected (r * b) b) = expected)
    in
    let words = (Gc.allocated_bytes () -. before) /. 8. in
    Array.iteri
      (fun r ok -> if not ok then Alcotest.failf "rank %d's result differs" r)
      results;
    words
  in
  let operand = float_of_int (p * b) in
  let faulty =
    words
      (Mpisim.Machine.with_faults ~faults:(Testutil.faults "seed=1") fattree)
  in
  if faulty >= 1.25 *. float_of_int p *. operand then
    Alcotest.failf
      "allgatherv at P=%d under a fault model allocated %.2fx the gathered \
       arrays" p
      (faulty /. (float_of_int p *. operand));
  let shared = words fattree in
  if shared >= 8. *. operand then
    Alcotest.failf "fault-free allgatherv at P=%d allocated %.2f operands" p
      (shared /. operand)

(* The shared-result rule ([Sim.gather_buffer]): on a fault-free
   machine every rank's allgather result for one call is the same
   physical array, holding the rank-order concatenation.  P = 2, 3 and
   64 take the ring, 65 and 200 the doubling schedule; the blocks are
   uneven and some are empty. *)
let test_allgatherv_shared () =
  let machine = Mpisim.Machine.fattree_default in
  let block r = Array.init (r mod 3) (fun k -> float_of_int ((10 * r) + k)) in
  List.iter
    (fun p ->
      let counts = Array.init p (fun r -> r mod 3) in
      let expected = Array.concat (List.init p block) in
      let results, _ =
        Sim.run ~machine ~nprocs:p (fun r -> Coll.allgatherv ~counts (block r))
      in
      Array.iteri
        (fun r v ->
          if v != results.(0) then
            Alcotest.failf "P=%d: rank %d's result is not rank 0's array" p r;
          if v <> expected then
            Alcotest.failf "P=%d: rank %d's result differs" p r)
        results)
    [ 2; 3; 64; 65; 200 ]

(* Under a fault model every rank keeps a private result, filled from
   the messages alone, so this is the test of the message data path
   that fault-free runs no longer take.  One model fires nothing, one
   drops and duplicates messages under the reliable layer; the shapes
   make windows that wrap past rank P-1.  Results must be distinct
   arrays with bit-identical contents. *)
let test_allgatherv_private_under_faults () =
  let fattree = Mpisim.Machine.fattree_default in
  let block i c = Array.init c (fun k -> float_of_int ((1000 * i) + k) /. 7.) in
  List.iter
    (fun (label, machine) ->
      List.iter
        (fun p ->
          List.iter
            (fun counts ->
              let expected =
                Array.concat (Array.to_list (Array.mapi block counts))
              in
              let results, _ =
                Sim.run ~machine ~nprocs:p (fun r ->
                    Coll.allgatherv ~counts (block r counts.(r)))
              in
              Array.iteri
                (fun r v ->
                  if r > 0 && v == results.(r - 1) then
                    Alcotest.failf "%s P=%d: ranks %d and %d share a result"
                      label p (r - 1) r;
                  if
                    Array.length v <> Array.length expected
                    || not
                         (Array.for_all2
                            (fun a b ->
                              Int64.equal (Int64.bits_of_float a)
                                (Int64.bits_of_float b))
                            v expected)
                  then
                    Alcotest.failf "%s P=%d: rank %d's result differs" label p
                      r)
                results)
            [
              Array.init p (fun i -> ((i * 7) mod 5) + 1);
              Array.init p (fun i ->
                  if i = 0 then 2 else if i = p - 1 then 3 else 0);
            ])
        [ 3; 7; 65; 130 ])
    [
      ( "no faults fire",
        Mpisim.Machine.with_faults ~faults:(Testutil.faults "seed=1") fattree );
      ( "reliable drops and duplicates",
        Mpisim.Machine.with_faults ~reliable:true
          ~faults:(Testutil.faults "drop=0.05,dup=0.05,seed=3")
          fattree );
    ]

(* A shared result lives only as long as some rank holds it: the run
   drops the table's handle once all P ranks have taken theirs.  Rank
   0 keeps a weak reference to each of 100 results at P = 65 and then
   collects; all but the last two calls' arrays must be gone (another
   rank may still be inside the last call or hold its result). *)
let test_allgatherv_buffers_released () =
  let machine = Mpisim.Machine.fattree_default in
  let p = 65 and calls = 100 in
  let counts = Array.make p 64 in
  let results, _ =
    Sim.run ~machine ~nprocs:p (fun r ->
        let seen = Weak.create calls in
        for i = 0 to calls - 1 do
          let g = Coll.allgatherv ~counts (Array.make 64 (float_of_int i)) in
          if r = 0 then Weak.set seen i (Some g)
        done;
        if r > 0 then 0
        else begin
          Gc.full_major ();
          let live = ref 0 in
          for i = 0 to calls - 3 do
            if Weak.check seen i then incr live
          done;
          !live
        end)
  in
  Alcotest.(check int) "earlier results still reachable" 0 results.(0)

(* The sharing is keyed by call order: a rank asking for another length
   at the same call index gets a private array, and so does every
   later rank of that call.  Ranks that disagree on the counts still
   fail the way they did before sharing, with a typed protocol error
   naming both lengths. *)
let test_allgatherv_length_disagreement () =
  let machine = Mpisim.Machine.fattree_default in
  let takes, _ =
    Sim.run ~machine ~nprocs:3 (fun r ->
        Sim.compute (float_of_int r);
        let a = Sim.gather_buffer (if r = 1 then 6 else 5) in
        let b = Sim.gather_buffer 4 in
        (Option.is_some a, Option.is_some b))
  in
  Alcotest.(check (array (pair bool bool)))
    "who shares" [| (true, true); (false, true); (false, true) |] takes;
  List.iter
    (fun p ->
      let outcome, _ =
        Sim.run_report ~machine ~nprocs:p (fun r ->
            let counts = Array.make p 2 in
            if r = p - 1 then counts.(0) <- 3;
            Coll.allgatherv ~counts (Array.make 2 (float_of_int r)))
      in
      match outcome with
      | Error (Sim.Rank_failure { exn = Sim.Protocol_error { detail; _ }; _ })
        ->
          if
            not
              (String.starts_with ~prefix:"allgather: expected" detail)
          then Alcotest.failf "P=%d: detail %S" p detail
      | Error e ->
          Alcotest.failf "P=%d: expected a protocol error, got %s" p
            (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "P=%d: disagreeing counts went unnoticed" p)
    [ 4; 65 ]

let test_barrier_synchronizes () =
  let results, _ =
    Sim.run ~machine ~nprocs:4 (fun rank ->
        Sim.compute (float_of_int rank);
        Coll.barrier ();
        Sim.time ())
  in
  (* After the barrier every clock is at least the slowest rank's. *)
  Array.iter
    (fun t -> Alcotest.(check bool) "post-barrier clock" true (t >= 3.0))
    results

let test_bcast_cost_scales_log () =
  let time p =
    let _, r =
      Sim.run ~machine ~nprocs:p (fun _ ->
          ignore (Coll.bcast ~root:0 (Array.make 16 0.)))
    in
    r.Sim.makespan
  in
  (* binomial tree: 16 CPUs need 4 rounds where 2 CPUs need 1, so the
     cost grows like log P, not linearly *)
  Alcotest.(check bool) "log growth" true (time 16 < 4.5 *. time 2);
  Alcotest.(check bool) "far below linear" true (time 16 < 8. *. time 2)

(* qcheck: allreduce sum equals the sequential sum for random vectors
   and processor counts. *)
let allreduce_prop =
  QCheck.Test.make ~count:60 ~name:"allreduce sum == sequential sum"
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.int_range 1 8) (float_range (-100.) 100.)))
    (fun (p, vals) ->
      let arr = Array.of_list vals in
      let results, _ =
        Sim.run ~machine ~nprocs:p (fun rank ->
            let local = Array.map (fun x -> x +. float_of_int rank) arr in
            Coll.allreduce ~op:Coll.Sum local)
      in
      let expected =
        Array.map
          (fun x ->
            let s = ref 0. in
            for rk = 0 to p - 1 do
              s := !s +. x +. float_of_int rk
            done;
            !s)
          arr
      in
      Array.for_all
        (fun got ->
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) got expected)
        results)

let suite =
  [
    t "broadcast (all roots)" test_bcast;
    t "reduce sum" test_reduce_sum;
    t "allreduce arithmetic ops" test_allreduce_ops;
    t "allreduce logical ops" test_allreduce_logical;
    t "gatherv" test_gatherv;
    t "allgatherv" test_allgatherv;
    t "allgatherv with empty blocks" test_allgatherv_empty_blocks;
    t "doubling allgatherv on the fat-tree" test_allgatherv_doubling;
    t "collective results are caller-owned" test_results_caller_owned;
    t "allgatherv results are read-only views" test_allgatherv_read_only_views;
    t "allgatherv allocates little beyond its result" test_allgatherv_allocation;
    t "barrier synchronizes" test_barrier_synchronizes;
    t "broadcast cost is logarithmic" test_bcast_cost_scales_log;
    QCheck_alcotest.to_alcotest allreduce_prop;
    t "fault-free allgather results are one shared array"
      test_allgatherv_shared;
    t "allgather results are private under a fault model"
      test_allgatherv_private_under_faults;
    t "shared allgather results do not outlive their call"
      test_allgatherv_buffers_released;
    t "allgather ranks disagreeing on lengths do not share"
      test_allgatherv_length_disagreement;
  ]
