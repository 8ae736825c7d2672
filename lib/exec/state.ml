(* The executor's value representation, structured results, failure
   classes, checkpoint format and recovery driver.

   [Tcode] executes SPMD programs on the simulator; this module holds
   what the rest of the compiler sees of a run: values, captured
   results, the typed failure classes otterc maps to exit codes, and
   the checkpoint/rollback driver.  Decoding and frame layout stay in
   [Tcode]. *)

open Spmd
module Dmat = Runtime.Dmat
module Ops = Runtime.Ops

exception Runtime_error of string

let error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

type value =
  | Vscalar of float
  | Vmat of Dmat.t (* an array of any rank >= 2 *)
  | Vstr of string

exception Break_exc
exception Continue_exc

(* --- dispatch throughput counter ------------------------------------------ *)

(* Instructions executed since the caller last reset this, summed over
   ranks: one per decoded op dispatched plus one per step of each
   scalar program evaluated (the units the decode listing prints).
   Benchmarks divide it by wall time to get executor throughput. *)
let dispatched = ref 0

(* --- scalar semantics ------------------------------------------------------ *)

let truthy f = f <> 0.
let of_bool b = if b then 1. else 0.

let rkind_to_red = function
  | Ir.Rsum -> Ops.Rsum
  | Ir.Rprod -> Ops.Rprod
  | Ir.Rmin -> Ops.Rmin
  | Ir.Rmax -> Ops.Rmax
  | Ir.Rany -> Ops.Rany
  | Ir.Rall -> Ops.Rall
  | Ir.Rmean -> Ops.Rsum (* handled separately *)

(* MATLAB colon ranges, shared by sections and the [Crange] constructor:
   lo : step : hi with the usual end-point slop. *)
let range_indices lo step hi =
  let n =
    if step = 0. then 0
    else
      let raw = ((hi -. lo) /. step) +. 1e-9 in
      if raw < 0. then 0 else int_of_float (Float.floor raw) + 1
  in
  Array.init n (fun k -> int_of_float (lo +. (float_of_int k *. step)) - 1)

(* --- instruction classification ------------------------------------------ *)

(* Human-readable operation names for failure attribution: when a rank
   dies mid-run, the executor reports what it was doing. *)
let inst_name : Ir.inst -> string = function
  | Ir.Iscalar _ -> "scalar assignment"
  | Ir.Ielem _ -> "element-wise expression"
  | Ir.Icopy _ -> "matrix copy"
  | Ir.Ilib { fn; _ } -> (
      match fn with
      | Ir.Lmatmul -> "matrix multiply"
      | Ir.Lmatmul_t -> "transposed matrix multiply"
      | Ir.Ldot -> "dot product"
      | Ir.Ltranspose -> "transpose"
      | Ir.Ldiag -> "diagonal"
      | Ir.Louter -> "outer product"
      | Ir.Lreduce_all _ -> "full reduction"
      | Ir.Lreduce_cols _ -> "column reduction"
      | Ir.Lnorm -> "norm"
      | Ir.Lscan _ -> "cumulative scan"
      | Ir.Ltrapz -> "trapezoidal integration"
      | Ir.Lshift _ -> "circular shift")
  | Ir.Isort _ -> "sort"
  | Ir.Ireduce_loc _ -> "indexed reduction"
  | Ir.Ibcast _ -> "element broadcast"
  | Ir.Ibcast_batch _ -> "batched element broadcast"
  | Ir.Ireduce_fused _ -> "fused allreduce"
  | Ir.Isetelem _ -> "element assignment"
  | Ir.Iload _ -> "data file load"
  | Ir.Iconstruct _ -> "matrix constructor"
  | Ir.Iliteral _ -> "matrix literal"
  | Ir.Isection _ -> "section read"
  | Ir.Isetsection _ -> "section assignment"
  | Ir.Iconcat _ -> "matrix concatenation"
  | Ir.Icalluser _ -> "user function call"
  | Ir.Iprint _ -> "print"
  | Ir.Iprintf _ -> "formatted output"
  | Ir.Ierror _ -> "error statement"
  | Ir.Iif _ -> "if statement"
  | Ir.Iwhile _ -> "while loop"
  | Ir.Ifor _ -> "for loop"
  | Ir.Ibreak | Ir.Icontinue | Ir.Ireturn -> "control transfer"
  | Ir.Impi_rank _ -> "MPI_Comm_rank"
  | Ir.Impi_size _ -> "MPI_Comm_size"
  | Ir.Impi_send _ -> "MPI_Send"
  | Ir.Impi_recv _ -> "MPI_Recv"
  | Ir.Impi_bcast _ -> "MPI_Bcast"
  | Ir.Impi_probe _ -> "MPI_Probe"

(* --- explicit message passing (MatlabMPI-style builtins) ----------------- *)

(* User-visible tags ride in their own tag space, above the collectives
   (1001..1006), the run-time library (3001..3004) and below the
   transport acks (0x400000 + tag); the front end bounds user tags at
   1e6 so the spaces stay disjoint. *)
let mpi_tag_base = 2_000_000
let mpi_user_tag tag = mpi_tag_base + tag

(* The explicit broadcast has its own tag, outside the user space. *)
let tag_mpi_bcast = 1_999_999

(* Wire format: a scalar is [|0.; v|]; a matrix is [|1.; rows; cols|]
   followed by its dense row-major elements.  The receiver rebuilds a
   rank-local replica (Dmat.full), so everything it does with the value
   afterwards stays local -- explicit messages may be sent and received
   from inside rank-divergent control flow. *)
let mpi_encode op (v : value) : Mpisim.Sim.payload =
  match v with
  | Vscalar f -> Mpisim.Sim.Floats [| 0.; f |]
  | Vmat m ->
      if not (Dmat.is_matrix m) then
        error
          "%s: cannot send a tensor; slice it into matrices or scalars first"
          op;
      if not m.Dmat.full then
        error
          "%s: cannot send a distributed matrix; MPI_Bcast it into a \
           per-rank replica first"
          op;
      Mpisim.Sim.Floats
        (Array.append
           [| 1.; float_of_int m.Dmat.rows; float_of_int m.Dmat.cols |]
           m.Dmat.data)
  | Vstr _ -> error "%s: cannot send a string" op

(* A window is a collective's payload, never a user message: one here
   is malformed traffic, a protocol error rather than a program error. *)
let mpi_decode op ~src ~tag (p : Mpisim.Sim.payload) : value =
  match p with
  | Mpisim.Sim.Floats [| 0.; v |] -> Vscalar v
  | Mpisim.Sim.Floats a
    when Array.length a >= 3
         && a.(0) = 1.
         && Array.length a
            = 3 + (int_of_float a.(1) * int_of_float a.(2)) ->
      let rows = int_of_float a.(1) and cols = int_of_float a.(2) in
      Vmat (Dmat.of_full ~rows ~cols (Array.sub a 3 (rows * cols)))
  | Mpisim.Sim.Floats _ | Mpisim.Sim.Ints _ ->
      error "%s: malformed message payload" op
  | Mpisim.Sim.Window _ ->
      raise
        (Mpisim.Sim.Protocol_error
           {
             rank = Mpisim.Sim.rank ();
             src;
             tag;
             detail = op ^ ": a collective's window payload is not a message";
           })

let mpi_check_rank op what r =
  let nprocs = Mpisim.Sim.size () in
  if r < 0 || r >= nprocs then
    error "%s: %s rank %d is outside 0..%d" op what r (nprocs - 1)

(* Receives and probes additionally admit the MPI_ANY_SOURCE wildcard,
   spelled -1 at the MATLAB level. *)
let mpi_any_source = -1

let mpi_check_source op r =
  let nprocs = Mpisim.Sim.size () in
  if r <> mpi_any_source && (r < 0 || r >= nprocs) then
    error "%s: source rank %d is outside 0..%d (use -1 for any source)" op r
      (nprocs - 1)

let mpi_send ~dst ~tag (v : value) =
  mpi_check_rank "MPI_Send" "destination" dst;
  Mpisim.Reliable.send ~dst ~tag:(mpi_user_tag tag) (mpi_encode "MPI_Send" v)

(* [is_matrix] is the compiler's joined view of everything sent under
   this tag; a scalar that arrives where the join says matrix (another
   send on the tag ships matrices) is promoted to a 1x1 replica. *)
let mpi_recv ~src ~tag ~is_matrix : value =
  mpi_check_source "MPI_Recv" src;
  let utag = mpi_user_tag tag in
  let src, payload =
    if src = mpi_any_source then Mpisim.Reliable.recv_any ~tag:utag
    else (src, Mpisim.Reliable.recv ~src ~tag:utag)
  in
  let v = mpi_decode "MPI_Recv" ~src ~tag:utag payload in
  match v with
  | Vscalar f when is_matrix -> Vmat (Dmat.of_full ~rows:1 ~cols:1 [| f |])
  | Vmat _ when not is_matrix ->
      error "MPI_Recv: a matrix arrived where a scalar was expected"
  | v -> v

let mpi_probe ~src ~tag : float =
  mpi_check_source "MPI_Probe" src;
  if Mpisim.Sim.probe ~src ~tag:(mpi_user_tag tag) then 1. else 0.

(* The explicit broadcast.  A distributed operand is executed by every
   rank (uniform control flow, like any collective), so replicating it
   is an allgather and the root is irrelevant; a replica or scalar is
   genuinely the root's private value, shipped point-to-point to each
   other rank.  Indexed assignment writes the replica in place, and
   [Dmat.to_dense]'s result is read-only (peers may still read windows
   of it); [Dmat.of_full] copies, which keeps the two apart. *)
let mpi_bcast ~root (v : value) : value =
  mpi_check_rank "MPI_Bcast" "root" root;
  match v with
  | Vmat m when (not m.Dmat.full) && Dmat.is_matrix m ->
      Vmat (Dmat.of_full ~rows:m.Dmat.rows ~cols:m.Dmat.cols (Dmat.to_dense m))
  | v ->
      let me = Mpisim.Sim.rank () and nprocs = Mpisim.Sim.size () in
      if me = root then begin
        let p = mpi_encode "MPI_Bcast" v in
        for r = 0 to nprocs - 1 do
          if r <> root then Mpisim.Reliable.send ~dst:r ~tag:tag_mpi_bcast p
        done;
        match v with Vmat m -> Vmat (Dmat.copy m) | s -> s
      end
      else
        mpi_decode "MPI_Bcast" ~src:root ~tag:tag_mpi_bcast
          (Mpisim.Reliable.recv ~src:root ~tag:tag_mpi_bcast)

(* --- structured results --------------------------------------------------- *)

type captured = Runtime.Captured.t =
  | Cscalar of float
  | Cmat of int * int * float array
  | Cnd of int array * float array

(* Bitwise equality of two captured values: same kind, same shape, and
   every element exactly equal, with NaN equal to NaN (a recovered or
   replayed run must reproduce NaNs too). *)
let captured_equal (a : captured) (b : captured) =
  let eqf (x : float) y = x = y || (Float.is_nan x && Float.is_nan y) in
  match (a, b) with
  | Cscalar x, Cscalar y -> eqf x y
  | Cmat (r1, c1, d1), Cmat (r2, c2, d2) ->
      r1 = r2 && c1 = c2 && Array.for_all2 eqf d1 d2
  | Cnd (s1, d1), Cnd (s2, d2) -> s1 = s2 && Array.for_all2 eqf d1 d2
  | _ -> false

type outcome = {
  output : string;
  captures : (string * captured) list;
  lib_calls : int;
  report : Mpisim.Sim.report;
}

(* Why a run attempt died, coarsened to the classes the recovery driver
   and otterc's exit codes care about. *)
type failure_kind =
  | Ftimeout (* a receive deadline expired *)
  | Fprotocol (* malformed traffic: a bug, not the network *)
  | Fkilled (* the fault model permanently killed a rank *)
  | Fpeer (* the failure detector condemned a dead peer *)
  | Fexhausted (* a sender ran out of retransmissions *)
  | Fdeadlock (* every live rank blocked *)
  | Fruntime (* an error in the program itself *)

let classify_failure = function
  | Mpisim.Sim.Timeout _ -> Ftimeout
  | Mpisim.Sim.Protocol_error _ -> Fprotocol
  | Mpisim.Sim.Rank_killed _ -> Fkilled
  | Mpisim.Sim.Peer_failed _ -> Fpeer
  | Mpisim.Reliable.Exhausted _ -> Fexhausted
  | Mpisim.Sim.Deadlock _ -> Fdeadlock
  | _ -> Fruntime

(* Rollback-and-replay can only cure what the network (or the fault
   model) did; program bugs and protocol violations would just fail
   identically again. *)
let recoverable = function
  | Ftimeout | Fkilled | Fpeer | Fexhausted -> true
  | Fprotocol | Fdeadlock | Fruntime -> false

type run_result =
  | Complete of outcome
  | Partial of {
      failed_rank : int;
      operation : string;
      detail : string;
      kind : failure_kind;
      report : Mpisim.Sim.report;
    }

(* What went wrong on the failing rank, in one line. *)
let describe_failure = function
  | Runtime_error m | Failure m -> m
  | Mpisim.Sim.Timeout { src; tag; waited; _ } ->
      Printf.sprintf
        "gave up after %.3gs waiting for a message (src=%d, tag=%d)" waited
        src tag
  | Mpisim.Sim.Protocol_error { src; tag; detail; _ } ->
      Printf.sprintf "protocol error on message (src=%d, tag=%d): %s" src tag
        detail
  | Mpisim.Reliable.Exhausted { dst; tag; attempts; _ } ->
      Printf.sprintf
        "gave a message up for lost after %d attempts (dst=%d, tag=%d)"
        attempts dst tag
  | Mpisim.Sim.Peer_failed { failed; at; _ } ->
      Printf.sprintf "detected failure of rank %d at t=%.4gs" failed at
  | Mpisim.Sim.Rank_killed { at; _ } ->
      Printf.sprintf "permanently killed by the fault model at t=%.4gs" at
  | e -> Printexc.to_string e

(* --- the shared checkpoint format ----------------------------------------- *)

type snapshot = {
  sn_boundary : int; (* which boundary (attempt-local counter) *)
  sn_pc : int; (* the op to resume at *)
  sn_tags : int array; (* the top frame by slot, hidden loop slots too *)
  sn_sc : float array;
  sn_vals : value array; (* deep copies of matrix, tensor, string slots *)
  sn_rand_calls : int; (* replicated RNG sequence number *)
  sn_calls : int; (* executed library calls so far *)
  sn_out : string; (* rank 0: the output prefix; "" elsewhere *)
}

let copy_value = function
  | Vmat m -> Vmat (Dmat.copy m)
  | (Vscalar _ | Vstr _) as v -> v

(* Per-rank checkpoint cursor for one run attempt.  [ck_slots] is the
   host-side store shared with the recovery driver; each rank keeps its
   two newest snapshots so that, when a failure lands between a
   boundary's commit on some ranks and not others, every rank can still
   produce the newest boundary common to all (commitment is a
   collective, so latest boundaries differ by at most one). *)
type ck = {
  ck_interval : float;
  ck_slots : snapshot list array; (* per rank, newest first, length <= 2 *)
  mutable ck_next : float; (* virtual time of the next wanted snapshot *)
  mutable ck_boundary : int;
}

(* A checkpoint boundary: every rank reaches these in lockstep (the
   compiled programs are loosely synchronous, so top-level control flow
   is replicated).  Whether to snapshot is decided by collective vote
   -- per-rank clocks drift, so "my interval elapsed" can differ across
   ranks, but the or-vote gives every rank the same verdict.  Starts
   with [ck_next = 0], so the first boundary of every attempt commits:
   that re-establishes the restore point right after a rollback.

   The executor supplies [save] (a copy of its top frame) and
   bookkeeping counters; the vote, the slot rotation and the snapshot
   layout live here. *)
let at_boundary ck ~rk ~save ~rand_calls ~calls ~out pc =
  ck.ck_boundary <- ck.ck_boundary + 1;
  let want = Mpisim.Sim.time () >= ck.ck_next in
  if Mpisim.Coll.vote want then begin
    let sn_tags, sn_sc, sn_vals = save () in
    let snap =
      {
        sn_boundary = ck.ck_boundary;
        sn_pc = pc;
        sn_tags;
        sn_sc;
        sn_vals;
        sn_rand_calls = rand_calls;
        sn_calls = calls;
        sn_out = (if rk = 0 then Buffer.contents out else "");
      }
    in
    let kept = match ck.ck_slots.(rk) with [] -> [] | s :: _ -> [ s ] in
    ck.ck_slots.(rk) <- snap :: kept;
    ck.ck_next <- Mpisim.Sim.time () +. ck.ck_interval
  end

(* --- the recovery driver -------------------------------------------------- *)

type recovery = {
  r_result : run_result; (* the final attempt's result *)
  r_attempts : int; (* run attempts made (1 = no recovery needed) *)
  r_gave_up : bool;
      (* a recoverable failure outlived the budget of a run that asked
         for recovery (a checkpoint interval or a retry budget) *)
  r_reports : Mpisim.Sim.report list; (* one per attempt, oldest first *)
  r_penalty : float; (* simulated backoff seconds charged before retries *)
}

let backoff_base = 0.05 (* simulated seconds before the first retry *)

(* Rollback-and-replay around the executor's [attempt] function:
   checkpoints are taken (collectively) every [ckpt_interval] simulated
   seconds; on a recoverable failure every rank rolls back to the
   newest snapshot common to all ranks (or to program start when there
   is none) and replays, with exponential simulated backoff, at most
   [max_recoveries] times.  Replay is deterministic — locals, RNG
   sequence numbers and the output prefix are part of the snapshot — so
   a recovered run is bit-identical to an undisturbed one.  Each retry
   re-rolls the fault model's kill schedule (see [Sim.run]'s [attempt]
   salt); non-recoverable failures and exhausted budgets surface as the
   final [Partial]. *)
let run_recovering_with ~nprocs ~ckpt_interval ~max_recoveries
    (attempt :
      attempt:int ->
      slots:snapshot list array ->
      restore:snapshot array option ->
      run_result * Mpisim.Sim.report) : recovery =
  let slots : snapshot list array = Array.make nprocs [] in
  (* The newest boundary every rank holds a snapshot for.  Commitment
     is collective, so latest boundaries differ by at most one across
     ranks and the two kept slots always cover the common one. *)
  let restore_set () =
    if ckpt_interval <= 0. then None
    else
      let latest =
        Array.map
          (function [] -> None | (s : snapshot) :: _ -> Some s.sn_boundary)
          slots
      in
      if Array.exists Option.is_none latest then None
      else
        let target =
          Array.fold_left (fun acc l -> min acc (Option.get l)) max_int latest
        in
        let picks =
          Array.map (List.find_opt (fun s -> s.sn_boundary = target)) slots
        in
        if Array.exists Option.is_none picks then None
        else Some (Array.map Option.get picks)
  in
  let recovering = ckpt_interval > 0. || max_recoveries > 0 in
  let reports = ref [] in
  let penalty = ref 0. in
  let rec go att =
    let restore = restore_set () in
    let result, report = attempt ~attempt:att ~slots ~restore in
    reports := report :: !reports;
    let finish gave_up =
      {
        r_result = result;
        r_attempts = att + 1;
        r_gave_up = gave_up;
        r_reports = List.rev !reports;
        r_penalty = !penalty;
      }
    in
    match result with
    | Complete _ -> finish false
    | Partial p ->
        if not (recoverable p.kind) then finish false
        else if att >= max_recoveries then finish recovering
        else begin
          penalty := !penalty +. (backoff_base *. (2. ** float_of_int att));
          go (att + 1)
        end
  in
  go 0
