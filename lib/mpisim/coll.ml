(* Collective operations built from point-to-point messages, so their
   cost emerges from the machine's link model.  Every member of a
   collective's group calls it in the same order, and a rank outside
   the group counts the call (the compiled programs are loosely
   synchronous, which guarantees this).  The allgather and the
   all-to-all take a [group]; every other collective spans all ranks.

   Each algorithm is a schedule, a pure function from group size,
   position and block sizes to rounds ([Sched], which describes each
   one), and one runner, [run], executes them all.

   All point-to-point traffic is routed through [Reliable], which is a
   transparent pass-through to [Sim] unless the machine requests the
   ack/retry layer -- in which case the collectives survive dropped,
   duplicated, and delayed messages with unchanged results.

   Payloads change hands by reference (see [Sim.send]): no function
   here writes an element after sending it or writes an element it
   received, and none sends its caller's argument.  Every collective
   but the allgather returns an array its caller owns and may write --
   never one that was sent or received -- so the copies this costs are
   made once per collective, at the few sites below that hand a shared
   array back.  The allgather's result is read-only: its rounds send
   windows of it, which a peer may still read after this rank has
   returned, and on a fault-free machine every rank of one call shares
   it (see [allgatherv_group]). *)

type op = Sum | Prod | Min | Max | Land | Lor

let apply_op op a b =
  match op with
  | Sum -> a +. b
  | Prod -> a *. b
  | Min | Max ->
      (* MATLAB min/max ignore NaN, so the combine skips NaN operands;
         ranks with nothing to contribute send NaN as the identity *)
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if op = Min then Float.min a b
      else Float.max a b
  | Land -> if a <> 0. && b <> 0. then 1. else 0.
  | Lor -> if a <> 0. || b <> 0. then 1. else 0.

let tag_bcast = 1001
let tag_gather = 1003
let tag_ring = 1004
let tag_scan = 1005
let tag_allreduce = 1006
let tag_alltoall = 1007

(* A collective's group: [size] members at positions [0, size), the
   member at position [g] being rank [rank g], and the running rank at
   position [pos] (-1: outside).  Every member calls the group's
   collectives in the same order; a rank outside calls them too, and
   only counts the call (see [allgatherv_group]).  Schedules speak
   positions, and [run] sends to and receives from [rank] of them; the
   all-ranks communicator is the identity group. *)
type group = { size : int; pos : int; rank : int -> int }

(* Without reliable delivery a dropped message lets the channel hand
   over a later round's block instead, which must fail as a protocol
   error rather than be copied into the wrong place. *)
let check_length ~what ~src ~tag n got =
  if got <> n then
    Reliable.protocol_error ~src ~tag
      (Printf.sprintf "%s: expected %d floats, received %d" what n got)

(* The one place a collective touches the network: send [out] to rank
   [dst] and receive from rank [src] (-1: neither), as one
   [Reliable.sendrecv] when both.  Returns what was received. *)
let exchange ~tag ~dst out ~src =
  if src < 0 then begin
    if dst >= 0 then Reliable.send ~dst ~tag out;
    out
  end
  else if dst < 0 then Reliable.recv ~src ~tag
  else Reliable.sendrecv ~dst ~tag out ~src

(* A received block as a float array of [m] floats (any length when
   [m] is negative). *)
let block ~what ~tag ~src m got =
  let a = Reliable.floats ~src ~tag got in
  if m >= 0 then check_length ~what ~src ~tag m (Array.length a);
  a

let recv_block ~what ~src ~tag n =
  block ~what ~tag ~src n (exchange ~tag ~dst:(-1) (Sim.Floats [||]) ~src)

(* What a round sends of [buf]: the array itself, a window of it (the
   blocks it covers are complete and no later round writes them, so
   the receiver may read it whenever it gets there), or a packed copy
   of Bruck's runs, which later rounds overwrite. *)
let payload buf span =
  let n = Array.length buf in
  match span with
  | Sched.All | Sched.Any -> Sim.Floats buf
  | Sched.Window (off, len) ->
      let l1 = min len (n - off) in
      Sim.Window (buf, off, l1, len - l1)
  | Sched.Runs r ->
      let out = Array.create_float (Sched.length n span) and at = ref 0 in
      Sched.iter_runs n r (fun s len ->
          Array.blit buf s out !at len;
          at := !at + len);
      Sim.Floats out

(* Element-wise combine into a fresh array, the received block [b] on
   the [left] or right, accounting one flop per element.  Fresh,
   because either operand may be a sent or received array that must
   not be written. *)
let combine op ~left (acc : float array) (b : float array) =
  let n = Array.length acc and one = Array.length b = 1 in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    let x = b.(if one then 0 else i) in
    out.(i) <- (if left then apply_op op x acc.(i) else apply_op op acc.(i) x)
  done;
  Sim.flops (float_of_int n);
  out

(* Copy the [m] floats received as [a.(off .. off+m1-1)] then
   [a.(0 .. m-m1-1)] to [out]'s spans [dst, dst + l1) and [0, m - l1),
   unless [out] is [shared] (its blocks' owners have written them
   already): at most three blits. *)
let place_spans ~shared ~out ~dst l1 a off m1 m =
  if not shared then begin
    let i = ref 0 in
    while !i < m do
      (* the longest run from float [!i] on that is contiguous on both
         sides *)
      let s, s_run =
        if !i < m1 then (off + !i, m1 - !i) else (!i - m1, m - !i)
      in
      let d, d_run =
        if !i < l1 then (dst + !i, l1 - !i) else (!i - l1, m - !i)
      in
      let len = min s_run d_run in
      Array.blit a s out d len;
      i := !i + len
    done
  end

(* Place a received block into [span] of [buf].  A window arrives as
   sent, or, under reliable delivery, as the flattened [Floats] of one;
   either way its floats come in order from at most two source spans. *)
let place ~what ~tag ~src ~shared buf span got =
  let n = Array.length buf in
  let m = Sched.length n span in
  match span with
  | Sched.Runs r ->
      let a = block ~what ~tag ~src m got and at = ref 0 in
      Sched.iter_runs n r (fun s len ->
          Array.blit a !at buf s len;
          at := !at + len)
  | _ -> (
      let dst = match span with Sched.Window (off, _) -> off | _ -> 0 in
      let l1 = min m (n - dst) in
      match got with
      | Sim.Window (a, off, m1, m2) ->
          check_length ~what ~src ~tag m (m1 + m2);
          place_spans ~shared ~out:buf ~dst l1 a off m1 m
      | got ->
          let a = block ~what ~tag ~src m got in
          place_spans ~shared ~out:buf ~dst l1 a 0 m m)

(* The runner's state, one per call: how positions map to ranks, what
   to name in a protocol error, and the working array. *)
type state = {
  rank : int -> int;
  what : string;
  tag : int;
  op : op;
  shared : bool;  (* skip the copies of [Place] (see [allgatherv_group]) *)
  mutable buf : float array;
  mutable owned : bool;  (* [buf] was neither sent nor received *)
}

let state ?(rank = Fun.id) ?(op = Sum) ?(shared = false) ~what ~tag buf =
  { rank; what; tag; op; shared; buf; owned = true }

(* The one runner, which every schedule calls once per round: map the
   round's peers from positions to ranks, send its span, receive and
   length-check a block, and forward, combine or place it.  A combine
   makes a fresh array, so nothing sent is ever written. *)
let run st ~dst ~send ~src ~recv step =
  let what = st.what and tag = st.tag in
  let dst = if dst < 0 then -1 else st.rank dst
  and src = if src < 0 then -1 else st.rank src in
  let m =
    match recv with
    | Sched.Any -> -1
    | span -> Sched.length (Array.length st.buf) span
  in
  let out = if dst < 0 then Sim.Floats [||] else payload st.buf send in
  if dst >= 0 then st.owned <- false;
  let got = exchange ~tag ~dst out ~src in
  if src >= 0 then
    match step with
    | Sched.Place -> place ~what ~tag ~src ~shared:st.shared st.buf recv got
    | Sched.Forward ->
        st.buf <- block ~what ~tag ~src m got;
        st.owned <- false
    | Sched.Combine left ->
        st.buf <- combine st.op ~left st.buf (block ~what ~tag ~src m got);
        st.owned <- true

(* The final working array, copied if it was sent or received, so the
   caller may write it. *)
let result st = if st.owned then st.buf else Array.copy st.buf

(* Broadcast: the root copies [data] once and that one array travels
   the whole tree; every receiver keeps a copy of what it forwards. *)
let bcast_on sched ~root (data : float array) : float array =
  let me = Sim.rank () in
  let init = if me = root then Array.copy data else [||] in
  let st = state ~what:"bcast" ~tag:tag_bcast init in
  sched ~root (Sim.size ()) me run st;
  if me = root then data else result st

let bcast ~root data = bcast_on Sched.tree ~root data
let bcast_linear ~root data = bcast_on Sched.flat ~root data

(* Every rank combines in the schedule's order -- lower positions on
   the left -- so every rank's result is bit-identical (required by the
   loosely synchronous model, where the value often steers replicated
   control flow).  The working array starts as a copy of [data]: never
   send the caller's array. *)
let allreduce ~op (data : float array) : float array =
  let st = state ~op ~what:"allreduce" ~tag:tag_allreduce (Array.copy data) in
  Sched.allreduce (Sim.size ()) (Sim.rank ()) run st;
  result st

(* Gather variable-sized blocks to [root]; the root returns the
   concatenation, other ranks return [||] after sending a copy of
   [local], the caller's live block. *)
let gatherv ~root ~counts (local : float array) : float array =
  let p = Sim.size () and me = Sim.rank () in
  let buf =
    if me <> root then Array.copy local
    else Array.make (Array.fold_left ( + ) 0 counts) 0.
  in
  if me = root then begin
    let at = ref 0 in
    for r = 0 to root - 1 do
      at := !at + counts.(r)
    done;
    Array.blit local 0 buf !at counts.(root)
  end;
  let st = state ~what:"gather" ~tag:tag_gather buf in
  Sched.gather ~root p me ~counts run st;
  if me = root then buf else [||]

(* Above this size the ring allgather's P-1 rounds (P(P-1) messages
   total) dominate a large run, so allgatherv switches to a Bruck-style
   doubling schedule: O(P log P) messages.  No paper-scale run
   (P <= 16) crosses the threshold; the scale baseline's fat-tree rows
   at P = 128 to 1024 run the doubling schedule and pin it. *)
let ring_max = 64

(* Allgather of variable-sized blocks over group [g]: every member ends
   with the concatenation of all members' blocks in position order,
   block [i] at [offset i] ([offset g.size] is the total).  Every round
   sends a window of the gathered array itself.

   On a fault-free machine that array is one shared by every member
   ([Sim.gather_buffer]), which leaves the modeled run as it was: every
   message is still sent, received, length-checked and priced.  Each
   member writes its own block into the shared array on entry, before
   its first send, and a block reaches any member only in a message
   sent after its owner wrote it, so when a member returns, every block
   is in place; the receivers only skip the copies.  A private array,
   filled from the messages, is what a member gets under a fault model,
   where a lost or duplicated message must show in the data.

   A rank outside the group sends and receives nothing and returns
   [[||]], but it still takes its handle on the shared array: the
   buffers are matched by call index, so a rank that skipped the count
   would take this call's array for its next allgather. *)
let allgatherv_group g ~offset (local : float array) : float array =
  let p = g.size and me = g.pos in
  let shared_out = Sim.gather_buffer (offset p) in
  if me < 0 then [||]
  else begin
    if Array.length local <> offset (me + 1) - offset me then
      invalid_arg "allgatherv: local block size disagrees with counts";
    (* the blocks tile [0, offset p), so every element is written
       and the zero fill would be wasted memory traffic *)
    let out, shared =
      match shared_out with
      | Some out -> (out, true)
      | None -> (Array.create_float (offset p), false)
    in
    Array.blit local 0 out (offset me) (Array.length local);
    let st = state ~rank:g.rank ~shared ~what:"allgather" ~tag:tag_ring out in
    (if p > ring_max then Sched.bruck else Sched.ring) p me ~offset run st;
    out
  end

(* Bruck index all-to-all among group [g]: every member holds [g.size]
   blocks of [block] floats, block [j] bound for position [j], and
   returns the blocks bound for it, block [i] from position [i].  A
   member first rotates its blocks so that slot [s] holds the one bound
   for position [pos + s]; after the rounds slot [s] holds the block
   from position [pos - s], which the inverse rotation puts in its
   place.  A member's work per round is O(size).  A rank outside the
   group returns [[||]] at once: nothing is shared, so it need not
   count the call. *)
let alltoall_group g ~block (data : float array) : float array =
  let p = g.size and me = g.pos in
  if me < 0 then [||]
  else begin
    if Array.length data <> p * block then
      invalid_arg "alltoall: local data is not size * block floats";
    let slots = Array.create_float (p * block) in
    Array.blit data (me * block) slots 0 ((p - me) * block);
    Array.blit data 0 slots ((p - me) * block) (me * block);
    Sched.index p me ~block run
      (state ~rank:g.rank ~what:"alltoall" ~tag:tag_alltoall slots);
    let out = Array.create_float (p * block) in
    for s = 0 to p - 1 do
      Array.blit slots (s * block) out ((me - s + p) mod p * block) block
    done;
    out
  end

let allgatherv_offset ~offset local =
  let world = { size = Sim.size (); pos = Sim.rank (); rank = Fun.id } in
  allgatherv_group world ~offset local

let allgatherv ~counts local =
  let offsets = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun r c -> offsets.(r + 1) <- offsets.(r) + c) counts;
  allgatherv_offset ~offset:(Array.get offsets) local

(* Exclusive prefix scan of one scalar per rank: rank r returns the
   op-fold of ranks 0..r-1's values ([identity] on rank 0). *)
let exscan ~op ~identity (x : float) : float =
  let st = state ~op ~what:"exscan" ~tag:tag_scan [| identity; x |] in
  Sched.scan (Sim.size ()) (Sim.rank ()) run st;
  st.buf.(0)

(* Scalar conveniences used by the run-time library. *)
let allreduce_scalar ~op x =
  match allreduce ~op [| x |] with [| y |] -> y | _ -> assert false

let bcast_scalar ~root x =
  match bcast ~root [| x |] with [| y |] -> y | _ -> assert false

(* One-bit agreement: true on every rank iff true on any rank.  The
   checkpoint machinery votes with this at every candidate boundary;
   because it is an allreduce, every rank leaves with the same verdict
   or nobody leaves at all -- there is no state in which some ranks
   checkpoint and others do not. *)
let vote b =
  allreduce_scalar ~op:Lor (if b then 1. else 0.) <> 0.
