(* Collective operations built from point-to-point messages, so their
   cost emerges from the machine's link model.  All ranks must call the
   same collectives in the same order (the compiled programs are loosely
   synchronous, which guarantees this).

   Broadcast and reduce use binomial trees (log P rounds); allgather
   uses a ring (P-1 rounds of neighbour exchange), which was the
   standard implementation on mid-90s MPI stacks, up to [ring_max]
   ranks and a Bruck-style doubling schedule beyond.

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
   array back.  The allgather's result is read-only: the doubling
   schedule sends windows of it, which a peer may still read after
   this rank has returned, and on a fault-free machine every rank of
   one call shares it (see [allgatherv_offset]). *)

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
let tag_reduce = 1002
let tag_gather = 1003
let tag_ring = 1004
let tag_allreduce = 1006

(* Element-wise combine into a fresh array, [left] on the left,
   accounting one flop per element.  Fresh, because either operand may
   be a sent or received array that must not be written. *)
let combine op (left : float array) (right : float array) =
  let n = Array.length left in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    out.(i) <- apply_op op left.(i) right.(i)
  done;
  Sim.flops (float_of_int n);
  out

(* Relative-rank helpers: the tree collectives rotate ranks so the
   root sits at relative rank 0. *)
let rel_of ~root me p = (me - root + p) mod p
let abs_of ~root rel p = (rel + root) mod p

(* The binomial-tree schedule shared by [bcast] and [reduce]: for
   relative rank [rel] among [p] ranks, the in-range child partners
   (at [rel + mask] for every power-of-two mask below the first set
   bit of [rel]) in ascending mask order, and the parent partner (at
   [rel - first_set_bit rel]; [None] for the root).  The two
   collectives walk the same tree in opposite directions: bcast
   receives from the parent and then feeds the children, reduce
   drains the children and then reports to the parent. *)
let tree_schedule p rel =
  let children = ref [] and parent = ref None in
  let mask = ref 1 in
  while !mask < p && !parent = None do
    if rel land !mask <> 0 then parent := Some (rel - !mask)
    else begin
      let c = rel + !mask in
      if c < p then children := c :: !children
    end;
    mask := !mask * 2
  done;
  (List.rev !children, !parent)

(* Linear broadcast: the root sends to every rank directly.  Used
   outright when P <= 2 -- the tree degenerates to the same single
   message without the mask bookkeeping -- and kept as the ablation
   baseline for the binomial tree (O(P) root serial time instead of
   O(log P) rounds).  The root ships one copy of [data] to everyone;
   every receiver copies that shared array into its result. *)
let bcast_linear ~root (data : float array) : float array =
  let p = Sim.size () in
  let me = Sim.rank () in
  if p = 1 then data
  else if me = root then begin
    let shared = Sim.Floats (Array.copy data) in
    for dst = 0 to p - 1 do
      if dst <> root then Reliable.send ~dst ~tag:tag_bcast shared
    done;
    data
  end
  else Array.copy (Reliable.recv_floats ~src:root ~tag:tag_bcast)

(* Binomial-tree broadcast of a float array rooted at [root].
   Children are fed in descending-mask order, largest subtree first.
   One array travels the whole tree: the root copies [data] once, each
   rank forwards what it received unchanged and keeps a copy. *)
let bcast ~root (data : float array) : float array =
  let p = Sim.size () in
  if p <= 2 then bcast_linear ~root data
  else begin
    let me = Sim.rank () in
    let rel = rel_of ~root me p in
    let children, parent = tree_schedule p rel in
    let result, shared =
      match parent with
      | None -> (data, Array.copy data)
      | Some prel ->
          let buf =
            Reliable.recv_floats ~src:(abs_of ~root prel p) ~tag:tag_bcast
          in
          (Array.copy buf, buf)
    in
    List.iter
      (fun crel ->
        Reliable.send ~dst:(abs_of ~root crel p) ~tag:tag_bcast
          (Sim.Floats shared))
      (List.rev children);
    result
  end

(* Binomial-tree reduction to [root]; every rank contributes [data],
   the root's return value holds the element-wise combination.  Other
   ranks get their partial result (callers use allreduce when everyone
   needs the answer). *)
let reduce ~root ~op (data : float array) : float array =
  let p = Sim.size () in
  if p = 1 then data
  else begin
    let me = Sim.rank () in
    let rel = rel_of ~root me p in
    let children, parent = tree_schedule p rel in
    let acc =
      List.fold_left
        (fun acc crel ->
          combine op acc
            (Reliable.recv_floats ~src:(abs_of ~root crel p) ~tag:tag_reduce))
        data children
    in
    match parent with
    | None -> acc
    | Some prel ->
        (* the parent reads what we send; the caller keeps its own copy *)
        Reliable.send ~dst:(abs_of ~root prel p) ~tag:tag_reduce
          (Sim.Floats (Array.copy acc));
        acc
  end

(* Recursive-doubling allreduce: every rank ends with the element-wise
   combination in log P rounds of pairwise exchange, instead of the
   2 log P rounds of reduce-then-broadcast.  The combination order is
   fixed by rank -- lower-rank data always goes on the left -- so every
   rank produces a bit-identical result (required by the loosely
   synchronous model, where the value often steers replicated control
   flow) with the same bracketing as the binomial reduce tree.
   Non-power-of-two sizes fold the surplus onto the power-of-two core
   first (the lowest [2*(P - 2^k)] ranks pair up, evens passing their
   contribution to their odd neighbour) and hand the surplus ranks the
   finished result afterwards.  [acc] starts as a copy of [data] (never
   send the caller's array) and every combine makes a fresh one, so an
   array is never written once sent; the finished result is copied
   once more for a surplus rank, whose partner keeps the original. *)
let allreduce ~op (data : float array) : float array =
  let p = Sim.size () in
  if p = 1 then Array.copy data
  else begin
    let me = Sim.rank () in
    let pof2 = ref 1 in
    while !pof2 * 2 <= p do
      pof2 := !pof2 * 2
    done;
    let pof2 = !pof2 in
    let rem = p - pof2 in
    let acc = ref (Array.copy data) in
    let newrank =
      if me < 2 * rem then
        if me land 1 = 0 then begin
          Reliable.send ~dst:(me + 1) ~tag:tag_allreduce (Sim.Floats !acc);
          -1
        end
        else begin
          let other = Reliable.recv_floats ~src:(me - 1) ~tag:tag_allreduce in
          (* the sender is the lower rank: its data goes on the left *)
          acc := combine op other !acc;
          me / 2
        end
      else me - rem
    in
    (if newrank >= 0 then
       let real r = if r < rem then (2 * r) + 1 else r + rem in
       let mask = ref 1 in
       while !mask < pof2 do
         let partner = real (newrank lxor !mask) in
         Reliable.send ~dst:partner ~tag:tag_allreduce (Sim.Floats !acc);
         let other = Reliable.recv_floats ~src:partner ~tag:tag_allreduce in
         acc :=
           if newrank land !mask <> 0 then
             (* the partner's block sits to our left *)
             combine op other !acc
           else combine op !acc other;
         mask := !mask * 2
       done);
    if me < 2 * rem then
      if me land 1 = 0 then
        acc := Reliable.recv_floats ~src:(me + 1) ~tag:tag_allreduce
      else
        Reliable.send ~dst:(me - 1) ~tag:tag_allreduce
          (Sim.Floats (Array.copy !acc));
    !acc
  end

let barrier () = ignore (allreduce ~op:Sum [| 0. |])

let protocol_error ~src ~tag detail =
  raise (Sim.Protocol_error { rank = Sim.rank (); src; tag; detail })

(* Without reliable delivery a dropped message lets the channel hand
   over a later round's block instead, which must fail as a protocol
   error rather than be copied into the wrong place. *)
let check_length ~what ~src ~tag n got =
  if got <> n then
    protocol_error ~src ~tag
      (Printf.sprintf "%s: expected %d floats, received %d" what n got)

(* Receive a block whose length the schedule knows. *)
let recv_block ~what ~src ~tag n =
  let a = Reliable.recv_floats ~src ~tag in
  check_length ~what ~src ~tag n (Array.length a);
  a

(* Gather variable-sized blocks to [root]; the root receives blocks in
   rank order and returns the concatenation, other ranks return [||]. *)
let gatherv ~root ~counts (local : float array) : float array =
  let p = Sim.size () in
  let me = Sim.rank () in
  if p = 1 then Array.copy local
  else if me = root then begin
    let total = Array.fold_left ( + ) 0 counts in
    let out = Array.make total 0. in
    let off = ref 0 in
    for r = 0 to p - 1 do
      let block =
        if r = root then local
        else recv_block ~what:"gather" ~src:r ~tag:tag_gather counts.(r)
      in
      Array.blit block 0 out !off counts.(r);
      off := !off + counts.(r)
    done;
    out
  end
  else begin
    (* [local] is the caller's live block: ship a copy *)
    Reliable.send ~dst:root ~tag:tag_gather (Sim.Floats (Array.copy local));
    [||]
  end

(* Above this size the ring allgather's P-1 rounds (P(P-1) messages
   total) dominate a large run, so allgatherv switches to a Bruck-style
   doubling schedule: O(P log P) messages.  No paper-scale run
   (P <= 16) crosses the threshold; the scale baseline's fat-tree rows
   at P = 128 to 1024 run the doubling schedule and pin it. *)
let ring_max = 64

(* The blocks [b, b + n) (mod p) of a gathered array whose block [r]
   starts at [offset r] occupy one span, [offset b, offset (b + n)), or
   two when the window wraps past rank p-1: [offset b, offset p) and
   [0, offset (b + n - p)).  Returns the two span lengths. *)
let window_spans ~offset p b n =
  if b + n <= p then (offset (b + n) - offset b, 0)
  else (offset p - offset b, offset (b + n - p))

(* Receive a window of the [l1 + l2] floats that belong at [out]'s
   spans [dst, dst + l1) and [0, l2), and copy it there unless [out]
   is [shared] (its blocks' owners have written them already).  The
   sender ships a [Sim.Window] of its own gathered array, or, under
   reliable delivery, the flattened [Floats] of one; either way the
   floats come in order from at most two source spans, so at most
   three blits place them. *)
let recv_window ~shared ~src ~tag ~out ~dst l1 l2 =
  let n = l1 + l2 in
  let a, off, m1, m =
    match Reliable.recv ~src ~tag with
    | Sim.Window (a, off, m1, m2) -> (a, off, m1, m1 + m2)
    | Sim.Floats a -> (a, 0, Array.length a, Array.length a)
    | Sim.Ints _ ->
        protocol_error ~src ~tag "expected a float payload, received integers"
  in
  check_length ~what:"allgather" ~src ~tag n m;
  if not shared then begin
    let i = ref 0 in
    while !i < n do
      (* the longest run from float [!i] on that is contiguous on both
         sides *)
      let s, s_run =
        if !i < m1 then (off + !i, m1 - !i) else (!i - m1, n - !i)
      in
      let d, d_run =
        if !i < l1 then (dst + !i, l1 - !i) else (!i - l1, n - !i)
      in
      let len = min s_run d_run in
      Array.blit a s out d len;
      i := !i + len
    done
  end

(* Bruck-style doubling allgather: after round k every rank holds the
   window of min(2^k, p) consecutive blocks (mod p) starting at its
   own.  Each round it sends its leading blocks one window to the left
   and receives the same-shaped extension from one window to the right,
   so the window doubles until it wraps: ceil(log2 p) rounds, one send
   and one receive per rank per round.  Offsets are globally known, so
   the windows are deterministic.  A rank sends a [Sim.Window] of
   [out] itself, not a packed copy: the blocks it covers are complete
   before the send, and every later round writes only blocks outside
   it, so the receiver may read it whenever it gets there.  Every rank
   sends before it receives and sends are eager, so the schedule
   cannot deadlock. *)
let allgatherv_doubling ~shared ~offset ~(out : float array) =
  let p = Sim.size () in
  let me = Sim.rank () in
  let w = ref 1 in
  while !w < p do
    let nblocks = min !w (p - !w) in
    let dst = (me - !w + p) mod p and src = (me + !w) mod p in
    let l1, l2 = window_spans ~offset p me nblocks in
    Reliable.send ~dst ~tag:tag_ring (Sim.Window (out, offset me, l1, l2));
    let l1, l2 = window_spans ~offset p src nblocks in
    recv_window ~shared ~src ~tag:tag_ring ~out ~dst:(offset src) l1 l2;
    w := !w + nblocks
  done

(* Allgather of variable-sized blocks: every rank ends with the
   concatenation of all blocks in rank order, block [r] at [offset r]
   ([offset p] is the total).  Ring exchange (P-1 rounds of neighbour
   traffic, the standard mid-90s implementation) up to [ring_max]
   ranks, doubling beyond.  The result is read-only at every P (see
   the header): the doubling rounds' peers read windows of it, and on
   a fault-free machine it is one array shared by every rank.

   That sharing ([Sim.gather_buffer]) leaves the modeled run as it
   was: every message is still sent, received, length-checked and
   priced.  Each rank writes its own block into the shared array on
   entry, before its first send, and a block reaches any rank only in
   a message sent after its owner wrote it, so when a rank returns,
   every block is in place; the receivers only skip the copies.  A
   private array, filled from the messages, is what a rank gets under
   a fault model, where a lost or duplicated message must show in the
   data. *)
let allgatherv_offset ~offset (local : float array) : float array =
  let p = Sim.size () in
  let me = Sim.rank () in
  if Array.length local <> offset (me + 1) - offset me then
    invalid_arg "allgatherv: local block size disagrees with counts";
  if p = 1 then Array.copy local
  else begin
    (* the blocks tile [0, offset p), so every element is written
       and the zero fill would be wasted memory traffic *)
    let out, shared =
      match Sim.gather_buffer (offset p) with
      | Some out -> (out, true)
      | None -> (Array.create_float (offset p), false)
    in
    Array.blit local 0 out (offset me) (Array.length local);
    if p > ring_max then allgatherv_doubling ~shared ~offset ~out
    else begin
      let right = (me + 1) mod p and left = (me - 1 + p) mod p in
      (* At step s we forward the block of rank (me - s + p) mod p. *)
      let current = ref (Array.copy local) in
      for s = 1 to p - 1 do
        Reliable.send ~dst:right ~tag:tag_ring (Sim.Floats !current);
        let owner = (me - s + p) mod p in
        let n = offset (owner + 1) - offset owner in
        let incoming =
          recv_block ~what:"allgather" ~src:left ~tag:tag_ring n
        in
        if not shared then Array.blit incoming 0 out (offset owner) n;
        current := incoming
      done
    end;
    out
  end

let allgatherv ~counts local =
  let offsets = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun r c -> offsets.(r + 1) <- offsets.(r) + c) counts;
  allgatherv_offset ~offset:(Array.get offsets) local

let tag_scan = 1005

(* Exclusive prefix scan of one scalar per rank (recursive doubling,
   log P rounds): rank r returns the op-fold of ranks 0..r-1's values
   ([identity] on rank 0).  Each round carries the running *inclusive*
   value so prefixes compose associatively. *)
let exscan ~op ~identity (x : float) : float =
  let p = Sim.size () in
  let me = Sim.rank () in
  let excl = ref identity and incl = ref x in
  let d = ref 1 in
  while !d < p do
    if me + !d < p then
      Reliable.send ~dst:(me + !d) ~tag:tag_scan (Sim.Floats [| !incl |]);
    if me - !d >= 0 then begin
      let below = recv_block ~what:"exscan" ~src:(me - !d) ~tag:tag_scan 1 in
      excl := apply_op op below.(0) !excl;
      incl := apply_op op below.(0) !incl;
      Sim.flops 2.
    end;
    d := !d * 2
  done;
  !excl

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
