(* Discrete-event SPMD simulator built on OCaml effect handlers.

   Every simulated rank is a delimited computation.  Only the
   operations that can make a rank wait yield to the scheduler, and
   all of them yield the same way: the rank writes a request into its
   slots of the run record and performs the one effect [E_wait]; the
   scheduler carries the request out in global virtual-time order and
   resumes the rank with the reply.  The requests are:

   - a send timestamps a message using the machine's link model --
     including serialization on shared channels -- and queues it for
     the destination (eager: the sender resumes at once, but the
     delivery happens in global virtual-time order);
   - a receive waits for a message from one (source, tag) until a
     deadline (infinity: forever);
   - a wildcard receive waits for a message with a tag from any source;
   - a send-receive is a send followed by a receive on the same tag,
     which the scheduler runs as the two would run, except that it
     posts the receive itself instead of resuming the rank in between.

   Everything else -- compute charges, clock and identity queries,
   probes -- is local to the running rank and updates the published
   run state directly.

   The scheduler resumes runnable ranks lowest-virtual-clock first and
   reports a deadlock (with a per-rank diagnosis) if every live rank is
   suspended on a receive that nothing queued can satisfy.  Everything
   is deterministic: same program, same machine, same timings.

   Queued messages live in one store for the whole run, a slot each in
   flat arrays, chained FIFO per (destination, source, tag) and found
   through a small table per destination that holds only the keys with
   messages queued.  A wildcard receive or probe scans that table for
   the earliest chain on its tag and keeps nothing.  Simulating P ranks
   in one process costs what is kept per rank and per message, and a
   message queued here costs about six words besides its payload.

   When the machine carries a fault model, [deliver] additionally
   consults a seeded counter-based RNG and may drop, duplicate, or
   delay-spike a message, stall the sending rank, or degrade a link for
   a window of virtual time.  The decision stream depends only on the
   seed and the (deterministic) order of send events, so the same seed
   reproduces the identical fault schedule.  A receive may carry a
   timeout; an expired wait surfaces as a typed [Timeout] naming the
   waiting rank, the expected source and tag, instead of stalling the
   whole simulation into a [Deadlock]. *)

open Effect
open Effect.Deep

(* Every block over 128 words lives in the C heap, and a large run
   allocates and frees such blocks all through it: rank-local matrix
   blocks and each allgather's gathered operand, one array per call on
   a fault-free machine but one per rank under a fault model (a
   P=1024 call of 128 KB blocks then takes 128 MB).  glibc's default
   policy hands the top of the heap back to the kernel as soon as a
   large block is freed, and the next run faults it all back in; how
   much goes back depends on which long-lived block happens to sit
   highest, an accident of layout that any allocation anywhere can
   change.  Keeping the freed heap makes a run's host time independent
   of what ran before it in the same process.  A no-op off glibc. *)
external keep_heap : unit -> bool = "otter_mpisim_keep_heap"

let heap_kept = keep_heap ()

type payload =
  | Floats of float array
  | Ints of int array
  | Window of float array * int * int * int
      (* [Window (a, off, l1, l2)]: [a.(off .. off+l1-1)] then
         [a.(0 .. l2-1)], one span or two when it wraps *)

let payload_bytes = function
  | Floats a -> 8 * Array.length a
  | Ints a -> 8 * Array.length a
  | Window (_, _, l1, l2) -> 8 * (l1 + l2)

(* The one effect: "carry out the request in my slots".  The scheduler
   resumes the rank with the payload a receive took, or [no_data] (see
   below).  A constant constructor, so performing it allocates no
   effect value. *)
type _ Effect.t += E_wait : payload Effect.t

exception
  Timeout of {
    rank : int; (* who gave up waiting *)
    src : int;
    tag : int;
    waited : float; (* the timeout that expired *)
  }

exception
  Protocol_error of {
    rank : int;
    src : int;
    tag : int;
    detail : string;
  }

exception Rank_failure of { rank : int; exn : exn }

(* Failure detector verdict: [rank]'s blocked receive on [failed] was
   broken at virtual time [at] because the peer is permanently dead
   (killed at [at] minus the model's [detect] window).  Delivered into
   the waiting rank, so it surfaces wrapped in [Rank_failure]. *)
exception Peer_failed of { rank : int; failed : int; at : float }

(* The fault model permanently killed [rank] at virtual time [at].
   Raised (wrapped in [Rank_failure]) once the run drains, even when
   the survivors never tried to talk to the victim. *)
exception Rank_killed of { rank : int; at : float }

(* The run's counters live in the report itself: a run increments them
   in place, and outside [Sim] the record is read-only ([private] in the
   interface). *)
type report = {
  mutable makespan : float; (* max over per-rank clocks *)
  per_rank_clock : float array;
  mutable messages : int;
  mutable bytes : int;
  mutable compute_time : float; (* summed over ranks *)
  mutable drops : int; (* messages the fault model destroyed *)
  mutable dups : int; (* spurious duplicates it injected *)
  mutable delayed : int; (* delay spikes it injected *)
  mutable stalls : int; (* rank stalls it injected *)
  mutable retries : int; (* retransmissions by the reliable layer *)
  mutable acks : int; (* transport acknowledgements delivered *)
  mutable kills : int; (* ranks the fault model permanently killed *)
  mutable sched_picks : int; (* scheduling steps the event core executed *)
  mutable queued : int; (* messages never received, when the run ended *)
  ledger : float array array;
      (* per rank, its clock's advances by category (see [ledger_categories]) *)
}

(* The ledger's columns.  Every advance of a rank's clock is charged to
   exactly one, so a rank's row sums to its clock. *)
let ledger_categories =
  [| "compute"; "cpu wait"; "stall"; "send overhead"; "idle receive";
     "receive overhead"; "deadline wait"; "detection wait"; "death" |]

let l_compute = 0
let l_cpu_wait = 1
let l_stall = 2
let l_send = 3
let l_idle = 4
let l_recv = 5
let l_deadline = 6
let l_detect = 7
let l_death = 8

(* The one report constructor: [clocks] are the per-rank clocks (shared,
   not copied), the makespan is their max, every counter but
   [compute_time] starts at zero, and the ledger charges each clock as
   it stands to compute. *)
let new_report ?(compute_time = 0.) clocks =
  {
    makespan = Array.fold_left Float.max 0. clocks;
    per_rank_clock = clocks;
    messages = 0;
    bytes = 0;
    compute_time;
    drops = 0;
    dups = 0;
    delayed = 0;
    stalls = 0;
    retries = 0;
    acks = 0;
    kills = 0;
    sched_picks = 0;
    queued = 0;
    ledger =
      Array.map
        (fun c ->
          let row = Array.make (Array.length ledger_categories) 0. in
          row.(l_compute) <- c;
          row)
        clocks;
  }

exception Deadlock of string

(* --- the message store --------------------------------------------------- *)

(* Every message in flight, for the whole run, lives in one store:
   four flat arrays indexed by a slot (the arrival time unboxed, the
   payload, the message's key and a link), grown by doubling, with the
   free slots on a list threaded through [next].  The messages of one
   (destination, source, tag) form a FIFO chain, kept circular: whoever
   holds the chain holds its tail, whose [next] is the head, so one int
   both appends a message and takes the oldest.  A queued message costs
   four words here, and its key's slots in the destination's index
   (below) about two more while the key holds messages.  A store that
   grew past [keep_slots] gives its arrays back when it empties, so a
   burst such as a transpose's all-to-all holds no space for the rest
   of the run. *)
type store = {
  mutable arrival : float array;
  mutable payload : payload array;
  mutable key : int array; (* packed (src, tag); see [key] below *)
  mutable next : int array; (* the chain's next message, or the next free slot *)
  mutable free : int; (* the first free slot; -1 = none *)
  mutable used : int; (* slots holding a message *)
}

(* The filler of a payload slot that holds nothing, and what a wait
   returns when it takes no message: a send, or a receive that timed
   out.  Built here and never sent, so no received payload is
   physically equal to it. *)
let no_data = Ints (Array.make 0 0)

let keep_slots = 1 lsl 16

let store_create () =
  { arrival = [||]; payload = [||]; key = [||]; next = [||]; free = -1; used = 0 }

(* Double the store; the new slots form the free list. *)
let store_grow s =
  let cap = Array.length s.next in
  let ncap = max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  s.arrival <- extend s.arrival 0.;
  s.payload <- extend s.payload no_data;
  s.key <- extend s.key 0;
  s.next <- Array.init ncap (fun m -> if m < cap then s.next.(m) else m + 1);
  s.next.(ncap - 1) <- -1;
  s.free <- cap

(* A slot holding one message.  Inlined, so [arrival] reaches the
   array unboxed. *)
let[@inline] store_alloc s arrival data key =
  if s.free < 0 then store_grow s;
  let m = s.free in
  s.free <- s.next.(m);
  s.used <- s.used + 1;
  s.arrival.(m) <- arrival;
  s.payload.(m) <- data;
  s.key.(m) <- key;
  m

(* The chain with tail [tail] (-1: empty) with [m] appended; returns
   the new tail, [m]. *)
let append s tail m =
  if tail < 0 then s.next.(m) <- m
  else begin
    s.next.(m) <- s.next.(tail);
    s.next.(tail) <- m
  end;
  m

(* Unlink the oldest message from the nonempty chain with tail [tail];
   returns the new tail, -1 once the chain is empty. *)
let unlink_head s tail =
  let head = s.next.(tail) in
  if head = tail then -1
  else begin
    s.next.(tail) <- s.next.(head);
    tail
  end

(* Free slot [m]; it drops its reference to the payload. *)
let release s m =
  s.payload.(m) <- no_data;
  s.next.(m) <- s.free;
  s.free <- m;
  s.used <- s.used - 1;
  if s.used = 0 && Array.length s.next > keep_slots then begin
    s.arrival <- [||];
    s.payload <- [||];
    s.key <- [||];
    s.next <- [||];
    s.free <- -1
  end

(* --- the per-destination index ------------------------------------------- *)

(* Each destination finds its chains by key in a small open-addressing
   table: linear probing, at most half full, deletion by backward
   shift, so no tombstones.  A key is in the table exactly while its
   chain holds a message and no receive is posted on it; a key that
   carried its last message leaves, so the table holds the keys with
   queued messages, not every key the run has used, and a table grown
   past 64 slots gives them back when its last key leaves.  A slot
   holds the chain's tail, whose key the store keeps, or -1. *)
type index = { mutable slots : int array; mutable count : int }

(* A multiplicative mix folding the high half down: the table takes
   the low bits, and a key's low bits are its source alone, so a
   rank's collective partners (src = me xor 2^k) would otherwise
   share a few slots. *)
let[@inline] home key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land mask

let index_create () = { slots = [||]; count = 0 }

(* The slot holding [key], or -1. *)
let find s ix key =
  let cap = Array.length ix.slots in
  if cap = 0 then -1
  else begin
    let mask = cap - 1 in
    let i = ref (home key mask) in
    while ix.slots.(!i) >= 0 && s.key.(ix.slots.(!i)) <> key do
      i := (!i + 1) land mask
    done;
    if ix.slots.(!i) >= 0 then !i else -1
  end

(* Add the chain with tail [v], whose key is absent. *)
let rec index_add s ix v =
  let cap = Array.length ix.slots in
  if 2 * (ix.count + 1) > cap then begin
    let old = ix.slots in
    ix.slots <- Array.make (max 8 (2 * cap)) (-1);
    ix.count <- 0;
    Array.iter (fun w -> if w >= 0 then index_add s ix w) old;
    index_add s ix v
  end
  else begin
    let mask = cap - 1 in
    let i = ref (home s.key.(v) mask) in
    while ix.slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    ix.slots.(!i) <- v;
    ix.count <- ix.count + 1
  end

(* Empty slot [i], shifting back each later entry of its probe run
   that may move into the hole: one whose home is not cyclically after
   the hole. *)
let index_remove s ix i =
  let mask = Array.length ix.slots - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while ix.slots.(!j) >= 0 do
    let v = ix.slots.(!j) in
    if (!j - home s.key.(v) mask) land mask >= (!j - !hole) land mask
    then begin
      ix.slots.(!hole) <- v;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  ix.slots.(!hole) <- -1;
  ix.count <- ix.count - 1;
  if ix.count = 0 && Array.length ix.slots > 64 then ix.slots <- [||]

(* --- the run record ------------------------------------------------------ *)

(* What a rank's request slots hold. *)
type request =
  | Start (* not started yet: the next step runs the body *)
  | Done (* finished or killed: nothing to resume *)
  | Send (* to [peer] on [tag] *)
  | Send_acked (* a [Send] whose delivery also queues an ack on [ack_tag] *)
  | Recv (* from [peer] on [tag] until [deadline], out of [posted] *)
  | Recv_any (* from any source on [tag], out of the index *)
  | Sendrecv (* a [Send], then a [Recv] from [rsrc] on the same tag *)

(* One allgather call's shared result: the array, how many ranks have
   taken their handle on this slot so far, and whether they all asked
   for the same length (once one disagrees, later ranks go private). *)
type gather = { buf : float array; mutable takers : int; mutable agreed : bool }

(* One record per run, shared by the scheduler and the running rank.
   The scheduler publishes it in [current] for the whole run and sets
   [running] before every resume, so the non-blocking operations below
   read and charge it directly instead of performing an effect (a
   continuation capture and resume costs tens of nanoseconds, and a
   threaded-code VM instruction a few).  [run_report] saves and
   restores the previous record, so a rank body that itself starts a
   nested simulation resumes with its own record intact. *)
type run_state = {
  machine : Machine.t;
  nprocs : int;
  clocks : float array;
  ledger : float array array; (* the report's *)
  store : store; (* every message in flight *)
  index : index array; (* per destination rank: its chains by key *)
  channel_free : float array;
      (* busy-until of contention channel [ch] at [ch + 1] (the
         cluster's Ethernet is channel -1), sized by the machine *)
  report : report; (* its [per_rank_clock] is [clocks] *)
  compute_time : float array;
      (* one slot: the run's summed compute charges, unboxed so a charge
         allocates nothing; copied into [report] when the run ends *)
  scratch : (int * int * int, int) Hashtbl.t array;
      (* per rank on a reliable machine; empty on any other *)
  gathers : gather Machine.Int_tbl.t;
      (* shared allgather results by call index, while some rank has
         yet to take its handle (see [gather_buffer]) *)
  gather_calls : int array; (* per rank: its next allgather call index *)
  mutable fault_ix : int; (* fault-decision counter (the RNG index) *)
  death : float array; (* per-rank scheduled death time; infinity = never *)
  place : (int array * float array) option;
      (* oversubscription: (rank -> CPU, per-CPU busy-until).  [None]
         (one rank per CPU) keeps the exact historical arithmetic. *)
  mutable running : int; (* the rank the scheduler last resumed *)
  (* Each rank's request, one slot per rank in each of the arrays
     below (floats in flat ones), so that asking allocates nothing;
     the reply is the value the rank is resumed with. *)
  kind : request array;
  peer : int array;
      (* a send's destination or a receive's source; after a wildcard
         match, the source it matched *)
  rsrc : int array; (* a send-receive's source *)
  tag : int array;
  ack_tag : int array; (* [Send_acked]: the ack's tag and sequence number *)
  seq : int array;
  timeout : float array; (* a receive's wait, seconds *)
  deadline : float array; (* a posted receive's: clock at posting + wait *)
  data : payload array; (* a send's payload, until it is delivered *)
  posted : int array;
      (* a posted receive's chain (its tail; -1: empty): it leaves the
         index when the receive is posted, messages on its key go
         straight to it, and what the receive leaves goes back *)
}

let current : run_state option ref = ref None

(* Keys pack (src, tag) into one int: 20 bits of source rank, the
   rest tag.  Every internal tag fits (collectives use 1001-1006, the
   runtime library 3001-3005, transport acks live at tag + 0x400000,
   and user MPI tags are bounded by 1e6 then offset by 2e6); the bound
   is validated at send/receive time. *)
let src_bits = 20
let max_tag = 1 lsl 40

let check_tag tag =
  if tag < 0 || tag >= max_tag then
    invalid_arg (Printf.sprintf "message tag %d out of range [0, 2^40)" tag)

let key ~src ~tag = (tag lsl src_bits) lor src
let src_of key = key land ((1 lsl src_bits) - 1)
let tag_of key = key lsr src_bits

(* The longest probe run a lookup takes in one destination's index
   holding these (src, tag) keys; for the tests. *)
let index_longest_probe keys =
  let s = store_create () and ix = index_create () in
  List.iter
    (fun (src, tag) -> index_add s ix (store_alloc s 0. no_data (key ~src ~tag)))
    keys;
  let mask = Array.length ix.slots - 1 in
  let run i v = if v < 0 then 0 else ((i - home s.key.(v) mask) land mask) + 1 in
  Array.fold_left max 0 (Array.mapi run ix.slots)

(* A wildcard match over the index: the slot of the chain on [tag]
   whose oldest message arrives first, ties going to the lowest
   source; -1 if no chain on [tag] is in it. *)
let earliest s ix ~tag =
  let best = ref (-1) in
  for i = 0 to Array.length ix.slots - 1 do
    let t = ix.slots.(i) in
    if t >= 0 && tag_of s.key.(t) = tag then
      if !best < 0 then best := i
      else
        let b = ix.slots.(!best) in
        let a = s.arrival.(s.next.(t)) and ab = s.arrival.(s.next.(b)) in
        if a < ab || (a = ab && s.key.(t) < s.key.(b)) then best := i
  done;
  !best

(* Is a chain on [tag] in the index?  Stops at the first. *)
let holds_tag s ix ~tag =
  let n = Array.length ix.slots and i = ref 0 in
  while !i < n && (ix.slots.(!i) < 0 || tag_of s.key.(ix.slots.(!i)) <> tag) do
    incr i
  done;
  !i < n

(* Take [dst]'s chain on (src, tag) out of the index; returns its
   tail, -1 if it held nothing. *)
let leave st ~dst ~src ~tag =
  let ix = st.index.(dst) in
  let i = find st.store ix (key ~src ~tag) in
  if i < 0 then -1
  else begin
    let tail = ix.slots.(i) in
    index_remove st.store ix i;
    tail
  end

(* Queue a message from [src] to [dst] on [tag]: straight onto the
   chain of [dst]'s receive when it is blocked on exactly (src, tag),
   else onto the key's chain in the index.  Inlined, so [arrival]
   reaches the store unboxed. *)
let[@inline] enqueue st ~dst ~src ~tag arrival data =
  let k = key ~src ~tag in
  let m = store_alloc st.store arrival data k in
  match st.kind.(dst) with
  | Recv when st.peer.(dst) = src && st.tag.(dst) = tag ->
      st.posted.(dst) <- append st.store st.posted.(dst) m
  | _ ->
      let ix = st.index.(dst) in
      let i = find st.store ix k in
      if i < 0 then index_add st.store ix (append st.store (-1) m)
      else ix.slots.(i) <- append st.store ix.slots.(i) m

(* Rank [r]'s posted receive is over: what its chain still holds goes
   back to the index. *)
let unpost st r =
  let tail = st.posted.(r) in
  if tail >= 0 then begin
    st.posted.(r) <- -1;
    index_add st.store st.index.(r) tail
  end

(* Physical endpoint of a virtual rank: identity without a placement. *)
let phys st r = match st.place with None -> r | Some (cpu_of, _) -> cpu_of.(r)

(* --- operations available inside a simulated rank ------------------------ *)

let outside op = invalid_arg (Printf.sprintf "Sim.%s: called outside Sim.run" op)

(* Charge [dt] seconds of rank [r]'s clock to ledger column [c]. *)
let[@inline] charge st r c dt =
  let row = st.ledger.(r) in
  row.(c) <- row.(c) +. dt

(* One compute charge of [t] seconds against rank [r].  Without a
   placement this is a plain clock advance; with one, the charge also
   serializes on the rank's CPU: it starts when both the rank and the
   CPU are free, and occupies the CPU until it ends.  That is the whole
   oversubscription cost model -- messages stay per-rank. *)
let[@inline] charge_compute st r t =
  (match st.place with
  | None -> st.clocks.(r) <- st.clocks.(r) +. t
  | Some (cpu_of, cpu_free) ->
      let cpu = cpu_of.(r) in
      let start = Float.max st.clocks.(r) cpu_free.(cpu) in
      charge st r l_cpu_wait (start -. st.clocks.(r));
      let fin = start +. t in
      st.clocks.(r) <- fin;
      cpu_free.(cpu) <- fin);
  charge st r l_compute t;
  st.compute_time.(0) <- st.compute_time.(0) +. t

let compute seconds =
  match !current with
  | Some st -> charge_compute st st.running seconds
  | None -> outside "compute"

let flops n =
  match !current with
  | Some st -> charge_compute st st.running (n *. st.machine.Machine.flop_time)
  | None -> outside "flops"

let rank () = match !current with Some st -> st.running | None -> outside "rank"
let size () = match !current with Some st -> st.nprocs | None -> outside "size"

let time () =
  match !current with
  | Some st -> st.clocks.(st.running)
  | None -> outside "time"

let machine () =
  match !current with Some st -> st.machine | None -> outside "machine"

let reliable_on () = (machine ()).Machine.reliable

let scratch () =
  match !current with
  | Some st when st.machine.Machine.reliable -> st.scratch.(st.running)
  | Some _ -> invalid_arg "Sim.scratch: the machine is not reliable"
  | None -> outside "scratch"

(* The running rank's handle on its next allgather's result.  Every
   rank calls this once per allgather in the same order, a rank
   outside the gather's group included, so the [i]-th call on every
   rank is the same allgather: the first rank to reach it allocates
   the array, the rest take the same one, and the last of the P takers
   drops it from the table.  Under a fault model every rank keeps a
   private array, so drops, duplicates and rollbacks see the message
   data path alone. *)
let gather_buffer n =
  match !current with
  | None -> outside "gather_buffer"
  | Some st when st.machine.Machine.faults <> None -> None
  | Some st -> (
      let me = st.running in
      let i = st.gather_calls.(me) in
      st.gather_calls.(me) <- i + 1;
      let g =
        match Machine.Int_tbl.find_opt st.gathers i with
        | Some g ->
            g.takers <- g.takers + 1;
            g
        | None ->
            let g = { buf = Array.create_float n; takers = 1; agreed = true } in
            Machine.Int_tbl.add st.gathers i g;
            g
      in
      if g.takers = st.nprocs then Machine.Int_tbl.remove st.gathers i;
      if g.agreed && Array.length g.buf = n then Some g.buf
      else begin
        g.agreed <- false;
        None
      end)

let note_retry () =
  match !current with
  | Some st -> st.report.retries <- st.report.retries + 1
  | None -> outside "note_retry"

(* Has a matching message already arrived, in virtual time, at the
   running rank?  [src = -1] is any source: the earliest head of the
   tag has arrived exactly when some head has.  A probe only reads. *)
let probe ~src ~tag =
  match !current with
  | None -> outside "probe"
  | Some st ->
      if src < -1 || src >= st.nprocs then invalid_arg "probe: bad source rank";
      let me = st.running and s = st.store in
      let ix = st.index.(me) in
      let i = if src >= 0 then find s ix (key ~src ~tag) else earliest s ix ~tag in
      i >= 0 && s.arrival.(s.next.(ix.slots.(i))) <= st.clocks.(me)

(* The running rank's run record, for an operation that waits. *)
let waiting op = match !current with Some st -> st | None -> outside op

let send ~dst ~tag data =
  let st = waiting "send" in
  let me = st.running in
  st.kind.(me) <- Send;
  st.peer.(me) <- dst;
  st.tag.(me) <- tag;
  st.data.(me) <- data;
  ignore (perform E_wait)

let send_acked ~dst ~tag ~ack_tag ~seq data =
  let st = waiting "send_acked" in
  let me = st.running in
  st.kind.(me) <- Send_acked;
  st.peer.(me) <- dst;
  st.tag.(me) <- tag;
  st.ack_tag.(me) <- ack_tag;
  st.seq.(me) <- seq;
  st.data.(me) <- data;
  ignore (perform E_wait)

(* A receive from (src, tag) that waits at most [timeout] seconds;
   [no_data] if it expired. *)
let await ~src ~tag ~timeout =
  let st = waiting "recv" in
  let me = st.running in
  st.kind.(me) <- Recv;
  st.peer.(me) <- src;
  st.tag.(me) <- tag;
  st.timeout.(me) <- timeout;
  perform E_wait

let recv_opt ~src ~tag ~timeout =
  let d = await ~src ~tag ~timeout in
  if d == no_data then None else Some d

let recv_any ~tag =
  let st = waiting "recv_any" in
  let me = st.running in
  st.kind.(me) <- Recv_any;
  st.tag.(me) <- tag;
  let d = perform E_wait in
  (st.peer.(me), d)

let expired ~src ~tag ~timeout =
  raise (Timeout { rank = rank (); src; tag; waited = timeout })

(* A receive that raises a typed [Timeout] at its deadline. *)
let recv_timeout ~src ~tag ~timeout =
  let d = await ~src ~tag ~timeout in
  if d == no_data then expired ~src ~tag ~timeout else d

(* Under a fault model, a receive defaults to the model's [detect]
   timeout so that a lost message surfaces as a typed [Timeout] rather
   than an eventual whole-simulation [Deadlock]; on a perfect network
   it waits forever. *)
let detect_timeout () =
  match (machine ()).Machine.faults with
  | Some f when f.Machine.detect > 0. -> f.Machine.detect
  | _ -> infinity

let recv ~src ~tag = recv_timeout ~src ~tag ~timeout:(detect_timeout ())

(* The reliable layer passes the worst-case retransmission window as
   [min_timeout] to avoid giving up while the sender is still lawfully
   retrying. *)
let recv_wait ?(min_timeout = 0.) ~src ~tag () =
  recv_timeout ~src ~tag ~timeout:(Float.max (detect_timeout ()) min_timeout)

(* [send] then [recv] on one tag, as one request: the scheduler runs
   both halves in the step that would have run the send. *)
let sendrecv ~dst ~tag data ~src =
  let st = waiting "sendrecv" in
  let me = st.running in
  let timeout = detect_timeout () in
  st.kind.(me) <- Sendrecv;
  st.peer.(me) <- dst;
  st.rsrc.(me) <- src;
  st.tag.(me) <- tag;
  st.timeout.(me) <- timeout;
  st.data.(me) <- data;
  let d = perform E_wait in
  if d == no_data then expired ~src ~tag ~timeout else d

let check_send st r =
  if st.peer.(r) < 0 || st.peer.(r) >= st.nprocs then
    invalid_arg "send: bad destination rank";
  check_tag st.tag.(r)

(* Check rank [r]'s request and, for a receive, post it: its deadline
   runs from the clock now, and it takes its key's chain, here.
   Runs in the scheduler (the effect handler or a scheduling step), so
   a bad argument raises [Invalid_argument] out of [run] as it is, not
   wrapped in [Rank_failure]. *)
let post st r =
  match st.kind.(r) with
  | Send | Sendrecv -> check_send st r
  | Send_acked ->
      check_send st r;
      check_tag st.ack_tag.(r)
  | Recv ->
      let src = st.peer.(r) and tag = st.tag.(r) in
      if src < 0 || src >= st.nprocs then invalid_arg "recv: bad source rank";
      check_tag tag;
      if st.timeout.(r) < 0. then invalid_arg "recv: negative timeout";
      st.deadline.(r) <- st.clocks.(r) +. st.timeout.(r);
      st.posted.(r) <- leave st ~dst:r ~src ~tag
  | Recv_any -> check_tag st.tag.(r)
  | Start | Done -> assert false

(* --- the fault model ----------------------------------------------------- *)

(* One decision draw: a pure function of the fault seed, the decision
   kind, and a per-run counter, so the schedule is reproducible. *)
let draw st (f : Machine.faults) ~salt =
  let i = st.fault_ix in
  st.fault_ix <- i + 1;
  Rng.uniform ~seed:(f.Machine.fault_seed lxor salt) i

let salt_drop = 0x0d10
let salt_dup = 0x0d20
let salt_delay = 0x0d30
let salt_stall = 0x0d40
let salt_ack = 0x0d50
let salt_kill = 0x0d60
let salt_kill_time = 0x0d70

(* The per-rank death schedule for one run attempt: a pure function of
   (fault seed, attempt, rank), so a given attempt reproduces its kills
   exactly while a recovery retry (next [attempt]) re-rolls them --
   otherwise a deterministic replay would march straight back into the
   same crash.  The explicit [kill_rank] pin fires on attempt 0 only,
   which is what the tests use: one planted death, clean recovery. *)
let death_schedule (faults : Machine.faults option) ~nprocs ~attempt =
  let death = Array.make nprocs infinity in
  (match faults with
  | None -> ()
  | Some f ->
      if f.Machine.kill > 0. then
        for r = 0 to nprocs - 1 do
          let ix = (attempt * 8191) + r in
          if Rng.uniform ~seed:(f.Machine.fault_seed lxor salt_kill) ix < f.Machine.kill
          then
            death.(r) <-
              Rng.uniform ~seed:(f.Machine.fault_seed lxor salt_kill_time) ix
              *. f.Machine.kill_window
        done;
      if f.Machine.kill_rank >= 0 && f.Machine.kill_rank < nprocs && attempt = 0
      then death.(f.Machine.kill_rank) <- f.Machine.kill_time);
  death

(* Link degradation windows are a pure function of (seed, window index,
   src, dst) -- independent of event order, so the same virtual-time
   interval is degraded no matter how the schedule interleaves. *)
let degraded (f : Machine.faults) ~src ~dst ~now =
  f.Machine.degrade > 0.
  &&
  let window = int_of_float (now /. f.Machine.degrade_period) in
  let ix = (((window * 131) + src) * 131) + dst in
  Rng.uniform ~seed:(f.Machine.fault_seed lxor 0xdead) ix < f.Machine.degrade

(* Deliver rank [src]'s pending send (its request slots).  Transfer
   timing: a message leaves when both the sender and (for a shared
   medium) the channel are free; it arrives one latency plus one
   serialization time later.  Fault injection happens here: the send
   cost is always paid, but the network may destroy, duplicate, or
   delay what was sent.  The payload itself changes hands by reference
   (see [send] in sim.mli for the ownership rule), so an injected
   duplicate queues the same array, or the same window of one, twice. *)
let deliver st ~src =
  let dst = st.peer.(src) and tag = st.tag.(src) in
  let data = st.data.(src) in
  st.data.(src) <- no_data;
  let faults = st.machine.Machine.faults in
  (* rank stall: the sender loses time before the message even leaves *)
  (match faults with
  | Some f when f.Machine.stall > 0. && draw st f ~salt:salt_stall < f.Machine.stall
    ->
      st.clocks.(src) <- st.clocks.(src) +. f.Machine.stall_time;
      charge st src l_stall f.Machine.stall_time;
      st.report.stalls <- st.report.stalls + 1
  | _ -> ());
  (* the network sees physical endpoints: two ranks sharing a CPU talk
     over that machine's local link, not a remote one *)
  let psrc = phys st src and pdst = phys st dst in
  let link = st.machine.Machine.link psrc pdst in
  let latency, bandwidth =
    match faults with
    | Some f when degraded f ~src:psrc ~dst:pdst ~now:st.clocks.(src) ->
        ( link.Machine.latency *. f.Machine.degrade_factor,
          link.Machine.bandwidth /. f.Machine.degrade_factor )
    | _ -> (link.Machine.latency, link.Machine.bandwidth)
  in
  let latency =
    match faults with
    | Some f when f.Machine.delay > 0. && draw st f ~salt:salt_delay < f.Machine.delay
      ->
        st.report.delayed <- st.report.delayed + 1;
        latency *. f.Machine.delay_factor
    | _ -> latency
  in
  let bytes = payload_bytes data in
  let ser = float_of_int bytes /. bandwidth in
  let start =
    match link.Machine.channel with
    | None -> st.clocks.(src)
    | Some ch ->
        let i = ch + 1 in
        if i < 0 || i >= Array.length st.channel_free then
          invalid_arg
            (Printf.sprintf "Sim: %s reports channel %d, outside [-1, %d)"
               st.machine.Machine.name ch
               (Array.length st.channel_free - 1));
        let start = Float.max st.clocks.(src) st.channel_free.(i) in
        st.channel_free.(i) <- start +. ser;
        start
  in
  let arrival = start +. latency +. ser in
  st.clocks.(src) <- st.clocks.(src) +. st.machine.Machine.send_overhead;
  charge st src l_send st.machine.Machine.send_overhead;
  st.report.messages <- st.report.messages + 1;
  st.report.bytes <- st.report.bytes + bytes;
  let dropped =
    match faults with
    | Some f when f.Machine.drop > 0. -> draw st f ~salt:salt_drop < f.Machine.drop
    | _ -> false
  in
  if dropped then st.report.drops <- st.report.drops + 1
  else begin
    enqueue st ~dst ~src ~tag arrival data;
    match faults with
    | Some f when f.Machine.dup > 0. && draw st f ~salt:salt_dup < f.Machine.dup
      ->
        st.report.dups <- st.report.dups + 1;
        enqueue st ~dst ~src ~tag (arrival +. latency) data
    | _ -> ()
  end;
  (* Transport-level acknowledgement: models the NIC acking on arrival,
     so it does not depend on the receiving rank's control flow (which
     is what keeps the reliable layer deadlock-free).  The ack crosses
     the reverse link and is itself subject to loss. *)
  match st.kind.(src) with
  | Send_acked ->
      (* A dead destination's NIC cannot acknowledge: suppressing the
         ack is what makes the sender's reliable layer notice the
         failure (retries, then [Exhausted]). *)
      if (not dropped) && arrival < st.death.(dst) then begin
        let back = st.machine.Machine.link pdst psrc in
        let ack_arrival =
          arrival +. back.Machine.latency +. (8. /. back.Machine.bandwidth)
        in
        st.report.messages <- st.report.messages + 1;
        st.report.bytes <- st.report.bytes + 8;
        let ack_dropped =
          match faults with
          | Some f when f.Machine.drop > 0. ->
              draw st f ~salt:salt_ack < f.Machine.drop
          | _ -> false
        in
        if ack_dropped then st.report.drops <- st.report.drops + 1
        else begin
          st.report.acks <- st.report.acks + 1;
          enqueue st ~dst:src ~src:dst ~tag:st.ack_tag.(src) ack_arrival
            (Ints [| st.seq.(src) |])
        end
      end
  | _ -> ()

(* --- the scheduler's heap ------------------------------------------------ *)

(* O(log P) pick: a binary min-heap of (key, rank) ordered
   lexicographically, so the pop order -- smallest key, ties to the
   lowest rank -- reproduces a linear scan bit-for-bit.  Entries go
   stale lazily: [hkey.(r)] remembers the key rank [r] is currently
   enqueued under (nan = none); a popped entry is discarded unless it
   matches, then re-validated against a freshly computed key before it
   wins.  Keys and ranks live in two flat arrays, and the functions
   here are top-level and compare entries by slot index: a local
   closure taking or returning a float would box it on every call. *)
type heap = {
  mutable keys : float array; (* slot -> key *)
  mutable ranks : int array; (* slot -> rank *)
  mutable n : int; (* occupied slots *)
  hkey : float array; (* rank -> key it is enqueued under; nan = none *)
}

let heap_create nprocs =
  let cap = max 16 nprocs in
  {
    keys = Array.make cap 0.;
    ranks = Array.make cap 0;
    n = 0;
    hkey = Array.make nprocs Float.nan;
  }

(* Does slot [i] pop before slot [j]? *)
let hless h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  ki < kj || (ki = kj && h.ranks.(i) < h.ranks.(j))

let hswap h i j =
  let k = h.keys.(i) and r = h.ranks.(i) in
  h.keys.(i) <- h.keys.(j);
  h.ranks.(i) <- h.ranks.(j);
  h.keys.(j) <- k;
  h.ranks.(j) <- r

(* Enqueue [r] under the key already recorded in [hkey.(r)]. *)
let hpush h r =
  if h.n = Array.length h.keys then begin
    let cap = 2 * h.n in
    let keys = Array.make cap 0. and ranks = Array.make cap 0 in
    Array.blit h.keys 0 keys 0 h.n;
    Array.blit h.ranks 0 ranks 0 h.n;
    h.keys <- keys;
    h.ranks <- ranks
  end;
  let i = ref h.n in
  h.n <- h.n + 1;
  h.keys.(!i) <- h.hkey.(r);
  h.ranks.(!i) <- r;
  while !i > 0 && hless h !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    hswap h !i p;
    i := p
  done

(* Remove the root (the caller has read it). *)
let hpop_root h =
  h.n <- h.n - 1;
  let n = h.n in
  if n > 0 then begin
    h.keys.(0) <- h.keys.(n);
    h.ranks.(0) <- h.ranks.(n);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let s = ref !i in
      if l < n && hless h l !s then s := l;
      if l + 1 < n && hless h (l + 1) !s then s := l + 1;
      if !s <> !i then begin
        hswap h !i !s;
        i := !s
      end
      else go := false
    done
  end

(* [run_report ?attempt ~machine ~nprocs body] simulates [nprocs] SPMD
   ranks each executing [body rank]; returns the run's outcome (results
   or the failing exception) together with the timing/fault report --
   failures keep their report, which is what the recovery driver and
   otterc's fault counters need.  [attempt] re-salts the permanent-kill
   schedule so each recovery retry sees fresh deaths. *)
let run_report ?(attempt = 0) ~machine ~nprocs (body : int -> 'a) :
    ('a array, exn) result * report =
  if nprocs < 1 then
    invalid_arg
      (Printf.sprintf "run: need at least one rank, got -p %d" nprocs);
  if nprocs >= 1 lsl src_bits then
    invalid_arg
      (Printf.sprintf "run: at most %d ranks are supported, got -p %d"
         ((1 lsl src_bits) - 1)
         nprocs);
  let place =
    match machine.Machine.placement with
    | None ->
        if nprocs > machine.Machine.max_procs then
          invalid_arg
            (Printf.sprintf
               "run: %s has at most %d processors; to oversubscribe, map the \
                %d ranks onto its CPUs with --cpus C --map POLICY (or \
                Machine.with_placement)"
               machine.Machine.name machine.Machine.max_procs nprocs);
        None
    | Some { Machine.cpus; map } ->
        if cpus < 1 then
          invalid_arg
            (Printf.sprintf "run: need at least one CPU, got --cpus %d" cpus);
        if cpus > machine.Machine.max_procs then
          invalid_arg
            (Printf.sprintf "run: %s has at most %d processors, got --cpus %d"
               machine.Machine.name machine.Machine.max_procs cpus);
        if cpus > nprocs then
          invalid_arg
            (Printf.sprintf
               "run: more CPUs (--cpus %d) than ranks (-p %d); lower --cpus \
                or raise -p"
               cpus nprocs);
        let cpu_of =
          Array.init nprocs (fun r ->
              match map with
              | Machine.Map_block -> r * cpus / nprocs
              | Machine.Map_cyclic -> r mod cpus
              | Machine.Map_random seed ->
                  min (cpus - 1)
                    (int_of_float
                       (Rng.uniform ~seed:(seed lxor 0x6d61) r
                       *. float_of_int cpus)))
        in
        Some (cpu_of, Array.make cpus 0.)
  in
  let ncpus =
    match place with None -> nprocs | Some (_, cpu_free) -> Array.length cpu_free
  in
  let clocks = Array.make nprocs 0. in
  let report = new_report clocks in
  let st =
    {
      machine;
      nprocs;
      clocks;
      ledger = report.ledger;
      store = store_create ();
      index = Array.init nprocs (fun _ -> index_create ());
      channel_free = Array.make (machine.Machine.channels ncpus + 1) 0.;
      report;
      compute_time = [| 0. |];
      scratch =
        (if machine.Machine.reliable then
           Array.init nprocs (fun _ -> Hashtbl.create 16)
         else [||]);
      gathers = Machine.Int_tbl.create 4;
      gather_calls = Array.make nprocs 0;
      fault_ix = 0;
      death = death_schedule machine.Machine.faults ~nprocs ~attempt;
      place;
      running = 0;
      kind = Array.make nprocs Start;
      peer = Array.make nprocs 0;
      rsrc = Array.make nprocs 0;
      tag = Array.make nprocs 0;
      ack_tag = Array.make nprocs 0;
      seq = Array.make nprocs 0;
      timeout = Array.make nprocs 0.;
      deadline = Array.make nprocs 0.;
      data = Array.make nprocs no_data;
      posted = Array.make nprocs (-1);
    }
  in
  let results = Array.make nprocs None in
  (* Publish the run record for the whole run, restoring the enclosing
     one (if any) on the way out so nested simulations compose. *)
  let prev = !current in
  current := Some st;
  Fun.protect ~finally:(fun () -> current := prev) @@ fun () ->
  (* Each suspended rank's continuation.  Filled with the first one
     captured, so no slot needs an option; a rank's own slot is written
     whenever it suspends, before the scheduler can resume it. *)
  let conts = ref [||] in
  (* Start rank [r]: run its body until it finishes or waits.  Any
     exception escaping the body is wrapped with the rank's identity
     so the failure is attributable. *)
  let start r =
    let wait =
      Some
        (fun (k : (payload, unit) continuation) ->
          post st r;
          if Array.length !conts = 0 then conts := Array.make nprocs k;
          !conts.(r) <- k)
    in
    match_with
      (fun () -> results.(r) <- Some (body r))
      ()
      {
        retc = (fun () -> st.kind.(r) <- Done);
        exnc = (fun e -> raise (Rank_failure { rank = r; exn = e }));
        effc =
          (fun (type b) (eff : b Effect.t) :
               ((b, unit) continuation -> unit) option ->
            match eff with E_wait -> wait | _ -> None);
      }
  in
  (* Cooperative scheduling in virtual-time order: of all ranks that
     can make progress (initial start, pending send, or a blocked
     receive whose message has arrived), always resume the one with
     the smallest virtual clock.  This keeps shared-channel
     reservations consistent with simulated time.  A receive blocked
     with a finite deadline is always eventually runnable: it sorts by its
     deadline, so it fires only once no other rank could still produce
     an earlier event -- which is what makes timing out safe. *)
  let dead = Array.make nprocs false in
  (* The failure detector: a receive blocked on a peer scheduled to die
     becomes runnable at (death + detect) -- the heartbeat deadline --
     and, if no message showed up by then, is broken with a typed
     [Peer_failed].  Sends the peer issued before dying carry strictly
     smaller scheduler keys, so they are always delivered first: the
     detector never falsely condemns a slow-but-alive sender.
     [detector.(src)] is that deadline (nan: no detector on [src]). *)
  let detector =
    match machine.Machine.faults with
    | Some f when f.Machine.detect > 0. ->
        Array.map
          (fun d -> if d < infinity then d +. f.Machine.detect else Float.nan)
          st.death
    | _ -> Array.make nprocs Float.nan
  in
  (* The key functions below return their result in [slot.(0)]: a float
     returned from a closure would be boxed on every call. *)
  let slot = [| Float.nan |] in
  let base_key r =
    (* [nan] = cannot step; otherwise the virtual time used for pick *)
    slot.(0) <-
      (match st.kind.(r) with
      | Start | Send | Send_acked | Sendrecv -> st.clocks.(r)
      | Done -> Float.nan
      | Recv_any ->
          (* no single peer to watch for death: a wildcard wait with
             no queued message simply stays blocked (total silence
             ends the run as a [Deadlock] with this wait in the
             diagnostic) *)
          if holds_tag st.store st.index.(r) ~tag:st.tag.(r) then st.clocks.(r)
          else Float.nan
      | Recv ->
          let tail = st.posted.(r) and deadline = st.deadline.(r) in
          if tail >= 0 && st.store.arrival.(st.store.next.(tail)) <= deadline
          then st.clocks.(r)
          else
            let d = detector.(st.peer.(r)) in
            if not (Float.is_nan d) then if d < deadline then d else deadline
            else if deadline < infinity then deadline
            else Float.nan (* no deadline, no detector: blocked *))
  in
  (* A doomed rank's death is itself a schedulable event: once the rank
     has no step strictly before its death time (the key in [slot]),
     the kill fires.  A rank that has returned (or died) has nothing
     left to lose: its death is no event. *)
  let dies_now r =
    st.death.(r) < infinity
    && (match st.kind.(r) with Done -> false | _ -> true)
    && (Float.is_nan slot.(0) || slot.(0) >= st.death.(r))
  in
  let step_key r =
    base_key r;
    if dies_now r then slot.(0) <- st.death.(r)
  in
  let finished = ref 0 in
  (* A rank's key only changes when the rank itself steps or when a
     message is queued for it, which is exactly where [wake] is
     called.  So the heap holds every rank that can step, and an empty
     heap with one that could means a wake was missed: [pick] fails
     the run then rather than hide it. *)
  let h = heap_create nprocs in
  (* Re-enqueue [r] if its key changed since it was last enqueued.
     Pushed keys are never nan, so the float [<>] below is nan-safe:
     nan (not enqueued) compares unequal to any fresh key. *)
  let wake r =
    step_key r;
    let key = slot.(0) in
    if (not (Float.is_nan key)) && key <> h.hkey.(r) then begin
      h.hkey.(r) <- key;
      hpush h r
    end
  in
  let rec pick () =
    if h.n = 0 then begin
      for r = 0 to nprocs - 1 do
        step_key r;
        if not (Float.is_nan slot.(0)) then
          failwith
            (Printf.sprintf
               "Sim: rank %d could step at t=%h but the scheduler lost it" r
               slot.(0))
      done;
      -1
    end
    else begin
      let key = h.keys.(0) and r = h.ranks.(0) in
      hpop_root h;
      if key <> h.hkey.(r) then pick () (* stale entry *)
      else begin
        h.hkey.(r) <- Float.nan;
        step_key r;
        let fresh = slot.(0) in
        if Float.is_nan fresh then pick ()
        else if fresh <> key then begin
          h.hkey.(r) <- fresh;
          hpush h r;
          pick ()
        end
        else r
      end
    end
  in
  (* Rank [r]'s send half: deliver it, which may unblock the
     destination ([r] itself is re-enqueued after the step). *)
  let send_step r =
    let dst = st.peer.(r) in
    deliver st ~src:r;
    if dst <> r then wake dst
  in
  (* Resume rank [r] with message [m], unlinked from its chain, and
     free its slot. *)
  let receive r m =
    let arrival = st.store.arrival.(m) and data = st.store.payload.(m) in
    release st.store m;
    let ready = Float.max st.clocks.(r) arrival in
    charge st r l_idle (ready -. st.clocks.(r));
    charge st r l_recv st.machine.Machine.recv_overhead;
    st.clocks.(r) <- ready +. st.machine.Machine.recv_overhead;
    continue !conts.(r) data
  in
  for r = 0 to nprocs - 1 do
    wake r
  done;
  let outcome =
    try
      while !finished < nprocs do
        let r = pick () in
        st.report.sched_picks <- st.report.sched_picks + 1;
        if r < 0 then begin
          let buf = Buffer.create 128 in
          for rr = 0 to nprocs - 1 do
            if dead.(rr) then
              Buffer.add_string buf
                (Printf.sprintf "  rank %d died at t=%.6f\n" rr st.death.(rr))
            else
              match st.kind.(rr) with
              | Recv ->
                  let src = st.peer.(rr) in
                  Buffer.add_string buf
                    (Printf.sprintf "  rank %d waits for (src=%d, tag=%d)%s\n"
                       rr src st.tag.(rr)
                       (if dead.(src) then " [source is dead]" else ""))
              | Recv_any ->
                  Buffer.add_string buf
                    (Printf.sprintf "  rank %d waits for (src=any, tag=%d)\n"
                       rr st.tag.(rr))
              | Send | Send_acked | Sendrecv ->
                  Buffer.add_string buf
                    (Printf.sprintf
                       "  rank %d pending send to (dst=%d, tag=%d)\n" rr
                       st.peer.(rr) st.tag.(rr))
              | Start | Done -> ()
          done;
          raise (Deadlock (Buffer.contents buf))
        end;
        base_key r;
        if dies_now r then begin
          (* The kill event: the rank stops forever.  Its continuation
             is dropped, its messages already in flight still arrive,
             and nothing it would have sent after this instant ever
             will.  Survivors learn of it from silence: missing acks
             (retries, then [Exhausted]) or the failure detector. *)
          dead.(r) <- true;
          unpost st r;
          let at = Float.max st.clocks.(r) st.death.(r) in
          charge st r l_death (at -. st.clocks.(r));
          st.clocks.(r) <- at;
          st.report.kills <- st.report.kills + 1;
          st.kind.(r) <- Done;
          incr finished
        end
        else begin
          st.running <- r;
          (match st.kind.(r) with
          | Start -> start r
          | Send | Send_acked ->
              send_step r;
              continue !conts.(r) no_data
          | Sendrecv ->
              (* the send half, then the receive half posted as the
                 rank's next request would post it, in the same step *)
              send_step r;
              st.kind.(r) <- Recv;
              st.peer.(r) <- st.rsrc.(r);
              post st r
          | Recv_any ->
              (* the scheduler only resumes a wildcard wait once a
                 message is queued *)
              let ix = st.index.(r) in
              let i = earliest st.store ix ~tag:st.tag.(r) in
              let tail = ix.slots.(i) in
              let m = st.store.next.(tail) in
              if unlink_head st.store tail < 0 then index_remove st.store ix i;
              st.peer.(r) <- src_of st.store.key.(m);
              receive r m
          | Recv ->
              let tail = st.posted.(r) and deadline = st.deadline.(r) in
              if tail >= 0 && st.store.arrival.(st.store.next.(tail)) <= deadline
              then begin
                let m = st.store.next.(tail) in
                st.posted.(r) <- unlink_head st.store tail;
                unpost st r;
                receive r m
              end
              else begin
                unpost st r;
                let src = st.peer.(r) in
                let d = detector.(src) in
                if (not (Float.is_nan d)) && d < deadline then begin
                  let at = d in
                  let now = Float.max st.clocks.(r) at in
                  charge st r l_detect (now -. st.clocks.(r));
                  st.clocks.(r) <- now;
                  discontinue !conts.(r)
                    (Peer_failed { rank = r; failed = src; at })
                end
                else begin
                  charge st r l_deadline (deadline -. st.clocks.(r));
                  st.clocks.(r) <- deadline;
                  continue !conts.(r) no_data
                end
              end
          | Done -> assert false);
          (match st.kind.(r) with Done -> incr finished | _ -> ());
          wake r
        end
      done;
      (* Even a kill nobody was waiting on (a rank the others never
         talk to, or P=1) must fail the run: its result is gone. *)
      Array.iteri
        (fun r d ->
          if d then
            raise
              (Rank_failure
                 { rank = r; exn = Rank_killed { rank = r; at = st.death.(r) } }))
        dead;
      Ok
        (Array.init nprocs (fun r ->
             match results.(r) with
             | Some v -> v
             | None -> failwith "rank finished without result"))
    with e -> Error e
  in
  st.report.makespan <- Array.fold_left Float.max 0. clocks;
  st.report.compute_time <- st.compute_time.(0);
  st.report.queued <- st.store.used;
  (outcome, st.report)

(* [run ~machine ~nprocs body] simulates [nprocs] SPMD ranks each
   executing [body rank]; returns their results and the timing report.
   Failures (rank crash, deadlock, permanent kill) raise. *)
let run ?attempt ~machine ~nprocs (body : int -> 'a) : 'a array * report =
  match run_report ?attempt ~machine ~nprocs body with
  | Ok results, report -> (results, report)
  | Error e, _ -> raise e
