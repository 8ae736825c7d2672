(* Discrete-event SPMD simulator built on OCaml effect handlers.

   Every simulated rank is a delimited computation.  Only the
   operations that can make a rank wait are effects, because only they
   yield to the scheduler:

   - [E_send] timestamps a message using the machine's link model --
     including serialization on shared channels -- and delivers it to
     the destination mailbox (eager: the sender resumes at once, but
     the delivery happens in global virtual-time order);
   - [E_recv_opt] waits for a message from one (source, tag) until a
     deadline (infinity: forever);
   - [E_recv_any] waits for a message with a tag from any source.

   Everything else -- compute charges, clock and identity queries,
   probes -- is local to the running rank and updates the published
   run state directly.

   The scheduler resumes runnable ranks lowest-virtual-clock first and
   reports a deadlock (with a per-rank diagnosis) if every live rank is
   suspended on an empty mailbox.  Everything is deterministic: same
   program, same machine, same timings.

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

type _ Effect.t +=
  | E_send : int * int * (int * int) option * payload -> unit Effect.t
      (* dst, tag, optional (ack tag, seq): with one, a successful
         delivery also queues a transport-level acknowledgement
         [Ints [|seq|]] back to the sender on the ack tag (the reliable
         layer's retransmission timer watches for it) *)
  | E_recv_opt : int * int * float -> payload option Effect.t
      (* src, tag, timeout: [None] once the deadline passes; an
         infinite timeout waits forever *)
  | E_recv_any : int -> (int * payload) Effect.t
      (* tag: wildcard-source receive -- block until a message with
         this tag arrives from ANY rank; returns (source, data).  Among
         pending candidates the earliest arrival wins, ties going to
         the lowest source rank, so the match is deterministic. *)

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
}

(* The one report constructor: [clocks] are the per-rank clocks (shared,
   not copied), the makespan is their max, and every counter but
   [compute_time] starts at zero. *)
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
  }

exception Deadlock of string

(* --- the run record ------------------------------------------------------ *)

(* Messages queued at one (destination, source, tag): (arrival, data). *)
type mailbox = (float * payload) Queue.t

(* A single-float record is stored flat, so updating [until] allocates
   nothing (a [float] value in a table would be boxed on every write). *)
type busy = { mutable until : float }

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
  mailboxes : mailbox Machine.Int_tbl.t array;
      (* per destination rank, keyed [(tag lsl 20) lor src].  One small
         table per rank beats one big table keyed by an allocated
         (dst, src, tag) triple: the packed int key hashes to itself
         and allocates nothing on lookup. *)
  channel_free : busy Machine.Int_tbl.t; (* contention channel -> busy-until *)
  report : report; (* its [per_rank_clock] is [clocks] *)
  compute_time : float array;
      (* one slot: the run's summed compute charges, unboxed so a charge
         allocates nothing; copied into [report] when the run ends *)
  scratch : (int * int * int, int) Hashtbl.t array; (* per rank *)
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
}

let current : run_state option ref = ref None

(* Mailbox keys pack (src, tag) into one int: 20 bits of source rank,
   the rest tag.  Every internal tag fits (collectives use 1001-1006,
   the runtime library 3001-3004, transport acks live at tag + 0x400000,
   and user MPI tags are bounded by 1e6 then offset by 2e6); the bound
   is validated at send/receive time. *)
let src_bits = 20
let max_tag = 1 lsl 40

let check_tag tag =
  if tag < 0 || tag >= max_tag then
    invalid_arg (Printf.sprintf "message tag %d out of range [0, 2^40)" tag)

let mbox_key ~src ~tag = (tag lsl src_bits) lor src

let mailbox st ~dst ~src ~tag =
  let t = st.mailboxes.(dst) in
  let key = mbox_key ~src ~tag in
  match Machine.Int_tbl.find_opt t key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Machine.Int_tbl.add t key q;
      q

(* The wildcard match: scan every source's queue for (dst, tag) and
   return the source holding the earliest pending arrival, ties going
   to the lowest source rank.  The ascending scan updating only on a
   strictly earlier arrival implements the tie-break. *)
let any_mailbox st ~dst ~tag : (int * float) option =
  let t = st.mailboxes.(dst) in
  let best = ref None in
  for src = 0 to st.nprocs - 1 do
    match Machine.Int_tbl.find_opt t (mbox_key ~src ~tag) with
    | Some q when not (Queue.is_empty q) -> (
        let arrival = fst (Queue.peek q) in
        match !best with
        | Some (_, a) when a <= arrival -> ()
        | _ -> best := Some (src, arrival))
    | _ -> ()
  done;
  !best

(* Physical endpoint of a virtual rank: identity without a placement. *)
let phys st r = match st.place with None -> r | Some (cpu_of, _) -> cpu_of.(r)

(* --- operations available inside a simulated rank ------------------------ *)

let outside op = invalid_arg (Printf.sprintf "Sim.%s: called outside Sim.run" op)

(* One compute charge of [t] seconds against rank [r].  Without a
   placement this is a plain clock advance; with one, the charge also
   serializes on the rank's CPU: it starts when both the rank and the
   CPU are free, and occupies the CPU until it ends.  That is the whole
   oversubscription cost model -- messages stay per-rank. *)
let charge_compute st r t =
  (match st.place with
  | None -> st.clocks.(r) <- st.clocks.(r) +. t
  | Some (cpu_of, cpu_free) ->
      let cpu = cpu_of.(r) in
      let fin = Float.max st.clocks.(r) cpu_free.(cpu) +. t in
      st.clocks.(r) <- fin;
      cpu_free.(cpu) <- fin);
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
  | Some st -> st.scratch.(st.running)
  | None -> outside "scratch"

(* The running rank's handle on its next allgather's result.  Ranks
   call collectives in the same order, so the [i]-th call on every
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
   running rank's mailbox?  [src = -1] is any source. *)
let probe ~src ~tag =
  match !current with
  | None -> outside "probe"
  | Some st ->
      if src < -1 || src >= st.nprocs then invalid_arg "probe: bad source rank";
      let me = st.running in
      if src = -1 then
        match any_mailbox st ~dst:me ~tag with
        | Some (_, arrival) -> arrival <= st.clocks.(me)
        | None -> false
      else
        let q = mailbox st ~dst:me ~src ~tag in
        (not (Queue.is_empty q)) && fst (Queue.peek q) <= st.clocks.(me)

let send ~dst ~tag data = perform (E_send (dst, tag, None, data))

let send_acked ~dst ~tag ~ack_tag ~seq data =
  perform (E_send (dst, tag, Some (ack_tag, seq), data))

let recv_opt ~src ~tag ~timeout = perform (E_recv_opt (src, tag, timeout))
let recv_any ~tag = perform (E_recv_any tag)

(* A receive that raises a typed [Timeout] at its deadline. *)
let recv_timeout ~src ~tag ~timeout =
  match recv_opt ~src ~tag ~timeout with
  | Some p -> p
  | None -> raise (Timeout { rank = rank (); src; tag; waited = timeout })

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

type 'a suspended =
  | Finished
  | Wants_send of int * int * (int * int) option * payload * ('a, unit) blocked_k
      (* send to (dst, tag), with an optional (ack tag, seq) transport
         acknowledgement: performed by the scheduler in global
         virtual-time order so that shared-channel contention is
         accounted accurately *)
  | Wants_recv_t of int * int * float * mailbox * ('a, payload option) blocked_k
      (* waiting on (src, tag) until the absolute deadline (infinity:
         no deadline); the mailbox of (src, tag) is looked up once, when
         the wait begins *)
  | Wants_recv_any of int * ('a, int * payload) blocked_k
      (* waiting on (any source, tag) *)

and ('a, 'b) blocked_k = ('b, 'a suspended) continuation

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

(* Transfer timing: a message leaves when both the sender and (for a
   shared medium) the channel are free; it arrives one latency plus one
   serialization time later.  Fault injection happens here: the send
   cost is always paid, but the network may destroy, duplicate, or
   delay what was sent.  The payload itself changes hands by reference
   (see [send] in sim.mli for the ownership rule), so an injected
   duplicate queues the same array, or the same window of one, twice. *)
let deliver st ~src ~dst ~tag ?ack data =
  let faults = st.machine.Machine.faults in
  (* rank stall: the sender loses time before the message even leaves *)
  (match faults with
  | Some f when f.Machine.stall > 0. && draw st f ~salt:salt_stall < f.Machine.stall
    ->
      st.clocks.(src) <- st.clocks.(src) +. f.Machine.stall_time;
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
        let free =
          match Machine.Int_tbl.find_opt st.channel_free ch with
          | Some b -> b
          | None ->
              let b = { until = 0. } in
              Machine.Int_tbl.add st.channel_free ch b;
              b
        in
        let start = Float.max st.clocks.(src) free.until in
        free.until <- start +. ser;
        start
  in
  let arrival = start +. latency +. ser in
  st.clocks.(src) <- st.clocks.(src) +. st.machine.Machine.send_overhead;
  st.report.messages <- st.report.messages + 1;
  st.report.bytes <- st.report.bytes + bytes;
  let dropped =
    match faults with
    | Some f when f.Machine.drop > 0. -> draw st f ~salt:salt_drop < f.Machine.drop
    | _ -> false
  in
  if dropped then st.report.drops <- st.report.drops + 1
  else begin
    Queue.push (arrival, data) (mailbox st ~dst ~src ~tag);
    match faults with
    | Some f when f.Machine.dup > 0. && draw st f ~salt:salt_dup < f.Machine.dup
      ->
        st.report.dups <- st.report.dups + 1;
        Queue.push (arrival +. latency, data) (mailbox st ~dst ~src ~tag)
    | _ -> ()
  end;
  (* Transport-level acknowledgement: models the NIC acking on arrival,
     so it does not depend on the receiving rank's control flow (which
     is what keeps the reliable layer deadlock-free).  The ack crosses
     the reverse link and is itself subject to loss. *)
  match ack with
  | None -> ()
  | Some (ack_tag, seq) ->
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
          Queue.push
            (ack_arrival, Ints [| seq |])
            (mailbox st ~dst:src ~src:dst ~tag:ack_tag)
        end
      end

(* Run one rank until it finishes or blocks.  Any exception escaping
   the rank body is wrapped with the rank's identity so the failure is
   attributable. *)
let handler st results my_rank (body : int -> 'a) : 'a suspended =
  match_with
    (fun () ->
      let v = body my_rank in
      results.(my_rank) <- Some v)
    ()
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> raise (Rank_failure { rank = my_rank; exn = e }));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | E_send (dst, tag, ack, data) ->
              Some
                (fun (k : (b, _) continuation) ->
                  if dst < 0 || dst >= st.nprocs then
                    invalid_arg "send: bad destination rank";
                  check_tag tag;
                  Option.iter (fun (ack_tag, _) -> check_tag ack_tag) ack;
                  Wants_send (dst, tag, ack, data, k))
          | E_recv_opt (src, tag, timeout) ->
              Some
                (fun k ->
                  if src < 0 || src >= st.nprocs then
                    invalid_arg "recv: bad source rank";
                  check_tag tag;
                  if timeout < 0. then invalid_arg "recv: negative timeout";
                  Wants_recv_t
                    ( src,
                      tag,
                      st.clocks.(my_rank) +. timeout,
                      mailbox st ~dst:my_rank ~src ~tag,
                      k ))
          | E_recv_any tag ->
              Some
                (fun k ->
                  check_tag tag;
                  Wants_recv_any (tag, k))
          | _ -> None);
    }

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
  let clocks = Array.make nprocs 0. in
  let st =
    {
      machine;
      nprocs;
      clocks;
      mailboxes = Array.init nprocs (fun _ -> Machine.Int_tbl.create 8);
      channel_free = Machine.Int_tbl.create 8;
      report = new_report clocks;
      compute_time = [| 0. |];
      scratch = Array.init nprocs (fun _ -> Hashtbl.create 16);
      gathers = Machine.Int_tbl.create 4;
      gather_calls = Array.make nprocs 0;
      fault_ix = 0;
      death = death_schedule machine.Machine.faults ~nprocs ~attempt;
      place;
      running = 0;
    }
  in
  let results = Array.make nprocs None in
  (* Publish the run record for the whole run, restoring the enclosing
     one (if any) on the way out so nested simulations compose. *)
  let prev = !current in
  current := Some st;
  Fun.protect ~finally:(fun () -> current := prev) @@ fun () ->
  (* Cooperative scheduling in virtual-time order: of all ranks that
     can make progress (initial start, pending send, or a blocked
     receive whose message has arrived), always resume the one with
     the smallest virtual clock.  This keeps shared-channel
     reservations consistent with simulated time.  A receive blocked
     with a finite deadline is always eventually runnable: it sorts by its
     deadline, so it fires only once no other rank could still produce
     an earlier event -- which is what makes timing out safe. *)
  (* [states.(r)] is meaningful once [r] has started; [Finished] until
     then, like a finished rank it has nothing to resume. *)
  let states = Array.make nprocs Finished in
  let pending_start = Array.make nprocs true in
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
      (if pending_start.(r) then st.clocks.(r)
       else
         match states.(r) with
         | Finished -> Float.nan
         | Wants_send _ -> st.clocks.(r)
         | Wants_recv_any (tag, _) ->
             (* no single peer to watch for death: a wildcard wait with
                no pending message simply stays blocked (total silence
                ends the run as a [Deadlock] with this wait in the
                diagnostic) *)
             if any_mailbox st ~dst:r ~tag = None then Float.nan
             else st.clocks.(r)
         | Wants_recv_t (src, _, deadline, q, _) ->
             if (not (Queue.is_empty q)) && fst (Queue.peek q) <= deadline
             then st.clocks.(r)
             else
               let d = detector.(src) in
               if not (Float.is_nan d) then
                 if d < deadline then d else deadline
               else if deadline < infinity then deadline
               else Float.nan (* no deadline, no detector: blocked *))
  in
  (* A doomed rank's death is itself a schedulable event: once the rank
     has no step strictly before its death time (the key in [slot]),
     the kill fires. *)
  let dies_now r =
    st.death.(r) < infinity
    && (not dead.(r))
    && (Float.is_nan slot.(0) || slot.(0) >= st.death.(r))
  in
  let step_key r =
    if dead.(r) then slot.(0) <- Float.nan
    else begin
      base_key r;
      if dies_now r then slot.(0) <- st.death.(r)
    end
  in
  let finished = ref 0 in
  (* A rank's key only changes when the rank itself steps or when a
     message lands in its mailbox, which is exactly where [wake] is
     called; should a wake ever be missed, an empty heap triggers one
     full rebuild before declaring deadlock, so the failure mode is
     lost time, never a wrong schedule or a spurious deadlock. *)
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
      (* safety net: rebuild from scratch before giving up *)
      Array.fill h.hkey 0 nprocs Float.nan;
      for r = 0 to nprocs - 1 do
        wake r
      done;
      if h.n > 0 then pick () else -1
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
          Array.iteri
            (fun rr s ->
              if dead.(rr) then
                Buffer.add_string buf
                  (Printf.sprintf "  rank %d died at t=%.6f\n" rr st.death.(rr))
              else
                match s with
                | Wants_recv_t (src, tag, _, _, _) ->
                    Buffer.add_string buf
                      (Printf.sprintf "  rank %d waits for (src=%d, tag=%d)%s\n"
                         rr src tag
                         (if dead.(src) then " [source is dead]" else ""))
                | Wants_recv_any (tag, _) ->
                    Buffer.add_string buf
                      (Printf.sprintf
                         "  rank %d waits for (src=any, tag=%d)\n" rr tag)
                | Wants_send (dst, tag, _, _, _) ->
                    Buffer.add_string buf
                      (Printf.sprintf
                         "  rank %d pending send to (dst=%d, tag=%d)\n" rr dst
                         tag)
                | Finished -> ())
            states;
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
          pending_start.(r) <- false;
          st.clocks.(r) <- Float.max st.clocks.(r) st.death.(r);
          st.report.kills <- st.report.kills + 1;
          states.(r) <- Finished;
          incr finished
        end
        else begin
          st.running <- r;
          let next =
            if pending_start.(r) then begin
              pending_start.(r) <- false;
              handler st results r body
            end
            else
              match states.(r) with
              | Wants_send (dst, tag, ack, data, k) ->
                  deliver st ~src:r ~dst ~tag ?ack data;
                  (* the delivery may have unblocked the destination;
                     [r] itself is re-enqueued after the step *)
                  if dst <> r then wake dst;
                  continue k ()
              | Wants_recv_any (tag, k) -> (
                  match any_mailbox st ~dst:r ~tag with
                  | Some (src, _) ->
                      let arrival, data =
                        Queue.pop (mailbox st ~dst:r ~src ~tag)
                      in
                      st.clocks.(r) <-
                        Float.max st.clocks.(r) arrival
                        +. st.machine.Machine.recv_overhead;
                      continue k (src, data)
                  | None ->
                      (* unreachable: the scheduler only resumes a
                         wildcard wait once a message is pending *)
                      assert false)
              | Wants_recv_t (src, _, deadline, q, k) ->
                  if (not (Queue.is_empty q)) && fst (Queue.peek q) <= deadline
                  then begin
                    let arrival, data = Queue.pop q in
                    st.clocks.(r) <-
                      Float.max st.clocks.(r) arrival
                      +. st.machine.Machine.recv_overhead;
                    continue k (Some data)
                  end
                  else
                    let d = detector.(src) in
                    if (not (Float.is_nan d)) && d < deadline then begin
                      let at = d in
                      st.clocks.(r) <- Float.max st.clocks.(r) at;
                      discontinue k (Peer_failed { rank = r; failed = src; at })
                    end
                    else begin
                      st.clocks.(r) <- deadline;
                      continue k None
                    end
              | Finished -> assert false
          in
          states.(r) <- next;
          (match next with Finished -> incr finished | _ -> ());
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
  (outcome, st.report)

(* [run ~machine ~nprocs body] simulates [nprocs] SPMD ranks each
   executing [body rank]; returns their results and the timing report.
   Failures (rank crash, deadlock, permanent kill) raise. *)
let run ?attempt ~machine ~nprocs (body : int -> 'a) : 'a array * report =
  match run_report ?attempt ~machine ~nprocs body with
  | Ok results, report -> (results, report)
  | Error e, _ -> raise e
