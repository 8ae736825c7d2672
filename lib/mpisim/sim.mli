(** Deterministic discrete-event SPMD simulator.

    Every simulated rank is a delimited computation over effect
    handlers.  Only the operations that can make a rank wait are
    effects: send, receive with a deadline, and wildcard receive.
    Compute charges and queries act on the running rank's state
    directly, and raise [Invalid_argument] outside {!run}.  The
    scheduler resumes runnable ranks lowest-virtual-clock first, so
    shared-channel contention is accounted in simulated-time order.

    When the machine carries a {!Machine.faults} model, delivery may
    drop, duplicate, or delay messages, stall senders, and degrade
    links for windows of virtual time; the schedule is a pure function
    of the fault seed, so identical seeds reproduce identical faults.

    Linking this module sets the C allocator's policy under glibc:
    blocks up to 32 MB come from the heap, and up to 1 GB of free
    space stays at its top instead of going back to the kernel, so a
    run's host time does not depend on the heap layout that earlier
    runs in the same process left behind (DESIGN.md section 16). *)

val heap_kept : bool
(** Whether that allocator policy is in force (false off glibc). *)

type payload =
  | Floats of float array
  | Ints of int array
  | Window of float array * int * int * int
      (** [Window (a, off, l1, l2)] names [l1 + l2] floats of [a] in
          place: [a.(off .. off+l1-1)] followed by [a.(0 .. l2-1)].  A
          window is one span, or two when it wraps past the end of
          [a]; {!Coll}'s doubling allgather sends windows of its
          gathered array instead of packed copies. *)

val payload_bytes : payload -> int
(** [8] per element; a window counts [l1 + l2]. *)

(** Operations available inside a simulated rank. *)

val send : dst:int -> tag:int -> payload -> unit
(** Eager, non-blocking.  The payload's array changes hands by
    reference, not by copy (all ranks share one address space), so
    every send site keeps an ownership rule, element by element.  A
    payload covers all of a [Floats] or [Ints] array, and only the
    spans of a [Window]:
    - the sender never writes an element a payload covers after
      sending it (the receiver may read it at any later time, even
      after the sender's collective has returned);
    - a receiver never writes an element of a payload it received:
      one array may reach several ranks (a broadcast forwarding it to
      its children, an injected duplicate, a reliable-layer retry).
    A site that needs a writable array copies it itself.  The modeled
    cost is unaffected: {!payload_bytes} still prices the message. *)

val send_acked :
  dst:int -> tag:int -> ack_tag:int -> seq:int -> payload -> unit
(** Like {!send}, but a successful (non-dropped) delivery also queues a
    transport-level acknowledgement [Ints [|seq|]] back to the sender
    on [ack_tag] — modeling the NIC acking on arrival, independent of
    the receiving rank's control flow.  The ack crosses the reverse
    link and is itself subject to the fault model.  Used by
    {!Reliable}. *)

val recv_opt : src:int -> tag:int -> timeout:float -> payload option
(** The one point-to-point receive: blocks until a matching message
    arrives (FIFO per (src, tag)) or [timeout] seconds of virtual time
    pass.  On expiry it returns [None] and the rank's clock stands at
    the deadline.  [timeout = infinity] waits forever: a wait no sender
    satisfies ends the run as a {!Deadlock} naming it as
    [(src=..., tag=...)].  A receive on a peer the fault model killed
    is broken by the failure detector with {!Peer_failed}. *)

val recv_timeout : src:int -> tag:int -> timeout:float -> payload
(** {!recv_opt} that raises {!Timeout} on expiry. *)

val recv : src:int -> tag:int -> payload
(** {!recv_timeout} with the fault model's [detect] window as the
    timeout, or no timeout on a perfect network (or with [detect = 0]),
    so a lost message surfaces as a typed {!Timeout} rather than an
    eventual whole-simulation {!Deadlock}. *)

val recv_wait : ?min_timeout:float -> src:int -> tag:int -> unit -> payload
(** {!recv} with the timeout raised to at least [min_timeout].  The
    reliable layer passes its worst-case retransmission window so a
    lawful retry storm is not condemned early. *)

val recv_any : tag:int -> int * payload
(** Wildcard-source receive: blocks until a message with [tag] arrives
    from any rank; returns (source, data).  Among pending candidates
    the earliest arrival wins, ties going to the lowest source rank,
    so the match is deterministic.  A wildcard wait no sender ever
    satisfies ends the run as a {!Deadlock} whose diagnostic lists the
    wait as [(src=any, tag=...)]. *)

val probe : src:int -> tag:int -> bool
(** Has a matching message already arrived (in virtual time) at this
    rank's mailbox?  Non-blocking; never advances the clock.
    [src = -1] is the wildcard: any source. *)

val compute : float -> unit
(** Advance this rank's virtual clock by the given seconds. *)

val flops : float -> unit
(** Advance the clock by n floating-point operations at the machine's
    modeled rate. *)

val rank : unit -> int
val size : unit -> int
val time : unit -> float

val machine : unit -> Machine.t
(** The machine this rank is simulated on. *)

val reliable_on : unit -> bool
(** Whether the machine asks for the reliable-messaging layer. *)

val scratch : unit -> (int * int * int, int) Hashtbl.t
(** This rank's private counter table, fresh per [run]; the reliable
    layer keys its per-channel sequence numbers here. *)

val gather_buffer : int -> float array option
(** [gather_buffer n] is the running rank's handle on the result of its
    next allgather, an array of [n] floats.  Ranks call collectives in
    the same order, so on a machine without a fault model every rank's
    [i]-th call in a run returns the same physical array; the run keeps
    it only until all P ranks have taken it.  The caller that owns a
    block writes it; no rank writes anyone else's.  [None] (allocate a
    private array) under a fault model, and for a rank whose [n]
    disagrees with an earlier taker's, and for every later taker of
    that call.  {!Coll} is the only user. *)

val note_retry : unit -> unit
(** Count one retransmission in the run's report (reliable layer). *)

type report = private {
  mutable makespan : float;  (** max over per-rank clocks *)
  per_rank_clock : float array;
  mutable messages : int;
  mutable bytes : int;
  mutable compute_time : float;  (** summed over ranks *)
  mutable drops : int;  (** messages the fault model destroyed *)
  mutable dups : int;  (** spurious duplicates it injected *)
  mutable delayed : int;  (** delay spikes it injected *)
  mutable stalls : int;  (** rank stalls it injected *)
  mutable retries : int;  (** retransmissions by the reliable layer *)
  mutable acks : int;  (** transport acknowledgements delivered *)
  mutable kills : int;  (** ranks the fault model permanently killed *)
  mutable sched_picks : int;
      (** scheduling steps (rank resumes + kill events) the
          discrete-event core executed; picks divided by wall-clock is
          the scheduler-throughput figure tracked in EXPERIMENTS.md *)
}
(** A run's timing and fault accounting.  A run increments the
    counters in place; outside [Sim] the record is read-only, and
    {!new_report} is the only way to build one. *)

val new_report : ?compute_time:float -> float array -> report
(** [new_report ?compute_time clocks]: [clocks] as the per-rank clocks
    (not copied), their max as the makespan, [compute_time] (default 0)
    and every other counter 0.  {!run} starts from one; a sequential
    baseline reports its modeled time [t] as
    [new_report ~compute_time:t [| t |]]. *)

exception Deadlock of string
(** Raised when every live rank is blocked on an empty mailbox; the
    message lists who waits for what. *)

exception
  Timeout of { rank : int; src : int; tag : int; waited : float }
(** A receive with a deadline expired: [rank] gave up waiting [waited]
    seconds for a message from [src] with [tag]. *)

exception
  Protocol_error of { rank : int; src : int; tag : int; detail : string }
(** A message arrived whose payload does not match what the receiving
    code expects — the typed replacement for stringly [failwith]s. *)

exception Rank_failure of { rank : int; exn : exn }
(** Any exception escaping a rank body is wrapped with the rank's
    identity before aborting the simulation. *)

exception Peer_failed of { rank : int; failed : int; at : float }
(** The failure detector's verdict, delivered into a receive blocked on
    a permanently dead peer once the heartbeat deadline (the peer's
    death time plus the model's [detect] window) passes.  Surfaces
    wrapped in {!Rank_failure} naming the surviving waiter. *)

exception Rank_killed of { rank : int; at : float }
(** The fault model permanently killed [rank] at virtual time [at].
    Raised (wrapped in {!Rank_failure}) when the run drains, even if no
    survivor ever blocked on the victim. *)

val run :
  ?attempt:int ->
  machine:Machine.t ->
  nprocs:int ->
  (int -> 'a) ->
  'a array * report
(** [run ~machine ~nprocs body] simulates [nprocs] SPMD ranks each
    executing [body rank]; returns per-rank results and the timing
    report.  Deterministic: identical inputs give identical reports.
    [attempt] (default 0) re-salts the permanent-kill schedule so a
    recovery retry re-rolls which ranks die and when; the explicit
    [kill_rank] pin fires on attempt 0 only.

    Without a {!Machine.placement}, [nprocs] is capped by the machine's
    CPU count, one rank per CPU — the paper's setup.  With one, ranks
    are virtual: any [nprocs] (up to 2^20-1) time-share the placement's
    [cpus] CPUs under its mapping policy.  Compute charges serialize on
    the rank's CPU, links and contention are looked up between physical
    CPUs, and message semantics stay per-rank. *)

val run_report :
  ?attempt:int ->
  machine:Machine.t ->
  nprocs:int ->
  (int -> 'a) ->
  ('a array, exn) result * report
(** Like {!run}, but a failing run returns [Error exn] together with
    the report accumulated up to the failure — the fault counters the
    recovery driver and otterc print on an abort. *)
