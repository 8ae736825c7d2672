(** Reliable messaging over the simulator's (possibly lossy) transport:
    sequence-numbered envelopes, transport acknowledgements, and
    bounded retransmission with exponential backoff.  The application
    sees exactly-once, in-order delivery, bit-for-bit identical to a
    fault-free run.

    When the machine does not set {!Machine.t.reliable}, every
    operation falls through to the plain {!Sim} primitives, so routing
    code through this module costs nothing until reliability is asked
    for. *)

exception
  Exhausted of { rank : int; dst : int; tag : int; attempts : int }
(** The sender retransmitted [attempts] times without an
    acknowledgement and gave the message up for lost. *)

val max_retries : int
(** Retransmissions attempted before {!Exhausted} (8). *)

val backoff : float
(** Timeout multiplier per retry (2.0). *)

val send : dst:int -> tag:int -> Sim.payload -> unit
(** Send with delivery guaranteed or {!Exhausted} raised.  Blocks (in
    virtual time) until the transport acknowledges delivery. *)

val recv : src:int -> tag:int -> Sim.payload
(** Receive the next in-sequence message, discarding duplicates. *)

val recv_any : tag:int -> int * Sim.payload
(** Wildcard-source receive: the simulator picks the source (earliest
    arrival, ties to the lowest rank); returns (source, data).
    Per-channel sequencing still applies to the discovered source, and
    a duplicate resumes the wildcard wait. *)

val sendrecv : dst:int -> tag:int -> Sim.payload -> src:int -> Sim.payload
(** {!send} to [dst], then {!recv} from [src] on the same tag: one
    {!Sim.sendrecv} request without the protocol, its two halves one
    after the other with it. *)

val floats : src:int -> tag:int -> Sim.payload -> float array
(** The floats of a payload received from [src] on [tag]: the array
    itself, or a window's elements in order in a fresh array; integers
    raise {!protocol_error}.  The array is received: read it, do not
    write it. *)

val recv_floats : src:int -> tag:int -> float array
(** {!recv}, then {!floats}. *)

val protocol_error : src:int -> tag:int -> string -> 'a
(** [protocol_error ~src ~tag detail] raises {!Sim.Protocol_error} for
    the running rank: the message from [src] on [tag] is not what the
    protocol expects, as [detail] says. *)

val recv_ints : src:int -> tag:int -> int array
