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

val recv_floats : src:int -> tag:int -> float array
(** {!recv} of a float payload; a window arrives as a fresh array of
    its elements in order.  The array is received: read it, do not
    write it. *)

val sendrecv_floats :
  dst:int -> tag:int -> Sim.payload -> src:int -> float array
(** {!sendrecv} of a float payload, received as by {!recv_floats}. *)

val recv_ints : src:int -> tag:int -> int array
