(** Collective operations built from point-to-point messages, so their
    cost emerges from the machine's link model.  All ranks must call
    the same collectives in the same order.  None sends its caller's
    argument.  Each returns an array its caller owns and may write,
    except {!allgatherv_offset} and {!allgatherv}: their result is
    read-only at every P, because other ranks may read windows of it
    after the call returns, and on a machine without a fault model
    every rank of one call gets the same array. *)

type op = Sum | Prod | Min | Max | Land | Lor

val bcast : root:int -> float array -> float array
(** Binomial-tree broadcast; every rank returns the root's data.
    Degenerates to {!bcast_linear} when P <= 2. *)

val bcast_linear : root:int -> float array -> float array
(** Root sends to each rank directly; the ablation baseline. *)

val reduce : root:int -> op:op -> float array -> float array
(** Binomial-tree reduction; meaningful on the root only. *)

val allreduce : op:op -> float array -> float array
(** Recursive-doubling allreduce (log P rounds of pairwise exchange).
    The combination order is fixed by rank, so every rank returns a
    bit-identical array. *)

val allreduce_scalar : op:op -> float -> float
val bcast_scalar : root:int -> float -> float
val barrier : unit -> unit

val vote : bool -> bool
(** One-bit agreement (logical-or allreduce): every rank returns [true]
    iff any rank voted [true].  The checkpoint machinery's boundary
    coordinator: all ranks leave with the same verdict or none do. *)

val recv_block : what:string -> src:int -> tag:int -> int -> float array
(** [recv_block ~what ~src ~tag n] receives a block whose length [n]
    the schedule knows.  Without reliable delivery a dropped message
    lets the channel hand over another block in its place; a length
    other than [n] raises {!Sim.Protocol_error} naming [what] and both
    lengths.  The array is received: read it, do not write it. *)

val gatherv : root:int -> counts:int array -> float array -> float array
(** Concatenate per-rank blocks (rank order) on the root; other ranks
    return [[||]]. *)

val allgatherv_offset : offset:(int -> int) -> float array -> float array
(** Allgather: every rank returns the full concatenation, rank [r]'s
    block at [offset r] ([offset p] is the total length).  Ring
    exchange (P-1 neighbour rounds) up to 64 ranks; a Bruck-style
    doubling schedule (O(P log P) messages) beyond, so large-P runs
    are not quadratic in messages.  Each doubling round sends a
    {!Sim.Window} of the gathered array itself, so a rank's work per
    round does not grow with P and no round copies what it sends.
    The result is therefore read-only at every P: a peer may read a
    window of it after this rank has returned, and a caller that
    writes must copy it first.  On a machine without a fault model
    it is read-only across ranks as well, not just across rounds:
    every rank's result of one call is the same physical array
    ({!Sim.gather_buffer}), into which each rank writes only its own
    block; the messages, and so every modeled figure, are those of a
    private result.  Under a fault model each rank gets a private
    array filled from the messages.  Taking offsets as a function
    lets a block layout pass its [Dist.low] arithmetic instead of
    building P-length arrays on every call. *)

val allgatherv : counts:int array -> float array -> float array
(** {!allgatherv_offset} with the offsets the prefix sums of [counts];
    the result is read-only, and shared, in the same way. *)

val exscan : op:op -> identity:float -> float -> float
(** Exclusive prefix scan of one scalar per rank (recursive doubling):
    rank r gets the op-fold of ranks 0..r-1, [identity] on rank 0. *)
