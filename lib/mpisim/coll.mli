(** Collective operations built from point-to-point messages, so their
    cost emerges from the machine's link model.  Each algorithm is a
    schedule of rounds ({!Sched}), and one runner executes them all.
    Every member of a collective's group calls it in the same order; a
    rank outside an allgather's group counts the call.  Only
    {!allgatherv_group} and {!alltoall_group} take a group: every other
    collective spans all ranks.  None sends its caller's argument.
    Each returns an array its caller owns and may write, except
    {!allgatherv_offset} and {!allgatherv}: their result is read-only
    at every P, because other ranks may read windows of it after the
    call returns, and on a machine without a fault model every rank of
    one call gets the same array. *)

type op = Sum | Prod | Min | Max | Land | Lor

val bcast : root:int -> float array -> float array
(** Binomial-tree broadcast ({!Sched.tree}); every rank returns the
    root's data. *)

val bcast_linear : root:int -> float array -> float array
(** Flat-tree broadcast ({!Sched.flat}): the root sends to each rank
    directly; the ablation baseline. *)

val allreduce : op:op -> float array -> float array
(** Recursive-doubling allreduce (log P rounds of pairwise exchange).
    The combination order is fixed by rank, so every rank returns a
    bit-identical array. *)

val allreduce_scalar : op:op -> float -> float
val bcast_scalar : root:int -> float -> float

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

type group = { size : int; pos : int; rank : int -> int }
(** A collective's group: [size] members at positions [0, size), the
    member at position [g] being rank [rank g]; the running rank sits
    at position [pos], or outside the group when [pos] is -1.  A
    group's members and their positions must agree on every rank. *)

val allgatherv_group :
  group -> offset:(int -> int) -> float array -> float array
(** Allgather among a group's members: every member returns the full
    concatenation, the block of position [i] at [offset i]
    ([offset size] is the total length), and sends to and receives
    from members only.  Ring exchange (size-1 neighbour rounds,
    size(size-1) messages) up to 64 members; a Bruck-style doubling
    schedule (size * ceil(log2 size) messages) beyond, so large groups
    are not quadratic in messages.  A rank outside the group sends and
    receives nothing and returns [[||]]; it must still call, because
    the shared result below is matched by call index on every rank.
    Over all ranks, rank [r] at position [r] (the identity group), this
    is {!allgatherv_offset}, message for message.
    The result is read-only and shared as described there. *)

val ring_max : int
(** The largest group that {!allgatherv_group} gathers with the ring
    (64); above it the doubling schedule runs, and a transpose with one
    row per owner takes {!alltoall_group}. *)

val alltoall_group : group -> block:int -> float array -> float array
(** Bruck index all-to-all among a group's members: a member passes
    [size] blocks of [block] floats, block [j] bound for position [j],
    and returns a fresh array of [size] blocks, block [i] the one that
    position [i] passed for it.  Members send to and receive from
    members only, in ceil(log2 size) rounds of one message each (size *
    ceil(log2 size) messages); round k carries the blocks whose rotated
    slot index has bit k set.  A received block of the wrong length
    raises {!Sim.Protocol_error} ([alltoall: expected ...]).  A rank
    outside the group sends and receives nothing and returns [[||]];
    no buffer is shared, so it need not call at all. *)

val allgatherv_offset : offset:(int -> int) -> float array -> float array
(** {!allgatherv_group} over all ranks, rank [r] at position [r]: every
    rank returns the full concatenation, rank [r]'s block at [offset r]
    ([offset p] is the total length).  Every round sends a {!Sim.Window}
    of the gathered array itself, so no round copies what it sends, and
    the result is read-only at every P: a peer may read a window of it
    after this rank has returned, and a caller that writes must copy it
    first.  On a machine without a fault model every rank's result of
    one call is the same physical array ({!Sim.gather_buffer}), into
    which each rank writes only its own block; the messages, and so
    every modeled figure, are those of a private result.  Under a fault
    model each rank gets a private array filled from the messages.
    Taking offsets as a function lets a block layout pass its
    [Dist.low] arithmetic instead of building P-length arrays on every
    call. *)

val allgatherv : counts:int array -> float array -> float array
(** {!allgatherv_offset} with the offsets the prefix sums of [counts];
    the result is read-only, and shared, in the same way. *)

val exscan : op:op -> identity:float -> float -> float
(** Exclusive prefix scan of one scalar per rank (recursive doubling):
    rank r gets the op-fold of ranks 0..r-1, [identity] on rank 0. *)
