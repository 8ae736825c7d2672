(** The SPMD executor: runs the compiler's IR on the machine simulator
    — the moral equivalent of running the emitted C linked against the
    MPI run-time library on the modeled hardware.

    Compiles the per-rank IR program once into flat arrays of
    instruction closures with resolved jump targets, array-indexed
    variable slots (no environment hashing), scalar expressions
    compiled to closure trees, and element loops with preallocated
    operand buffers, then runs it.  An element loop runs each opcode
    over a block of {!block} consecutive local elements at a time on a
    stack of block-sized vectors; that scratch is shared by every frame
    and rank, which is safe because a block loop never suspends.
    Evaluation order, flop charges, error messages and the checkpoint
    format are deterministic, so modeled time and message counts
    reproduce exactly.  Result types live in {!State}. *)

val block : int
(** Local elements per block of an element loop. *)

val listing : Spmd.Ir.prog -> string
(** Decode the program (without checkpoint ops) and every user
    function, and return a human-readable listing of the emitted ops —
    one line per decoded op, with resolved pc addresses.  Executes
    nothing; used by the golden decode tests. *)

val run_recovering :
  capture:string list ->
  seed:int ->
  datadir:string ->
  ckpt_interval:float ->
  max_recoveries:int ->
  machine:Mpisim.Machine.t ->
  nprocs:int ->
  Spmd.Ir.prog ->
  State.recovery
(** Run the program on [nprocs] simulated processors of [machine];
    [capture] names script variables whose final values are returned
    for verification.  A failure on any rank yields [State.Partial]
    instead of an unattributed exception.

    The run is wrapped in coordinated checkpoint/rollback over the
    {!State} snapshot format: snapshots of every rank's state (a slot
    copy of the top frame, deep-copying distributed blocks, plus RNG
    sequence numbers, the resume pc and the output prefix) are
    committed by collective vote at the checkpoint ops before each
    top-level statement and loop iteration, roughly every
    [ckpt_interval] simulated seconds (0 = never: no checkpoint ops,
    and a failure replays from program start).  On a {!State.recoverable}
    failure all ranks roll back to the newest snapshot common to every
    rank and replay deterministically — a recovered run is
    bit-identical to an undisturbed one — with exponential simulated
    backoff, at most [max_recoveries] times.  With [ckpt_interval = 0]
    and [max_recoveries = 0] the run is exactly one attempt.
    Each retry re-rolls the fault model's kill schedule.  Never hangs:
    every attempt either completes, or fails with a typed class within
    bounded virtual time. *)
