(** The distributed MATRIX structure of the run-time library (paper
    section 4), the one distributed array type.  An array has dims of
    any rank >= 2 (a matrix is the rank-2 case) and is distributed over
    its leading axis: row-major, it is a [rows] x [cols] matrix whose
    [rows] is the leading extent and whose [cols] is the product of the
    non-leading dims.  Under the paper's (default) layout, matrices with
    more than one row are distributed by contiguous row blocks and
    single-row matrices by column blocks; {!default_layout} selects the
    block-cyclic layout instead for a whole run.  That is a matrix
    layout: a rank >= 3 array always takes contiguous blocks of leading
    slices.  Arrays of identical dims are distributed
    identically under every layout, so element-wise operations never
    communicate. *)

type axis = By_rows | By_cols

type layout =
  | Lblock  (** contiguous blocks along the distribution axis *)
  | Lcyclic of int  (** block-cyclic (ScaLAPACK) with the given block size *)

val default_layout : layout ref
(** The run-wide distribution policy; everything created while it is
    set follows it.  Set (and restored) by the driver around one
    parallel run — mutating it mid-run would desynchronize ranks.
    Single ranks and rank >= 3 arrays take [Lblock] under every
    policy. *)

type t = {
  dims : int array;  (** global extents, leading axis first; rank >= 2 *)
  rows : int;  (** [dims.(0)] *)
  cols : int;
      (** the per-row width: the product of the non-leading dims, so
          [dims.(1)] for a matrix *)
  axis : axis;
  layout : layout;
  low : int;
      (** first owned row (By_rows) or column (By_cols); 0 under a
          cyclic layout, whose ownership is not contiguous *)
  count : int; (** number of owned rows/columns *)
  data : float array;
      (** By_rows: count*cols row-major (whole rows); By_cols: count *)
  full : bool;
      (** a rank-local replica: this rank holds every element.  Produced
          by explicit message passing (MPI_Recv, MPI_Bcast); operations
          on replicas stay local, so they are safe inside rank-divergent
          control flow where a collective would deadlock. *)
  mutable writes : int;
      (** in-place stores into [data] since creation, counted by
          {!set_local}; a fresh array starts at 0.  Checkpoints compare
          it (with the array's physical identity) to reuse their last
          copy of an array nobody wrote. *)
}

val rank : t -> int
(** Number of dims. *)

val is_matrix : t -> bool
(** Rank 2. *)

val create_dims : ?full:bool -> int array -> t
(** Zero-filled array of the given dims (rank >= 2; the array is kept,
    not copied) with this rank's local part allocated, or with
    [~full:true] a rank-local replica. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix with this rank's local part allocated. *)

val create_full : rows:int -> cols:int -> t
(** Zero-filled rank-local replica (no communication, ever). *)

val create_like : t -> t
(** Zero-filled, with the argument's dims, distribution and locality. *)

val of_full : rows:int -> cols:int -> float array -> t
(** Rank-local replica of a copy of the given dense row-major data. *)

val init_full : rows:int -> cols:int -> (int -> float) -> t
(** Rank-local replica filled from the global row-major linear index. *)

val same_locality : t -> t -> bool
(** Do two same-shaped arrays share local geometry (element-wise
    loops over their data arrays line up)?  False when one is a replica
    and the other distributed. *)

val same_dims : t -> t -> bool

val local_len : t -> int
val local_els : t -> int (** paper's ML_local_els *)

val numel : t -> int
val is_vector : t -> bool
(** A matrix with one row or one column. *)

val global_of_local : t -> int -> int
(** Global row-major linear index of local element [i]. *)

val global_rc_of_local : t -> int -> int * int

(** Elements are addressed as (i, j): [i] on the leading axis and [j]
    the row-major offset within its row, so a matrix's (row, column). *)

val owner : t -> i:int -> j:int -> bool
(** Does this rank own global element (i, j)?  Paper's ML_owner. *)

val owner_rank : t -> i:int -> j:int -> int

(** Ownership comes in whole units: the rows of a row-distributed array
    and the single elements of a column-distributed one. *)

val unit_width : t -> int
(** Elements per unit: [cols] by rows, 1 by columns. *)

val unit_owner : t -> int -> int
(** The rank owning unit [u]; the running rank for a replica. *)

val unit_local : t -> int -> int
(** Index into [data] of unit [u]'s first element, whose elements are
    consecutive there; the caller must own it. *)

val get_local : t -> i:int -> j:int -> float
(** Load a globally indexed element; the caller must own it. *)

val set_local : t -> i:int -> j:int -> float -> unit
(** Store a globally indexed element; the caller must own it.  The only
    way to write an array that is not fresh: it bumps [writes]. *)

val init_dims : int array -> (int -> float) -> t
(** Fill from a function of the global row-major linear index. *)

val init : rows:int -> cols:int -> (int -> float) -> t

val init_rc : rows:int -> cols:int -> (int -> int -> float) -> t

val iter_rc : t -> lo:int -> len:int -> (int -> int -> int -> unit) -> unit
(** [iter_rc m ~lo ~len f] calls [f i r c] for local elements
    [i = lo .. lo+len-1] in order, with their global (row, col). *)

val to_dense : t -> float array
(** Read-only replicated view (an allgather, plus a local permutation
    for non-block layouts).  Other ranks may still read windows of the
    array after this returns, so a caller that writes must copy it
    first. *)

val owner_group : t -> Mpisim.Coll.group
(** The ranks owning a unit of a block-distributed array with at most
    one unit per rank (units <= P): position [g] is the owner of unit
    [g], and the running rank sits at its first unit's position, or
    outside (-1) when it owns none. *)

val to_dense_for : reader:t -> t -> float array option
(** [to_dense_for ~reader m] is [Some (to_dense m)] on the ranks that
    own rows of [reader], the ones that read it.  When [m]'s units
    (rows, or columns of a row vector) and [reader]'s rows are equally
    many and fewer than the ranks, both block-distributed, it gathers
    among their owners alone and is [None] on every other rank, which
    sends and receives nothing; otherwise it gathers over all ranks.
    Every rank must call it, in the same order as its collectives. *)

val replicate : t -> t
(** A rank-local replica of the array ([full]), or the array itself
    when it is one already: {!to_dense}'s allgather, with no further
    copy.  Its data is that read-only view, so it must not be written
    in place. *)

val to_dense_root : root:int -> t -> float array
(** Dense copy on the root only (a gather). *)

val of_dense : rows:int -> cols:int -> float array -> t
(** Build from replicated dense data (no communication). *)

val copy : t -> t

val format_root : root:int -> ?name:string -> t -> string option
(** Render as MATLAB prints it (a rank >= 3 array slice by slice);
    [Some text] on the root only. *)
