(** The distributed MATRIX structure of the run-time library (paper
    section 4).  Under the paper's (default) layout, matrices with more
    than one row are distributed by contiguous row blocks and
    single-row matrices by column blocks; {!default_layout} selects the
    block-cyclic or 2-D block layouts instead for a whole run.
    Matrices of identical size are distributed identically under every
    layout, so element-wise operations never communicate. *)

type axis = By_rows | By_cols

type layout =
  | Lblock  (** contiguous blocks along the distribution axis *)
  | Lcyclic of int  (** block-cyclic (ScaLAPACK) with the given block size *)
  | Lgrid of int * int  (** pr x pc process grid owning 2-D tiles *)

val default_layout : layout ref
(** The run-wide distribution policy; everything created while it is
    set follows it.  Set (and restored) by the driver around one
    parallel run — mutating it mid-run would desynchronize ranks.
    Under [Lgrid], vectors and single ranks fall back to [Lblock]. *)

type t = {
  rows : int;
  cols : int;
  axis : axis;
  layout : layout;
  low : int;
      (** first owned row (By_rows / grid) or column (By_cols); 0 under
          a cyclic layout, whose ownership is not contiguous *)
  count : int; (** number of owned rows/columns *)
  clow : int; (** grid only: first owned column (else 0) *)
  ccount : int; (** grid only: owned column count (else cols) *)
  data : float array;
      (** By_rows: count*cols row-major; By_cols: count; grid: the
          count x ccount tile row-major *)
  full : bool;
      (** a rank-local replica: this rank holds every element.  Produced
          by explicit message passing (MPI_Recv, MPI_Bcast); operations
          on replicas stay local, so they are safe inside rank-divergent
          control flow where a collective would deadlock. *)
}

val create : rows:int -> cols:int -> t
(** Zero-filled matrix with this rank's local part allocated. *)

val create_full : rows:int -> cols:int -> t
(** Zero-filled rank-local replica (no communication, ever). *)

val of_full : rows:int -> cols:int -> float array -> t
(** Rank-local replica of a copy of the given dense row-major data. *)

val init_full : rows:int -> cols:int -> (int -> float) -> t
(** Rank-local replica filled from the global row-major linear index. *)

val same_locality : t -> t -> bool
(** Do two same-shaped matrices share local geometry (element-wise
    loops over their data arrays line up)?  False when one is a replica
    and the other distributed. *)

val local_len : t -> int
val local_els : t -> int (** paper's ML_local_els *)

val numel : t -> int
val is_vector : t -> bool

val global_of_local : t -> int -> int
(** Global row-major linear index of local element [i]. *)

val global_rc_of_local : t -> int -> int * int

val owner : t -> i:int -> j:int -> bool
(** Does this rank own global element (i, j)?  Paper's ML_owner. *)

val owner_rank : t -> i:int -> j:int -> int

val get_local : t -> i:int -> j:int -> float
(** Load a globally indexed element; the caller must own it. *)

val set_local : t -> i:int -> j:int -> float -> unit

val init : rows:int -> cols:int -> (int -> float) -> t
(** Fill from a function of the global row-major linear index. *)

val init_rc : rows:int -> cols:int -> (int -> int -> float) -> t

val iter_rc : t -> lo:int -> len:int -> (int -> int -> int -> unit) -> unit
(** [iter_rc m ~lo ~len f] calls [f i r c] for local elements
    [i = lo .. lo+len-1] in order, with their global (row, col). *)

val counts_of : rows:int -> cols:int -> int array
(** Per-rank local element counts for this shape under the current
    policy. *)

val to_dense : t -> float array
(** Read-only replicated view (an allgather, plus a local permutation
    for non-block layouts).  Other ranks may still read windows of the
    array after this returns, so a caller that writes must copy it
    first. *)

val to_dense_root : root:int -> t -> float array
(** Dense copy on the root only (a gather). *)

val of_dense : rows:int -> cols:int -> float array -> t
(** Build from replicated dense data (no communication). *)

val copy : t -> t

val format_root : root:int -> ?name:string -> t -> string option
(** Render as MATLAB prints it; [Some text] on the root only. *)
