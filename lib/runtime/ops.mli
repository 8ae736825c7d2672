(** Matrix and vector operations that require interprocessor
    communication (paper section 4).  Floating-point work is charged
    through {!Mpisim.Sim.flops}; communication cost is charged by the
    messages each operation sends. *)

val matmul : Dmat.t -> Dmat.t -> Dmat.t
(** C = A * B.  Row-distributed A gathers B and computes local rows;
    a row-vector A uses partial sums finished with an allreduce.  Every
    locally computed element is bit-identical to the textbook i-j-k
    loop (DESIGN.md section 3.3, "Exact kernels").  Raises [Failure]
    when the inner dimensions disagree. *)

val matmul_t : Dmat.t -> Dmat.t -> Dmat.t
(** C = A' * B without materializing the transpose: each rank forms the
    partial product of its owned rows of A and B, finished with one
    allreduce -- no redistribution, no operand gather.  Raises
    [Failure] when the row counts (the common dimension) disagree. *)

val dot : Dmat.t -> Dmat.t -> float
(** Inner product of two identically distributed vectors. *)

val transpose : Dmat.t -> Dmat.t
(** Pairwise block exchange, O(rows*cols/P) traffic per rank; vector
    transposes are local. *)

val transpose_gather : Dmat.t -> Dmat.t
(** Full-gather transpose; the ablation baseline for {!transpose}. *)

val diag : Dmat.t -> Dmat.t
(** Vector of n elements -> n x n diagonal matrix; general matrix ->
    min(rows, cols) x 1 main diagonal.  Gathers the source. *)

val outer : Dmat.t -> Dmat.t -> Dmat.t
(** u * v' for vectors u (m elements) and v (n elements) -> m x n. *)

type red = Rsum | Rprod | Rmin | Rmax | Rany | Rall

val reduce_all : red -> Dmat.t -> float
(** Reduce every element of an array of any rank to one replicated
    scalar. *)

val reduce_cols : red -> Dmat.t -> Dmat.t
(** Column-wise reduction of a row-distributed matrix -> 1 x cols. *)

val mean_all : Dmat.t -> float
val mean_cols : Dmat.t -> Dmat.t
val norm2 : Dmat.t -> float

(** One slot of a fused allreduce: a sum-combining reduction whose
    local partial travels in a shared vector. *)
type fused =
  | Fsum of Dmat.t
  | Fmean of Dmat.t
  | Fdot of Dmat.t * Dmat.t
  | Fnorm of Dmat.t

val reduce_fused : fused list -> float array
(** Evaluate every slot with a single vector allreduce.  Slot values
    are bit-identical to the unfused operations. *)

type scan = Cumsum | Cumprod

val cumulative : scan -> Dmat.t -> Dmat.t
(** Cumulative sum/product of a vector: local scan + exclusive scan of
    per-rank totals (log P rounds). *)

val reduce_with_index : red -> Dmat.t -> float * int
(** min/max of a vector together with the 1-based index of the first
    extremum (MATLAB's [[m, i] = min(v)]). *)

val sort_vector : ?with_index:bool -> Dmat.t -> Dmat.t * Dmat.t option
(** Ascending stable sort of a vector; optionally also the 1-based
    source permutation ([[s, i] = sort(v)]). *)

val bcast_elem : Dmat.t -> i:int -> j:int -> float
(** Paper's ML_broadcast: the owner of (i, j) broadcasts its value.
    0-based; for a rank >= 3 array [i] is the leading index and [j] the
    offset within its slice ({!Dmat.owner}).  Raises [Failure] when out
    of bounds. *)

val bcast_elems : Dmat.t -> (int * int) list -> float array
(** Batched ML_broadcast: owning ranks ship their packed slot values to
    rank 0 and one tree broadcast replicates the assembled batch -- at
    most (owners + P - 1) messages instead of a (P - 1)-message tree
    per element.  0-based coordinates; raises [Failure] when any is out
    of bounds. *)

val set_elem : Dmat.t -> i:int -> j:int -> float -> unit
(** Guarded store: only the owner writes (paper's pass-5 guard). *)

val circshift : Dmat.t -> int -> Dmat.t
(** Circular shift of a vector; O(n/P) traffic per rank. *)

val trapz : ?x:Dmat.t -> Dmat.t -> float
(** Trapezoid-rule integral; neighbour boundary exchange + allreduce. *)

val section : Dmat.t -> int array array -> Dmat.t
(** One replicated 0-based index vector per axis -> the array of the
    selected extents, same rank (no squeezing). *)

val section_linear : Dmat.t -> int array -> rows:int -> cols:int -> Dmat.t

val set_section : Dmat.t -> int array array -> (int -> float) -> unit
(** [set_section m sels value] stores [value k] at the k-th selected
    position (row-major selection order); owners write, so [value]
    must be pure.  Raises [Failure] when a selector is out of bounds
    and the selection is not empty. *)
