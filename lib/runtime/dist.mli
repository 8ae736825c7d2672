(** Block distribution arithmetic (the BLOCK_LOW/BLOCK_HIGH macros of
    data-parallel compilers): [n] items over [p] ranks in contiguous
    blocks whose sizes differ by at most one. *)

val low : rank:int -> nprocs:int -> n:int -> int
val high : rank:int -> nprocs:int -> n:int -> int
val size : rank:int -> nprocs:int -> n:int -> int

val owner : nprocs:int -> n:int -> int -> int
(** Rank owning global index [i]. *)

val counts : nprocs:int -> n:int -> int array

(** Block-cyclic distribution (the ScaLAPACK layout): [n] items in
    blocks of [b], block [j] owned by rank [j mod p]; a rank stores its
    blocks concatenated in global order. *)
module Cyclic : sig
  val owner : nprocs:int -> b:int -> int -> int

  val local_of_global : nprocs:int -> b:int -> int -> int
  (** Local offset of a global index on its owning rank. *)

  val global_of_local : rank:int -> nprocs:int -> b:int -> int -> int
  (** Inverse of {!local_of_global} on rank [rank]'s items. *)

  val count : rank:int -> nprocs:int -> b:int -> n:int -> int
  val counts : nprocs:int -> b:int -> n:int -> int array
end
