(* Block distribution arithmetic (the BLOCK_LOW/BLOCK_HIGH macros of
   data-parallel compilers).  [n] items over [p] ranks: rank [r] owns
   the half-open range [low r, low (r+1)). *)

let low ~rank ~nprocs ~n = rank * n / nprocs
let high ~rank ~nprocs ~n = (rank + 1) * n / nprocs
let size ~rank ~nprocs ~n = high ~rank ~nprocs ~n - low ~rank ~nprocs ~n

(* Owner of global index [i]: the inverse of [low], valid because the
   block sizes differ by at most one. *)
let owner ~nprocs ~n i =
  if n = 0 then 0
  else begin
    let r = (((i + 1) * nprocs) - 1) / n in
    (* Guard against rounding at block boundaries. *)
    let r = ref (min r (nprocs - 1)) in
    while low ~rank:!r ~nprocs ~n > i do
      decr r
    done;
    while high ~rank:!r ~nprocs ~n <= i do
      incr r
    done;
    !r
  end

let counts ~nprocs ~n = Array.init nprocs (fun r -> size ~rank:r ~nprocs ~n)

(* Block-cyclic distribution: [n] items split into blocks of [b]
   consecutive items, block j owned by rank [j mod p] -- the ScaLAPACK
   layout.  Locally a rank stores its blocks concatenated in global
   order; only the globally-last block can be short. *)
module Cyclic = struct
  let check b = if b < 1 then invalid_arg "cyclic: block size must be >= 1"

  let owner ~nprocs ~b i =
    check b;
    i / b mod nprocs

  (* Local offset of global index [i] on its owning rank. *)
  let local_of_global ~nprocs ~b i =
    check b;
    (i / b / nprocs * b) + (i mod b)

  (* Global index of local offset [l] on rank [r]: inverse of
     [local_of_global] restricted to [r]'s items. *)
  let global_of_local ~rank ~nprocs ~b l =
    check b;
    (((l / b * nprocs) + rank) * b) + (l mod b)

  let count ~rank ~nprocs ~b ~n =
    check b;
    if n = 0 then 0
    else begin
      let nblocks = (n + b - 1) / b in
      if rank >= nblocks then 0
      else begin
        let owned = ((nblocks - 1 - rank) / nprocs) + 1 in
        let full = owned * b in
        (* the short tail block belongs to the owner of block nblocks-1 *)
        if (nblocks - 1) mod nprocs = rank then full - ((nblocks * b) - n)
        else full
      end
    end

  let counts ~nprocs ~b ~n =
    Array.init nprocs (fun r -> count ~rank:r ~nprocs ~b ~n)
end
