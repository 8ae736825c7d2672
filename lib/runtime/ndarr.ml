(* The distributed rank-N TENSOR structure of the run-time library.
   Every rank holds the global header (dims) plus its local block of
   leading-axis slices:

   - a tensor with dims [| D0; ...; R; C |] is distributed
     block-contiguously over the LEADING axis (rank r owns slices
     [Dist.low r, Dist.high r), each slice being the full product of
     the remaining axes);
   - the trailing two axes form the matrix "cell"; frame broadcasting
     of a (replicated-scalar or same-cell matrix) operand never
     communicates because the cell is contiguous in row-major order.

   Tensors of identical dims are distributed identically, so
   element-wise operations never communicate (paper's assumption 2). *)

type t = {
  dims : int array; (* global extents, leading axis first; rank >= 3 *)
  low : int; (* first owned leading-axis slice *)
  count : int; (* number of owned slices *)
  data : float array; (* count * slice_numel, row-major *)
  full : bool;
      (* a rank-local replica: this rank holds every element (low = 0,
         count = dims.(0)).  Mirrors Dmat.full; operations on replicas
         stay local, so they are safe in rank-divergent control flow. *)
}

let rank t = Array.length t.dims
let numel t = Array.fold_left ( * ) 1 t.dims

(* Elements per leading-axis slice (product of all non-leading dims). *)
let slice_numel_of (dims : int array) =
  let s = ref 1 in
  for a = 1 to Array.length dims - 1 do
    s := !s * dims.(a)
  done;
  !s

let slice_numel t = slice_numel_of t.dims
let cell_rows t = t.dims.(rank t - 2)
let cell_cols t = t.dims.(rank t - 1)
let cell_numel t = cell_rows t * cell_cols t

let geometry (dims : int array) =
  let rank = Mpisim.Sim.rank () and nprocs = Mpisim.Sim.size () in
  let n = dims.(0) in
  let low = Dist.low ~rank ~nprocs ~n in
  let count = Dist.size ~rank ~nprocs ~n in
  (low, count)

let local_len t = t.count * slice_numel t
let local_els = local_len

let create (dims : int array) =
  if Array.length dims < 3 then invalid_arg "Ndarr.create: rank < 3";
  let low, count = geometry dims in
  {
    dims = Array.copy dims;
    low;
    count;
    data = Array.make (count * slice_numel_of dims) 0.;
    full = false;
  }

(* A rank-local replica: every element lives on this rank. *)
let create_full (dims : int array) =
  if Array.length dims < 3 then invalid_arg "Ndarr.create_full: rank < 3";
  {
    dims = Array.copy dims;
    low = 0;
    count = dims.(0);
    data = Array.make (dims.(0) * slice_numel_of dims) 0.;
    full = true;
  }

let of_full (dims : int array) (dense : float array) =
  let t = create_full dims in
  if Array.length dense <> numel t then invalid_arg "Ndarr.of_full: size mismatch";
  { t with data = Array.copy dense }

let same_locality a b = a.full = b.full

(* Global row-major linear index of local element [i]. *)
let global_of_local t i = (t.low * slice_numel t) + i

(* Does this rank own leading-axis slice [d0]? *)
let owner t ~d0 = d0 >= t.low && d0 < t.low + t.count

(* Rank that owns leading-axis slice [d0]. *)
let owner_rank t ~d0 =
  let nprocs = Mpisim.Sim.size () in
  Dist.owner ~nprocs ~n:t.dims.(0) d0

(* Row-major linear offset (within the GLOBAL tensor) of a 0-based
   multi-index, leading axis first.  Bounds-checked. *)
let global_offset t (idx : int array) =
  let off = ref 0 in
  Array.iteri
    (fun axis i ->
      if i < 0 || i >= t.dims.(axis) then
        invalid_arg
          (Printf.sprintf "tensor index %d out of bounds (extent %d, axis %d)"
             (i + 1) t.dims.(axis) (axis + 1));
      off := (!off * t.dims.(axis)) + i)
    idx;
  !off

(* Local load/store of a globally multi-indexed element; the caller
   must own its leading slice (the compiler emits the owner guard). *)
let get_local t (idx : int array) =
  t.data.(global_offset t idx - (t.low * slice_numel t))

let set_local t (idx : int array) v =
  t.data.(global_offset t idx - (t.low * slice_numel t)) <- v

(* Fill from a function of the global linear index (used by the
   constructors so every rank draws the same seeded stream). *)
let init (dims : int array) f =
  let t = create dims in
  let base = t.low * slice_numel t in
  for i = 0 to local_len t - 1 do
    t.data.(i) <- f (base + i)
  done;
  t

let counts_of (dims : int array) =
  let nprocs = Mpisim.Sim.size () in
  let slice = slice_numel_of dims in
  Array.map (fun c -> c * slice) (Dist.counts ~nprocs ~n:dims.(0))

(* Read-only replicated view (an allgather over the leading axis, see
   [Dmat.to_dense]): rank r's block starts at its first owned slice. *)
let to_dense t : float array =
  if t.full then Array.copy t.data
  else
    let nprocs = Mpisim.Sim.size () and slice = slice_numel t in
    Mpisim.Coll.allgatherv_offset
      ~offset:(fun r -> Dist.low ~rank:r ~nprocs ~n:t.dims.(0) * slice)
      t.data

(* Dense copy on the root only (cheaper; used for printing / output). *)
let to_dense_root ~root t : float array =
  if t.full then Array.copy t.data
  else
    let counts = counts_of t.dims in
    Mpisim.Coll.gatherv ~root ~counts t.data

(* Build from replicated dense data (no communication). *)
let of_dense (dims : int array) (dense : float array) =
  if Array.length dense <> Array.fold_left ( * ) 1 dims then
    invalid_arg "Ndarr.of_dense: size mismatch";
  init dims (fun g -> dense.(g))

let copy t = { t with data = Array.copy t.data }

(* Render slice-by-slice as the interpreter does; everything happens on
   the root, which returns Some text (other ranks return None). *)
let format_root ~root ?name t =
  let dense = to_dense_root ~root t in
  if Mpisim.Sim.rank () <> root then None
  else Some (Mlang.Fmtutil.format_tensor ?name ~dims:t.dims dense)
