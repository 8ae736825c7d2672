(* The distributed MATRIX structure of the run-time library (paper
   section 4).  Every rank holds the global header (dims, distribution)
   plus its local part.  One type carries every array: [dims] has any
   rank >= 2, a matrix being the rank-2 case, and the array is
   distributed over its leading axis.  Row-major, it is a [rows] x
   [cols] matrix whose [rows] is the leading extent and whose [cols] is
   the per-row width, the product of the non-leading dims (the cell of
   a rank-N array's leading slice); for a matrix those are its rows and
   columns.

   Under the paper's layout (the default):

   - a matrix with more than one row is distributed row-contiguously
     (rank r owns rows [Dist.low r, Dist.high r), all columns);
   - a single-row matrix (row vector) is distributed by column blocks;
   - a rank >= 3 array is distributed by contiguous blocks of leading
     slices, whatever the run's layout policy;
   - scalars are not MATRIX values; they are replicated by the VM.

   One further layout exists for the scaling studies and is selected
   per run through [default_layout]: block-cyclic (ScaLAPACK-style,
   blocks of [b] dealt round-robin along the distribution axis).  It
   applies to matrices only.  Under either layout a rank's local rows
   are whole.  Arrays of identical dims are distributed identically, so
   element-wise operations never communicate (paper's assumption 2)
   under every layout. *)

type axis = By_rows | By_cols

type layout =
  | Lblock (* contiguous blocks along the distribution axis *)
  | Lcyclic of int (* block-cyclic with the given block size *)

(* The run-wide distribution policy.  Set (and restored) by the driver
   around one parallel run; everything created inside the run follows
   it.  Mutating it mid-run would desynchronize ranks -- only the
   driver touches it. *)
let default_layout = ref Lblock

type t = {
  dims : int array; (* global extents, leading axis first; rank >= 2 *)
  rows : int; (* dims.(0) *)
  cols : int; (* product of the non-leading dims: dims.(1) for a matrix *)
  axis : axis;
  layout : layout;
  low : int; (* first owned row (By_rows) or column (By_cols);
                0 under a cyclic layout (ownership is not contiguous) *)
  count : int; (* number of owned rows/columns *)
  data : float array; (* By_rows: count*cols row-major; By_cols: count *)
  full : bool;
      (* a rank-local replica: this rank holds every element (low = 0,
         count covers the whole axis, layout Lblock).  Explicit message
         passing (MPI_Recv, MPI_Bcast) produces these; operations on
         them stay local, so they are safe inside rank-divergent
         control flow where a collective would deadlock. *)
  mutable writes : int;
      (* in-place stores into [data] since creation (see [set_local]);
         a checkpoint compares it to decide whether its last copy of
         this array is still current *)
}

let rank m = Array.length m.dims
let is_matrix m = Array.length m.dims = 2

(* The per-row width of [dims]: the product of its non-leading extents. *)
let width_of (dims : int array) =
  let w = ref 1 in
  for a = 1 to Array.length dims - 1 do
    w := !w * dims.(a)
  done;
  !w

(* A matrix with one row is distributed over its columns; every other
   array over its leading axis. *)
let axis_of_dims (dims : int array) =
  if Array.length dims = 2 && dims.(0) = 1 then By_cols else By_rows

(* The layout a fresh array of these dims takes under the current
   policy.  One rank or a rank >= 3 array degenerates to the plain
   block layout. *)
let effective_layout (dims : int array) ~nprocs =
  if nprocs = 1 || Array.length dims > 2 then Lblock
  else
    match !default_layout with
    | Lblock -> Lblock
    | Lcyclic b ->
        if b < 1 then
          invalid_arg "cyclic distribution: block size must be at least 1";
        Lcyclic b

let local_len m =
  match m.axis with By_rows -> m.count * m.cols | By_cols -> m.count

(* Paper's ML_local_els. *)
let local_els = local_len

(* A zero-filled array of these dims with this rank's local part
   allocated ([dims] is kept, not copied).  A rank-local replica holds
   every element regardless of the machine size, always laid out as one
   full block so every local-index helper below works unchanged,
   whatever the run policy. *)
let create_dims ?(full = false) (dims : int array) =
  if Array.length dims < 2 then invalid_arg "Dmat.create_dims: rank < 2";
  let rows = dims.(0) and cols = width_of dims in
  let axis = axis_of_dims dims in
  let n = match axis with By_rows -> rows | By_cols -> cols in
  let layout, low, count =
    if full then (Lblock, 0, n)
    else
      let rank = Mpisim.Sim.rank () and nprocs = Mpisim.Sim.size () in
      match effective_layout dims ~nprocs with
      | Lblock ->
          (Lblock, Dist.low ~rank ~nprocs ~n, Dist.size ~rank ~nprocs ~n)
      | Lcyclic b as layout ->
          (layout, 0, Dist.Cyclic.count ~rank ~nprocs ~b ~n)
  in
  let len = match axis with By_rows -> count * cols | By_cols -> count in
  let data = Array.make len 0. in
  { dims; rows; cols; axis; layout; low; count; data; full; writes = 0 }

let create ~rows ~cols = create_dims [| rows; cols |]
let create_full ~rows ~cols = create_dims ~full:true [| rows; cols |]

(* Zero-filled, with [m]'s dims, distribution and locality: the arrays
   of one run that share dims share their geometry. *)
let create_like m =
  { m with data = Array.make (Array.length m.data) 0.; writes = 0 }

let of_full ~rows ~cols (dense : float array) =
  if Array.length dense <> rows * cols then invalid_arg "of_full: size mismatch";
  { (create_full ~rows ~cols) with data = Array.copy dense }

let init_full ~rows ~cols f =
  let m = create_full ~rows ~cols in
  for g = 0 to (rows * cols) - 1 do
    m.data.(g) <- f g
  done;
  m

(* Do two same-shaped arrays share local geometry (so element-wise
   loops over their data arrays line up)?  A replica and a distributed
   block of the same shape do not.  Two distributed arrays of one
   shape always do: they were created under the same run policy. *)
let same_locality a b = a.full = b.full

let same_dims a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let r = Array.length a.dims in
  r = Array.length b.dims && (r = 2 || a.dims = b.dims)

let numel m = m.rows * m.cols
let is_vector m = is_matrix m && (m.rows = 1 || m.cols = 1)

(* Global row-major linear index of local element [i]. *)
let global_of_local m i =
  match m.layout with
  | Lblock -> (
      match m.axis with By_rows -> (m.low * m.cols) + i | By_cols -> m.low + i)
  | Lcyclic b -> (
      let rank = Mpisim.Sim.rank () and nprocs = Mpisim.Sim.size () in
      match m.axis with
      | By_rows ->
          let gr =
            Dist.Cyclic.global_of_local ~rank ~nprocs ~b (i / m.cols)
          in
          (gr * m.cols) + (i mod m.cols)
      | By_cols -> Dist.Cyclic.global_of_local ~rank ~nprocs ~b i)

(* Global (row, col) of local element [i]. *)
let global_rc_of_local m i =
  let g = global_of_local m i in
  (g / m.cols, g mod m.cols)

(* Does this rank own global element (i, j)?  Paper's ML_owner. *)
let owner m ~i ~j =
  match m.layout with
  | Lblock -> (
      match m.axis with
      | By_rows -> i >= m.low && i < m.low + m.count
      | By_cols -> j >= m.low && j < m.low + m.count)
  | Lcyclic b -> (
      let rank = Mpisim.Sim.rank () and nprocs = Mpisim.Sim.size () in
      match m.axis with
      | By_rows -> Dist.Cyclic.owner ~nprocs ~b i = rank
      | By_cols -> Dist.Cyclic.owner ~nprocs ~b j = rank)

(* Rank that owns global element (i, j). *)
let owner_rank m ~i ~j =
  let nprocs = Mpisim.Sim.size () in
  match m.layout with
  | Lblock -> (
      match m.axis with
      | By_rows -> Dist.owner ~nprocs ~n:m.rows i
      | By_cols -> Dist.owner ~nprocs ~n:m.cols j)
  | Lcyclic b -> (
      match m.axis with
      | By_rows -> Dist.Cyclic.owner ~nprocs ~b i
      | By_cols -> Dist.Cyclic.owner ~nprocs ~b j)

(* Index into [data] of global element (i, j); the caller must own it
   (the compiler emits the owner guard). *)
let local_index m ~i ~j =
  match m.layout with
  | Lblock -> (
      match m.axis with
      | By_rows -> ((i - m.low) * m.cols) + j
      | By_cols -> j - m.low)
  | Lcyclic b -> (
      let nprocs = Mpisim.Sim.size () in
      match m.axis with
      | By_rows -> (Dist.Cyclic.local_of_global ~nprocs ~b i * m.cols) + j
      | By_cols -> Dist.Cyclic.local_of_global ~nprocs ~b j)

(* Ownership comes in whole units: the rows of a row-distributed array
   ([cols] elements each, consecutive in [data]) and the single
   elements of a column-distributed one.  A replica's every unit is
   the running rank's. *)
let unit_width m = match m.axis with By_rows -> m.cols | By_cols -> 1

let unit_owner m u =
  if m.full then Mpisim.Sim.rank ()
  else
    match m.axis with
    | By_rows -> owner_rank m ~i:u ~j:0
    | By_cols -> owner_rank m ~i:0 ~j:u

(* Index into [data] of unit [u]'s first element; the caller owns it. *)
let unit_local m u =
  match m.axis with
  | By_rows -> local_index m ~i:u ~j:0
  | By_cols -> local_index m ~i:0 ~j:u

let get_local m ~i ~j = m.data.(local_index m ~i ~j)
(* The one store into an array that is not fresh: every in-place write
   (element and section assignment) comes through here and is
   counted. *)
let set_local m ~i ~j v =
  m.data.(local_index m ~i ~j) <- v;
  m.writes <- m.writes + 1

(* Fill from a function of the global linear index.  The block layout
   (the default, and the common case in every inner loop) is kept free
   of the per-element layout dispatch: its global indices are one add. *)
let init_dims (dims : int array) f =
  let m = create_dims dims in
  (match m.layout with
  | Lblock ->
      let base =
        match m.axis with By_rows -> m.low * m.cols | By_cols -> m.low
      in
      for i = 0 to local_len m - 1 do
        m.data.(i) <- f (base + i)
      done
  | Lcyclic _ ->
      for i = 0 to local_len m - 1 do
        m.data.(i) <- f (global_of_local m i)
      done);
  m

let init ~rows ~cols f = init_dims [| rows; cols |] f

(* [f i r c] for local elements [i = lo .. lo+len-1], in order, with
   their global (row, col).  Under the block layout local elements are
   consecutive global indices, so (row, col) is decoded once and
   stepped; the cyclic layout decodes each element. *)
let iter_rc m ~lo ~len f =
  match m.layout with
  | Lblock ->
      if len > 0 then begin
        let g = global_of_local m lo in
        let r = ref (g / m.cols) and c = ref (g mod m.cols) in
        for i = lo to lo + len - 1 do
          f i !r !c;
          if !c + 1 = m.cols then begin
            c := 0;
            incr r
          end
          else incr c
        done
      end
  | Lcyclic _ ->
      for i = lo to lo + len - 1 do
        let r, c = global_rc_of_local m i in
        f i r c
      done

let init_rc ~rows ~cols f =
  let m = create ~rows ~cols in
  iter_rc m ~lo:0 ~len:(local_len m) (fun i r c -> m.data.(i) <- f r c);
  m

(* Per-rank local element counts of [m]. *)
let counts_for m ~nprocs =
  let rows = m.rows and cols = m.cols in
  match m.layout with
  | Lblock -> (
      match m.axis with
      | By_rows -> Array.map (fun c -> c * cols) (Dist.counts ~nprocs ~n:rows)
      | By_cols -> Dist.counts ~nprocs ~n:cols)
  | Lcyclic b -> (
      match m.axis with
      | By_rows ->
          Array.map (fun c -> c * cols) (Dist.Cyclic.counts ~nprocs ~b ~n:rows)
      | By_cols -> Dist.Cyclic.counts ~nprocs ~b ~n:cols)

(* Global row-major index of rank [rank]'s local element [l] -- the
   per-rank generalization of [global_of_local], used to unpack a
   gathered non-block matrix into dense order. *)
let global_of_local_for m ~nprocs ~rank l =
  let rows = m.rows and cols = m.cols in
  match m.layout with
  | Lblock -> (
      match m.axis with
      | By_rows -> (Dist.low ~rank ~nprocs ~n:rows * cols) + l
      | By_cols -> Dist.low ~rank ~nprocs ~n:cols + l)
  | Lcyclic b -> (
      match m.axis with
      | By_rows ->
          let gr = Dist.Cyclic.global_of_local ~rank ~nprocs ~b (l / cols) in
          (gr * cols) + (l mod cols)
      | By_cols -> Dist.Cyclic.global_of_local ~rank ~nprocs ~b l)

(* Rearrange rank-order gathered local arrays into dense row-major
   order.  The block layout needs no rearranging: concatenating the
   blocks in rank order IS dense order, so callers skip this. *)
let permute_gathered m counts (gathered : float array) =
  let nprocs = Array.length counts in
  let dense = Array.make (m.rows * m.cols) 0. in
  let off = ref 0 in
  for r = 0 to nprocs - 1 do
    for l = 0 to counts.(r) - 1 do
      dense.(global_of_local_for m ~nprocs ~rank:r l) <-
        gathered.(!off + l)
    done;
    off := !off + counts.(r)
  done;
  dense

(* Read-only replicated view (an allgather, see [Coll]); used by
   operations that need a whole operand (matmul, transpose) and by
   verification.  A rank-local replica is already dense: no
   communication, so its copy is safe in rank-divergent control
   flow. *)
let to_dense m : float array =
  if m.full then Array.copy m.data
  else begin
    let nprocs = Mpisim.Sim.size () in
    match m.layout with
    | Lblock ->
        (* rank r's block starts at its first owned row (column) *)
        let n, width =
          match m.axis with By_rows -> (m.rows, m.cols) | By_cols -> (m.cols, 1)
        in
        Mpisim.Coll.allgatherv_offset
          ~offset:(fun r -> Dist.low ~rank:r ~nprocs ~n * width)
          m.data
    | Lcyclic _ ->
        let counts = counts_for m ~nprocs in
        permute_gathered m counts (Mpisim.Coll.allgatherv ~counts m.data)
  end

(* [m]'s units: its rows (By_rows) or columns (By_cols). *)
let units m = match m.axis with By_rows -> m.rows | By_cols -> m.cols

(* The ranks that own a unit of block-distributed [m], when each owns
   at most one (units m <= P): position [g] is rank [Dist.owner g], and
   owner [r] sits at position [Dist.low r], which is [m.low]; both are
   O(1), so no rank walks all P ranks. *)
let owner_group m =
  let nprocs = Mpisim.Sim.size () and n = units m in
  {
    Mpisim.Coll.size = n;
    pos = (if m.count > 0 then m.low else -1);
    rank = Dist.owner ~nprocs ~n;
  }

(* [to_dense m] for a consumer that reads it only on the ranks owning
   rows of [reader].  When [m]'s units and [reader]'s rows are equally
   many and fewer than the ranks, both under the block layout, the
   ranks that own one are the same set, each owns exactly one, and no
   other rank reads or contributes: the allgather runs among them
   alone ([owner_group]).  Every rank must call this; it returns
   [None] on a rank outside the group, which holds no row of [reader].
   Every other shape gathers over all ranks, as [to_dense] does. *)
let to_dense_for ~reader m =
  let nprocs = Mpisim.Sim.size () and n = units m in
  if
    m.full || reader.full || m.layout <> Lblock || reader.layout <> Lblock
    || reader.axis <> By_rows || reader.rows <> n || n >= nprocs
  then Some (to_dense m)
  else
    let width = unit_width m in
    let dense =
      Mpisim.Coll.allgatherv_group (owner_group m)
        ~offset:(fun g -> g * width)
        m.data
    in
    if m.count > 0 then Some dense else None

(* A rank-local replica of [m], or [m] itself when it is one: one
   allgather, whose read-only result becomes the replica's data. *)
let replicate m =
  if m.full then m
  else
    let n = match m.axis with By_rows -> m.rows | By_cols -> m.cols in
    { m with layout = Lblock; low = 0; count = n; data = to_dense m; full = true; writes = 0 }

(* Dense copy on the root only (cheaper; used for printing / output). *)
let to_dense_root ~root m : float array =
  if m.full then Array.copy m.data
  else begin
    let nprocs = Mpisim.Sim.size () in
    let counts = counts_for m ~nprocs in
    let gathered = Mpisim.Coll.gatherv ~root ~counts m.data in
    if Mpisim.Sim.rank () <> root then gathered
    else
      match m.layout with
      | Lblock -> gathered
      | Lcyclic _ -> permute_gathered m counts gathered
  end

(* Build from replicated dense data (no communication: every rank takes
   the part of [dense] it owns under the run's layout). *)
let of_dense ~rows ~cols (dense : float array) =
  if Array.length dense <> rows * cols then
    invalid_arg "of_dense: size mismatch";
  init ~rows ~cols (fun g -> dense.(g))

let copy m = { m with data = Array.copy m.data; writes = 0 }

(* Render as MATLAB prints it; everything happens on the root, which
   returns Some text (other ranks return None). *)
let format_root ~root ?name m =
  let dense = to_dense_root ~root m in
  if Mpisim.Sim.rank () <> root then None
  else if is_matrix m then
    Some (Mlang.Fmtutil.format_matrix ?name ~rows:m.rows ~cols:m.cols dense)
  else Some (Mlang.Fmtutil.format_tensor ?name ~dims:m.dims dense)
