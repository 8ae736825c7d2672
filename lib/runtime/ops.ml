(* Matrix and vector operations that require interprocessor
   communication on a distributed-memory machine (paper section 4).
   Element-wise arithmetic is *not* here: the compiler turns it into
   per-element loops over locally owned data.

   Every operation charges its floating-point work through [Sim.flops];
   communication cost is charged implicitly by the messages it sends. *)

open Mpisim
module Rel = Reliable

let tag_shift = 3001
let tag_trapz = 3002

(* Rank-local replicas (from MPI_Recv / MPI_Bcast) may hold different
   values on every rank, and their owners cannot join a collective from
   inside rank-divergent control flow -- so an operation must see
   either all-replica operands (and stay local) or all-distributed ones
   (and communicate as usual).  A mix is rejected rather than silently
   producing rank-inconsistent results. *)
let locality_error op =
  failwith
    (op
   ^ ": cannot mix a replicated (message-passing) matrix with a distributed \
      one; MPI_Bcast the distributed operand first")

(* Layouts whose local data is whole matrix rows in ascending global
   order -- the assumption baked into the row-sliced kernels below.
   True for the block and block-cyclic layouts; the 2-D grid layout
   stores tiles, so grid operands take a gather-based fallback. *)
let row_sliced (m : Dmat.t) =
  match m.Dmat.layout with
  | Dmat.Lgrid _ -> false
  | Dmat.Lblock | Dmat.Lcyclic _ -> true

(* --- matrix multiply family ------------------------------------------- *)

(* The one dense multiply kernel: c.(i*n + j) <- sum over kk of
   a.(i*k + kk) * b.(kk*n + j) for rows i in [0, rows), with [c]
   zero-filled on entry and [b] the whole k x n operand.  Every output
   element is the textbook dot product -- the same multiplies and adds,
   summed over kk in ascending order from +0 -- so the result is
   bit-identical to an i-j-k triple loop; only the memory order differs
   (DESIGN.md section 3.3, "Exact kernels"):

   - n > 1 runs i-k-j, adding a.(i,kk) * B(kk,:) into row i of [c] so
     B streams by rows.  A zero a.(i,kk) is skipped when row kk of B is
     all finite: every product is then +-0, and adding +-0 to a sum
     that started at +0 leaves it unchanged (round-to-nearest never
     yields -0 from such a sum).  The guard keeps 0 * Inf = NaN.  Each
     row of B is scanned lazily, the first time a zero meets it, so a
     rank that owns no rows scans nothing.
   - n = 1 (matrix-vector) keeps the dot form but runs four rows per
     pass with four independent accumulators, each summing its own row
     in order; the tail rows run one at a time.

   Callers charge flops by shape (2 * rows * n * k), not by the work
   the skip avoids, so the modeled time does not depend on the data. *)
let mm_kernel ~rows ~k ~n (a : float array) (b : float array)
    (c : float array) =
  if n = 1 then begin
    let i = ref 0 in
    while !i + 3 < rows do
      let a0 = !i * k in
      let a1 = a0 + k in
      let a2 = a1 + k in
      let a3 = a2 + k in
      let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
      for kk = 0 to k - 1 do
        let x = b.(kk) in
        s0 := !s0 +. (a.(a0 + kk) *. x);
        s1 := !s1 +. (a.(a1 + kk) *. x);
        s2 := !s2 +. (a.(a2 + kk) *. x);
        s3 := !s3 +. (a.(a3 + kk) *. x)
      done;
      c.(!i) <- !s0;
      c.(!i + 1) <- !s1;
      c.(!i + 2) <- !s2;
      c.(!i + 3) <- !s3;
      i := !i + 4
    done;
    for i = !i to rows - 1 do
      let ai = i * k in
      let s = ref 0. in
      for kk = 0 to k - 1 do
        s := !s +. (a.(ai + kk) *. b.(kk))
      done;
      c.(i) <- !s
    done
  end
  else begin
    (* per row of B: 0 = not yet scanned, 1 = all finite, 2 = not *)
    let finite = Bytes.make k '\000' in
    let row_finite kk =
      match Bytes.get finite kk with
      | '\001' -> true
      | '\002' -> false
      | _ ->
          let ok = ref true and j = ref 0 and bk = kk * n in
          while !ok && !j < n do
            ok := Float.is_finite b.(bk + !j);
            incr j
          done;
          Bytes.set finite kk (if !ok then '\001' else '\002');
          !ok
    in
    for i = 0 to rows - 1 do
      let ai = i * k and ci = i * n in
      for kk = 0 to k - 1 do
        let x = a.(ai + kk) in
        if not (x = 0. && row_finite kk) then begin
          let bk = kk * n in
          for j = 0 to n - 1 do
            c.(ci + j) <- c.(ci + j) +. (x *. b.(bk + j))
          done
        end
      done
    done
  end

(* C = A * B for distributed operands.  The row-distributed common case
   gathers B and computes locally owned rows of C; a row-vector A
   (1 x k, column-distributed) instead uses partial sums over the rows
   of B each rank owns, finished with an allreduce. *)
let matmul (a : Dmat.t) (b : Dmat.t) : Dmat.t =
  if a.cols <> b.rows then
    failwith
      (Printf.sprintf "matmul: inner dimensions disagree (%dx%d * %dx%d)"
         a.rows a.cols b.rows b.cols);
  let m = a.rows and k = a.cols and n = b.cols in
  if a.full || b.full then begin
    if not (a.full && b.full) then locality_error "matmul";
    let c = Dmat.create_full ~rows:m ~cols:n in
    mm_kernel ~rows:m ~k ~n a.data b.data c.data;
    Sim.flops (2. *. float_of_int (m * n * k));
    c
  end
  else if m = 1 && row_sliced b then begin
    (* (1 x k) * (k x n): partial sums over B's owned rows. *)
    let af = Dmat.to_dense a in
    let partial = Array.make n 0. in
    (* hoist the layout dispatch out of the element loops: under the
       default block layout the global row/column is one add *)
    let grow =
      match b.Dmat.layout with
      | Dmat.Lblock -> fun lr -> b.Dmat.low + lr
      | Dmat.Lcyclic _ | Dmat.Lgrid _ ->
          fun lr -> fst (Dmat.global_rc_of_local b (lr * n))
    in
    let gcol =
      match b.Dmat.layout with
      | Dmat.Lblock -> fun lj -> b.Dmat.low + lj
      | Dmat.Lcyclic _ | Dmat.Lgrid _ -> fun lj -> Dmat.global_of_local b lj
    in
    (match b.axis with
    | Dmat.By_rows ->
        for lr = 0 to b.count - 1 do
          let i = grow lr in
          for j = 0 to n - 1 do
            partial.(j) <- partial.(j) +. (af.(i) *. b.data.((lr * n) + j))
          done
        done;
        Sim.flops (2. *. float_of_int (b.count * n))
    | Dmat.By_cols ->
        (* B is 1 x n, hence k = 1: scalar-style outer case. *)
        for lj = 0 to b.count - 1 do
          partial.(gcol lj) <- af.(0) *. b.data.(lj)
        done;
        Sim.flops (float_of_int b.count));
    let full = Coll.allreduce ~op:Coll.Sum partial in
    Dmat.of_dense ~rows:1 ~cols:n full
  end
  else
    let c = Dmat.create ~rows:m ~cols:n in
    (* C's local rows are whole unless C is tiled: an (m x 1) * (1 x n)
       product can be, though its vector operands never are *)
    if row_sliced a && row_sliced b && c.ccount = n then begin
      let bf = Dmat.to_dense b in
      mm_kernel ~rows:c.count ~k ~n a.data bf c.data;
      Sim.flops (2. *. float_of_int (c.count * n * k));
      c
    end
    else begin
      (* Grid tiles do not slice into whole rows; replicate both
         operands and compute the full product everywhere (like the
         interpreter). *)
      let ad = Dmat.to_dense a and bd = Dmat.to_dense b in
      let cd = Array.make (m * n) 0. in
      mm_kernel ~rows:m ~k ~n ad bd cd;
      Sim.flops (2. *. float_of_int (m * n * k));
      Dmat.of_dense ~rows:m ~cols:n cd
    end

(* Local contribution to a dot product (the pre-combine partial; also
   one slot of a fused allreduce). *)
let local_dot (a : Dmat.t) (b : Dmat.t) : float =
  if Dmat.numel a <> Dmat.numel b then failwith "dot: length mismatch";
  if not (Dmat.same_locality a b) then locality_error "dot";
  let la = Dmat.local_len a and lb = Dmat.local_len b in
  if la <> lb then failwith "dot: distribution mismatch";
  let acc = ref 0. in
  for i = 0 to la - 1 do
    acc := !acc +. (a.data.(i) *. b.data.(i))
  done;
  Sim.flops (2. *. float_of_int la);
  !acc

(* Dot product of two vectors with identical distribution.  Replicated
   operands already hold everything: the local partial is the answer. *)
let dot (a : Dmat.t) (b : Dmat.t) : float =
  let partial = local_dot a b in
  if a.full then partial else Coll.allreduce_scalar ~op:Coll.Sum partial

(* Transpose.  Vector transposes are free: an n x 1 column and a 1 x n
   row share the same element-block distribution.  General transposes
   use pairwise block exchange (an all-to-all): every rank ships, to
   each peer, the intersection of its own rows with the peer's result
   rows (= source columns), so per-rank traffic is O(rows*cols/P)
   rather than a full gather. *)
let tag_transpose = 3003

let transpose (m : Dmat.t) : Dmat.t =
  if m.full then begin
    let r = Dmat.create_full ~rows:m.cols ~cols:m.rows in
    if m.rows = 1 || m.cols = 1 then
      Array.blit m.data 0 r.data 0 (Array.length m.data)
    else
      for i = 0 to m.rows - 1 do
        for j = 0 to m.cols - 1 do
          r.data.((j * m.rows) + i) <- m.data.((i * m.cols) + j)
        done
      done;
    r
  end
  else if m.rows = 1 || m.cols = 1 then begin
    (* An n x 1 column and 1 x n row share the same element layout
       (also under the cyclic layouts), so the transpose is a blit. *)
    let r = Dmat.create ~rows:m.cols ~cols:m.rows in
    Array.blit m.data 0 r.data 0 (Array.length m.data);
    r
  end
  else if m.layout <> Dmat.Lblock then begin
    (* The pairwise exchange below speaks contiguous row blocks;
       other layouts replicate and select the local part instead. *)
    let dense = Dmat.to_dense m in
    Dmat.init_rc ~rows:m.cols ~cols:m.rows (fun i j -> dense.((j * m.cols) + i))
  end
  else begin
    let nprocs = Sim.size () and me = Sim.rank () in
    let r = Dmat.create ~rows:m.cols ~cols:m.rows in
    (* Result rows of rank d are source columns [clo d, chi d). *)
    let clo d = Dist.low ~rank:d ~nprocs ~n:m.cols in
    let chi d = Dist.high ~rank:d ~nprocs ~n:m.cols in
    (* Pack my rows x peer's columns; row-major over (col, row) so the
       receiver can unpack directly into its row-major result block. *)
    let pack d =
      let c0 = clo d and c1 = chi d in
      let w = c1 - c0 in
      let buf = Array.make (w * m.count) 0. in
      for jc = 0 to w - 1 do
        for li = 0 to m.count - 1 do
          buf.((jc * m.count) + li) <- m.data.((li * m.cols) + c0 + jc)
        done
      done;
      buf
    in
    (* Unpack a block from [src]: source rows [rlo src, rhi src) of my
       result columns. *)
    let unpack src (buf : float array) =
      let r0 = Dist.low ~rank:src ~nprocs ~n:m.rows in
      let r1 = Dist.high ~rank:src ~nprocs ~n:m.rows in
      let h = r1 - r0 in
      for jc = 0 to r.count - 1 do
        for li = 0 to h - 1 do
          r.data.((jc * r.cols) + r0 + li) <- buf.((jc * h) + li)
        done
      done
    in
    for d = 0 to nprocs - 1 do
      if d <> me && chi d > clo d && m.count > 0 then
        Rel.send ~dst:d ~tag:tag_transpose (Sim.Floats (pack d))
    done;
    if m.count > 0 && chi me > clo me then unpack me (pack me);
    for src = 0 to nprocs - 1 do
      let h = Dist.size ~rank:src ~nprocs ~n:m.rows in
      if src <> me && h > 0 && r.count > 0 then
        unpack src
          (Coll.recv_block ~what:"transpose" ~src ~tag:tag_transpose
             (h * r.count))
    done;
    r
  end

(* Gather-based transpose: replicate the whole operand, then select
   the local block of the result.  O(rows*cols) traffic per rank; the
   ablation baseline for the pairwise-exchange transpose above. *)
let transpose_gather (m : Dmat.t) : Dmat.t =
  if m.full || m.rows = 1 || m.cols = 1 then transpose m
  else begin
    let dense = Dmat.to_dense m in
    Dmat.init_rc ~rows:m.cols ~cols:m.rows (fun i j -> dense.((j * m.cols) + i))
  end

(* C = A' * B without materializing the transpose (ML_matmul_t).  Both
   operands share the same row-block distribution over the common
   dimension, so each rank forms the full m x k partial product of its
   own rows and a single allreduce finishes the sum -- no all-to-all
   redistribution for the transpose and no gather of either operand.
   A row-vector A (the common dimension is 1) is column-distributed
   instead; its transpose is free, so fall back to the plain kernel. *)
let matmul_t (a : Dmat.t) (b : Dmat.t) : Dmat.t =
  if a.rows <> b.rows then
    failwith
      (Printf.sprintf "matmul_t: inner dimensions disagree (%dx%d' * %dx%d)"
         a.rows a.cols b.rows b.cols);
  if a.full || b.full then begin
    if not (a.full && b.full) then locality_error "matmul_t";
    matmul (transpose a) b
  end
  else if a.rows = 1 then matmul (transpose a) b
  else if not (row_sliced a && row_sliced b) then begin
    (* Grid tiles: replicate and form the full product everywhere. *)
    let ad = Dmat.to_dense a and bd = Dmat.to_dense b in
    let m = a.cols and k = b.cols and r = a.rows in
    let cd = Array.make (m * k) 0. in
    for i = 0 to r - 1 do
      for ja = 0 to m - 1 do
        let av = ad.((i * m) + ja) in
        for jb = 0 to k - 1 do
          cd.((ja * k) + jb) <- cd.((ja * k) + jb) +. (av *. bd.((i * k) + jb))
        done
      done
    done;
    Sim.flops (2. *. float_of_int (r * m * k));
    Dmat.of_dense ~rows:m ~cols:k cd
  end
  else begin
    let m = a.cols and k = b.cols in
    let partial = Array.make (m * k) 0. in
    for lr = 0 to a.count - 1 do
      for ja = 0 to m - 1 do
        let av = a.data.((lr * m) + ja) in
        for jb = 0 to k - 1 do
          partial.((ja * k) + jb) <-
            partial.((ja * k) + jb) +. (av *. b.data.((lr * k) + jb))
        done
      done
    done;
    Sim.flops (2. *. float_of_int (a.count * m * k));
    let full = Coll.allreduce ~op:Coll.Sum partial in
    Dmat.of_dense ~rows:m ~cols:k full
  end

(* diag: a vector of n elements becomes the n x n matrix carrying it on
   the main diagonal; a general matrix yields its min(rows, cols)-element
   diagonal as a column vector.  Both directions redistribute elements
   across ranks, so we gather the (small) source and fill locally. *)
let diag (m : Dmat.t) : Dmat.t =
  let dense = Dmat.to_dense m in
  let build ~rows ~cols f =
    if m.full then Dmat.init_full ~rows ~cols f
    else Dmat.init ~rows ~cols f
  in
  if m.rows = 1 || m.cols = 1 then begin
    let n = Dmat.numel m in
    let r =
      build ~rows:n ~cols:n (fun g ->
          if g / n = g mod n then dense.(g / n) else 0.)
    in
    Sim.flops (float_of_int n);
    r
  end
  else begin
    let n = min m.rows m.cols in
    let r = build ~rows:n ~cols:1 (fun g -> dense.((g * m.cols) + g)) in
    Sim.flops (float_of_int n);
    r
  end

(* Outer product u * v' (u: m x 1, v: n x 1 or 1 x n) -> m x n. *)
let outer (u : Dmat.t) (v : Dmat.t) : Dmat.t =
  (* The result is row-distributed for m > 1 but column-distributed
     when m = 1, and then u's single element may live on another rank,
     so fill through global indices from replicated operands. *)
  let m = Dmat.numel u and n = Dmat.numel v in
  if u.full <> v.full then locality_error "outer product";
  let uf = Dmat.to_dense u and vf = Dmat.to_dense v in
  let c =
    if u.full then
      Dmat.init_full ~rows:m ~cols:n (fun g -> uf.(g / n) *. vf.(g mod n))
    else Dmat.init_rc ~rows:m ~cols:n (fun i j -> uf.(i) *. vf.(j))
  in
  Sim.flops (float_of_int (Dmat.local_len c));
  c

(* --- reductions -------------------------------------------------------- *)

type red = Rsum | Rprod | Rmin | Rmax | Rany | Rall

(* min/max use NaN as the fold identity and skip NaN operands: MATLAB
   ignores NaNs, yielding NaN only when every element is NaN.  A rank
   that owns no elements then contributes the identity, which the
   combine drops. *)
let red_init = function
  | Rsum -> 0.
  | Rprod -> 1.
  | Rmin | Rmax -> Float.nan
  | Rany -> 0.
  | Rall -> 1.

let red_combine op a b =
  match op with
  | Rsum -> a +. b
  | Rprod -> a *. b
  | Rmin | Rmax ->
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if op = Rmin then Float.min a b
      else Float.max a b
  | Rany -> if a <> 0. || b <> 0. then 1. else 0.
  | Rall -> if a <> 0. && b <> 0. then 1. else 0.

let coll_op = function
  | Rsum -> Coll.Sum
  | Rprod -> Coll.Prod
  | Rmin -> Coll.Min
  | Rmax -> Coll.Max
  | Rany -> Coll.Lor
  | Rall -> Coll.Land

(* Local fold over the owned elements (the pre-combine partial; also
   one slot of a fused allreduce). *)
let local_red op (m : Dmat.t) : float =
  let acc = ref (red_init op) in
  for i = 0 to Dmat.local_len m - 1 do
    acc := red_combine op !acc m.data.(i)
  done;
  Sim.flops (float_of_int (Dmat.local_len m));
  !acc

(* Reduce all elements of a vector (or whole matrix) to one scalar; a
   replicated operand folds locally, without the collective. *)
let reduce_all op (m : Dmat.t) : float =
  let partial = local_red op m in
  if m.full then partial else Coll.allreduce_scalar ~op:(coll_op op) partial

(* Column-wise reduction of a row-distributed matrix -> 1 x cols. *)
let reduce_cols op (m : Dmat.t) : Dmat.t =
  let n = m.cols in
  if not (row_sliced m) then begin
    (* Grid tiles: replicate and fold whole columns in global order. *)
    let dense = Dmat.to_dense m in
    let partial = Array.make n (red_init op) in
    for i = 0 to m.rows - 1 do
      for j = 0 to n - 1 do
        partial.(j) <- red_combine op partial.(j) dense.((i * n) + j)
      done
    done;
    Sim.flops (float_of_int (m.rows * n));
    Dmat.of_dense ~rows:1 ~cols:n partial
  end
  else begin
  let partial = Array.make n (red_init op) in
  for li = 0 to m.count - 1 do
    for j = 0 to n - 1 do
      partial.(j) <- red_combine op partial.(j) m.data.((li * n) + j)
    done
  done;
  Sim.flops (float_of_int (m.count * n));
  if m.full then Dmat.of_full ~rows:1 ~cols:n partial
  else
    let full = Coll.allreduce ~op:(coll_op op) partial in
    Dmat.of_dense ~rows:1 ~cols:n full
  end

let mean_all (m : Dmat.t) = reduce_all Rsum m /. float_of_int (Dmat.numel m)

let mean_cols (m : Dmat.t) =
  let s = reduce_cols Rsum m in
  let inv = 1. /. float_of_int m.rows in
  for i = 0 to Dmat.local_len s - 1 do
    s.data.(i) <- s.data.(i) *. inv
  done;
  Sim.flops (float_of_int (Dmat.local_len s));
  s

let norm2 (v : Dmat.t) = sqrt (dot v v)

(* One slot of a fused allreduce (the compiler's Ireduce_fused): only
   sum-combining reductions fuse, so the whole batch travels as a
   single Sum allreduce of one vector, followed by replicated local
   postprocessing (mean's division, norm's square root).  Slot values
   are bit-identical to the unfused operations: the local partials and
   the per-element combine tree are the same. *)
type fused =
  | Fsum of Dmat.t
  | Fmean of Dmat.t
  | Fdot of Dmat.t * Dmat.t
  | Fnorm of Dmat.t

let reduce_fused (slots : fused list) : float array =
  let mats =
    List.concat_map
      (function Fsum m | Fmean m | Fnorm m -> [ m ] | Fdot (a, b) -> [ a; b ])
      slots
  in
  let n_repl = List.length (List.filter (fun m -> m.Dmat.full) mats) in
  if n_repl > 0 && n_repl < List.length mats then
    locality_error "fused reduction";
  let local =
    Array.of_list
      (List.map
         (function
           | Fsum m | Fmean m -> local_red Rsum m
           | Fdot (a, b) -> local_dot a b
           | Fnorm v -> local_dot v v)
         slots)
  in
  let full = if n_repl > 0 then local else Coll.allreduce ~op:Coll.Sum local in
  List.iteri
    (fun i s ->
      match s with
      | Fmean m -> full.(i) <- full.(i) /. float_of_int (Dmat.numel m)
      | Fnorm _ -> full.(i) <- sqrt full.(i)
      | Fsum _ | Fdot _ -> ())
    slots;
  full

(* Cumulative sum/product along a vector: local scan plus an exclusive
   scan of the per-rank totals (recursive doubling, log P rounds). *)
type scan = Cumsum | Cumprod

let cumulative op (v : Dmat.t) : Dmat.t =
  if not (Dmat.is_vector v) then
    failwith "cumsum/cumprod of a whole matrix is not supported";
  if (not v.full) && v.layout <> Dmat.Lblock then begin
    (* Under a cyclic layout rank order is not global order, so the
       exscan-of-totals trick below does not apply: replicate, scan
       densely (every rank computes the same values), keep the owned
       part.  The replica is read-only, so the scan goes to a new
       array. *)
    let combine, identity =
      match op with Cumsum -> (( +. ), 0.) | Cumprod -> (( *. ), 1.)
    in
    let dense = Dmat.to_dense v in
    let scanned = Array.create_float (Array.length dense) in
    let acc = ref identity in
    for i = 0 to Array.length dense - 1 do
      acc := combine !acc dense.(i);
      scanned.(i) <- !acc
    done;
    Sim.flops (float_of_int (Array.length dense));
    Dmat.of_dense ~rows:v.rows ~cols:v.cols scanned
  end
  else begin
  let r =
    if v.full then Dmat.create_full ~rows:v.rows ~cols:v.cols
    else Dmat.create ~rows:v.rows ~cols:v.cols
  in
  let len = Dmat.local_len v in
  let combine, identity, cop =
    match op with
    | Cumsum -> (( +. ), 0., Coll.Sum)
    | Cumprod -> (( *. ), 1., Coll.Prod)
  in
  let acc = ref identity in
  for i = 0 to len - 1 do
    acc := combine !acc v.data.(i);
    r.data.(i) <- !acc
  done;
  Sim.flops (float_of_int len);
  if not v.full then begin
    let offset = Coll.exscan ~op:cop ~identity !acc in
    for i = 0 to len - 1 do
      r.data.(i) <- combine offset r.data.(i)
    done;
    Sim.flops (float_of_int len)
  end;
  r
  end

(* min/max with the (1-based, MATLAB column-order) index of the first
   extremum: local best, then every rank picks the winner from the
   allgathered per-rank candidates (ties resolve to the lowest index). *)
let reduce_with_index op (v : Dmat.t) : float * int =
  if not (Dmat.is_vector v) then
    failwith "[m, i] = min/max of a full matrix is not supported";
  let better a b =
    (* NaN is never better; anything beats a NaN (MATLAB) *)
    (not (Float.is_nan a))
    && (Float.is_nan b
       ||
       match op with Rmin -> a < b | Rmax -> a > b | _ -> assert false)
  in
  let len = Dmat.local_len v in
  (* -1 marks a rank that owns no elements *)
  let best = ref (red_init op) and best_g = ref (-1) in
  for i = 0 to len - 1 do
    if better v.data.(i) !best then begin
      best := v.data.(i);
      best_g := Dmat.global_of_local v i
    end
  done;
  Sim.flops (float_of_int len);
  if v.full then begin
    if !best_g < 0 then
      if Dmat.numel v > 0 then (Float.nan, 1) (* every element is NaN *)
      else failwith "min/max of an empty vector"
    else (!best, !best_g + 1)
  end
  else begin
  let nprocs = Sim.size () in
  let counts = Array.make nprocs 2 in
  let candidates =
    Coll.allgatherv ~counts [| !best; float_of_int !best_g |]
  in
  let final_v = ref (red_init op) and final_g = ref (-1) in
  for r = 0 to nprocs - 1 do
    let value = candidates.(2 * r) in
    let g = int_of_float candidates.((2 * r) + 1) in
    if
      g >= 0
      && (!final_g < 0 || better value !final_v
         || (value = !final_v && g < !final_g))
    then begin
      final_v := value;
      final_g := g
    end
  done;
  if !final_g < 0 then
    if Dmat.numel v > 0 then (Float.nan, 1) (* every element is NaN *)
    else failwith "min/max of an empty vector"
  else (!final_v, !final_g + 1)
  end

(* Ascending sort of a vector, optionally with the permutation
   (1-based indices of where each sorted value came from; ties keep the
   lower index, matching MATLAB's stable sort).  Implemented in the
   run-time library's "simple but correct" style: replicate, sort,
   keep the local block -- O(n log n) local work after an O(n)
   gather. *)
let sort_vector ?(with_index = false) (v : Dmat.t) : Dmat.t * Dmat.t option =
  if not (Dmat.is_vector v) then
    failwith "sort of a full matrix is not supported";
  let n = Dmat.numel v in
  let dense = Dmat.to_dense v in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      (* MATLAB sorts NaNs to the end (OCaml's compare puts them first) *)
      let c =
        match (Float.is_nan dense.(a), Float.is_nan dense.(b)) with
        | true, true -> 0
        | true, false -> 1
        | false, true -> -1
        | false, false -> compare dense.(a) dense.(b)
      in
      if c <> 0 then c else compare a b)
    order;
  Sim.flops (float_of_int (n * 8)); (* ~ n log n comparison cost *)
  let build f =
    if v.full then Dmat.init_full ~rows:v.rows ~cols:v.cols f
    else Dmat.init ~rows:v.rows ~cols:v.cols f
  in
  let sorted = build (fun g -> dense.(order.(g))) in
  let idx =
    if with_index then Some (build (fun g -> float_of_int (order.(g) + 1)))
    else None
  in
  (sorted, idx)

(* --- element broadcast and guarded element update ---------------------- *)

(* Paper's ML_broadcast: the owner of (i, j) broadcasts its value.  For
   a rank >= 3 array, [i] is the leading index and [j] the offset
   within its slice (see [Dmat.owner]); the caller checks each axis. *)
let bcast_elem (m : Dmat.t) ~i ~j : float =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    failwith (Printf.sprintf "index (%d,%d) out of bounds %dx%d" (i + 1) (j + 1) m.rows m.cols);
  if m.full then Dmat.get_local m ~i ~j (* every rank owns a replica *)
  else
    let root = Dmat.owner_rank m ~i ~j in
    let v = if Dmat.owner m ~i ~j then Dmat.get_local m ~i ~j else 0. in
    Coll.bcast_scalar ~root v

let tag_bcast_batch = 3004

(* Batched ML_broadcast: several elements of one matrix fetched at
   once.  The coordinates are replicated, so every rank computes the
   same owner plan: ranks owning requested elements ship their packed
   slot values to rank 0 and one tree broadcast replicates the
   assembled batch.  That is at most (owning ranks + P - 1) messages,
   against one (P - 1)-message broadcast tree per element. *)
let bcast_elems (m : Dmat.t) (coords : (int * int) list) : float array =
  let coords = Array.of_list coords in
  let n = Array.length coords in
  if m.full then
    Array.map
      (fun (i, j) ->
        if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
          failwith
            (Printf.sprintf "index (%d,%d) out of bounds %dx%d" (i + 1) (j + 1)
               m.rows m.cols);
        Dmat.get_local m ~i ~j)
      coords
  else begin
  let owners =
    Array.map
      (fun (i, j) ->
        if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
          failwith
            (Printf.sprintf "index (%d,%d) out of bounds %dx%d" (i + 1)
               (j + 1) m.rows m.cols);
        Dmat.owner_rank m ~i ~j)
      coords
  in
  let me = Sim.rank () and root = 0 in
  let buf = Array.make n 0. in
  for k = 0 to n - 1 do
    if owners.(k) = me then
      let i, j = coords.(k) in
      buf.(k) <- Dmat.get_local m ~i ~j
  done;
  if me = root then
    for src = 0 to Sim.size () - 1 do
      let owned =
        Array.fold_left (fun c o -> if o = src then c + 1 else c) 0 owners
      in
      if src <> root && owned > 0 then begin
        let chunk =
          Coll.recv_block ~what:"element broadcast" ~src ~tag:tag_bcast_batch
            owned
        in
        let next = ref 0 in
        for k = 0 to n - 1 do
          if owners.(k) = src then begin
            buf.(k) <- chunk.(!next);
            incr next
          end
        done
      end
    done
  else if Array.exists (fun o -> o = me) owners then begin
    let mine = ref [] in
    for k = n - 1 downto 0 do
      if owners.(k) = me then mine := buf.(k) :: !mine
    done;
    Rel.send ~dst:root ~tag:tag_bcast_batch
      (Sim.Floats (Array.of_list !mine))
  end;
  Coll.bcast ~root buf
  end

(* Guarded store: only the owner writes (paper's pass 5 conditional);
   (i, j) as in [bcast_elem]. *)
let set_elem (m : Dmat.t) ~i ~j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    failwith (Printf.sprintf "index (%d,%d) out of bounds %dx%d" (i + 1) (j + 1) m.rows m.cols);
  if Dmat.owner m ~i ~j then Dmat.set_local m ~i ~j v

(* --- circular shift ----------------------------------------------------- *)

(* result(g) = v((g - s) mod n): every rank ships each maximal run of
   its block to the rank owning the shifted positions, so the traffic
   is O(n/P) per rank rather than a full gather.  Message order between
   a pair of ranks is ascending in source index on both sides. *)
let circshift (v : Dmat.t) s : Dmat.t =
  let n = Dmat.numel v in
  if n = 0 then Dmat.copy v
  else begin
    let s = ((s mod n) + n) mod n in
    if s = 0 then Dmat.copy v
    else if v.full then
      Dmat.init_full ~rows:v.rows ~cols:v.cols (fun g ->
          v.data.(((g - s) mod n + n) mod n))
    else if v.layout <> Dmat.Lblock then begin
      (* The run-shipping plan below speaks contiguous blocks; cyclic
         layouts replicate and select instead. *)
      let dense = Dmat.to_dense v in
      Dmat.init ~rows:v.rows ~cols:v.cols (fun g ->
          dense.(((g - s) mod n + n) mod n))
    end
    else begin
      let nprocs = Sim.size () and me = Sim.rank () in
      let r = Dmat.create ~rows:v.rows ~cols:v.cols in
      (* Segments of [0, n) owned per rank (element blocks). *)
      let lo rk = Dist.low ~rank:rk ~nprocs ~n in
      let hi rk = Dist.high ~rank:rk ~nprocs ~n in
      (* Split a mod-n contiguous run [start, start+len) into <= 2
         non-wrapping segments. *)
      let segments start len =
        let start = start mod n in
        if start + len <= n then [ (start, start + len) ]
        else [ (start, n); (0, start + len - n) ]
      in
      (* Send: my elements [lo me, hi me) land at dest = src + s. *)
      let my_lo = lo me and my_hi = hi me in
      if my_hi > my_lo then
        List.iter
          (fun (d0, d1) ->
            (* dest segment [d0, d1) corresponds to sources d0-s.. *)
            for dst = 0 to nprocs - 1 do
              let a = max d0 (lo dst) and b = min d1 (hi dst) in
              if a < b then begin
                let src0 = ((a - s) mod n + n) mod n in
                let chunk = Array.sub v.data (src0 - my_lo) (b - a) in
                if dst = me then
                  Array.blit chunk 0 r.data (a - my_lo) (b - a)
                else Rel.send ~dst ~tag:tag_shift (Sim.Floats chunk)
              end
            done)
          (segments (my_lo + s) (my_hi - my_lo));
      (* Receive: my result block needs sources [my_lo - s, ...). *)
      if my_hi > my_lo then
        List.iter
          (fun (s0, s1) ->
            for src = 0 to nprocs - 1 do
              let a = max s0 (lo src) and b = min s1 (hi src) in
              if a < b && src <> me then begin
                let chunk =
                  Coll.recv_block ~what:"shift" ~src ~tag:tag_shift (b - a)
                in
                let dst0 = (a + s) mod n in
                Array.blit chunk 0 r.data (dst0 - my_lo) (b - a)
              end
            done)
          (segments (((my_lo - s) mod n + n) mod n) (my_hi - my_lo));
      r
    end
  end

(* --- trapezoidal integration ------------------------------------------- *)

(* Integral of samples y (optionally against abscissae x) by the
   trapezoid rule.  Each rank handles the intervals starting in its
   block; the single boundary sample is fetched from the right-hand
   neighbour. *)
let trapz ?x (y : Dmat.t) : float =
  let n = Dmat.numel y in
  if n < 2 then 0.
  else if y.full then begin
    (match x with
    | Some x ->
        if Dmat.numel x <> n then failwith "trapz: x and y sizes disagree";
        if not x.full then locality_error "trapz"
    | None -> ());
    let sx i = match x with Some x -> x.data.(i) | None -> float_of_int i in
    let acc = ref 0. in
    for i = 0 to n - 2 do
      let dx = sx (i + 1) -. sx i in
      acc := !acc +. (dx *. (y.data.(i) +. y.data.(i + 1)) *. 0.5)
    done;
    Sim.flops (5. *. float_of_int (n - 1));
    !acc
  end
  else if y.layout <> Dmat.Lblock then begin
    (* Neighbour-boundary shipping below assumes contiguous blocks;
       cyclic layouts replicate and integrate densely (every rank
       computes the same total, so no combining collective needed). *)
    (match x with
    | Some x ->
        if Dmat.numel x <> n then failwith "trapz: x and y sizes disagree"
    | None -> ());
    let yd = Dmat.to_dense y in
    let xd = Option.map Dmat.to_dense x in
    let sx i = match xd with Some x -> x.(i) | None -> float_of_int i in
    let acc = ref 0. in
    for i = 0 to n - 2 do
      acc := !acc +. ((sx (i + 1) -. sx i) *. (yd.(i) +. yd.(i + 1)) *. 0.5)
    done;
    Sim.flops (5. *. float_of_int (n - 1));
    !acc
  end
  else begin
    let count = y.count and low = y.low in
    let high = low + count in
    (match x with
    | Some x ->
        if Dmat.numel x <> n then failwith "trapz: x and y sizes disagree"
    | None -> ());
    (* Ship my first sample(s) to the owner of index low-1. *)
    let nprocs = Sim.size () in
    if count > 0 && low > 0 then begin
      let dst = Dist.owner ~nprocs ~n (low - 1) in
      let payload =
        match x with
        | Some x -> [| y.data.(0); x.data.(0) |]
        | None -> [| y.data.(0) |]
      in
      Rel.send ~dst ~tag:tag_trapz (Sim.Floats payload)
    end;
    let boundary =
      if count > 0 && high < n then
        let src = Dist.owner ~nprocs ~n high in
        Some
          (Coll.recv_block ~what:"trapz" ~src ~tag:tag_trapz
             (match x with Some _ -> 2 | None -> 1))
      else None
    in
    let acc = ref 0. in
    let sample_y i = if i < high then y.data.(i - low) else (Option.get boundary).(0) in
    let sample_x i =
      match x with
      | Some x -> if i < high then x.data.(i - low) else (Option.get boundary).(1)
      | None -> float_of_int i
    in
    for i = low to min (high - 1) (n - 2) do
      let dx = sample_x (i + 1) -. sample_x i in
      acc := !acc +. (dx *. (sample_y i +. sample_y (i + 1)) *. 0.5)
    done;
    Sim.flops (5. *. float_of_int (max 0 (min (high - 1) (n - 2) - low + 1)));
    Coll.allreduce_scalar ~op:Coll.Sum !acc
  end

(* --- general sections ------------------------------------------------- *)

(* Under one selector per axis, the offset within a row of [a] (the
   row-major offset over its non-leading axes) of each position within
   a row of the selection, in row-major selection order.  For a matrix
   that is the column selector itself. *)
let row_offsets (a : Dmat.t) (sels : int array array) =
  let offs = ref [| 0 |] and stride = ref 1 in
  for axis = Array.length sels - 1 downto 1 do
    let s = sels.(axis) and st = !stride and prev = !offs in
    let np = Array.length prev in
    offs :=
      Array.init (Array.length s * np) (fun k ->
          (s.(k / np) * st) + prev.(k mod np));
    stride := st * a.dims.(axis)
  done;
  !offs

(* The first selected index outside its axis, as (index, extent). *)
let out_of_bounds (a : Dmat.t) (sels : int array array) =
  let bad = ref None in
  Array.iteri
    (fun axis s ->
      let n = a.dims.(axis) in
      Array.iter
        (fun i -> if (i < 0 || i >= n) && !bad = None then bad := Some (i, n))
        s)
    sels;
  !bad

(* result(k0, ..., kn) = a(sels.(0).(k0), ..., sels.(n).(kn)) with
   replicated 0-based index vectors, one per axis and no squeezing; the
   operand is gathered, the result block selected locally.  The paper's
   run-time library takes the same "simple but correct" approach for
   arbitrary sections. *)
let section (a : Dmat.t) (sels : int array array) : Dmat.t =
  let dense = Dmat.to_dense a in
  Option.iter
    (fun (i, n) ->
      failwith (Printf.sprintf "section: index %d out of bounds %d" (i + 1) n))
    (out_of_bounds a sels);
  let r = Dmat.create_dims ~full:a.full (Array.map Array.length sels) in
  let s0 = sels.(0) and inner = row_offsets a sels in
  Dmat.iter_rc r ~lo:0 ~len:(Dmat.local_len r) (fun li i j ->
      r.data.(li) <- dense.((s0.(i) * a.cols) + inner.(j)));
  r

(* Linear-index section over a vector: result(k) = v(idx.(k)). *)
let section_linear (v : Dmat.t) (idx : int array) ~rows ~cols : Dmat.t =
  let dense = Dmat.to_dense v in
  let n = Dmat.numel v in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        failwith (Printf.sprintf "index %d out of bounds %d" (i + 1) n))
    idx;
  if v.full then Dmat.init_full ~rows ~cols (fun g -> dense.(idx.(g)))
  else Dmat.init ~rows ~cols (fun g -> dense.(idx.(g)))

(* a(sels) = value, owner computes: every rank walks the selection in
   row-major order and stores the elements it owns, so a repeated
   selector keeps the same last writer as a sequential walk.  [value k]
   is the k-th selected element's new value; it is pure, so skipping it
   is safe.  An empty selection is a no-op whatever its selectors. *)
let set_section (m : Dmat.t) (sels : int array array) (value : int -> float) =
  let inner = row_offsets m sels in
  let w = Array.length inner in
  let total = Array.length sels.(0) * w in
  if total > 0 && out_of_bounds m sels <> None then
    failwith "index out of bounds";
  Array.iteri
    (fun p i ->
      for q = 0 to w - 1 do
        let j = inner.(q) in
        if Dmat.owner m ~i ~j then Dmat.set_local m ~i ~j (value ((p * w) + q))
      done)
    sels.(0);
  Sim.flops (float_of_int total)
