(* Dense row-major arrays of any rank >= 2 for the sequential reference
   interpreter; a matrix has dims [| r; c |].

   The leading (frame) axes vary slowest: element (d0, ..., i, j) of an
   array with dims [| D0; ...; R; C |] lives at the row-major offset
   ((..(d0*D1 + d1)..)*R + i)*C + j.  The trailing two axes are the
   matrix "cell", so an operand that matches an array's trailing axes
   is read at [offset mod numel] when it broadcasts over the frame. *)

type t = { dims : int array; data : float array }

let create dims = { dims; data = Array.make (Array.fold_left ( * ) 1 dims) 0. }
let init dims f = { dims; data = Array.init (Array.fold_left ( * ) 1 dims) f }
let init_rc rows cols f = init [| rows; cols |] (fun g -> f (g / cols) (g mod cols))
let rank m = Array.length m.dims
let numel m = Array.length m.data
let rows m = m.dims.(rank m - 2)
let cols m = m.dims.(rank m - 1)
let shape m = String.concat "x" (Array.to_list (Array.map string_of_int m.dims))

(* The offsets of a section, in row-major order of the section: axis
   [a] contributes [counts.(a)] positions, the k-th being [pos a k]. *)
let section_offsets m counts pos =
  Array.init (Array.fold_left ( * ) 1 counts) (fun g ->
      let off = ref 0 and rem = ref g and stride = ref 1 in
      for a = rank m - 1 downto 0 do
        off := !off + (!stride * pos a (!rem mod counts.(a)));
        rem := !rem / counts.(a);
        stride := !stride * m.dims.(a)
      done;
      !off)

(* The rest of this file is matrix (rank-2) kernels. *)

let is_vector m = rank m = 2 && (rows m = 1 || cols m = 1)
let get m i j = m.data.((i * cols m) + j)

(* MATLAB linear indexing is column-major. *)
let get_linear m g =
  if rows m = 1 || cols m = 1 then m.data.(g)
  else get m (g mod rows m) (g / rows m)

let set_linear m g v =
  if rows m = 1 || cols m = 1 then m.data.(g) <- v
  else m.data.(((g mod rows m) * cols m) + (g / rows m)) <- v

let copy m = { m with data = Array.copy m.data }
let map f m = { m with data = Array.map f m.data }

(* [f] over [a] and [b] into an array of [dims], reading each operand at
   the result offset mod its size.  The caller has checked that one
   operand is a scalar, or that its dims are the other's trailing axes;
   then that read is the scalar lift, the element-wise pairing or the
   cell broadcast. *)
let zip f dims a b =
  let na = numel a and nb = numel b in
  let data =
    if na = nb then Array.map2 f a.data b.data
    else if nb = 1 then
      let y = b.data.(0) in
      Array.map (fun x -> f x y) a.data
    else if na = 1 then
      let x = a.data.(0) in
      Array.map (fun y -> f x y) b.data
    else
      Array.init (max na nb) (fun g -> f a.data.(g mod na) b.data.(g mod nb))
  in
  { dims; data }

(* The textbook product, summed over k in ascending order from +0; the
   caller checks the inner dimensions.  For n > 1 the loop runs i-k-j
   (row i of C accumulates a(i,k) * B(k,:)), which streams B by rows and
   computes every element with the same operations in the same order as
   i-j-k. *)
let matmul a b =
  let m = rows a and kd = cols a and n = cols b in
  let ad = a.data and bd = b.data in
  let c = create [| m; n |] in
  let cd = c.data in
  if n = 1 then
    for i = 0 to m - 1 do
      let ai = i * kd in
      let acc = ref 0. in
      for k = 0 to kd - 1 do
        acc := !acc +. (ad.(ai + k) *. bd.(k))
      done;
      cd.(i) <- !acc
    done
  else
    for i = 0 to m - 1 do
      let ai = i * kd and ci = i * n in
      for k = 0 to kd - 1 do
        let x = ad.(ai + k) and bk = k * n in
        for j = 0 to n - 1 do
          cd.(ci + j) <- cd.(ci + j) +. (x *. bd.(bk + j))
        done
      done
    done;
  c

let transpose m =
  let c = cols m in
  init_rc c (rows m) (fun i j -> m.data.((j * c) + i))

let fold f init m = Array.fold_left f init m.data

let col_reduce f init m =
  let c = cols m in
  let r = create [| 1; c |] in
  for j = 0 to c - 1 do
    let acc = ref init in
    for i = 0 to rows m - 1 do
      acc := f !acc m.data.((i * c) + j)
    done;
    r.data.(j) <- !acc
  done;
  r

(* A fresh copy of [m] grown, zero-filled, to at least rows x cols. *)
let grow m rows' cols' =
  let r = rows m and c = cols m in
  let gc = max cols' c in
  let g = create [| max rows' r; gc |] in
  for i = 0 to r - 1 do
    Array.blit m.data (i * c) g.data (i * gc) c
  done;
  g

let circshift m s =
  let n = numel m in
  if n = 0 then m
  else begin
    let s = ((s mod n) + n) mod n in
    let r = create m.dims in
    (* element-block semantics match the distributed run time: shift in
       storage order for vectors *)
    for i = 0 to n - 1 do
      r.data.(i) <- m.data.(((i - s) mod n + n) mod n)
    done;
    r
  end

let trapz ?x y =
  let n = numel y in
  if n < 2 then 0.
  else begin
    let sx i = match x with Some x -> x.data.(i) | None -> float_of_int i in
    let acc = ref 0. in
    for i = 0 to n - 2 do
      acc :=
        !acc +. ((sx (i + 1) -. sx i) *. (y.data.(i) +. y.data.(i + 1)) *. 0.5)
    done;
    !acc
  end
