(* Dense row-major matrices for the sequential reference interpreter. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) f }

let init_rc rows cols f =
  init rows cols (fun g -> f (g / cols) (g mod cols))

let numel m = m.rows * m.cols
let is_vector m = m.rows = 1 || m.cols = 1
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

(* MATLAB linear indexing is column-major. *)
let get_linear m g =
  if m.rows = 1 then m.data.(g)
  else if m.cols = 1 then m.data.(g)
  else get m (g mod m.rows) (g / m.rows)

let set_linear m g v =
  if m.rows = 1 || m.cols = 1 then m.data.(g) <- v
  else set m (g mod m.rows) (g / m.rows) v

let copy m = { m with data = Array.copy m.data }
let map f m = { m with data = Array.map f m.data }

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "nonconformant operands (%dx%d vs %dx%d)" a.rows a.cols
         b.rows b.cols);
  { a with data = Array.map2 f a.data b.data }

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "inner dimensions disagree (%dx%d * %dx%d)" a.rows a.cols
         b.rows b.cols);
  (* The textbook product, summed over k in ascending order from +0.
     For n > 1 the loop runs i-k-j (row i of C accumulates
     a(i,k) * B(k,:)), which streams B by rows and computes every
     element with the same operations in the same order as i-j-k. *)
  let m = a.rows and kd = a.cols and n = b.cols in
  let ad = a.data and bd = b.data in
  let c = create m n in
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

let transpose m = init_rc m.cols m.rows (fun i j -> get m j i)

let fold f init m = Array.fold_left f init m.data

let col_reduce f init m =
  let r = create 1 m.cols in
  for j = 0 to m.cols - 1 do
    let acc = ref init in
    for i = 0 to m.rows - 1 do
      acc := f !acc (get m i j)
    done;
    set r 0 j !acc
  done;
  r

let circshift m s =
  let n = numel m in
  if n = 0 then copy m
  else begin
    let s = ((s mod n) + n) mod n in
    let r = create m.rows m.cols in
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

let equal a b = a.rows = b.rows && a.cols = b.cols && a.data = b.data
