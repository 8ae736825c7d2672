(* Order statistics of a sample, computed the way Python's
   [statistics.quantiles] (method "exclusive") does, so the suite's
   quartiles match the ones an outside check computes from the same
   values. *)

let sorted l = List.sort compare l |> Array.of_list

(* The [n - 1] cut points dividing [l] into [n] groups.  A single
   value is every cut point. *)
let quantiles ~n (l : float list) : float array =
  let d = sorted l in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quantiles: empty sample";
  if ld = 1 then Array.make (n - 1) d.(0)
  else
    let m = ld + 1 in
    Array.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
        /. float_of_int n)

let median l =
  let d = sorted l in
  let k = Array.length d in
  if k = 0 then invalid_arg "Stats.median: empty sample";
  if k mod 2 = 1 then d.(k / 2) else (d.((k / 2) - 1) +. d.(k / 2)) /. 2.

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  p80 : float option;  (** only with >= 50 samples: ten lie beyond it *)
  n : int;
}

let summarize l =
  let q = quantiles ~n:4 l in
  let n = List.length l in
  {
    median = median l;
    q1 = q.(0);
    q3 = q.(2);
    p80 = (if n >= 50 then Some (quantiles ~n:5 l).(3) else None);
    n;
  }
