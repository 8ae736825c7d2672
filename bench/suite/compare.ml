(* Parent-versus-change comparison of end-to-end metrics.

   Each side is a list of values of one (workload, metric), one per
   result file, in the order the runs alternated, so the i-th parent
   value pairs with the i-th change value.  The rule:

   - improved: the change wins at least nine tenths of the pairs (ties
     count for neither side) and the medians differ by more than the
     parent's interquartile range;
   - unresolved: the parent's own spread exceeds the bound, unless every
     change value beats every parent value;
   - regressed: the change's median is worse than the parent's by more
     than [bound] times the parent's median;
   - unchanged: otherwise.

   Exact metrics (deterministic counts and modeled times) are compared
   for equality of the medians instead. *)

type better = Lower | Higher
type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("better must be lower or higher, got " ^ s)

type row = {
  parent : Stats.summary;
  change : Stats.summary;
  wins : float;  (** share of pairs the change won *)
  verdict : verdict;
}

(* [beats better a b]: [a] is strictly better than [b]. *)
let beats better a b = match better with Lower -> a < b | Higher -> a > b

let judge ~better ~bound ~exact (parent : float list) (change : float list) :
    row =
  let p = Stats.summarize parent and c = Stats.summarize change in
  let pairs = List.combine parent change in
  let won = List.filter (fun (a, b) -> beats better b a) pairs in
  let wins = float_of_int (List.length won) /. float_of_int (List.length pairs) in
  let gap = match better with Lower -> p.median -. c.median | Higher -> c.median -. p.median in
  let verdict =
    if exact then
      if c.median = p.median then Unchanged
      else if gap > 0. then Improved
      else Regressed
    else
      let iqr = p.q3 -. p.q1 in
      let scale = Float.abs p.median in
      let all_better =
        List.for_all (fun b -> List.for_all (fun a -> beats better b a) parent) change
      in
      if wins >= 0.9 && gap > iqr then Improved
      else if iqr > bound *. scale && not all_better then Unresolved
      else if -.gap > bound *. scale then Regressed
      else Unchanged
  in
  { parent = p; change = c; wins; verdict }
