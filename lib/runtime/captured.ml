(* A script variable's final value as a run hands it back for
   verification.  The reference interpreter and the SPMD executor both
   return this one type, so their results compare without conversion. *)
type t =
  | Cscalar of float
  | Cmat of int * int * float array
  | Cnd of int array * float array (* dims, row-major dense data *)
