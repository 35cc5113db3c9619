(* Answer checks and the answer digest.

   Every served assignment is re-certified on the instance it answers.  The
   answers of a fixed prefix of ops also feed the digest: the mean Eq-1
   cost, the worst per-level violation, and a fingerprint over cost,
   per-level violation and assignment, folded in op order. *)

module Fp = Hgp_util.Fingerprint
module Verify = Hgp_core.Verify

let answers = ref 0
let cost_sum = ref 0.
let violation_max = ref 0.
let fp = ref Fp.seed

(* [check ~record inst assignment ~eps] is true when the assignment is
   complete and within the Theorem-5 bound; when [record], the answer also
   enters the digest. *)
let check ~record inst assignment ~eps =
  let r = Verify.certify inst assignment ~eps in
  if record then begin
    incr answers;
    cost_sum := !cost_sum +. r.Verify.cost_eq1;
    violation_max := Array.fold_left Float.max !violation_max r.Verify.level_violation;
    fp :=
      Fp.add_int_array
        (Fp.add_float_array (Fp.add_float !fp r.Verify.cost_eq1) r.Verify.level_violation)
        assignment
  end;
  r.Verify.assignment_complete && r.Verify.within_theorem_bound

let mean_cost () = Measure.ratio !cost_sum (float_of_int !answers)
