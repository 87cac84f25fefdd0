(* Order statistics for the result line. *)

let median xs = Ftb_util.Stats.median xs

(* Samples strictly above the [p]-th percentile rank. *)
let beyond ~n ~p = n - int_of_float (Float.ceil (float_of_int n *. p /. 100.))

let min_beyond = 10

(* The [p]-th percentile, refused unless at least [min_beyond] samples lie
   beyond it: a tail figure resting on fewer samples moves from run to run
   by whichever few operations happened to land there. *)
let percentile xs ~p =
  let n = Array.length xs in
  let b = beyond ~n ~p in
  if b < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d" p min_beyond n
         (max b 0))
  else Ok (Ftb_util.Stats.percentile xs ~p)

(* Wall time of a timed loop with the CPU time the hypervisor stole from
   it taken out. [busy] and [steal] are guest-wide CPU seconds over the
   loop (every vCPU summed). Steal only accrues to a vCPU that had work to
   run, so while the loop keeps k vCPUs runnable it loses [steal / k] of
   wall time; k is the average number of runnable vCPUs, and at least 1,
   because a serial loop that sleeps part of the time still loses every
   stolen second. *)
let steal_adjusted ~wall ~busy ~steal =
  let runnable = Float.max 1. ((busy +. steal) /. wall) in
  wall -. (steal /. runnable)
