type 'a t = { make : unit -> 'a; key : 'a list Atomic.t Domain.DLS.key }

let create make = { make; key = Domain.DLS.new_key (fun () -> Atomic.make []) }

(* The free list is an atomic cons list: a systhread may be preempted at
   any allocation, so take and give are compare-and-set loops. Every give
   conses a fresh cell, so a cell seen earlier never reappears (no ABA). *)
let rec take t free =
  match Atomic.get free with
  | [] -> t.make ()
  | v :: rest as l -> if Atomic.compare_and_set free l rest then v else take t free

let rec give free v =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (v :: l)) then give free v

let with_ t f =
  let free = Domain.DLS.get t.key in
  let v = take t free in
  match f v with
  | r ->
      give free v;
      r
  | exception e ->
      give free v;
      raise e
