(* Pure lease-table state machine — no clocks, no I/O, no locks. The
   caller ([Fleet]) supplies timestamps and holds its own mutex, which
   keeps every transition deterministic and directly property-testable:
   whatever interleaving of acquire / renew / expire / commit a chaotic
   fleet produces, [commit] answers [`Committed] exactly once per shard. *)

type state =
  | Pending
  | Leased of { lease_id : int; holder : int; mutable deadline : float }
  | Done of (unit, string) result

type slot = { shard : int; lo : int; hi : int; mutable state : state }

type t = {
  slots : slot array;
  by_shard : (int, int) Hashtbl.t;  (* shard index -> slot position *)
  by_lease : (int, int) Hashtbl.t;  (* live lease id -> slot position *)
  mutable next_lease : int;
  mutable open_slots : int;
}

type grant = { lease_id : int; shard : int; lo : int; hi : int }

let create ?(first_lease = 1) tasks =
  let slots =
    Array.map (fun (shard, lo, hi) -> { shard; lo; hi; state = Pending }) tasks
  in
  let by_shard = Hashtbl.create (Array.length slots) in
  Array.iteri
    (fun pos (slot : slot) ->
      if Hashtbl.mem by_shard slot.shard then
        invalid_arg "Lease.create: duplicate shard";
      Hashtbl.replace by_shard slot.shard pos)
    slots;
  {
    slots;
    by_shard;
    by_lease = Hashtbl.create 16;
    next_lease = first_lease;
    open_slots = Array.length slots;
  }

let next_lease t = t.next_lease
let outstanding t = t.open_slots

let bounds t ~shard =
  match Hashtbl.find_opt t.by_shard shard with
  | Some pos -> Some (t.slots.(pos).lo, t.slots.(pos).hi)
  | None -> None

let acquire ?(min_cases = 0) ?(max_cases = max_int) t ~holder ~now ~ttl =
  let found = ref None in
  Array.iteri
    (fun pos (slot : slot) ->
      let cases = slot.hi - slot.lo in
      if !found = None && slot.state = Pending && min_cases <= cases && cases <= max_cases
      then found := Some pos)
    t.slots;
  match !found with
  | None -> None
  | Some pos ->
      let slot = t.slots.(pos) in
      let lease_id = t.next_lease in
      t.next_lease <- t.next_lease + 1;
      slot.state <- Leased { lease_id; holder; deadline = now +. ttl };
      Hashtbl.replace t.by_lease lease_id pos;
      Some { lease_id; shard = slot.shard; lo = slot.lo; hi = slot.hi }

let renew t ~lease_id ~now ~ttl =
  match Hashtbl.find_opt t.by_lease lease_id with
  | Some pos -> (
      match t.slots.(pos).state with
      | Leased l when l.lease_id = lease_id ->
          l.deadline <- now +. ttl;
          true
      | Leased _ | Pending | Done _ -> false)
  | None -> false

let drop_lease t pos =
  match t.slots.(pos).state with
  | Leased l -> Hashtbl.remove t.by_lease l.lease_id
  | Pending | Done _ -> ()

let expire t ~now =
  let expired = ref 0 in
  Array.iteri
    (fun pos slot ->
      match slot.state with
      | Leased l when l.deadline < now ->
          drop_lease t pos;
          slot.state <- Pending;
          incr expired
      | Leased _ | Pending | Done _ -> ())
    t.slots;
  !expired

let release_holder t ~holder =
  let released = ref 0 in
  Array.iteri
    (fun pos slot ->
      match slot.state with
      | Leased l when l.holder = holder ->
          drop_lease t pos;
          slot.state <- Pending;
          incr released
      | Leased _ | Pending | Done _ -> ())
    t.slots;
  !released

(* Success commits are keyed by shard and first-result-wins: outcome
   bytes are a pure function of the golden trace, so a result arriving on
   an expired lease (the worker outlived its deadline) is byte-identical
   to whatever a re-lease would produce — accepting it merely saves the
   redundant work. A shard already [Done] answers [`Stale]: the committed
   bytes are never overwritten, which is the no-double-commit guarantee
   the engine's merge relies on. *)
let commit t ~shard =
  match Hashtbl.find_opt t.by_shard shard with
  | None -> `Unknown
  | Some pos -> (
      let slot = t.slots.(pos) in
      match slot.state with
      | Done _ -> `Stale
      | Pending | Leased _ ->
          drop_lease t pos;
          slot.state <- Done (Ok ());
          t.open_slots <- t.open_slots - 1;
          `Committed)

(* Worker-reported failures only count when the reporting lease is still
   current — a stale failure must not clobber a shard that has since been
   re-leased (and may be about to succeed elsewhere). *)
let fail t ~lease_id ~message =
  match Hashtbl.find_opt t.by_lease lease_id with
  | None -> `Stale
  | Some pos -> (
      let slot = t.slots.(pos) in
      match slot.state with
      | Leased l when l.lease_id = lease_id ->
          drop_lease t pos;
          slot.state <- Done (Error message);
          t.open_slots <- t.open_slots - 1;
          `Committed
      | Leased _ | Pending | Done _ -> `Stale)

let results t =
  Array.to_list t.slots
  |> List.map (fun slot ->
         match slot.state with
         | Done r -> (slot.shard, r)
         | Pending | Leased _ ->
             (slot.shard, Error "shard never completed (scheduler bug)"))
