module Cas = Ftb_inject.Cas

(* A typed view over the content-addressed substrate: this module keeps
   only the Profile codec and the provenance counters. *)
type t = Cas.t

let open_ = Cas.open_
let root = Cas.root
let path_of_key = Cas.path_of_key
let find t ~key = Cas.find t ~key ~decode:Profile.parse ~key_of:Profile.key
let put t profile = Cas.put t ~key:(Profile.key profile) (Profile.write profile)

type stats = {
  entries : int;
  bytes : int;
  sections : int;
  boundaries : int;
  quarantined : int;
  unaudited : int;
}

let stats t =
  let base = Cas.stats t in
  let sections = ref 0 and boundaries = ref 0 and unaudited = ref 0 in
  (* A file that no longer decodes counts as an entry (it occupies the
     namespace) but as neither kind. *)
  List.iter
    (fun (_, profile) ->
      Option.iter
        (fun profile ->
          (match profile with
          | Profile.Section _ -> incr sections
          | Profile.Boundary _ -> incr boundaries);
          if not (Profile.prov_trusted (Profile.prov_of profile)) then incr unaudited)
        profile)
    (Cas.scan t ~decode:Profile.parse);
  {
    entries = base.Cas.entries;
    bytes = base.Cas.bytes;
    sections = !sections;
    boundaries = !boundaries;
    quarantined = base.Cas.quarantined;
    unaudited = !unaudited;
  }

let invalidate t ~prefix =
  Cas.remove_if t (fun path -> String.starts_with ~prefix (Filename.basename path))

(* Provenance purge: everything a (typically later-quarantined) worker
   contributed to goes, trusted-or-not — its audited shards may have been
   verified, but the blast-radius call is the operator's, and rebuild is
   always safe. Entries that no longer decode are left for [find]'s
   quarantine policy. *)
let invalidate_worker t ~worker =
  Cas.remove_if t (fun path ->
      match Cas.read ~decode:Profile.parse path with
      | Some profile -> List.mem worker (Profile.prov_workers (Profile.prov_of profile))
      | None -> false)

let gc t ~keep = Cas.gc t ~keep
