module Fingerprint = Ftb_util.Fingerprint

type t = { root : string }

let open_ ~root =
  Persist.mkdir_p root;
  { root }

let root t = t.root

(* Entries shard by the key's first two hex chars: <root>/ab/<key>. That
   also gives Persist.quarantine a natural sibling (<root>/ab/quarantine/)
   that [stats] can count. *)
let shard_dir t key = Filename.concat t.root (String.sub key 0 2)
let path_of_key t key = Filename.concat (shard_dir t key) key

let is_shard name =
  String.length name = 2
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) name

let readdir dir = try Sys.readdir dir with Sys_error _ -> [||]

let shard_dirs t =
  Array.to_list (readdir t.root)
  |> List.filter is_shard
  |> List.map (Filename.concat t.root)

let entries t =
  List.concat_map
    (fun dir ->
      Array.to_list (readdir dir)
      |> List.filter Fingerprint.is_hex
      |> List.map (Filename.concat dir))
    (shard_dirs t)

let find t ~key ~decode ~key_of =
  if not (Fingerprint.is_hex key) then None
  else
    Persist.load_or_quarantine ~path:(path_of_key t key) (fun path ->
        let v = decode ~path (Persist.load_enveloped ~path) in
        if key_of v <> key then
          raise (Persist.Format_error (path ^ ": entry carries another key"));
        v)

let put t ~key write =
  Persist.mkdir_p (shard_dir t key);
  Persist.save_enveloped ~path:(path_of_key t key) write

let read ~decode path =
  match decode ~path (Persist.load_enveloped ~path) with
  | v -> Some v
  | exception (Persist.Format_error _ | Sys_error _) -> None

let scan t ~decode = List.map (fun path -> (path, read ~decode path)) (entries t)

let remove path = try Sys.remove path with Sys_error _ -> ()

let remove_if t pred =
  let victims = List.filter pred (entries t) in
  List.iter remove victims;
  List.length victims

let mtime path =
  match Unix.stat path with
  | st -> Some st.Unix.st_mtime
  | exception Unix.Unix_error _ -> None

let gc ?(date = mtime) t ~keep =
  if keep < 0 then invalid_arg "Cas.gc: keep must be non-negative";
  let dated =
    List.filter_map (fun path -> Option.map (fun d -> (d, path)) (date path)) (entries t)
    |> List.sort (fun (a, _) (b, _) -> compare b a) (* newest first *)
  in
  let victims = List.filteri (fun i _ -> i >= keep) dated in
  List.iter (fun (_, path) -> remove path) victims;
  List.length victims

type stats = { entries : int; bytes : int; quarantined : int }

let stats t =
  let sizes =
    List.filter_map
      (fun path ->
        match Unix.stat path with
        | st -> Some st.Unix.st_size
        | exception Unix.Unix_error _ -> None)
      (entries t)
  in
  let quarantined =
    List.fold_left
      (fun acc dir -> acc + Array.length (readdir (Filename.concat dir "quarantine")))
      0 (shard_dirs t)
  in
  { entries = List.length sizes; bytes = List.fold_left ( + ) 0 sizes; quarantined }
