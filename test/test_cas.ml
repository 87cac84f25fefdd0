(* Properties of the content-addressed store itself, below the typed views
   (profile store, boundary store) that the compose and plan suites
   exercise: round trip, corruption, gc, stats. *)

module Cas = Ftb_inject.Cas
module Persist = Ftb_inject.Persist
module Fingerprint = Ftb_util.Fingerprint

let counter = ref 0

let with_store f =
  incr counter;
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_test_cas_%d_%d" (Unix.getpid ()) !counter)
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f (Cas.open_ ~root))

(* A minimal typed view: the payload is the key, a newline, the value. *)
let put store (key, value) =
  Cas.put store ~key (fun b ->
      Buffer.add_string b key;
      Buffer.add_char b '\n';
      Buffer.add_string b value)

let decode ~path payload =
  match String.index_opt payload '\n' with
  | Some i -> (String.sub payload 0 i, String.sub payload (i + 1) (String.length payload - i - 1))
  | None -> raise (Persist.Format_error (path ^ ": no key line"))

let find store key = Cas.find store ~key ~decode ~key_of:fst

(* Distinct hex keys with arbitrary values. *)
let entries_gen =
  QCheck.(
    map
      (fun pairs ->
        List.sort_uniq (fun (a, _) (b, _) -> compare a b)
          (List.map (fun (seed, value) -> (Fingerprint.of_string (string_of_int seed), value)) pairs))
      (list_of_size Gen.(1 -- 12) (pair small_nat (string_of_size Gen.(0 -- 64)))))

let prop_round_trip =
  QCheck.Test.make ~name:"cas put/find round-trips every entry" ~count:30 entries_gen
    (fun entries ->
      with_store (fun store ->
          List.iter (put store) entries;
          List.for_all (fun (key, value) -> find store key = Some (key, value)) entries
          && find store (Fingerprint.of_string "absent") = None
          && find store "not-hex" = None))

let prop_corrupt_is_quarantined_miss =
  QCheck.Test.make ~name:"cas corrupt entry is a quarantined miss" ~count:30
    QCheck.(pair entries_gen (pair small_nat (int_range 1 255)))
    (fun (entries, (pos, mask)) ->
      with_store (fun store ->
          List.iter (put store) entries;
          let key, value = List.hd entries in
          let path = Cas.path_of_key store key in
          let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
          let i = pos mod Bytes.length bytes in
          Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor mask));
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
          let missed = find store key = None in
          let s = Cas.stats store in
          (* The miss frees the slot: a rebuilt entry is served again. *)
          put store (key, value);
          missed
          && s.Cas.quarantined = 1
          && s.Cas.entries = List.length entries - 1
          && find store key = Some (key, value)))

let prop_gc_keeps_newest =
  QCheck.Test.make ~name:"cas gc keeps exactly the newest entries" ~count:30
    QCheck.(pair entries_gen small_nat)
    (fun (entries, keep) ->
      with_store (fun store ->
          List.iter (put store) entries;
          (* Dates are the entries' ranks in a fixed shuffle of the keys. *)
          let dated =
            List.mapi (fun i (key, _) -> (Fingerprint.of_string (key ^ string_of_int i), key)) entries
            |> List.sort compare
            |> List.mapi (fun rank (_, key) -> (key, float_of_int rank))
          in
          let date path = List.assoc_opt (Filename.basename path) dated in
          let removed = Cas.gc ~date store ~keep in
          let n = List.length entries in
          let survivors =
            List.filter (fun (key, _) -> find store key <> None) entries |> List.map fst
          in
          let newest =
            List.sort (fun (_, a) (_, b) -> compare b a) dated
            |> List.filteri (fun i _ -> i < keep)
            |> List.map fst
          in
          removed = max 0 (n - keep)
          && List.sort compare survivors = List.sort compare newest))

let prop_stats =
  QCheck.Test.make ~name:"cas stats count entries, bytes and quarantine" ~count:30
    QCheck.(pair entries_gen small_nat)
    (fun (entries, corrupt) ->
      with_store (fun store ->
          List.iter (put store) entries;
          let n = List.length entries in
          let size path = (Unix.stat path).Unix.st_size in
          let bytes =
            List.fold_left (fun acc (key, _) -> acc + size (Cas.path_of_key store key)) 0 entries
          in
          let s = Cas.stats store in
          let corrupt = min n corrupt in
          List.iteri
            (fun i (key, _) ->
              if i < corrupt then begin
                Out_channel.with_open_bin (Cas.path_of_key store key) (fun oc ->
                    Out_channel.output_string oc "not an envelope");
                ignore (find store key : (string * string) option)
              end)
            entries;
          let after = Cas.stats store in
          s = { Cas.entries = n; bytes; quarantined = 0 }
          && after.Cas.entries = n - corrupt
          && after.Cas.quarantined = corrupt))

let suite =
  List.map Helpers.qcheck_to_alcotest
    [ prop_round_trip; prop_corrupt_is_quarantined_miss; prop_gc_keeps_newest; prop_stats ]
