(* Compositional boundary analysis: fingerprint unification, the
   sectionizer's invalidation matrix, store integrity (corruption is
   quarantined, never served), model isolation (a bit-flip-32 profile
   must never serve a bit-flip-64 campaign), and checkpoint seeding
   (the engine executes only the shards the cache missed). *)

module Ir = Ftb_ir.Ir
module Pipeline = Ftb_ir.Pipeline
module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint
module Fingerprint = Ftb_util.Fingerprint
module Section = Ftb_compose.Section
module Profile = Ftb_compose.Profile
module Store = Ftb_compose.Store
module Compose = Ftb_compose.Compose

let fresh_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_store f =
  let root = fresh_dir "ftb-test-compose" in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f (Store.open_ ~root))

(* The same panel-structured kernel the compose smoke uses: one
   constant-trip top-level loop the sectionizer peels into [nb]
   sections, with an optional golden-value-preserving edit (commuted
   multiplication) confined to the first panel. *)
let panel_kernel ?(nb = 4) ?(n = 16) ?(edit_first = false) () =
  let t = Ir.create ~name:"test.panels" ~tolerance:1e-3 in
  let rng = ref 77 in
  let rand () =
    rng := (!rng * 1103515245) + 12345;
    float_of_int (!rng land 0xffff) /. 65536.
  in
  let a = Ir.array t ~name:"a" ~init:(Array.init n (fun _ -> rand ())) in
  let c = Ir.array t ~name:"c" ~init:(Array.make n 0.) in
  Ir.output_array t c;
  let kb = Ir.ireg t and i = Ir.ireg t in
  let acc = Ir.freg t in
  let open Ir in
  let idx = Iadd (Imul (Ireg kb, Iconst (n / nb)), Ireg i) in
  let straight = Fmul (Fload (a, idx), Fconst 1.5) in
  let swapped = Fmul (Fconst 1.5, Fload (a, idx)) in
  let body_at mul =
    [
      For
        ( i,
          Iconst 0,
          Iconst (n / nb),
          [
            Fassign (acc, mul, "panel.mul");
            Store (c, idx, Fadd (Freg acc, Fconst 0.25), "panel.store");
          ] );
    ]
  in
  let inner =
    if edit_first then
      [ If (Icmp (`Eq, Ireg kb, Iconst 0), body_at swapped, body_at straight) ]
    else body_at straight
  in
  Ir.set_body t [ For (kb, Iconst 0, Iconst nb, inner) ];
  t

let golden_of ir = Golden.run (Pipeline.to_program ir)
let model64 = Models.default_spec
let model32 = { Models.model = Models.Bit_flip_32; seed = 0 }
let fuel = Some 10_000_000

let plan_of ?(edit_first = false) () =
  let ir = panel_kernel ~edit_first () in
  let golden = golden_of ir in
  match Section.sectionize ~ir ~golden ~model:model64 ~fuel with
  | Some plan -> (ir, golden, plan)
  | None -> Alcotest.fail "panel kernel did not sectionize"

(* ------------------------------------------------------------------ *)
(* Fingerprint unification                                             *)

let test_fingerprint_legacy () =
  (* The golden fingerprint predates lib/util/fingerprint and is part of
     the checkpoint v2/v3 on-disk format: the unified module must
     reproduce the original MD5-over-LE-float-bits encoding exactly. *)
  let values = [| 0.0; -0.0; 1.5; Float.pi; -3.25e300; 1e-310 |] in
  let legacy =
    let b = Bytes.create (8 * Array.length values) in
    Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float v)) values;
    Digest.to_hex (Digest.bytes b)
  in
  Alcotest.(check string) "of_floats matches the legacy encoding" legacy
    (Fingerprint.of_floats values);
  let golden = golden_of (panel_kernel ()) in
  Alcotest.(check string) "checkpoint golden fingerprint goes through the module"
    (Fingerprint.of_floats golden.Golden.values)
    (Checkpoint.fingerprint_of_golden golden)

let test_fingerprint_is_hex () =
  Alcotest.(check bool) "a fingerprint is hex" true
    (Fingerprint.is_hex (Fingerprint.of_string "x"));
  Alcotest.(check bool) "length matters" false (Fingerprint.is_hex "abc123");
  Alcotest.(check bool) "uppercase rejected" false
    (Fingerprint.is_hex (String.uppercase_ascii (Fingerprint.of_string "x")));
  Alcotest.(check int) "hex_length is the digest length" Fingerprint.hex_length
    (String.length (Fingerprint.of_string "x"))

(* ------------------------------------------------------------------ *)
(* Sectionizer + invalidation matrix                                   *)

let test_sectionize_shape () =
  let _, golden, plan = plan_of () in
  Alcotest.(check int) "peels into nb sections" 4 (Array.length plan.Section.sections);
  Alcotest.(check int) "covers every site" (Golden.sites golden)
    (Array.fold_left
       (fun acc s -> acc + (s.Section.site_hi - s.Section.site_lo))
       0 plan.Section.sections);
  Array.iteri
    (fun j s ->
      if j > 0 then
        Alcotest.(check int)
          (Printf.sprintf "section %d starts where %d ends" j (j - 1))
          plan.Section.sections.(j - 1).Section.site_hi s.Section.site_lo)
    plan.Section.sections;
  let keys = Array.to_list plan.Section.sections |> List.map (fun s -> s.Section.key) in
  Alcotest.(check int) "section keys are distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_keys_deterministic () =
  let _, _, p1 = plan_of () in
  let _, _, p2 = plan_of () in
  Array.iteri
    (fun j (s : Section.section) ->
      Alcotest.(check string)
        (Printf.sprintf "section %d key stable across builds" j)
        s.Section.key
        p2.Section.sections.(j).Section.key)
    p1.Section.sections;
  let key ir = Section.boundary_key ~ir ~model:model64 ~fuel in
  Alcotest.(check string) "boundary key stable across builds"
    (key (panel_kernel ()))
    (key (panel_kernel ()))

let test_edit_invalidates_only_first () =
  (* The invalidation matrix: a golden-preserving edit confined to the
     first peeled section must change exactly that section's key (later
     suffix texts and entry states are untouched) — so a resubmission
     re-executes one section and reuses the rest. *)
  let _, golden_base, base = plan_of () in
  let _, golden_edit, edited = plan_of ~edit_first:true () in
  Alcotest.(check string) "edit preserves the golden fingerprint"
    (Checkpoint.fingerprint_of_golden golden_base)
    (Checkpoint.fingerprint_of_golden golden_edit);
  Alcotest.(check bool) "section 0 key changes" false
    (base.Section.sections.(0).Section.key = edited.Section.sections.(0).Section.key);
  for j = 1 to 3 do
    Alcotest.(check string)
      (Printf.sprintf "section %d key survives the edit" j)
      base.Section.sections.(j).Section.key
      edited.Section.sections.(j).Section.key
  done;
  Alcotest.(check bool) "boundary key changes" false
    (Section.boundary_key ~ir:(panel_kernel ()) ~model:model64 ~fuel
    = Section.boundary_key ~ir:(panel_kernel ~edit_first:true ()) ~model:model64 ~fuel)

let test_model_changes_keys () =
  let ir = panel_kernel () in
  let golden = golden_of ir in
  match
    ( Section.sectionize ~ir ~golden ~model:model64 ~fuel,
      Section.sectionize ~ir ~golden ~model:model32 ~fuel )
  with
  | Some p64, Some p32 ->
      Array.iteri
        (fun j (s : Section.section) ->
          Alcotest.(check bool)
            (Printf.sprintf "section %d key depends on the model" j)
            false
            (s.Section.key = p32.Section.sections.(j).Section.key))
        p64.Section.sections
  | _ -> Alcotest.fail "kernel did not sectionize under both models"

(* ------------------------------------------------------------------ *)
(* Store: round-trip, corruption quarantine                            *)

let test_store_roundtrip () =
  with_store (fun store ->
      let section =
        Profile.Section
          {
            Profile.key = Fingerprint.of_string "section";
            model = Models.spec_to_string model64;
            width = 64;
            site_lo = 3;
            sites = 2;
            entry_fp = Fingerprint.of_string "entry";
            exit_fp = Fingerprint.of_string "exit";
            prov = Profile.prov_local;
            outcomes = String.init 128 (fun i -> Char.chr (i mod 6));
          }
      in
      Store.put store section;
      Alcotest.(check bool) "section round-trips" true
        (Store.find store ~key:(Profile.key section) = Some section);
      let stats = Store.stats store in
      Alcotest.(check int) "one entry" 1 stats.Store.entries;
      Alcotest.(check int) "classified as a section" 1 stats.Store.sections;
      Alcotest.(check int) "nothing quarantined" 0 stats.Store.quarantined;
      Alcotest.(check bool) "unknown key misses" true
        (Store.find store ~key:(Fingerprint.of_string "other") = None))

let test_store_corruption_quarantined () =
  with_store (fun store ->
      let key = Fingerprint.of_string "victim" in
      Store.put store
        (Profile.Section
           {
             Profile.key;
             model = Models.spec_to_string model64;
             width = 64;
             site_lo = 0;
             sites = 1;
             entry_fp = Fingerprint.of_string "entry";
             exit_fp = Fingerprint.of_string "exit";
             prov = Profile.prov_local;
             outcomes = String.make 64 '\001';
           });
      (* Flip one payload byte under the CRC32 envelope. *)
      let path = Store.path_of_key store key in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      let b = Bytes.of_string raw in
      Bytes.set b (len / 2) (Char.chr (Char.code (Bytes.get b (len / 2)) lxor 0x41));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      Alcotest.(check bool) "corrupt entry reads as a miss" true
        (Store.find store ~key = None);
      Alcotest.(check bool) "corrupt file left the namespace" false
        (Sys.file_exists path);
      let stats = Store.stats store in
      Alcotest.(check int) "corrupt entry was quarantined" 1 stats.Store.quarantined;
      Alcotest.(check int) "no live entries remain" 0 stats.Store.entries)

(* ------------------------------------------------------------------ *)
(* Model isolation and reduced campaigns                               *)

let test_model_mismatch_never_serves () =
  with_store (fun store ->
      let ir = panel_kernel () in
      let golden = golden_of ir in
      let r32 = Compose.run ?fuel ~model:model32 store ~ir golden in
      Alcotest.(check bool) "bit-flip-32 cold run populates the store" true
        (r32.Compose.provenance = Compose.Cold);
      (match Compose.probe store ~ir ~golden ~model:model64 ~fuel with
      | Some p ->
          Alcotest.(check int) "bit-flip-32 profiles never serve bit-flip-64" 0
            p.Compose.hit_sections
      | None -> Alcotest.fail "kernel did not sectionize");
      Alcotest.(check bool) "no boundary hit across models" true
        (Compose.probe_boundary store ~ir ~model:model64 ~fuel = None);
      (* And the composed bit-flip-64 campaign, run cold next to the
         32-bit profiles, stays byte-identical to direct. *)
      let direct = Executor.ground_truth_model model64 golden in
      let r64 = Compose.run ?fuel ~model:model64 store ~ir golden in
      Alcotest.(check bool) "cold bit-flip-64 bytes = direct" true
        (Bytes.equal r64.Compose.outcomes direct.Ground_truth.outcomes))

let test_empty_sections_are_not_a_hit () =
  (* ir.cg sectionizes with zero-site sections, which the probe marks as
     trivially hit; against an empty store that must not count as a
     (partial) cache hit. *)
  with_store (fun store ->
      let ir = Option.get (Ftb_kernels.Suite.find_ir "ir.cg") in
      let golden = golden_of ir in
      match Compose.probe store ~ir ~golden ~model:model64 ~fuel with
      | None -> Alcotest.fail "ir.cg did not sectionize"
      | Some p ->
          Alcotest.(check bool) "ir.cg has a zero-site section" true
            (p.Compose.hit_sections > 0);
          Alcotest.(check int) "no case comes from the store" 0 p.Compose.hit_cases;
          Alcotest.(check bool) "empty store: no hit" false (Compose.any_hit p);
          Alcotest.(check bool) "empty store: not a full hit" false (Compose.full_hit p))

let test_seeded_checkpoint_reduces_engine_work () =
  with_store (fun store ->
      let ir = panel_kernel () in
      let golden = golden_of ir in
      let shard_size = 128 in
      ignore (Compose.run ?fuel store ~ir golden : Compose.report);
      (* Drop one interior section's profile, then seed a checkpoint from
         the remaining hits: the engine must resume the covered shards
         and execute only the invalidated section's. *)
      let _, _, plan = plan_of () in
      let victim = plan.Section.sections.(2) in
      Alcotest.(check int) "invalidate drops exactly one entry" 1
        (Store.invalidate store ~prefix:victim.Section.key);
      let planned =
        match Compose.probe store ~ir ~golden ~model:model64 ~fuel with
        | Some p -> p
        | None -> Alcotest.fail "kernel did not sectionize"
      in
      Alcotest.(check int) "exactly one section misses" 1 planned.Compose.miss_sections;
      let dir = fresh_dir "ftb-test-compose-ckpt" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let checkpoint = Filename.concat dir "checkpoint" in
          Checkpoint.save ~path:checkpoint
            (Compose.seed_checkpoint planned golden ~shard_size);
          let config =
            {
              Engine.default_config with
              Engine.shard_size;
              model = model64;
              fuel;
              resume = true;
              on_invalid_checkpoint = Engine.Restart;
            }
          in
          let report = Engine.run ~config ~checkpoint golden in
          let section_shards =
            (victim.Section.site_hi - victim.Section.site_lo)
            * planned.Compose.plan.Section.width / shard_size
          in
          Alcotest.(check int) "engine executed only the missed section's shards"
            section_shards report.Engine.executed_shards;
          Alcotest.(check int) "every other shard resumed from the seed"
            (report.Engine.total_shards - section_shards)
            report.Engine.resumed_shards;
          let direct = Executor.ground_truth_model model64 golden in
          Alcotest.(check bool) "reduced campaign bytes = direct" true
            (Bytes.equal report.Engine.ground_truth.Ground_truth.outcomes
               direct.Ground_truth.outcomes)))

(* ------------------------------------------------------------------ *)
(* Provenance: token lattice, round-trip, purge; v1 is unsupported.    *)

let test_provenance_tokens () =
  Alcotest.(check string) "local token" "local" Profile.prov_local;
  Alcotest.(check string) "audited fleet token" "fleet:audited:a,b"
    (Profile.prov_fleet ~audited:true ~workers:[ "a"; "b" ]);
  Alcotest.(check string) "unaudited fleet token" "fleet:unaudited:a"
    (Profile.prov_fleet ~audited:false ~workers:[ "a" ]);
  Alcotest.(check string) "no workers degenerates to local" Profile.prov_local
    (Profile.prov_fleet ~audited:true ~workers:[]);
  Alcotest.(check bool) "names with separators refused" true
    (match Profile.prov_fleet ~audited:true ~workers:[ "a:b" ] with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true);
  (* The trust lattice: local > fleet:audited > fleet:unaudited. *)
  Alcotest.(check bool) "local trusted" true (Profile.prov_trusted Profile.prov_local);
  Alcotest.(check bool) "audited fleet trusted" true
    (Profile.prov_trusted (Profile.prov_fleet ~audited:true ~workers:[ "a" ]));
  Alcotest.(check bool) "unaudited fleet untrusted" false
    (Profile.prov_trusted (Profile.prov_fleet ~audited:false ~workers:[ "a" ]));
  Alcotest.(check (list string)) "workers recoverable" [ "a"; "b" ]
    (Profile.prov_workers (Profile.prov_fleet ~audited:true ~workers:[ "a"; "b" ]));
  Alcotest.(check (list string)) "local names no workers" []
    (Profile.prov_workers Profile.prov_local);
  Alcotest.(check bool) "garbage token invalid" false (Profile.prov_valid "fleet:maybe:a")

let fleet_section ~key ~prov =
  Profile.Section
    {
      Profile.key = Fingerprint.of_string key;
      model = Models.spec_to_string model64;
      width = 64;
      site_lo = 0;
      sites = 1;
      entry_fp = Fingerprint.of_string "entry";
      exit_fp = Fingerprint.of_string "exit";
      prov;
      outcomes = String.make 64 '\001';
    }

let test_provenance_roundtrip_and_purge () =
  with_store (fun store ->
      let audited =
        fleet_section ~key:"aud" ~prov:(Profile.prov_fleet ~audited:true ~workers:[ "w1"; "w2" ])
      in
      let unaudited =
        fleet_section ~key:"unaud" ~prov:(Profile.prov_fleet ~audited:false ~workers:[ "w2" ])
      in
      let local = fleet_section ~key:"loc" ~prov:Profile.prov_local in
      List.iter (Store.put store) [ audited; unaudited; local ];
      Alcotest.(check bool) "fleet provenance round-trips" true
        (Store.find store ~key:(Profile.key audited) = Some audited);
      let stats = Store.stats store in
      Alcotest.(check int) "three entries" 3 stats.Store.entries;
      Alcotest.(check int) "only the unaudited one counts as untrusted" 1
        stats.Store.unaudited;
      (* Purging a worker takes every profile it touched — audited ones
         included (blast radius is the operator's call) — and no others. *)
      Alcotest.(check int) "purge by worker removes both w2 entries" 2
        (Store.invalidate_worker store ~worker:"w2");
      Alcotest.(check bool) "local entry untouched" true
        (Store.find store ~key:(Profile.key local) = Some local);
      Alcotest.(check int) "purge of an unknown worker is a no-op" 0
        (Store.invalidate_worker store ~worker:"w1"))

let test_v1_profile_unsupported () =
  (* A pre-provenance (v1) profile is an unsupported format: parsing it
     names the magic, the store quarantines it as a miss, and the rebuilt
     entry then serves. *)
  let body = String.make 64 '\001' in
  let section = fleet_section ~key:"legacy" ~prov:Profile.prov_local in
  let key = Profile.key section in
  let v1 =
    Printf.sprintf "ftb-section-profile-v1 %s %s 64 0 1 %s %s\n%s" key
      (Models.spec_to_string model64)
      (Fingerprint.of_string "entry") (Fingerprint.of_string "exit") body
  in
  (match Profile.parse ~path:"legacy-section" v1 with
  | _ -> Alcotest.fail "v1 section profile accepted"
  | exception Ftb_inject.Persist.Format_error msg ->
      Alcotest.(check bool) "error names the v1 magic" true
        (Helpers.contains msg "ftb-section-profile-v1"));
  with_store (fun store ->
      let path = Store.path_of_key store key in
      Ftb_inject.Persist.mkdir_p (Filename.dirname path);
      Ftb_inject.Persist.save_enveloped ~path (fun b -> Buffer.add_string b v1);
      Alcotest.(check bool) "v1 entry reads as a miss" true (Store.find store ~key = None);
      Alcotest.(check int) "v1 entry was quarantined" 1 (Store.stats store).Store.quarantined;
      Store.put store section;
      Alcotest.(check bool) "rebuilt entry serves" true
        (Store.find store ~key = Some section))

let suite =
  [
    Alcotest.test_case "fingerprint matches legacy encoding" `Quick
      test_fingerprint_legacy;
    Alcotest.test_case "fingerprint hex predicate" `Quick test_fingerprint_is_hex;
    Alcotest.test_case "sectionizer shape" `Quick test_sectionize_shape;
    Alcotest.test_case "keys deterministic" `Quick test_keys_deterministic;
    Alcotest.test_case "edit invalidates only its section" `Quick
      test_edit_invalidates_only_first;
    Alcotest.test_case "model is part of the key" `Quick test_model_changes_keys;
    Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "corruption is quarantined" `Quick
      test_store_corruption_quarantined;
    Alcotest.test_case "model mismatch never serves" `Quick
      test_model_mismatch_never_serves;
    Alcotest.test_case "empty sections are not a cache hit" `Quick
      test_empty_sections_are_not_a_hit;
    Alcotest.test_case "seeded checkpoint reduces engine work" `Quick
      test_seeded_checkpoint_reduces_engine_work;
    Alcotest.test_case "provenance token lattice" `Quick test_provenance_tokens;
    Alcotest.test_case "provenance round-trip and purge" `Quick
      test_provenance_roundtrip_and_purge;
    Alcotest.test_case "v1 profile is a typed error, then rebuilt" `Quick
      test_v1_profile_unsupported;
  ]
