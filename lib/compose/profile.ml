module Persist = Ftb_inject.Persist
module Fingerprint = Ftb_util.Fingerprint

type section = {
  key : string;
  model : string;
  width : int;
  site_lo : int;
  sites : int;
  entry_fp : string;
  exit_fp : string;
  prov : string;
  outcomes : string;  (* sites * width outcome bytes *)
}

type boundary = {
  bkey : string;
  bmodel : string;
  bwidth : int;
  bsites : int;
  golden_fp : string;
  masked : int;
  sdc : int;
  crash : int;
  bprov : string;
  boutcomes : string;  (* bsites * bwidth outcome bytes *)
}

type t = Section of section | Boundary of boundary

let key = function Section s -> s.key | Boundary b -> b.bkey
let prov_of = function Section s -> s.prov | Boundary b -> b.bprov

(* ------------------------------------------------------------------ *)
(* Provenance tokens. The lattice, most to least trusted:
     local                         computed (or audit-adjudicated) here
     fleet:audited:n1,n2           every surviving remote shard verified
     fleet:unaudited:n1,n2         remote shards only sample-audited
   One space-free token so it slots into the space-split headers; worker
   names are sanitized to [A-Za-z0-9._-] at registration, so ',' and ':'
   are safe separators. *)

let prov_local = "local"

let name_valid n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       n

let prov_fleet ~audited ~workers =
  match workers with
  | [] -> prov_local
  | ws ->
      List.iter
        (fun w -> if not (name_valid w) then invalid_arg ("Profile.prov_fleet: bad worker name " ^ w))
        ws;
      Printf.sprintf "fleet:%s:%s"
        (if audited then "audited" else "unaudited")
        (String.concat "," ws)

let prov_workers p =
  match String.split_on_char ':' p with
  | [ "fleet"; ("audited" | "unaudited"); names ] -> String.split_on_char ',' names
  | _ -> []

let prov_trusted p =
  p = prov_local
  ||
  match String.split_on_char ':' p with
  | [ "fleet"; "audited"; _ ] -> true
  | _ -> false

let prov_valid p =
  p = prov_local
  ||
  match String.split_on_char ':' p with
  | [ "fleet"; ("audited" | "unaudited"); names ] ->
      names <> "" && List.for_all name_valid (String.split_on_char ',' names)
  | _ -> false

let section_magic = "ftb-section-profile-v2"
let boundary_magic = "ftb-boundary-profile-v2"

(* Outcome bytes use the ground-truth taxonomy encoding '\000'..'\005'
   (Ftb_inject.Ground_truth.byte_of_result); anything else in a decoded
   payload is corruption the CRC failed to catch (or a format bug) and
   must not be composed into a result. *)
(* Hot path: runs over every payload byte on each cache probe. *)
let outcomes_valid s =
  let ok = ref true in
  for i = 0 to String.length s - 1 do
    if Char.code (String.unsafe_get s i) > 5 then ok := false
  done;
  !ok

let write t buf =
  match t with
  | Section s ->
      Printf.bprintf buf "%s %s %s %d %d %d %s %s %s\n" section_magic s.key s.model
        s.width s.site_lo s.sites s.entry_fp s.exit_fp s.prov;
      Buffer.add_string buf s.outcomes
  | Boundary b ->
      Printf.bprintf buf "%s %s %s %d %d %s %d %d %d %s\n" boundary_magic b.bkey b.bmodel
        b.bwidth b.bsites b.golden_fp b.masked b.sdc b.crash b.bprov;
      Buffer.add_string buf b.boutcomes

let fail path fmt =
  Printf.ksprintf (fun msg -> raise (Persist.Format_error (path ^ ": " ^ msg))) fmt

let int_field path what s =
  let n = Persist.int_field ~path what s in
  if n < 0 then fail path "bad %s field %S" what s;
  n

let fp_field path what s =
  if Fingerprint.is_hex s then s else fail path "bad %s fingerprint %S" what s

let parse ~path contents =
  match String.index_opt contents '\n' with
  | None -> fail path "missing profile header"
  | Some nl -> (
      let header = String.sub contents 0 nl in
      let body = String.sub contents (nl + 1) (String.length contents - nl - 1) in
      let check_body ~sites ~width =
        if String.length body <> sites * width then
          fail path "outcome payload is %d bytes, expected %d (%d sites x width %d)"
            (String.length body) (sites * width) sites width;
        if not (outcomes_valid body) then fail path "invalid outcome byte in payload"
      in
      let prov_field p = if prov_valid p then p else fail path "bad provenance token %S" p in
      let section_of ~key ~model ~width ~site_lo ~sites ~entry_fp ~exit_fp ~prov =
        let width = int_field path "width" width in
        let sites = int_field path "sites" sites in
        if width <= 0 then fail path "width must be positive";
        check_body ~sites ~width;
        Section
          {
            key = fp_field path "key" key;
            model;
            width;
            site_lo = int_field path "site_lo" site_lo;
            sites;
            entry_fp = fp_field path "entry" entry_fp;
            exit_fp = fp_field path "exit" exit_fp;
            prov = prov_field prov;
            outcomes = body;
          }
      in
      let boundary_of ~key ~model ~width ~sites ~golden_fp ~masked ~sdc ~crash ~prov =
        let width = int_field path "width" width in
        let sites = int_field path "sites" sites in
        if width <= 0 then fail path "width must be positive";
        if sites <= 0 then fail path "sites must be positive";
        check_body ~sites ~width;
        let masked = int_field path "masked" masked in
        let sdc = int_field path "sdc" sdc in
        let crash = int_field path "crash" crash in
        if masked + sdc + crash <> sites * width then
          fail path "outcome counts %d+%d+%d do not sum to %d cases" masked sdc crash
            (sites * width);
        Boundary
          {
            bkey = fp_field path "key" key;
            bmodel = model;
            bwidth = width;
            bsites = sites;
            golden_fp = fp_field path "golden" golden_fp;
            masked;
            sdc;
            crash;
            bprov = prov_field prov;
            boutcomes = body;
          }
      in
      match String.split_on_char ' ' header with
      | [ magic; key; model; width; site_lo; sites; entry_fp; exit_fp; prov ]
        when magic = section_magic ->
          section_of ~key ~model ~width ~site_lo ~sites ~entry_fp ~exit_fp ~prov
      | [ magic; key; model; width; sites; golden_fp; masked; sdc; crash; prov ]
        when magic = boundary_magic ->
          boundary_of ~key ~model ~width ~sites ~golden_fp ~masked ~sdc ~crash ~prov
      | magic :: _ when magic = section_magic || magic = boundary_magic ->
          fail path "malformed %s header" magic
      | magic :: _ -> fail path "unsupported profile format %S" magic
      | [] -> fail path "empty profile header")

let count_outcomes s =
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '\000' -> incr masked
      | '\001' -> incr sdc
      | _ -> incr crash)
    s;
  (!masked, !sdc, !crash)
