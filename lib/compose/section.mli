(** Sectionizer: stable statement-group sections with content keys.

    Splits an {!Ftb_ir.Ir} body into top-level statement groups (each
    loop its own group, maximal runs of other statements one group),
    additionally {e peeling} small constant-trip top-level loops into one
    specialized group per iteration, and computes a content key per
    section. A section's key is the fingerprint of everything the outcome
    bytes of its cases depend on: the bit-exact interpreter state at
    section entry (live-in values), the canonical text of this section
    {e and every later one} (an injected error propagates arbitrarily far
    forward), the site offset, the fault model, the fuel budget and the
    SDC tolerance. Equal keys therefore imply byte-identical case
    outcomes; the converse is not required.

    Grouping is validated by replay: the grouped interpretation must
    reproduce the golden trace and output bit-for-bit or {!sectionize}
    returns [None] and the caller degrades to a cold campaign — a
    sectionizer bug can cost time, never bytes. *)

type section = {
  index : int;  (** position in the plan, 0-based *)
  label : string;  (** human-readable: ["loop"], ["stmts"], ["iter[i3=2]"] *)
  site_lo : int;  (** first dynamic site of the section *)
  site_hi : int;  (** one past the last site; cases are
                      [[site_lo * width, site_hi * width)] *)
  key : string;  (** content key of the section's cached profile *)
  entry_fp : string;  (** fingerprint of the entry state (diagnostic) *)
  exit_fp : string;
      (** fingerprint of the golden exit state — the section's
          output-perturbation signature; equals the next section's entry
          fingerprint in any consistent composition *)
}

type plan = {
  model : Ftb_inject.Models.spec;
  fuel : int option;
  width : int;  (** [Models.spec_width model] *)
  sites : int;  (** total dynamic sites; sections partition [0, sites) *)
  golden_fp : string;  (** {!Ftb_campaign.Checkpoint.fingerprint_of_golden} image *)
  sections : section array;
}

val sectionize :
  ir:Ftb_ir.Ir.t ->
  golden:Ftb_trace.Golden.t ->
  model:Ftb_inject.Models.spec ->
  fuel:int option ->
  plan option
(** Section the program and key every section. [None] when the program
    has no body/output or when replay validation fails — callers must
    fall back to a from-scratch campaign. [golden] must be the golden run
    of the very program being sectioned (any lowering of it: the grouped
    interpretation is compared bit-for-bit against its trace). *)

val boundary_key :
  ir:Ftb_ir.Ir.t -> model:Ftb_inject.Models.spec -> fuel:int option -> string
(** Whole-boundary content key: fingerprint of the initial interpreter
    state (embedding every array's declared contents) plus the canonical
    text of the entire body, the model, fuel and tolerance. Computable
    {e without executing the program} — recognizing a byte-identical
    resubmission costs one hash and one store lookup. *)
