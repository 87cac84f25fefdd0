(* Seeded job streams of the four workloads. Pure: the same seed gives the
   same stream, and nothing here reads a clock or the environment. *)

module Rng = Ftb_util.Rng
module Models = Ftb_inject.Models

type kind = Exhaustive | Adaptive

type job = {
  bench : string;
  model : Models.spec;
  kind : kind;
  seed : int;  (** adaptive campaign seed; 0 for exhaustive jobs *)
  fuel : int;
}

type op = Resubmit of job | Query of { bench : string; site : int; bit : int }

let default_fuel = 10_000_000
let bf64 = Models.default_spec
let bf32 = { Models.model = Models.Bit_flip_32; seed = 0 }
let random_value seed = { Models.model = Models.Random_value { lo = -1.; hi = 1. }; seed }

(* One generator per (seed, salt): streams never share RNG state, so the
   k-th pass does not depend on how many passes ran before it. *)
let rng ~seed ~salt = Rng.create ~seed:((seed * 1_000_003) + salt)

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

let exhaustive ?(fuel = default_fuel) bench model =
  { bench; model; kind = Exhaustive; seed = 0; fuel }

let adaptive bench seed = { bench; model = bf64; kind = Adaptive; seed; fuel = default_fuel }

let exhaustive_kernels = [ "ir.cg"; "ir.lu"; "ir.fft"; "ir.gemm"; "ir.stencil3" ]
let random_value_kernels = [ "ir.lu"; "ir.stencil3" ]
let adaptive_kernels = [ "ir.cg"; "ir.lu"; "ir.fft"; "ir.stencil3" ]

(* Pass [pass] over the exhaustive catalogue, in seeded order. Every job
   of every pass is a distinct campaign identity, so each one misses the
   profile cache: passes after the first add [pass] to the default fuel
   (no catalogue case comes near the watchdog, so the outcome bytes are
   unchanged) and random-value jobs draw a fresh model seed. *)
let exhaustive_pass ~seed ~pass =
  let rng = rng ~seed ~salt:(1 + (4 * pass)) in
  let fuel = default_fuel + pass in
  let flips =
    List.concat_map
      (fun b -> [ exhaustive ~fuel b bf64; exhaustive ~fuel b bf32 ])
      exhaustive_kernels
  in
  let rvs =
    List.map (fun b -> exhaustive ~fuel b (random_value (1 + Rng.int rng 1_000_000))) random_value_kernels
  in
  shuffled rng (flips @ rvs)

(* Adaptive campaign seeds are part of the catalogue, not drawn from the
   workload seed: how many samples and rounds a campaign takes depends on
   its seed, so drawing them would make the work of a run depend on the
   workload seed. Every (pass, kernel) has its own campaign seed, so every
   job misses the boundary store. *)
let campaign_seed ~pass bench =
  let rec index i = function
    | [] -> invalid_arg ("Jobs.campaign_seed: " ^ bench)
    | b :: rest -> if b = bench then i else index (i + 1) rest
  in
  1 + (1000 * pass) + (100 * index 0 adaptive_kernels)

(* Pass [pass] of adaptive jobs: every kernel once, in seeded order. *)
let adaptive_pass ~seed ~pass =
  let rng = rng ~seed ~salt:(2 + (4 * pass)) in
  shuffled rng (List.map (fun b -> adaptive b (campaign_seed ~pass b)) adaptive_kernels)

let warm_kernels = [ "ir.lu"; "ir.stencil3"; "ir.cg" ]
let warm_query_kernels = [ "ir.lu"; "ir.stencil3" ]

(* The priming pass of repeat_warm: the originals every timed operation
   re-reads. *)
let warm_priming ~seed =
  shuffled (rng ~seed ~salt:3)
    (List.concat_map (fun b -> [ exhaustive b bf64; exhaustive b bf32 ]) warm_kernels
    @ List.map (fun b -> adaptive b (campaign_seed ~pass:0 b)) warm_query_kernels)

(* The timed repeat_warm stream, generated on demand: blocks of six
   operations (two exact exhaustive resubmissions, two exact adaptive
   resubmissions, two boundary queries) in seeded order. Resubmissions
   cycle through a seeded permutation of the primed originals, so every
   original is re-read equally often; queries draw (site, bit) uniformly
   from [sites bench] x 64. *)
let warm_ops ~seed ~sites =
  let primed = warm_priming ~seed in
  let ex = Array.of_list (List.filter (fun j -> j.kind = Exhaustive) primed) in
  let ad = Array.of_list (List.filter (fun j -> j.kind = Adaptive) primed) in
  let queue = Queue.create () in
  let block = ref 0 in
  let ex_perm = ref [||] and ad_perm = ref [||] in
  let ex_next = ref 0 and ad_next = ref 0 in
  let pick perm next pool rng =
    if !next mod Array.length pool = 0 then begin
      perm := Array.copy pool;
      Rng.shuffle rng !perm
    end;
    let j = !perm.(!next mod Array.length pool) in
    incr next;
    j
  in
  let refill () =
    let rng = rng ~seed ~salt:(1000 + !block) in
    incr block;
    let query () =
      let bench = List.nth warm_query_kernels (Rng.int rng (List.length warm_query_kernels)) in
      Query { bench; site = Rng.int rng (sites bench); bit = Rng.int rng 64 }
    in
    let ops =
      [
        Resubmit (pick ex_perm ex_next ex rng);
        Resubmit (pick ex_perm ex_next ex rng);
        Resubmit (pick ad_perm ad_next ad rng);
        Resubmit (pick ad_perm ad_next ad rng);
        query ();
        query ();
      ]
    in
    List.iter (fun op -> Queue.add op queue) (shuffled rng ops)
  in
  fun () ->
    if Queue.is_empty queue then refill ();
    Queue.pop queue

let kind_name = function Exhaustive -> "exhaustive" | Adaptive -> "adaptive"

let describe j =
  match j.kind with
  | Exhaustive -> Printf.sprintf "%s %s fuel=%d" j.bench (Models.spec_to_string j.model) j.fuel
  | Adaptive -> Printf.sprintf "%s adaptive seed=%d" j.bench j.seed
