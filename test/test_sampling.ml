module Sampling = Ftb_util.Sampling
module Rng = Ftb_util.Rng

let test_uniform_delegates () =
  let rng = Rng.create ~seed:1 in
  let s = Sampling.uniform rng ~n:50 ~k:10 in
  Alcotest.(check int) "size" 10 (Array.length s);
  Array.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 50)) s

let test_weighted_distinct_and_positive () =
  let rng = Rng.create ~seed:2 in
  let weights = [| 1.; 0.; 3.; 0.; 2. |] in
  for _ = 1 to 50 do
    let s = Sampling.weighted_without_replacement rng ~weights ~k:3 in
    let module S = Set.Make (Int) in
    let set = S.of_list (Array.to_list s) in
    Alcotest.(check int) "3 distinct" 3 (S.cardinal set);
    Alcotest.(check bool) "zero-weight index 1 never drawn" false (S.mem 1 set);
    Alcotest.(check bool) "zero-weight index 3 never drawn" false (S.mem 3 set)
  done

let test_weighted_bias () =
  (* Index 0 has 100x the weight of index 1: it must be drawn first almost
     always over many trials. *)
  let rng = Rng.create ~seed:3 in
  let weights = [| 100.; 1. |] in
  let zero_first = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let s = Sampling.weighted_without_replacement rng ~weights ~k:1 in
    if s.(0) = 0 then incr zero_first
  done;
  Alcotest.(check bool)
    (Printf.sprintf "heavy weight dominates (%d/%d)" !zero_first trials)
    true
    (float_of_int !zero_first /. float_of_int trials > 0.95)

let test_weighted_errors () =
  let rng = Rng.create ~seed:4 in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Sampling.weighted_without_replacement: invalid weight") (fun () ->
      ignore (Sampling.weighted_without_replacement rng ~weights:[| -1.; 1. |] ~k:1));
  Alcotest.check_raises "not enough positive weights"
    (Invalid_argument "Sampling.weighted_without_replacement: not enough positive weights")
    (fun () ->
      ignore (Sampling.weighted_without_replacement rng ~weights:[| 0.; 1. |] ~k:2));
  Alcotest.check_raises "k > n"
    (Invalid_argument "Sampling.weighted_without_replacement: k > n") (fun () ->
      ignore (Sampling.weighted_without_replacement rng ~weights:[| 1. |] ~k:2))

let test_inverse_information_weights () =
  let w = Sampling.inverse_information_weights ~info:[| 0.; 1.; 4.; 10. |] in
  Helpers.check_close "zero info floored to weight 1" 1. w.(0);
  Helpers.check_close "info 1 -> weight 1" 1. w.(1);
  Helpers.check_close "info 4 -> weight 1/4" 0.25 w.(2);
  Helpers.check_close "info 10 -> weight 1/10" 0.1 w.(3);
  Alcotest.check_raises "negative info"
    (Invalid_argument "Sampling.inverse_information_weights: invalid info count") (fun () ->
      ignore (Sampling.inverse_information_weights ~info:[| -1. |]))

let test_stratified_indices () =
  let ranges = Sampling.stratified_indices ~n:10 ~strata:3 in
  Alcotest.(check int) "3 ranges" 3 (Array.length ranges);
  Alcotest.(check (pair int int)) "first" (0, 3) ranges.(0);
  Alcotest.(check (pair int int)) "second" (3, 6) ranges.(1);
  Alcotest.(check (pair int int)) "third" (6, 10) ranges.(2);
  (* More strata than elements collapses to n ranges. *)
  let tiny = Sampling.stratified_indices ~n:2 ~strata:5 in
  Alcotest.(check int) "clamped strata" 2 (Array.length tiny)

let prop_stratified_covers =
  QCheck.Test.make ~name:"stratified ranges tile [0,n) exactly" ~count:200
    QCheck.(pair (int_range 0 500) (int_range 1 20))
    (fun (n, strata) ->
      let ranges = Sampling.stratified_indices ~n ~strata in
      let covered = Array.fold_left (fun acc (a, b) -> acc + (b - a)) 0 ranges in
      let contiguous = ref true in
      Array.iteri
        (fun i (a, _) -> if i > 0 && a <> snd ranges.(i - 1) then contiguous := false)
        ranges;
      covered = n && !contiguous
      && (Array.length ranges = 0 || (fst ranges.(0) = 0 && snd ranges.(Array.length ranges - 1) = n)))

let prop_uniform_edge_cases =
  QCheck.Test.make ~name:"uniform edges: k=0 empty, k=n permutation, k>n raises"
    ~count:200
    QCheck.(pair (int_range 0 100) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let empty = Sampling.uniform rng ~n ~k:0 in
      let full = Sampling.uniform rng ~n ~k:n in
      let module S = Set.Make (Int) in
      let distinct = S.cardinal (S.of_list (Array.to_list full)) in
      let over_raises =
        match Sampling.uniform rng ~n ~k:(n + 1) with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Array.length empty = 0
      && Array.length full = n && distinct = n
      && Array.for_all (fun i -> 0 <= i && i < n) full
      && over_raises)

let prop_weighted_edge_cases =
  QCheck.Test.make
    ~name:"weighted edges: k=0, k=#positive, k>n, zero-weight sites never drawn"
    ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 12) (int_range 0 5)) small_int)
    (fun (raw, seed) ->
      let rng = Rng.create ~seed in
      let weights = Array.of_list (List.map float_of_int raw) in
      let n = Array.length weights in
      let positive = Array.fold_left (fun acc w -> if w > 0. then acc + 1 else acc) 0 weights in
      let empty = Sampling.weighted_without_replacement rng ~weights ~k:0 in
      (* The largest satisfiable draw selects exactly the positive-weight
         sites — a zero-weight site can never displace one. *)
      let full = Sampling.weighted_without_replacement rng ~weights ~k:positive in
      let module S = Set.Make (Int) in
      let full_set = S.of_list (Array.to_list full) in
      let over_n_raises =
        match Sampling.weighted_without_replacement rng ~weights ~k:(n + 1) with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let over_positive_raises =
        positive = n
        ||
        match Sampling.weighted_without_replacement rng ~weights ~k:(positive + 1) with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Array.length empty = 0
      && Array.length full = positive
      && S.cardinal full_set = positive
      && S.for_all (fun i -> weights.(i) > 0.) full_set
      && over_n_raises && over_positive_raises)

(* The weighted draw sorted every (key, index) pair before the bounded
   heap replaced the sort; the heap must pick the same indices in the same
   order and consume the same random numbers. *)
let prop_weighted_matches_full_sort =
  QCheck.Test.make ~name:"weighted draw = full sort of the keys" ~count:300
    QCheck.(triple (list_of_size (Gen.int_range 1 60) (int_range 0 4)) small_int small_int)
    (fun (raw, seed, kraw) ->
      let weights = Array.of_list (List.map (fun w -> float_of_int w /. 2.) raw) in
      let positive = Array.fold_left (fun acc w -> if w > 0. then acc + 1 else acc) 0 weights in
      let k = if positive = 0 then 0 else kraw mod (positive + 1) in
      let reference = Rng.create ~seed and rng = Rng.create ~seed in
      let keys =
        Array.mapi
          (fun i w ->
            if w = 0. then (infinity, i)
            else
              let u = 1. -. Rng.float reference 1. in
              (-.log u /. w, i))
          weights
      in
      Array.sort compare keys;
      let expected = Array.init k (fun j -> snd keys.(j)) in
      Sampling.weighted_without_replacement rng ~weights ~k = expected
      && Rng.state rng = Rng.state reference)

(* The reservoir against the full sort on weights that stress its
   screen: equal keys (ties by index), keys that overflow to infinity
   (a huge information count, so exp (-K·w) underflows to 0), and a
   maximum key of 0 (infinite weights), where every finite-weight draw
   is screened. *)
let full_sort rng ~weights ~k =
  let keys =
    Array.mapi
      (fun i w ->
        if w = 0. then (infinity, i)
        else
          let u = 1. -. Rng.float rng 1. in
          (-.log u /. w, i))
      weights
  in
  Array.sort compare keys;
  Array.init k (fun j -> snd keys.(j))

let test_reservoir_adversarial_weights () =
  let tiny = 5e-324 and huge_info = 1. /. 1e300 in
  let cases =
    [
      ("all keys infinite", Array.make 40 tiny, 7);
      ("huge info beside unit weights", Array.init 60 (fun i -> if i mod 3 = 0 then 1. else huge_info), 15);
      ("huge info only", Array.init 50 (fun i -> if i mod 2 = 0 then tiny else huge_info), 10);
      ("K = 0", Array.init 80 (fun i -> if i mod 5 = 0 then infinity else 1. /. float_of_int (i + 1)), 16);
      ("equal weights", Array.make 200 0.25, 30);
      ("zeros among them", Array.init 30 (fun i -> if i mod 2 = 0 then 0. else 2.), 15);
    ]
  in
  List.iter
    (fun (what, weights, k) ->
      for seed = 0 to 19 do
        let reference = Rng.create ~seed and rng = Rng.create ~seed in
        let expected = full_sort reference ~weights ~k in
        Alcotest.(check (array int))
          (Printf.sprintf "%s, seed %d: draw" what seed)
          expected
          (Sampling.weighted_without_replacement rng ~weights ~k);
        Alcotest.(check int64)
          (Printf.sprintf "%s, seed %d: rng" what seed)
          (Rng.state reference) (Rng.state rng)
      done)
    cases;
  (* Streamed by hand, with one weight per group and more items than k,
     in ascending order: what the adaptive planner does. *)
  let weights = [| 1.; 1e-3; 1. /. 1e300; infinity |] in
  let reference = Rng.create ~seed:3 and rng = Rng.create ~seed:3 in
  let flat = Array.init 400 (fun i -> weights.(i / 100)) in
  let r = Sampling.reservoir ~k:25 ~weights in
  for group = 0 to 3 do
    (* Runs of uneven length, to cross the heap filling up mid-run. *)
    let items = Array.init 100 (fun j -> (100 * group) + j) in
    Sampling.offer r rng ~group (Array.sub items 0 7) ~len:7;
    Sampling.offer r rng ~group (Array.sub items 7 93) ~len:93
  done;
  Alcotest.(check (array int)) "grouped stream" (full_sort reference ~weights:flat ~k:25) (Sampling.drawn r);
  Alcotest.(check int64) "grouped stream rng" (Rng.state reference) (Rng.state rng)

let test_reservoir_short_stream () =
  (* Fewer positive items than k: all of them, in key order. *)
  let weights = [| 1.; 0.; 3. |] in
  let r = Sampling.reservoir ~k:5 ~weights in
  let rng = Rng.create ~seed:8 in
  List.iter (fun i -> Sampling.offer r rng ~group:i [| i; -1 |] ~len:1) [ 0; 1; 2 ];
  let drawn = Sampling.drawn r in
  Alcotest.(check int) "two positive items" 2 (Array.length drawn);
  Alcotest.(check (list int)) "both of them" [ 0; 2 ] (List.sort compare (Array.to_list drawn));
  Alcotest.check_raises "NaN weight" (Invalid_argument "Sampling.offer: invalid weight")
    (fun () ->
      Sampling.offer (Sampling.reservoir ~k:1 ~weights:[| Float.nan |]) rng ~group:0 [| 0 |] ~len:1)

let suite =
  [
    Alcotest.test_case "reservoir: adversarial weights" `Quick test_reservoir_adversarial_weights;
    Alcotest.test_case "reservoir: short stream" `Quick test_reservoir_short_stream;
    Alcotest.test_case "uniform delegates" `Quick test_uniform_delegates;
    Alcotest.test_case "weighted distinct/positive" `Quick test_weighted_distinct_and_positive;
    Alcotest.test_case "weighted bias" `Quick test_weighted_bias;
    Alcotest.test_case "weighted errors" `Quick test_weighted_errors;
    Alcotest.test_case "inverse information weights" `Quick test_inverse_information_weights;
    Alcotest.test_case "stratified indices" `Quick test_stratified_indices;
    Helpers.qcheck_to_alcotest prop_stratified_covers;
    Helpers.qcheck_to_alcotest prop_uniform_edge_cases;
    Helpers.qcheck_to_alcotest prop_weighted_edge_cases;
    Helpers.qcheck_to_alcotest prop_weighted_matches_full_sort;
  ]
