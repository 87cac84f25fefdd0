let uniform rng ~n ~k = Rng.sample_without_replacement rng ~n ~k

let weighted_without_replacement rng ~weights ~k =
  let n = Array.length weights in
  if k < 0 then invalid_arg "Sampling.weighted_without_replacement: negative k";
  if k > n then invalid_arg "Sampling.weighted_without_replacement: k > n";
  let positive = ref 0 in
  Array.iter
    (fun w ->
      if Float.is_nan w || w < 0. then
        invalid_arg "Sampling.weighted_without_replacement: invalid weight";
      if w > 0. then incr positive)
    weights;
  if !positive < k then
    invalid_arg "Sampling.weighted_without_replacement: not enough positive weights";
  (* Efraimidis-Spirakis: the k items with the smallest -ln(u)/w keys form a
     weighted sample without replacement. One uniform draw per positive
     weight, in index order. *)
  let keys = Array.make n infinity in
  Array.iteri
    (fun i w ->
      if w > 0. then begin
        let u = 1. -. Rng.float rng 1. (* in (0,1] so ln is finite *) in
        keys.(i) <- -.log u /. w
      end)
    weights;
  (* Key order, ties by index: the order of the (key, index) pairs under
     [compare]. Keys are never NaN. *)
  let before i j =
    let a = keys.(i) and b = keys.(j) in
    a < b || (a = b && i < j)
  in
  (* A max-heap (under [before]) of the k best indices seen so far:
     O(n log k) instead of sorting all n keys. *)
  let heap = Array.make k 0 in
  let rec sift_down p size =
    let l = (2 * p) + 1 in
    if l < size then begin
      let r = l + 1 in
      let c = if r < size && before heap.(l) heap.(r) then r else l in
      if before heap.(p) heap.(c) then begin
        let tmp = heap.(p) in
        heap.(p) <- heap.(c);
        heap.(c) <- tmp;
        sift_down c size
      end
    end
  in
  let rec sift_up c =
    if c > 0 then begin
      let p = (c - 1) / 2 in
      if before heap.(p) heap.(c) then begin
        let tmp = heap.(p) in
        heap.(p) <- heap.(c);
        heap.(c) <- tmp;
        sift_up p
      end
    end
  in
  for i = 0 to n - 1 do
    if i < k then begin
      heap.(i) <- i;
      sift_up i
    end
    else if k > 0 && before i heap.(0) then begin
      heap.(0) <- i;
      sift_down 0 k
    end
  done;
  Array.sort (fun i j -> if before i j then -1 else if before j i then 1 else 0) heap;
  heap

let inverse_information_weights ~info =
  Array.map
    (fun s ->
      if Float.is_nan s || s < 0. then
        invalid_arg "Sampling.inverse_information_weights: invalid info count";
      1. /. Float.max s 1.)
    info

let stratified_indices ~n ~strata =
  if n < 0 then invalid_arg "Sampling.stratified_indices: negative n";
  if strata <= 0 then invalid_arg "Sampling.stratified_indices: strata must be positive";
  let strata = min strata (max n 1) in
  Array.init strata (fun s ->
      let start = s * n / strata in
      let stop = (s + 1) * n / strata in
      (start, stop))
