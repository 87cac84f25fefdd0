let uniform rng ~n ~k = Rng.sample_without_replacement rng ~n ~k

(* Efraimidis-Spirakis over a stream: the k items with the smallest keys
   -ln(u)/w form a weighted sample without replacement. A max-heap of the
   k best (key, item) pairs so far, ordered by key, ties by item, is all
   the state: O(k) memory whatever the stream's length.

   Screening. Once the heap is full with maximum key K, an item of weight
   w whose draw has u < 0.999·exp(-K·w) cannot win: then -ln u exceeds
   K·w by more than -ln 0.999 ≈ 1.0e-3, so its key exceeds K by a relative
   margin of at least 1e-3 / (K·w). The screen can only fire when
   exp(-K·w) > 2^-53 (the smallest u), that is when K·w < 37, so that
   margin is at least 2.7e-5, far above the few ulps by which [log], the
   product, [exp] and the division can be off. Its computed key would
   have lost the comparison anyway, so skipping [log] for it changes no
   comparison and no tie; every other item's key is computed exactly and
   compared as the full sort would. *)
type reservoir = {
  k : int;
  weights : float array;
  keys : float array;  (* heap order, [size] of them *)
  items : int array;
  mutable size : int;
  screen : float array;  (* [| w; threshold |] for the current top; w NaN = stale *)
}

let reservoir ~k ~weights =
  if k < 0 then invalid_arg "Sampling.reservoir: negative k";
  {
    k;
    weights;
    keys = Array.make k 0.;
    items = Array.make k 0;
    size = 0;
    screen = [| Float.nan; 0. |];
  }

let[@inline] before r a b =
  let ka = Array.unsafe_get r.keys a and kb = Array.unsafe_get r.keys b in
  ka < kb || (ka = kb && Array.unsafe_get r.items a < Array.unsafe_get r.items b)

let swap r a b =
  let k = r.keys.(a) and i = r.items.(a) in
  r.keys.(a) <- r.keys.(b);
  r.items.(a) <- r.items.(b);
  r.keys.(b) <- k;
  r.items.(b) <- i

let rec sift_up r c =
  if c > 0 then begin
    let p = (c - 1) / 2 in
    if before r p c then begin
      swap r p c;
      sift_up r p
    end
  end

let rec sift_down r p =
  let l = (2 * p) + 1 in
  if l < r.size then begin
    let c = if l + 1 < r.size && before r l (l + 1) then l + 1 else l in
    if before r p c then begin
      swap r p c;
      sift_down r c
    end
  end

let offer r rng ~group items ~len =
  let w = r.weights.(group) in
  if not (w >= 0.) then invalid_arg "Sampling.offer: invalid weight";
  if w > 0. then
    for i = 0 to len - 1 do
      let item = items.(i) in
      let u = 1. -. (float_of_int (Rng.bits53 rng) *. 0x1.0p-53) (* in (0,1] *) in
      if r.size < r.k then begin
        let c = r.size in
        r.keys.(c) <- -.log u /. w;
        r.items.(c) <- item;
        r.size <- c + 1;
        sift_up r c;
        r.screen.(0) <- Float.nan
      end
      else if r.k > 0 then begin
        if not (r.screen.(0) = w) then begin
          r.screen.(0) <- w;
          r.screen.(1) <- 0.999 *. exp (-.r.keys.(0) *. w)
        end;
        if not (u < r.screen.(1)) then begin
          let key = -.log u /. w in
          let top = r.keys.(0) in
          if key < top || (key = top && item < r.items.(0)) then begin
            r.keys.(0) <- key;
            r.items.(0) <- item;
            sift_down r 0;
            r.screen.(0) <- Float.nan
          end
        end
      end
    done

let drawn r =
  let order = Array.init r.size Fun.id in
  Array.sort (fun a b -> if before r a b then -1 else if before r b a then 1 else 0) order;
  Array.map (fun h -> r.items.(h)) order

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
  let r = reservoir ~k ~weights and one = [| 0 |] in
  for i = 0 to n - 1 do
    one.(0) <- i;
    offer r rng ~group:i one ~len:1
  done;
  drawn r

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
