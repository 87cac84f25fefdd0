module Ir = Ftb_ir.Ir
module Rng = Ftb_util.Rng
module Static = Ftb_trace.Static

(* The suite kernels, as structured [Ftb_ir.Ir.t] programs, and their
   uninstrumented oracles ([*_oracle]). Each builder's uninstrumented run
   is arithmetic-identical to its oracle: the same operations in the same
   order, with reductions accumulated from [0.]. Scratch values become
   non-recorded [Flet]s, so the recorded stream covers exactly the data
   elements the paper's fault model covers, and a label table
   ([Ir.set_statics]) gives every site the phase and label of the
   hand-instrumented kernel it was ported from.

   The IR has no integer-array indexing, so CSR structure (CG, Jacobi)
   and FFT bit-reversal/twiddle schedules are specialized at build time:
   data-independent index computations unroll into constant-index
   statements sharing one label per phase. That is the same trade the
   paper's fixed-computation-sequence assumption makes (§2.2) — control
   flow is data-independent, so the unrolled program IS the original's
   computation sequence. *)

let idx2 ~cols i j = Ir.Iadd (Ir.Imul (i, Ir.Iconst cols), j)

(* Left fold from [Fconst 0.] — the [acc := 0.; acc +. t] reduction
   shape of the plain oracles, kept bit-identical. *)
let fsum terms = List.fold_left (fun e t -> Ir.Fadd (e, t)) (Ir.Fconst 0.) terms

(* [(phase, labels)] groups: each label keeps its text and reports [phase]. *)
let set_phases p groups =
  Ir.set_statics p
    (List.concat_map
       (fun (phase, labels) -> List.map (fun label -> (label, { Static.phase; label })) labels)
       groups)

let upto i n body = Ir.For (i, Ir.Iconst 0, Ir.Iconst n, body)

(* ------------------------------------------------------------------ *)
(* Conjugate gradient.                                                 *)

let cg ~grid ~iterations ~tolerance ~record_init =
  if grid <= 0 then invalid_arg "Ir_kernels.cg: grid must be positive";
  if iterations <= 0 then invalid_arg "Ir_kernels.cg: iterations must be positive";
  let a = Poisson.matrix ~grid in
  let b = Poisson.rhs ~grid in
  let n = Array.length b in
  let p = Ir.create ~name:"ir.cg" ~tolerance in
  let x = Ir.array p ~name:"x" ~init:(Array.make n 0.) in
  let r = Ir.array p ~name:"r" ~init:(Array.copy b) in
  let pv = Ir.array p ~name:"p" ~init:(Array.copy b) in
  let q = Ir.array p ~name:"q" ~init:(Array.make n 0.) in
  let rsold = Ir.freg p and rsnew = Ir.freg p and pq = Ir.freg p in
  let alpha = Ir.freg p and beta = Ir.freg p and acc = Ir.freg p in
  let it = Ir.ireg p and i = Ir.ireg p in
  let load arr ix = Ir.Fload (arr, ix) in
  (* The recorded initialisation of x, r and p; without it the three
     arrays start at their declared contents and the stream begins at
     [rsold]. *)
  let init =
    if not record_init then []
    else
      let bv = Ir.array p ~name:"b" ~init:b in
      [
        upto i n [ Ir.Store (x, Ir.Ireg i, Ir.Fconst 0., "x[i] = 0") ];
        upto i n [ Ir.Store (r, Ir.Ireg i, load bv (Ir.Ireg i), "r[i] = b[i]") ];
        upto i n [ Ir.Store (pv, Ir.Ireg i, load r (Ir.Ireg i), "p[i] = r[i]") ];
      ]
  in
  (* One CSR row of A·p, unrolled to constant indices in entry order. *)
  let spmv_row row =
    fsum
      (List.init
         (a.Csr.row_ptr.(row + 1) - a.Csr.row_ptr.(row))
         (fun t ->
           let k = a.Csr.row_ptr.(row) + t in
           Ir.Fmul (Ir.Fconst a.Csr.values.(k), load pv (Ir.Iconst a.Csr.col_idx.(k)))))
  in
  let dot_into ~label dst u v =
    [
      Ir.Flet (acc, Ir.Fconst 0.);
      upto i n
        [
          Ir.Flet
            (acc, Ir.Fadd (Ir.Freg acc, Ir.Fmul (load u (Ir.Ireg i), load v (Ir.Ireg i))));
        ];
      Ir.Fassign (dst, Ir.Freg acc, label);
    ]
  in
  let iteration =
    List.init n (fun row -> Ir.Store (q, Ir.Iconst row, spmv_row row, "q[i] = (A p)[i]"))
    @ dot_into ~label:"pq = p.q" pq pv q
    @ [
        Ir.Fassign (alpha, Ir.Fdiv (Ir.Freg rsold, Ir.Freg pq), "alpha = rsold/pq");
        Ir.Guard (Ir.Freg alpha, "cg.alpha");
        upto i n
          [
            Ir.Store
              ( x,
                Ir.Ireg i,
                Ir.Fadd (load x (Ir.Ireg i), Ir.Fmul (Ir.Freg alpha, load pv (Ir.Ireg i))),
                "x[i] += alpha*p[i]" );
          ];
        upto i n
          [
            Ir.Store
              ( r,
                Ir.Ireg i,
                Ir.Fsub (load r (Ir.Ireg i), Ir.Fmul (Ir.Freg alpha, load q (Ir.Ireg i))),
                "r[i] -= alpha*q[i]" );
          ];
      ]
    @ dot_into ~label:"rsnew = r.r" rsnew r r
    @ [
        Ir.Fassign (beta, Ir.Fdiv (Ir.Freg rsnew, Ir.Freg rsold), "beta = rsnew/rsold");
        Ir.Guard (Ir.Freg beta, "cg.beta");
        upto i n
          [
            Ir.Store
              ( pv,
                Ir.Ireg i,
                Ir.Fadd (load r (Ir.Ireg i), Ir.Fmul (Ir.Freg beta, load pv (Ir.Ireg i))),
                "p[i] = r[i]+beta*p[i]" );
          ];
        Ir.Flet (rsold, Ir.Freg rsnew);
      ]
  in
  Ir.set_body p
    (init
    @ dot_into ~label:"rsold = r.r" rsold r r
    @ [ Ir.For (it, Ir.Iconst 0, Ir.Iconst iterations, iteration) ]);
  Ir.output_array p x;
  set_phases p
    [
      ("cg.init", [ "x[i] = 0"; "r[i] = b[i]"; "p[i] = r[i]"; "rsold = r.r" ]);
      ("cg.spmv", [ "q[i] = (A p)[i]" ]);
      ("cg.reduce", [ "pq = p.q"; "alpha = rsold/pq"; "rsnew = r.r"; "beta = rsnew/rsold" ]);
      ("cg.update", [ "x[i] += alpha*p[i]"; "r[i] -= alpha*q[i]"; "p[i] = r[i]+beta*p[i]" ]);
    ];
  p

let cg_oracle ~grid ~iterations =
  let a = Poisson.matrix ~grid and b = Poisson.rhs ~grid in
  let n = Array.length b in
  let dot u v =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (u.(i) *. v.(i))
    done;
    !acc
  in
  let x = Array.make n 0. and r = Array.copy b and p = Array.copy b in
  let rsold = ref (dot r r) in
  for _ = 1 to iterations do
    let q = Csr.spmv a p in
    let alpha = !rsold /. dot p q in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i))
    done;
    for i = 0 to n - 1 do
      r.(i) <- r.(i) -. (alpha *. q.(i))
    done;
    let rsnew = dot r r in
    let beta = rsnew /. !rsold in
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rsold := rsnew
  done;
  x

(* ------------------------------------------------------------------ *)
(* Blocked LU without pivoting.                                        *)

let lu_input ~n ~seed = Dense.random_diagonally_dominant (Rng.create ~seed) ~n

let lu ~n ~block ~seed ~tolerance =
  if n <= 0 then invalid_arg "Ir_kernels.lu: n must be positive";
  if block <= 0 || n mod block <> 0 then
    invalid_arg "Ir_kernels.lu: block must divide n";
  let input = lu_input ~n ~seed in
  let p = Ir.create ~name:"ir.lu" ~tolerance in
  let m = Ir.array p ~name:"m" ~init:(Dense.flatten input) in
  let pivot = Ir.freg p and acc = Ir.freg p in
  let bi = Ir.ireg p and kb = Ir.ireg p and kmax = Ir.ireg p in
  let k = Ir.ireg p and i = Ir.ireg p and j = Ir.ireg p in
  let at ri ci = Ir.Fload (m, idx2 ~cols:n ri ci) in
  let succ_i e = Ir.Iadd (e, Ir.Iconst 1) in
  Ir.set_body p
    [
      Ir.For
        ( bi,
          Ir.Iconst 0,
          Ir.Iconst (n / block),
          [
            Ir.Iassign (kb, Ir.Imul (Ir.Ireg bi, Ir.Iconst block));
            Ir.Iassign (kmax, Ir.Iadd (Ir.Ireg kb, Ir.Iconst block));
            (* Panel factorisation: unblocked LU on columns kb..kmax-1. *)
            Ir.For
              ( k,
                Ir.Ireg kb,
                Ir.Ireg kmax,
                [
                  Ir.Flet (pivot, at (Ir.Ireg k) (Ir.Ireg k));
                  Ir.Guard (Ir.Freg pivot, "lu.pivot");
                  Ir.For
                    ( i,
                      succ_i (Ir.Ireg k),
                      Ir.Iconst n,
                      [
                        Ir.Store
                          ( m,
                            idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg k),
                            Ir.Fdiv (at (Ir.Ireg i) (Ir.Ireg k), Ir.Freg pivot),
                            "panel elimination" );
                      ] );
                  Ir.For
                    ( i,
                      succ_i (Ir.Ireg k),
                      Ir.Iconst n,
                      [
                        Ir.For
                          ( j,
                            succ_i (Ir.Ireg k),
                            Ir.Ireg kmax,
                            [
                              Ir.Store
                                ( m,
                                  idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j),
                                  Ir.Fsub
                                    ( at (Ir.Ireg i) (Ir.Ireg j),
                                      Ir.Fmul
                                        (at (Ir.Ireg i) (Ir.Ireg k), at (Ir.Ireg k) (Ir.Ireg j))
                                    ),
                                  "panel elimination" );
                            ] );
                      ] );
                ] );
            (* U row block: apply the panel to columns kmax..n-1. *)
            Ir.For
              ( k,
                Ir.Ireg kb,
                Ir.Ireg kmax,
                [
                  Ir.For
                    ( i,
                      succ_i (Ir.Ireg k),
                      Ir.Ireg kmax,
                      [
                        Ir.For
                          ( j,
                            Ir.Ireg kmax,
                            Ir.Iconst n,
                            [
                              Ir.Store
                                ( m,
                                  idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j),
                                  Ir.Fsub
                                    ( at (Ir.Ireg i) (Ir.Ireg j),
                                      Ir.Fmul
                                        (at (Ir.Ireg i) (Ir.Ireg k), at (Ir.Ireg k) (Ir.Ireg j))
                                    ),
                                  "U row block update" );
                            ] );
                      ] );
                ] );
            (* Trailing update: A22 -= L21 * U12. *)
            Ir.For
              ( i,
                Ir.Ireg kmax,
                Ir.Iconst n,
                [
                  Ir.For
                    ( j,
                      Ir.Ireg kmax,
                      Ir.Iconst n,
                      [
                        Ir.Flet (acc, Ir.Fconst 0.);
                        Ir.For
                          ( k,
                            Ir.Ireg kb,
                            Ir.Ireg kmax,
                            [
                              Ir.Flet
                                ( acc,
                                  Ir.Fadd
                                    ( Ir.Freg acc,
                                      Ir.Fmul
                                        (at (Ir.Ireg i) (Ir.Ireg k), at (Ir.Ireg k) (Ir.Ireg j))
                                    ) );
                            ] );
                        Ir.Store
                          ( m,
                            idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j),
                            Ir.Fsub (at (Ir.Ireg i) (Ir.Ireg j), Ir.Freg acc),
                            "trailing update" );
                      ] );
                ] );
          ] );
    ];
  Ir.output_array p m;
  set_phases p
    [
      ("lu.panel", [ "panel elimination" ]);
      ("lu.row_block", [ "U row block update" ]);
      ("lu.trailing", [ "trailing update" ]);
    ];
  p

let lu_oracle ~n ~block ~seed =
  let m = lu_input ~n ~seed in
  for step = 0 to (n / block) - 1 do
    let kb = step * block in
    let kmax = kb + block in
    for k = kb to kmax - 1 do
      let pivot = m.(k).(k) in
      for i = k + 1 to n - 1 do
        m.(i).(k) <- m.(i).(k) /. pivot
      done;
      for i = k + 1 to n - 1 do
        for j = k + 1 to kmax - 1 do
          m.(i).(j) <- m.(i).(j) -. (m.(i).(k) *. m.(k).(j))
        done
      done
    done;
    for k = kb to kmax - 1 do
      for i = k + 1 to kmax - 1 do
        for j = kmax to n - 1 do
          m.(i).(j) <- m.(i).(j) -. (m.(i).(k) *. m.(k).(j))
        done
      done
    done;
    for i = kmax to n - 1 do
      for j = kmax to n - 1 do
        let acc = ref 0. in
        for k = kb to kmax - 1 do
          acc := !acc +. (m.(i).(k) *. m.(k).(j))
        done;
        m.(i).(j) <- m.(i).(j) -. !acc
      done
    done
  done;
  Dense.flatten m

(* ------------------------------------------------------------------ *)
(* Six-step FFT.                                                       *)

let pi = 4. *. atan 1.

(* Per-stage butterfly factors of a radix-2 FFT of length [len]: for each
   stage size m (2, 4, ..., len) the factors w_m^k, k < m/2. *)
let fft_stage_tables len =
  let stages = ref [] in
  let m = ref 2 in
  while !m <= len do
    let half = !m / 2 in
    let wr = Array.make half 0. and wi = Array.make half 0. in
    for k = 0 to half - 1 do
      let angle = -2. *. pi *. float_of_int k /. float_of_int !m in
      wr.(k) <- cos angle;
      wi.(k) <- sin angle
    done;
    stages := (wr, wi) :: !stages;
    m := !m * 2
  done;
  Array.of_list (List.rev !stages)

(* The swap pairs of the in-place bit-reversal permutation, in order. *)
let bit_reversal_pairs len =
  let pairs = ref [] in
  let j = ref 0 in
  for i = 0 to len - 2 do
    if i < !j then pairs := (i, !j) :: !pairs;
    let mask = ref (len lsr 1) in
    while !mask > 0 && !j land !mask <> 0 do
      j := !j lxor !mask;
      mask := !mask lsr 1
    done;
    j := !j lor !mask
  done;
  List.rev !pairs

(* Unrolled in-place radix-2 decimation-in-time FFT over
   [base + 0 .. base + len - 1]: bit-reversal swaps, then the butterfly
   stages. Butterfly temporaries are scratch [Flet]s (never injection
   sites). *)
let fft_row_stmts ~tmp:(tr, ti, ur, ui) ~label ~tables re im base ~len =
  let idx c = Ir.Iadd (base, Ir.Iconst c) in
  let swaps =
    List.concat_map
      (fun (a, b) ->
        [
          Ir.Flet (tr, Ir.Fload (re, idx a));
          Ir.Flet (ti, Ir.Fload (im, idx a));
          Ir.Flet (ur, Ir.Fload (re, idx b));
          Ir.Flet (ui, Ir.Fload (im, idx b));
          Ir.Store (re, idx a, Ir.Freg ur, label);
          Ir.Store (im, idx a, Ir.Freg ui, label);
          Ir.Store (re, idx b, Ir.Freg tr, label);
          Ir.Store (im, idx b, Ir.Freg ti, label);
        ])
      (bit_reversal_pairs len)
  in
  let butterflies = ref [] in
  let m = ref 2 and stage = ref 0 in
  while !m <= len do
    let half = !m / 2 in
    let wr_t, wi_t = tables.(!stage) in
    for k = 0 to half - 1 do
      let wr = Ir.Fconst wr_t.(k) and wi = Ir.Fconst wi_t.(k) in
      let i = ref k in
      while !i < len do
        let lo = idx !i and hi = idx (!i + half) in
        butterflies :=
          [
            Ir.Flet
              (tr, Ir.Fsub (Ir.Fmul (wr, Ir.Fload (re, hi)), Ir.Fmul (wi, Ir.Fload (im, hi))));
            Ir.Flet
              (ti, Ir.Fadd (Ir.Fmul (wr, Ir.Fload (im, hi)), Ir.Fmul (wi, Ir.Fload (re, hi))));
            Ir.Flet (ur, Ir.Fload (re, lo));
            Ir.Flet (ui, Ir.Fload (im, lo));
            Ir.Store (re, lo, Ir.Fadd (Ir.Freg ur, Ir.Freg tr), label);
            Ir.Store (im, lo, Ir.Fadd (Ir.Freg ui, Ir.Freg ti), label);
            Ir.Store (re, hi, Ir.Fsub (Ir.Freg ur, Ir.Freg tr), label);
            Ir.Store (im, hi, Ir.Fsub (Ir.Freg ui, Ir.Freg ti), label);
          ]
          :: !butterflies;
        i := !i + !m
      done
    done;
    incr stage;
    m := !m * 2
  done;
  swaps @ List.concat (List.rev !butterflies)

(* The deterministic random input signal (re, im), [n1·n2] points. *)
let fft_input ~n1 ~n2 ~seed =
  let n = n1 * n2 in
  let rng = Rng.create ~seed in
  let re = Array.init n (fun _ -> -1. +. Rng.float rng 2.) in
  let im = Array.init n (fun _ -> -1. +. Rng.float rng 2.) in
  (re, im)

(* The step-3 twiddle factors w^r for every residue r of (j2·k1) mod n. *)
let fft_twiddles n =
  ( Array.init n (fun r -> cos (-2. *. pi *. float_of_int r /. float_of_int n)),
    Array.init n (fun r -> sin (-2. *. pi *. float_of_int r /. float_of_int n)) )

let fft ~n1 ~n2 ~seed ~tolerance =
  let is_pow2 v = v > 0 && v land (v - 1) = 0 in
  if not (is_pow2 n1 && is_pow2 n2) then
    invalid_arg "Ir_kernels.fft: n1 and n2 must be powers of two";
  let n = n1 * n2 in
  let input_re, input_im = fft_input ~n1 ~n2 ~seed in
  let tables1 = fft_stage_tables n1 and tables2 = fft_stage_tables n2 in
  let tw_re, tw_im = fft_twiddles n in
  let p = Ir.create ~name:"ir.fft" ~tolerance in
  let in_re = Ir.array p ~name:"in_re" ~init:input_re in
  let in_im = Ir.array p ~name:"in_im" ~init:input_im in
  let are = Ir.array p ~name:"a_re" ~init:(Array.make n 0.) in
  let aim = Ir.array p ~name:"a_im" ~init:(Array.make n 0.) in
  let bre = Ir.array p ~name:"b_re" ~init:(Array.make n 0.) in
  let bim = Ir.array p ~name:"b_im" ~init:(Array.make n 0.) in
  let out = Ir.array p ~name:"out" ~init:(Array.make (2 * n) 0.) in
  let tr = Ir.freg p and ti = Ir.freg p and ur = Ir.freg p and ui = Ir.freg p in
  let tmp = (tr, ti, ur, ui) in
  let j1 = Ir.ireg p and j2 = Ir.ireg p and k1 = Ir.ireg p and k2 = Ir.ireg p in
  let step1 =
    [
      Ir.For
        ( j1,
          Ir.Iconst 0,
          Ir.Iconst n1,
          [
            Ir.For
              ( j2,
                Ir.Iconst 0,
                Ir.Iconst n2,
                [
                  Ir.Store
                    ( are,
                      idx2 ~cols:n1 (Ir.Ireg j2) (Ir.Ireg j1),
                      Ir.Fload (in_re, idx2 ~cols:n2 (Ir.Ireg j1) (Ir.Ireg j2)),
                      "transpose1" );
                  Ir.Store
                    ( aim,
                      idx2 ~cols:n1 (Ir.Ireg j2) (Ir.Ireg j1),
                      Ir.Fload (in_im, idx2 ~cols:n2 (Ir.Ireg j1) (Ir.Ireg j2)),
                      "transpose1" );
                ] );
          ] );
    ]
  in
  let step2 =
    [
      Ir.For
        ( j2,
          Ir.Iconst 0,
          Ir.Iconst n2,
          fft_row_stmts ~tmp ~label:"fft1" ~tables:tables1 are aim
            (Ir.Imul (Ir.Ireg j2, Ir.Iconst n1))
            ~len:n1 );
    ]
  in
  (* Step 3: the twiddle schedule w^(j2·k1 mod n) needs modular index
     arithmetic the IR does not have, so it is specialized per element. *)
  let step3 =
    List.concat
      (List.init n2 (fun r2 ->
           List.concat
             (List.init n1 (fun c1 ->
                  let w = r2 * c1 mod n in
                  let ix = Ir.Iconst ((r2 * n1) + c1) in
                  [
                    Ir.Flet (tr, Ir.Fload (are, ix));
                    Ir.Flet (ti, Ir.Fload (aim, ix));
                    Ir.Store
                      ( are,
                        ix,
                        Ir.Fsub
                          ( Ir.Fmul (Ir.Freg tr, Ir.Fconst tw_re.(w)),
                            Ir.Fmul (Ir.Freg ti, Ir.Fconst tw_im.(w)) ),
                        "twiddle" );
                    Ir.Store
                      ( aim,
                        ix,
                        Ir.Fadd
                          ( Ir.Fmul (Ir.Freg tr, Ir.Fconst tw_im.(w)),
                            Ir.Fmul (Ir.Freg ti, Ir.Fconst tw_re.(w)) ),
                        "twiddle" );
                  ]))))
  in
  let step4 =
    [
      Ir.For
        ( j2,
          Ir.Iconst 0,
          Ir.Iconst n2,
          [
            Ir.For
              ( k1,
                Ir.Iconst 0,
                Ir.Iconst n1,
                [
                  Ir.Store
                    ( bre,
                      idx2 ~cols:n2 (Ir.Ireg k1) (Ir.Ireg j2),
                      Ir.Fload (are, idx2 ~cols:n1 (Ir.Ireg j2) (Ir.Ireg k1)),
                      "transpose2" );
                  Ir.Store
                    ( bim,
                      idx2 ~cols:n2 (Ir.Ireg k1) (Ir.Ireg j2),
                      Ir.Fload (aim, idx2 ~cols:n1 (Ir.Ireg j2) (Ir.Ireg k1)),
                      "transpose2" );
                ] );
          ] );
    ]
  in
  let step5 =
    [
      Ir.For
        ( k1,
          Ir.Iconst 0,
          Ir.Iconst n1,
          fft_row_stmts ~tmp ~label:"fft2" ~tables:tables2 bre bim
            (Ir.Imul (Ir.Ireg k1, Ir.Iconst n2))
            ~len:n2 );
    ]
  in
  let step6 =
    [
      Ir.For
        ( k1,
          Ir.Iconst 0,
          Ir.Iconst n1,
          [
            Ir.For
              ( k2,
                Ir.Iconst 0,
                Ir.Iconst n2,
                [
                  Ir.Store
                    ( out,
                      idx2 ~cols:n1 (Ir.Ireg k2) (Ir.Ireg k1),
                      Ir.Fload (bre, idx2 ~cols:n2 (Ir.Ireg k1) (Ir.Ireg k2)),
                      "transpose3" );
                  Ir.Store
                    ( out,
                      Ir.Iadd (Ir.Iconst n, idx2 ~cols:n1 (Ir.Ireg k2) (Ir.Ireg k1)),
                      Ir.Fload (bim, idx2 ~cols:n2 (Ir.Ireg k1) (Ir.Ireg k2)),
                      "transpose3" );
                ] );
          ] );
    ]
  in
  Ir.set_body p (step1 @ step2 @ step3 @ step4 @ step5 @ step6);
  Ir.output_array p out;
  (* Every store of a step is one static instruction, "store", of the
     step's phase. *)
  Ir.set_statics p
    (List.map
       (fun step -> (step, { Static.phase = "fft." ^ step; label = "store" }))
       [ "transpose1"; "fft1"; "twiddle"; "transpose2"; "fft2"; "transpose3" ]);
  p

let fft_row_plain ~tables re im ~off ~len =
  List.iter
    (fun (a, b) ->
      let ra = re.(off + a) and ia = im.(off + a) in
      re.(off + a) <- re.(off + b);
      im.(off + a) <- im.(off + b);
      re.(off + b) <- ra;
      im.(off + b) <- ia)
    (bit_reversal_pairs len);
  Array.iteri
    (fun stage (wr_t, wi_t) ->
      let m = 2 lsl stage in
      let half = m / 2 in
      for k = 0 to half - 1 do
        let wr = wr_t.(k) and wi = wi_t.(k) in
        let i = ref k in
        while !i < len do
          let lo = off + !i and hi = off + !i + half in
          let tr = (wr *. re.(hi)) -. (wi *. im.(hi)) in
          let ti = (wr *. im.(hi)) +. (wi *. re.(hi)) in
          let ur = re.(lo) and ui = im.(lo) in
          re.(lo) <- ur +. tr;
          im.(lo) <- ui +. ti;
          re.(hi) <- ur -. tr;
          im.(hi) <- ui -. ti;
          i := !i + m
        done
      done)
    tables

let fft_oracle ~n1 ~n2 ~seed =
  let n = n1 * n2 in
  let input_re, input_im = fft_input ~n1 ~n2 ~seed in
  let tw_re, tw_im = fft_twiddles n in
  let are = Array.make n 0. and aim = Array.make n 0. in
  for j1 = 0 to n1 - 1 do
    for j2 = 0 to n2 - 1 do
      are.((j2 * n1) + j1) <- input_re.((j1 * n2) + j2);
      aim.((j2 * n1) + j1) <- input_im.((j1 * n2) + j2)
    done
  done;
  let tables1 = fft_stage_tables n1 in
  for j2 = 0 to n2 - 1 do
    fft_row_plain ~tables:tables1 are aim ~off:(j2 * n1) ~len:n1
  done;
  for j2 = 0 to n2 - 1 do
    for k1 = 0 to n1 - 1 do
      let w = j2 * k1 mod n and ix = (j2 * n1) + k1 in
      let vr = are.(ix) and vi = aim.(ix) in
      are.(ix) <- (vr *. tw_re.(w)) -. (vi *. tw_im.(w));
      aim.(ix) <- (vr *. tw_im.(w)) +. (vi *. tw_re.(w))
    done
  done;
  let bre = Array.make n 0. and bim = Array.make n 0. in
  for j2 = 0 to n2 - 1 do
    for k1 = 0 to n1 - 1 do
      bre.((k1 * n2) + j2) <- are.((j2 * n1) + k1);
      bim.((k1 * n2) + j2) <- aim.((j2 * n1) + k1)
    done
  done;
  let tables2 = fft_stage_tables n2 in
  for k1 = 0 to n1 - 1 do
    fft_row_plain ~tables:tables2 bre bim ~off:(k1 * n2) ~len:n2
  done;
  let out = Array.make (2 * n) 0. in
  for k1 = 0 to n1 - 1 do
    for k2 = 0 to n2 - 1 do
      out.((k2 * n1) + k1) <- bre.((k1 * n2) + k2);
      out.(n + (k2 * n1) + k1) <- bim.((k1 * n2) + k2)
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* Jacobi solver; even sweep counts ping-pong between the two grids,    *)
(* leaving the result in the source array.                             *)

let jacobi ~grid ~sweeps ~tolerance =
  if grid <= 0 then invalid_arg "Ir_kernels.jacobi: grid must be positive";
  if sweeps <= 0 || sweeps mod 2 <> 0 then
    invalid_arg "Ir_kernels.jacobi: sweeps must be positive and even";
  let a = Poisson.matrix ~grid in
  let b = Poisson.rhs ~grid in
  let n = Array.length b in
  let p = Ir.create ~name:"ir.jacobi" ~tolerance in
  let src = Ir.array p ~name:"x" ~init:(Array.make n 0.) in
  let dst = Ir.array p ~name:"x'" ~init:(Array.make n 0.) in
  let s = Ir.ireg p and i = Ir.ireg p in
  let sweep from_a to_a =
    List.init n (fun row ->
        let off = ref (Ir.Fconst 0.) and diag = ref 1. in
        for k = a.Csr.row_ptr.(row) to a.Csr.row_ptr.(row + 1) - 1 do
          let col = a.Csr.col_idx.(k) in
          if col = row then diag := a.Csr.values.(k)
          else
            off :=
              Ir.Fadd
                (!off, Ir.Fmul (Ir.Fconst a.Csr.values.(k), Ir.Fload (from_a, Ir.Iconst col)))
        done;
        Ir.Store
          ( to_a,
            Ir.Iconst row,
            Ir.Fdiv (Ir.Fsub (Ir.Fconst b.(row), !off), Ir.Fconst !diag),
            "x'[i] = (b[i]-s)/d" ))
  in
  Ir.set_body p
    [
      upto i n [ Ir.Store (src, Ir.Ireg i, Ir.Fconst 0., "x[i] = 0") ];
      Ir.For (s, Ir.Iconst 0, Ir.Iconst (sweeps / 2), sweep src dst @ sweep dst src);
    ];
  Ir.output_array p src;
  set_phases p [ ("jacobi.init", [ "x[i] = 0" ]); ("jacobi.sweep", [ "x'[i] = (b[i]-s)/d" ]) ];
  p

let jacobi_oracle ~grid ~sweeps =
  let a = Poisson.matrix ~grid and b = Poisson.rhs ~grid in
  let n = Array.length b in
  let src = ref (Array.make n 0.) and dst = ref (Array.make n 0.) in
  for _ = 1 to sweeps do
    for i = 0 to n - 1 do
      let off_diag = ref 0. and diag = ref 1. in
      for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
        let j = a.Csr.col_idx.(k) in
        if j = i then diag := a.Csr.values.(k)
        else off_diag := !off_diag +. (a.Csr.values.(k) *. !src.(j))
      done;
      !dst.(i) <- (b.(i) -. !off_diag) /. !diag
    done;
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  !src

(* ------------------------------------------------------------------ *)
(* Blocked GEMM.                                                       *)

let gemm_inputs ~n ~seed =
  let rng = Rng.create ~seed in
  let a = Dense.random rng ~rows:n ~cols:n ~lo:(-1.) ~hi:1. in
  let b = Dense.random rng ~rows:n ~cols:n ~lo:(-1.) ~hi:1. in
  (Dense.flatten a, Dense.flatten b)

let gemm ~n ~block ~seed ~tolerance =
  if n <= 0 then invalid_arg "Ir_kernels.gemm: n must be positive";
  if block <= 0 || n mod block <> 0 then
    invalid_arg "Ir_kernels.gemm: block must divide n";
  let af, bf = gemm_inputs ~n ~seed in
  let p = Ir.create ~name:"ir.gemm" ~tolerance in
  let a = Ir.array p ~name:"a" ~init:af in
  let b = Ir.array p ~name:"b" ~init:bf in
  let c = Ir.array p ~name:"c" ~init:(Array.make (n * n) 0.) in
  let acc = Ir.freg p in
  let kb = Ir.ireg p and ib = Ir.ireg p and jb = Ir.ireg p in
  let k0 = Ir.ireg p and i0 = Ir.ireg p and j0 = Ir.ireg p in
  let i = Ir.ireg p and j = Ir.ireg p and k = Ir.ireg p in
  let nb = n / block in
  let blk base = Ir.Iadd (Ir.Ireg base, Ir.Iconst block) in
  Ir.set_body p
    [
      Ir.For
        ( kb,
          Ir.Iconst 0,
          Ir.Iconst nb,
          [
            Ir.Iassign (k0, Ir.Imul (Ir.Ireg kb, Ir.Iconst block));
            Ir.For
              ( ib,
                Ir.Iconst 0,
                Ir.Iconst nb,
                [
                  Ir.Iassign (i0, Ir.Imul (Ir.Ireg ib, Ir.Iconst block));
                  Ir.For
                    ( jb,
                      Ir.Iconst 0,
                      Ir.Iconst nb,
                      [
                        Ir.Iassign (j0, Ir.Imul (Ir.Ireg jb, Ir.Iconst block));
                        Ir.For
                          ( i,
                            Ir.Ireg i0,
                            blk i0,
                            [
                              Ir.For
                                ( j,
                                  Ir.Ireg j0,
                                  blk j0,
                                  [
                                    Ir.Flet (acc, Ir.Fconst 0.);
                                    Ir.For
                                      ( k,
                                        Ir.Ireg k0,
                                        blk k0,
                                        [
                                          Ir.Flet
                                            ( acc,
                                              Ir.Fadd
                                                ( Ir.Freg acc,
                                                  Ir.Fmul
                                                    ( Ir.Fload
                                                        (a, idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg k)),
                                                      Ir.Fload
                                                        (b, idx2 ~cols:n (Ir.Ireg k) (Ir.Ireg j))
                                                    ) ) );
                                        ] );
                                    Ir.Store
                                      ( c,
                                        idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j),
                                        Ir.Fadd
                                          ( Ir.Fload (c, idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j)),
                                            Ir.Freg acc ),
                                        "c[i][j] += block dot" );
                                  ] );
                            ] );
                      ] );
                ] );
          ] );
    ];
  Ir.output_array p c;
  set_phases p [ ("gemm.update", [ "c[i][j] += block dot" ]) ];
  p

let gemm_oracle ~n ~block ~seed =
  let a, b = gemm_inputs ~n ~seed in
  let c = Array.make (n * n) 0. in
  for kb = 0 to (n / block) - 1 do
    for ib = 0 to (n / block) - 1 do
      for jb = 0 to (n / block) - 1 do
        for i = ib * block to ((ib + 1) * block) - 1 do
          for j = jb * block to ((jb + 1) * block) - 1 do
            let acc = ref 0. in
            for k = kb * block to ((kb + 1) * block) - 1 do
              acc := !acc +. (a.((i * n) + k) *. b.((k * n) + j))
            done;
            c.((i * n) + j) <- c.((i * n) + j) +. !acc
          done
        done
      done
    done
  done;
  c

(* ------------------------------------------------------------------ *)
(* Register-accumulated matmul, including the recorded input loads.    *)

let matmul ~n ~seed ~tolerance =
  if n <= 0 then invalid_arg "Ir_kernels.matmul: n must be positive";
  let af, bf = gemm_inputs ~n ~seed in
  let p = Ir.create ~name:"ir.matmul" ~tolerance in
  let a = Ir.array p ~name:"a" ~init:af in
  let b = Ir.array p ~name:"b" ~init:bf in
  let la = Ir.array p ~name:"la" ~init:(Array.make (n * n) 0.) in
  let lb = Ir.array p ~name:"lb" ~init:(Array.make (n * n) 0.) in
  let c = Ir.array p ~name:"c" ~init:(Array.make (n * n) 0.) in
  let acc = Ir.freg p in
  let i = Ir.ireg p and j = Ir.ireg p and k = Ir.ireg p in
  let copy_in src dst label =
    Ir.For
      ( i,
        Ir.Iconst 0,
        Ir.Iconst n,
        [
          Ir.For
            ( j,
              Ir.Iconst 0,
              Ir.Iconst n,
              [
                Ir.Store
                  ( dst,
                    idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j),
                    Ir.Fload (src, idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j)),
                    label );
              ] );
        ] )
  in
  Ir.set_body p
    [
      copy_in a la "load a[i][j]";
      copy_in b lb "load b[i][j]";
      Ir.For
        ( i,
          Ir.Iconst 0,
          Ir.Iconst n,
          [
            Ir.For
              ( j,
                Ir.Iconst 0,
                Ir.Iconst n,
                [
                  Ir.Flet (acc, Ir.Fconst 0.);
                  Ir.For
                    ( k,
                      Ir.Iconst 0,
                      Ir.Iconst n,
                      [
                        Ir.Flet
                          ( acc,
                            Ir.Fadd
                              ( Ir.Freg acc,
                                Ir.Fmul
                                  ( Ir.Fload (la, idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg k)),
                                    Ir.Fload (lb, idx2 ~cols:n (Ir.Ireg k) (Ir.Ireg j)) ) ) );
                      ] );
                  Ir.Store
                    (c, idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j), Ir.Freg acc, "c[i][j] = a[i].b[:][j]");
                ] );
          ] );
    ];
  Ir.output_array p c;
  set_phases p
    [
      ("matmul.init", [ "load a[i][j]"; "load b[i][j]" ]);
      ("matmul.prod", [ "c[i][j] = a[i].b[:][j]" ]);
    ];
  p

let matmul_oracle ~n ~seed =
  let rng = Rng.create ~seed in
  let a = Dense.random rng ~rows:n ~cols:n ~lo:(-1.) ~hi:1. in
  let b = Dense.random rng ~rows:n ~cols:n ~lo:(-1.) ~hi:1. in
  Dense.flatten (Dense.matmul a b)

(* ------------------------------------------------------------------ *)
(* 2-D five-point stencil on a zero-padded (size+2)² grid: the padding  *)
(* stands in for bounds checks (an out-of-grid neighbour reads 0), the  *)
(* border cells are never written and never recorded, and even sweep   *)
(* counts ping-pong so the result lands back in [src].                  *)

let stencil_input ~size ~seed =
  let rng = Rng.create ~seed in
  Array.init (size * size) (fun _ -> Rng.float rng 1.)

let stencil ~size ~sweeps ~seed ~tolerance =
  if size <= 0 then invalid_arg "Ir_kernels.stencil: size must be positive";
  if sweeps <= 0 || sweeps mod 2 <> 0 then
    invalid_arg "Ir_kernels.stencil: sweeps must be positive and even";
  let w = size + 2 in
  let p = Ir.create ~name:"ir.stencil" ~tolerance in
  let input = Ir.array p ~name:"input" ~init:(stencil_input ~size ~seed) in
  let src = Ir.array p ~name:"grid" ~init:(Array.make (w * w) 0.) in
  let dst = Ir.array p ~name:"grid'" ~init:(Array.make (w * w) 0.) in
  let s = Ir.ireg p and i = Ir.ireg p and j = Ir.ireg p in
  let sweep from_a to_a =
    let at di dj =
      Ir.Fload
        ( from_a,
          idx2 ~cols:w (Ir.Iadd (Ir.Ireg i, Ir.Iconst di)) (Ir.Iadd (Ir.Ireg j, Ir.Iconst dj))
        )
    in
    [
      Ir.For
        ( i,
          Ir.Iconst 1,
          Ir.Iconst (size + 1),
          [
            Ir.For
              ( j,
                Ir.Iconst 1,
                Ir.Iconst (size + 1),
                [
                  Ir.Store
                    ( to_a,
                      idx2 ~cols:w (Ir.Ireg i) (Ir.Ireg j),
                      Ir.Fmul
                        ( Ir.Fconst 0.2,
                          Ir.Fadd
                            ( Ir.Fadd
                                (Ir.Fadd (Ir.Fadd (at 0 0, at (-1) 0), at 1 0), at 0 (-1)),
                              at 0 1 ) ),
                      "grid'[i][j] = avg" );
                ] );
          ] );
    ]
  in
  let load_input =
    upto i size
      [
        upto j size
          [
            Ir.Store
              ( src,
                idx2 ~cols:w (Ir.Iadd (Ir.Ireg i, Ir.Iconst 1)) (Ir.Iadd (Ir.Ireg j, Ir.Iconst 1)),
                Ir.Fload (input, idx2 ~cols:size (Ir.Ireg i) (Ir.Ireg j)),
                "grid[i][j] = random" );
          ];
      ]
  in
  Ir.set_body p
    [
      load_input;
      Ir.For (s, Ir.Iconst 0, Ir.Iconst (sweeps / 2), sweep src dst @ sweep dst src);
    ];
  Ir.output_array p src;
  set_phases p
    [ ("stencil.init", [ "grid[i][j] = random" ]); ("stencil.sweep", [ "grid'[i][j] = avg" ]) ];
  p

let stencil_oracle ~size ~sweeps ~seed =
  let w = size + 2 in
  let input = stencil_input ~size ~seed in
  let src = ref (Array.make (w * w) 0.) and dst = ref (Array.make (w * w) 0.) in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      !src.(((i + 1) * w) + j + 1) <- input.((i * size) + j)
    done
  done;
  for _ = 1 to sweeps do
    let from = !src in
    let at i j = from.((i * w) + j) in
    for i = 1 to size do
      for j = 1 to size do
        !dst.((i * w) + j) <-
          0.2 *. (at i j +. at (i - 1) j +. at (i + 1) j +. at i (j - 1) +. at i (j + 1))
      done
    done;
    src := !dst;
    dst := from
  done;
  !src

(* ------------------------------------------------------------------ *)
(* Chained dense mat-vec y <- A y: the input vector's recorded loads,  *)
(* then [reps] products, each a fresh vector (ping-pong buffers).      *)

(* Row-sum-normalised random matrix (flattened) and input vector: every
   |row| sums to <= 1, so the chain is non-expansive and the golden
   values stay O(1). *)
let matvec_inputs ~n ~seed =
  let rng = Rng.create ~seed in
  let m = Dense.random rng ~rows:n ~cols:n ~lo:(-1.) ~hi:1. in
  Array.iter
    (fun row ->
      let sum = Array.fold_left (fun acc v -> acc +. abs_float v) 0. row in
      if sum > 0. then Array.iteri (fun j v -> row.(j) <- v /. sum) row)
    m;
  let x = Array.init n (fun _ -> -1. +. Rng.float rng 2.) in
  (m, x)

let matvec ~n ~reps ~seed ~tolerance =
  if n <= 0 then invalid_arg "Ir_kernels.matvec: n must be positive";
  if reps <= 0 then invalid_arg "Ir_kernels.matvec: reps must be positive";
  let m, xv = matvec_inputs ~n ~seed in
  let p = Ir.create ~name:"matvec" ~tolerance in
  let a = Ir.array p ~name:"a" ~init:(Dense.flatten m) in
  let x = Ir.array p ~name:"x" ~init:xv in
  let buf =
    [| Ir.array p ~name:"y" ~init:(Array.make n 0.); Ir.array p ~name:"y'" ~init:(Array.make n 0.) |]
  in
  let acc = Ir.freg p in
  let i = Ir.ireg p and j = Ir.ireg p in
  let product src dst =
    upto i n
      [
        Ir.Flet (acc, Ir.Fconst 0.);
        upto j n
          [
            Ir.Flet
              ( acc,
                Ir.Fadd
                  ( Ir.Freg acc,
                    Ir.Fmul
                      ( Ir.Fload (a, idx2 ~cols:n (Ir.Ireg i) (Ir.Ireg j)),
                        Ir.Fload (src, Ir.Ireg j) ) ) );
          ];
        Ir.Store (dst, Ir.Ireg i, Ir.Freg acc, "y'[i] = (A y)[i]");
      ]
  in
  Ir.set_body p
    (upto i n [ Ir.Store (buf.(0), Ir.Ireg i, Ir.Fload (x, Ir.Ireg i), "y[i] = x[i]") ]
    :: List.init reps (fun r -> product buf.(r mod 2) buf.((r + 1) mod 2)));
  Ir.output_array p buf.(reps mod 2);
  set_phases p [ ("matvec.init", [ "y[i] = x[i]" ]); ("matvec.prod", [ "y'[i] = (A y)[i]" ]) ];
  p

let matvec_oracle ~n ~reps ~seed =
  let m, x = matvec_inputs ~n ~seed in
  let y = ref x in
  for _ = 1 to reps do
    y := Dense.matvec m !y
  done;
  !y

(* ------------------------------------------------------------------ *)
(* The suite registry: every IR kernel at its campaign configuration,  *)
(* as unoptimized builders. [Suite] lowers them through the optimizing *)
(* pipeline; [ftb ir --dump] prints them and their per-pass deltas.    *)

let suite : (string * (unit -> Ir.t)) list =
  [
    ("ir.dot", fun () -> Ftb_ir.Programs.dot ~n:48 ~seed:11 ~tolerance:1e-9);
    ("ir.saxpy", fun () -> Ftb_ir.Programs.saxpy ~n:48 ~seed:12 ~tolerance:1e-9);
    ("ir.stencil3", fun () -> Ftb_ir.Programs.stencil3 ~n:32 ~sweeps:4 ~seed:13 ~tolerance:1e-9);
    ("ir.matvec", fun () -> Ftb_ir.Programs.matvec ~n:16 ~seed:14 ~tolerance:1e-9);
    ("ir.normalize", fun () -> Ftb_ir.Programs.normalize ~n:24 ~seed:15 ~tolerance:1e-9);
    ("ir.cg", fun () -> cg ~grid:6 ~iterations:8 ~tolerance:1e-4 ~record_init:false);
    ("ir.lu", fun () -> lu ~n:12 ~block:4 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> fft ~n1:8 ~n2:8 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> jacobi ~grid:6 ~sweeps:10 ~tolerance:1e-4);
    ("ir.gemm", fun () -> gemm ~n:16 ~block:4 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> matmul ~n:16 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> stencil ~size:12 ~sweeps:6 ~seed:3 ~tolerance:1e-4);
  ]

let find name =
  match List.assoc_opt name suite with
  | Some build -> build ()
  | None ->
      invalid_arg
        (Printf.sprintf "Ir_kernels.find: unknown IR kernel %S (expected one of: %s)" name
           (String.concat ", " (List.map fst suite)))
