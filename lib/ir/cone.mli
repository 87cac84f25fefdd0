(** Dependent-cone replay: the site-suffix specializer.

    One uninstrumented analysis run over the structured IR records the
    complete dataflow graph of the golden execution: per float-producing
    step (recorded [Fassign]/[Store], scratch [Flet]) the producers of its
    operands, the golden value it produced, and its expression as a
    postfix op tape. An injection at site [k] can then be classified by
    recomputing only the forward slice (dependent cone) of [k]'s event
    against golden operands — no prefix run, no suffix replay, no output
    copy.

    Exactness relies on the corrupted run following the golden control
    path: integer state is untaintable (fexpr/iexpr are disjoint), so a
    plan only declines a site ([cone_lanes ~site] = [None]) when its cone
    reaches a value read by a float [Fcmp] branch, or when the site is out
    of range. Tainted guards are re-evaluated, and a lane's first
    non-finite guard in execution order reproduces the full run's crash
    reason exactly. Since a covered case records exactly the golden step
    count (or fewer, when a guard crashes it), outcomes equal full replay
    under any fuel of at least that count. The differential tests in
    [test/test_cone.ml] enforce bit-identity per fault model, fuel and
    lane width.

    Cost. A plan is flat arrays: per event one word of tape and leaf
    index, its golden value and its consumer-list offset; one word per
    operand and per dataflow edge; the initial data. A site's lanes are
    replayed together — the cone is walked once and each member's tape
    runs over unboxed rows of lane values — so interpretation is paid per
    cone member, not per case. A lane row is recycled as soon as the last
    member or guard reading it has run. All per-call state is one
    domain-local scratch shared by every plan: an event-indexed slot
    table, member-indexed arrays that grow with the largest cone seen,
    and a lane buffer of fixed size (lanes are replayed in chunks that
    fit it). Replaying a site allocates nothing that grows with the
    program. *)

val plan : Ir.t -> Ftb_trace.Program.cone_plan
(** Run the analysis (one golden-equivalent execution of the body) and
    build the plan. Raises (like the interpreter would) on invalid
    programs; callers that attach the capability wrap the call and treat
    failure as "no plan" ({!Pipeline.to_program} does). The plan's lane
    runners follow {!Ftb_trace.Program.cone_plan}'s rules: callable from
    any domain, not re-entrantly from their own corruption function. *)
