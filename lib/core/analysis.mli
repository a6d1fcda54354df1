(** Functional security analysis — the paper's methodology as a façade.

    The {e manual} path (Sect. 4) derives requirements from a functional
    model via the partial order ζ* and its restriction χ; the {e tool}
    path (Sect. 5) derives them from an APA model via its reachability
    graph, identifying minima and maxima and testing each pair for
    functional dependence.  [crosscheck] validates the two paths against
    each other through a label correspondence. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Sos = Fsa_model.Sos
module Auth = Fsa_requirements.Auth
module Classify = Fsa_requirements.Classify
module Lts = Fsa_lts.Lts

(** {1 Manual path} *)

type manual_report = {
  m_sos : Sos.t;
  m_stats : Sos.stats;
  m_boundary : Sos.boundary;
  m_chi : (Action.t * Action.t) list;
  m_requirements : Auth.t list;
  m_classified : (Auth.t * Classify.class_) list;
}

val manual : ?stakeholder:(Action.t -> Agent.t) -> Sos.t -> manual_report
val pp_manual_report : manual_report Fmt.t

(** {1 Tool path} *)

type dependence_method =
  | Direct  (** BFS on the reachability graph *)
  | Abstract  (** homomorphism + minimal automaton (Sect. 5.5) *)

type pair_timing = {
  pt_min : Action.t;
  pt_max : Action.t;
  pt_pruned : bool;  (** skipped by static pruning, [pt_compare_ns] 0 *)
  pt_pruned_by : string option;
      (** which static argument settled the pair: ["static"] (skeleton
          token reachability, forced on by an ample-set [?reduce]) or
          ["static-flow"] (the guard-refined flow graph, [?flow]);
          [None] when tested *)
  pt_compare_ns : int64;
      (** the dependence test itself: the BFS under [Direct], the
          verdict off the shared quotient under [Abstract] *)
}
(** Wall-clock time of one (min, max) dependence test, in matrix
    order. *)

type shared_timing = {
  sh_alphabet_size : int;  (** union alphabet of the surviving pairs *)
  sh_dfa_states : int;  (** states of the shared minimal quotient *)
  sh_cached : bool;  (** the shared quotient came from the store *)
  sh_early_pairs : int;
      (** pairs already decided independent during the single pass *)
  sh_erase_ns : int64;
  sh_determinise_ns : int64;
  sh_minimise_ns : int64;
  sh_early_ns : int64;
}
(** One-off cost and shape of the shared abstraction engine's build:
    the erase/determinise/minimise work every [Abstract] pair shares. *)

type phase_timings = {
  ph_explore_ns : int64;
  ph_min_max_ns : int64;
  ph_matrix_ns : int64;
  ph_derive_ns : int64;
  ph_pairs : pair_timing list;
  ph_shared : shared_timing option;
      (** [Some] iff the shared engine answered this run's pairs
          ([Abstract] with at least one unpruned pair) *)
}
(** Per-phase durations of one {!tool} run.  Always collected — the
    clock readings are negligible against the phases they measure — so
    "which phase dominates" is data even without observability
    enabled. *)

type reduction_info = {
  ri_kind : string;  (** ["sym"], ["por"] or ["sym+por"] *)
  ri_reduced_states : int;
      (** states that underwent rule matching: symmetry-canonical
          representatives under [sym], the reduced graph's states under
          plain [por] *)
  ri_reduced_transitions : int;
  ri_group_order : float;
      (** order of the detected symmetry group (1 without [sym]) *)
  ri_fallback : string option;
      (** why the plan could not be applied and the run explored
          unreduced, when it did *)
}
(** What [?reduce] actually did during a {!tool} run. *)

type tool_report = {
  t_lts : Lts.t;
  t_stats : Lts.stats;
  t_minima : Action.t list;
  t_maxima : Action.t list;
  t_matrix : (Action.t * (Action.t * bool) list) list;
  t_requirements : Auth.t list;
  t_timings : phase_timings;
  t_reduction : reduction_info option;  (** [Some] iff [?reduce] given *)
  t_engine : Fsa_hom.Hom.Shared.engine option;
      (** the shared multi-pair engine that answered the dependence
          queries, when one was built ([Abstract] method);
          downstream layers reuse it to project per-pair minimal
          automata without re-walking the graph *)
}

val matrix_pairs : tool_report -> (Action.t * Action.t * bool) list
(** The dependence matrix flattened to [(min, max, dependent)] triples,
    in matrix (row-major) order. *)

val dependence :
  meth:dependence_method ->
  Lts.t ->
  min_action:Action.t ->
  max_action:Action.t ->
  bool
(** One pair, tested on its own: {!Lts.depends_on} under [Direct],
    {!Fsa_hom.Hom.depends_abstract} under [Abstract].  The per-pair
    oracle {!tool}'s matrix must agree with. *)

type quotient_cache = {
  qc_find : alphabet:Action.t list -> Fsa_hom.Hom.A.Dfa.t option;
  qc_store : alphabet:Action.t list -> Fsa_hom.Hom.A.Dfa.t -> unit;
}
(** Hook for caching the shared intermediate quotient of {!tool}'s
    shared abstraction engine.  The store lives above this library, so
    the analysis takes the cache as callbacks; implementations must key
    entries on the spec digest {e and} the erased-alphabet digest {e
    and} an engine version, so entries of another engine generation
    never replay. *)

val quotient :
  ?max_states:int ->
  ?progress:Fsa_obs.Progress.t ->
  Fsa_sym.Sym.plan ->
  Fsa_apa.Apa.t ->
  Lts.t
(** Reduced exploration under a {!Fsa_sym.Sym.plan}: successors are
    canonicalised into orbit representatives and restricted to ample
    sets per the plan.  The result is the reduced (quotient) graph —
    right for reachability statistics, not for requirement derivation
    (its raw labels mix concrete instances along representative
    paths; use {!unfolded} or {!tool}[ ~reduce] for label-exact
    analyses). *)

val unfolded :
  ?max_states:int ->
  Fsa_sym.Sym.plan ->
  Fsa_apa.Apa.t ->
  Lts.t * int * int
(** [(lts, reps, rep_transitions)]: the {e full} reachability graph
    (modulo any ample-set restriction in the plan), rebuilt from the
    symmetry quotient by a product BFS over (representative,
    permutation) pairs.  Rule matching runs once per representative —
    [reps] of them, with [rep_transitions] raw successors — and every
    other concrete state replays its representative's successors
    through a permutation.  Labels are concrete per-instance labels, so
    all set-level analyses coincide with an unreduced exploration
    (state numbering may differ).  [max_states] bounds the
    representatives, not the concrete states.
    @raise Invalid_argument when the plan has no symmetry component.
    @raise Fsa_sym.Sym.Unsupported when the model does not carry the
    default rule-name labelling.
    @raise Lts.State_space_too_large beyond the representative budget. *)

val tool :
  ?meth:dependence_method ->
  ?max_states:int ->
  ?flow:Fsa_flow.Flow.t ->
  ?reduce:Fsa_sym.Sym.plan ->
  ?quotient_cache:quotient_cache ->
  ?progress:Fsa_obs.Progress.t ->
  stakeholder:(Action.t -> Agent.t) ->
  Fsa_apa.Apa.t ->
  tool_report
(** With observability enabled ({!Fsa_obs.Metrics.set_enabled}), each
    pipeline phase runs inside its own span ([tool.explore],
    [tool.min_max], [tool.dependence_matrix], [tool.derive]);
    [progress] is threaded through the state-space exploration, which is
    always the sequential {!Lts.explore}.

    [meth] (default [Abstract]) picks the dependence test.  [Abstract]
    answers all surviving (min, max) pairs from one shared abstraction
    ({!Fsa_hom.Hom.Shared}): erase once to the union alphabet of their
    actions, determinise/minimise that shared image, then decide each
    pair on the shared automaton (and, on-the-fly, during the single
    pass over the graph where the independent verdict is already
    witnessed).  Verdicts and per-pair minimal automata equal the
    per-pair oracle {!dependence} — [preserve {min, max}] factors
    through [preserve union] and minimal DFAs are unique up to
    isomorphism.  [quotient_cache] lets the caller persist/reuse the
    shared quotient across runs (see {!quotient_cache}); a cache hit
    skips the erase/determinise/minimise and early-decision work
    entirely.  [Direct] runs {!Lts.depends_on} per pair.

    [flow] supplies a {!Fsa_flow.Flow} graph of the same model and
    skips every pair that graph proves flow-independent
    ([--prune-flow]), recording it as independent, attributing it
    ["static-flow"] in {!pair_timing.pt_pruned_by} and counting it in
    the [flow.pairs_pruned] metric.  The pruning is sound — a pair with
    no flow path can never test dependent — and it is automatically
    disabled when the LTS is not labelled by plain rule names, so the
    report (matrix included) is identical with and without it.

    [reduce] applies a {!Fsa_sym.Sym.plan}.  A symmetry component is
    applied as quotient-then-{!unfolded}, so the derived requirements
    are identical to the unreduced run's while rule matching is confined
    to orbit representatives; an ample-set component restricts the
    explored interleavings and forces the skeleton's static pruning on
    (pairs {!Fsa_struct.Structural} proves independent are recorded
    without a test, attributed ["static"] and counted in
    [struct.pairs_pruned]; see {!reduction_info} and DESIGN.md §13 for
    the soundness argument).  Models without the default rule-name labelling
    fall back to unreduced exploration, recorded in [ri_fallback].
    The soundness gate: on every model completing un-reduced, the
    reduced run must produce the identical requirement set — the test
    suite enforces this across the bundled examples. *)

val pp_tool_report : tool_report Fmt.t

(** {1 Cross-validation} *)

type crosscheck = {
  c_agree : bool;
  c_manual_only : Auth.t list;
  c_tool_only : Auth.t list;
  c_unmapped : Action.t list;
}

val crosscheck :
  map:(Action.t -> Action.t option) ->
  manual_requirements:Auth.t list ->
  tool_requirements:Auth.t list ->
  crosscheck

val pp_crosscheck : crosscheck Fmt.t
