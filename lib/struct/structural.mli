(** Structural (exploration-free) analysis of APA models.

    An APA is structurally a coloured Petri net: state components are
    places, rules are transitions, takes are input arcs (consuming or
    read), puts are output arcs.  Forgetting guards, patterns and the
    set semantics of components yields the {e net skeleton}, an ordinary
    P/T net that over-approximates the APA: every transition of the APA
    is a firing of the skeleton.  Classic structural theory over the
    skeleton's incidence matrix — place and transition invariants,
    siphons and traps — then certifies properties of the APA without
    exploring a single state:

    - a nonnegative place invariant [y] gives [y·m <= y·m0] along every
      run (a put adds at most one element to a set component, a consume
      removes exactly one, so the skeleton bounds the real growth), so a
      component covered by a positive invariant is {b bounded};
    - a component covered by no invariant whose net production (row sum)
      is positive is {b potentially unbounded} — the structural
      explanation behind [State_space_too_large];
    - an unguarded rule that consumes (or reads) a term in a component
      and puts back a strictly larger instance of the same pattern
      re-enables itself forever: the state space is {b certified
      infinite};
    - a {b siphon} (every rule producing into the set also takes from
      it) stays empty once drained; a {b trap} (every rule consuming
      from the set also puts into it) stays marked once marked.  Every
      minimal siphon containing an initially marked trap is Commoner's
      deadlock-freedom argument, stated here at skeleton level (patterns
      and guards may still deadlock the APA — certificates say so);
    - two rules with no directed token flow between them are
      {b statically independent}: deleting the firings of the first
      (and their downward closure) from any run leaves a valid run, so
      functional dependence between their actions is impossible and
      {!Fsa_core} can skip the homomorphism work for such (min, max)
      pairs without changing any result.

    All computations are exact (rational Gaussian elimination,
    exhaustive bounded siphon enumeration) and deterministic. *)

module Term = Fsa_term.Term
module Apa = Fsa_apa.Apa

(** {1 Net skeleton} *)

type place = { pl_name : string; pl_initial : Term.Set.t }

type rule_sig = {
  rs_name : string;
  rs_takes : (string * Term.t * bool) list;
      (** component, pattern, consuming? ([false] = read) *)
  rs_puts : (string * Term.t) list;  (** component, template *)
  rs_guarded : bool;
      (** [true] when the guard is non-trivial or unknown; guarded rules
          are excluded from the unboundedness certificate *)
}

type net = { n_places : place list; n_rules : rule_sig list }

val of_apa : Apa.t -> net
(** The net skeleton of an APA.  A rule is recorded as guarded unless
    [Apa.r_trivial_guard] proves its guard is the constant [true]. *)

(** {1 Incidence matrix and invariants} *)

type incidence = {
  i_places : string array;
  i_rules : string array;
  i_matrix : int array array;
      (** [i_matrix.(p).(r)] = puts of rule [r] into place [p] minus its
          consuming takes from [p] (reads do not count) *)
}

val incidence : net -> incidence

val kernel : int array array -> int array list
(** Basis of the right kernel [{x | A x = 0}] of an integer matrix, by
    exact rational Gaussian elimination.  Each basis vector is scaled to
    the smallest integer vector with positive leading nonzero entry;
    the basis is ordered by free column and the result is deterministic. *)

val p_invariants : incidence -> int array list
(** Basis of [{y | y^T C = 0}], indexed like [i_places]. *)

val t_invariants : incidence -> int array list
(** Basis of [{x | C x = 0}], indexed like [i_rules]. *)

val bounds : net -> incidence -> (string * int) list
(** Components covered by a nonnegative place invariant, with the bound
    [y·m0 / y_p] on their cardinality (sorted by name).  Conservative:
    only invariant basis vectors (or their negations) that are
    componentwise nonnegative are used, so coverage may be missed but is
    never wrong. *)

val growth : incidence -> (string * int) list
(** Net structural production per component (row sums), most growing
    first, ties by name. *)

val growth_hint : net -> string
(** Human fragment naming the top-3 components with positive net
    production, e.g. ["; fastest-growing components: ledger (+1), ..."];
    empty when nothing grows.  Used to enrich
    [Lts.State_space_too_large] errors. *)

val potentially_unbounded : net -> incidence -> (string * int) list
(** Components covered by no invariant whose row sum is positive, with
    that row sum (sorted by name). *)

val certified_unbounded : net -> (string * string * string) list
(** Rules certified to make the state space infinite: [(rule, place,
    reason)] where the unguarded rule takes a term matching pattern [p]
    from [place] and puts back a strictly larger term still matching
    [p], all its consuming takes are that single take, and the rule is
    enabled in the producible-shape fixpoint — so it can fire forever,
    producing ever larger terms. *)

(** {1 Siphons and traps} *)

val is_siphon : net -> string list -> bool
val is_trap : net -> string list -> bool

val siphons : ?budget:int -> net -> string list list * bool
(** Minimal siphons (each sorted, list ordered deterministically), and
    whether the enumeration was complete within [budget] search nodes
    (default 10_000).  Nets with more than 62 places are not enumerated
    ([[], false]). *)

val traps : ?budget:int -> net -> string list list * bool
(** Minimal traps, same conventions as {!siphons}. *)

val max_trap_in : net -> string list -> string list
(** The unique maximal trap contained in the given place set (possibly
    empty). *)

val initially_marked : net -> string list -> bool

type deadlock_verdict =
  | Deadlock_free_skeleton
      (** every minimal siphon contains an initially marked trap *)
  | May_deadlock of string list list
      (** minimal siphons without an initially marked trap: draining one
          permanently disables every rule taking from it *)
  | Unknown_budget  (** siphon enumeration was truncated *)

val deadlock : ?budget:int -> net -> deadlock_verdict

(** {1 Static dependence} *)

val flow_edges : net -> (string * string) list
(** Token-flow edges between rules: [r1 -> r2] when a put template of
    [r1] unifies (on the same component, with disjointly renamed
    variables) with a take pattern of [r2].  A sound over-approximation
    of "some firing of [r1] produces a term some firing of [r2] takes or
    reads". *)

val independent : net -> min:string -> max:string -> bool
(** [true] when there is no token-flow path (of length >= 0) from rule
    [min] to rule [max] — then no firing of [max] can causally depend on
    a firing of [min], and the functional dependence test for the pair
    must come out negative.  Unknown rule names are conservatively
    dependent. *)

val independent_all : net -> (string -> string -> bool) Lazy.t
(** Memoized form: forcing the lazy builds the flow graph once; the
    returned function answers {!independent} queries by cached
    reachability. *)

val interferes : rule_sig -> rule_sig -> bool
(** Do two rules touch a common state component with non-commuting
    accesses?  Two reads commute, two puts commute (set union); any
    pairing involving a consuming take, or a put against a take or
    read, interferes.  Rules in different connected components of this
    relation never influence each other's enabledness or effect —
    {!Fsa_sym} builds its ample-set modules from exactly these
    components. *)

val pairs_pruned : Fsa_obs.Metrics.counter
(** The process-wide [struct.pairs_pruned] counter, incremented by
    {!Fsa_core.Analysis} for every (min, max) pair skipped under
    pruning. *)

(** {1 Report} *)

type report = {
  r_places : string array;
  r_rules : string array;
  r_matrix : int array array;
  r_p_invariants : int array list;
  r_t_invariants : int array list;
  r_bounds : (string * int) list;
  r_unbounded : (string * int) list;  (** potentially unbounded, row sum *)
  r_certified : (string * string * string) list;  (** rule, place, reason *)
  r_growth : (string * int) list;
  r_siphons : string list list;
  r_siphons_complete : bool;
  r_traps : string list list;
  r_traps_complete : bool;
  r_verdict : deadlock_verdict;
  r_independent_pairs : int;  (** ordered rule pairs with no flow path *)
  r_rule_pairs : int;  (** all ordered rule pairs (n*(n-1)) *)
}

val analyse : ?budget:int -> net -> report
(** Run the whole structural analysis, under [struct.incidence],
    [struct.invariants] and [struct.siphons] spans. *)

val pp_report : report Fmt.t
val report_to_json : report -> Fsa_json.Json.t
(** Deterministic JSON object (fixed key order). *)
