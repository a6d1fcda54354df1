(** Reachability graphs of APA models (Definition 3 of the paper).

    States are numbered in breadth-first discovery order and printed
    [M-1], [M-2], ... in the style of the SH verification tool. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module State = Fsa_apa.Apa.State

type transition = { t_src : int; t_label : Action.t; t_dst : int }
type t

exception State_space_too_large of int

(** Exploration-time reduction hooks, supplied by {!Fsa_sym} (the LTS
    layer itself stays reduction-agnostic).  Both functions must be pure:
    they are applied transition-by-transition and the bit-identity of
    sequential and parallel exploration relies on it. *)
type reduction = {
  rd_canon : State.t -> State.t;
      (** canonical orbit representative, applied to every successor
          before interning (never to the initial state) *)
  rd_ample :
    State.t ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list;
      (** restrict a state's enabled transitions to an ample subset *)
}

val no_reduction : reduction
(** Identity hooks: full exploration. *)

val explore :
  ?max_states:int ->
  ?reduce:reduction ->
  ?progress:Fsa_obs.Progress.t ->
  Fsa_apa.Apa.t ->
  t
(** Breadth-first state-space exploration from the initial state.  When
    [progress] is given it is ticked once per expanded state with the
    number of discovered states and the current frontier size.  With
    observability enabled ({!Fsa_obs.Metrics.set_enabled}), exploration
    records the [lts.*] counters and runs inside an [lts.explore] span.
    With [reduce], successor states are canonicalised and successor
    lists restricted before interning — the result is the reduced
    (quotient) graph.
    @raise State_space_too_large beyond [max_states] (default 1e6). *)

val explore_lazy :
  ?max_states:int -> ?progress:Fsa_obs.Progress.t -> Fsa_apa.Apa.t -> t
(** The graph {!explore} would return, explored on first use: {!name}
    answers at once, every other accessor runs [explore ?max_states
    ?progress apa] the first time one is called (so the exploration's
    metrics, progress and {!State_space_too_large} happen then).  Safe
    to force from several domains. *)

val is_explored : t -> bool
(** [false] only for an {!explore_lazy} graph no accessor has asked
    for yet. *)

val explore_par :
  ?max_states:int ->
  ?reduce:reduction ->
  ?progress:Fsa_obs.Progress.t ->
  ?shards:int ->
  jobs:int ->
  Fsa_apa.Apa.t ->
  t
(** Parallel breadth-first exploration over [jobs] domains: a
    level-synchronous BFS with a sharded state table and chunked
    self-scheduling over each frontier, followed by a canonical
    renumbering pass.  The result is bit-identical to {!explore} — same
    [M-k] state numbering, same sorted transition lists — so parallel
    and sequential analyses are interchangeable.  [shards] rounds up to
    a power of two (default [64 * jobs]).  [jobs <= 1] falls back to
    {!explore}.  With observability enabled, additionally records
    [lts.domains], [lts.shard_conflicts] and per-domain
    [lts.d<i>.states_per_sec].
    @raise State_space_too_large beyond [max_states] (default 1e6). *)

val name : t -> string
val nb_states : t -> int
val nb_transitions : t -> int
val initial : t -> int
val state : t -> int -> State.t
val succ : t -> int -> transition list
val pred : t -> int -> transition list
val transitions : t -> transition list
(** All transitions as a fresh list; prefer {!iter_transitions} or
    {!fold_transitions} on hot paths — they do not materialize the
    list. *)

val iter_transitions : (transition -> unit) -> t -> unit
val fold_transitions : (transition -> 'a -> 'a) -> t -> 'a -> 'a

val of_edges : ?name:string -> nb_states:int -> transition list -> t
(** A synthetic graph over states [0 .. nb_states - 1] (state [0]
    initial, all states carrying {!State.empty}), for tests and for
    ingesting externally computed reachability graphs.
    @raise Invalid_argument on out-of-range endpoints. *)

val of_graph : ?name:string -> states:State.t array -> transition list -> t
(** Like {!of_edges} but with caller-supplied state contents (state [0]
    initial).  The unfold of a symmetry quotient rebuilds the full
    reachability graph this way.
    @raise Invalid_argument on an empty state array or out-of-range
    endpoints. *)

val state_name : int -> string
val fold_states : (int -> 'a -> 'a) -> t -> 'a -> 'a
val alphabet : t -> Action.Set.t

val deadlocks : t -> int list
(** States without outgoing transitions ("+++ dead +++"). *)

val minima : t -> Action.Set.t
(** Actions leaving the initial state: the minima of the partial order of
    functionally dependent actions (Sect. 5.4). *)

val maxima : t -> Action.Set.t
(** Actions entering a dead state: the maxima. *)

val trace_to : t -> int -> Action.t list option
val words : max_len:int -> t -> Action.t list list

val reachable_without :
  t -> avoid:(Action.t -> bool) -> target:(Action.t -> bool) -> bool
(** Is a [target]-labelled transition reachable along a path containing no
    [avoid]-labelled transition? *)

val depends_on : t -> max_action:Action.t -> min_action:Action.t -> bool
(** The direct (BFS) functional dependence test: [max_action] depends on
    [min_action] iff every path to an occurrence of [max_action] contains
    a prior occurrence of [min_action]. *)

val count_complete_runs : t -> int option
(** Number of maximal paths to dead states; [None] on cyclic graphs.
    Equals the number of linear extensions of the event poset for
    every-action-once scenarios. *)

type deadlock_report = { dr_complete : int list; dr_stuck : int list }

val classify_deadlocks : t -> complete:(State.t -> bool) -> deadlock_report
(** Split dead states by a completion predicate; stuck deadlocks indicate
    modelling errors (e.g. a message consumed by a component that cannot
    process it). *)

type stats = {
  nb_states : int;
  nb_transitions : int;
  nb_deadlocks : int;
  nb_labels : int;
}

val stats : t -> stats
val pp_stats : stats Fmt.t
val dot : ?name:string -> t -> string

val pp_min_max : t Fmt.t
(** The tool's minima/maxima summary in the format of Example 6. *)
