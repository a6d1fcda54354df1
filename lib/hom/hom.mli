(** Alphabetic language homomorphisms and abstraction-based dependence
    analysis (Sect. 5.5 of the paper). *)

module Action = Fsa_term.Action
module Lts = Fsa_lts.Lts
module Action_label : Fsa_automata.Automata.LABEL with type t = Action.t
module A : module type of Fsa_automata.Automata.Make (Action_label)

type t = Action.t -> Action.t option
(** An alphabetic homomorphism on action languages; [None] erases the
    action (maps it to the empty word). *)

val identity : t

val preserve : Action.t list -> t
(** Identity on the listed actions, erase everything else. *)

val rename : (Action.t * Action.t) list -> t
(** Pointwise renaming; actions outside the map are kept unchanged.
    First binding wins for duplicate sources.

    @raise Invalid_argument if the map itself is non-injective — two
    distinct sources renamed onto the same target silently merge
    behaviours and poison dependence verdicts.  Collisions with
    untouched alphabet actions are not detectable here; run
    {!rename_collisions} with the alphabet first. *)

val rename_collisions :
  ?alphabet:Action.t list ->
  (Action.t * Action.t) list ->
  (Action.t * Action.t list) list
(** The merge groups of a rename map: every target that two or more
    distinct sources end up on, with its sources (sorted).  With
    [?alphabet], actions the map leaves untouched count as sources of
    themselves, so renaming [a] onto an existing action [b] is reported
    as the merge of [a] and [b].  Empty result = the map is injective on
    the alphabet. *)

val compose : t -> t -> t

val erased : t -> Action.t list -> Action.t list
(** The actions of the given alphabet the homomorphism erases. *)

val preserved : t -> Action.t list -> Action.t list
(** The actions of the given alphabet the homomorphism keeps.  An
    abstraction preserving nothing has a single-state minimal automaton
    and makes every dependence verdict vacuous. *)

val image_nfa : t -> Lts.t -> A.Nfa.t
(** The homomorphic image of a (prefix-closed) behaviour, with erased
    transitions as epsilon edges; every state accepts. *)

val minimal_automaton : t -> Lts.t -> A.Dfa.t
(** The minimal deterministic automaton of the image — what the SH tool
    displays in Figs. 10 and 11. *)

val dfa_has_target_before_avoid :
  A.Dfa.t -> avoid:Action.t -> target:Action.t -> bool

val depends_abstract :
  Lts.t -> min_action:Action.t -> max_action:Action.t -> bool
(** Abstraction-based functional dependence: preserve only the pair,
    minimise, and check that [max_action] cannot occur before
    [min_action]. *)

val dependence_matrix :
  Lts.t ->
  minima:Action.t list ->
  maxima:Action.t list ->
  (Action.t * (Action.t * bool) list) list
(** For each maximum, the dependence verdict against every minimum. *)

module Pair_set : Set.S with type elt = Action.t * Action.t

(** Shared multi-pair abstraction engine: erase the behaviour once to
    the union alphabet of all surviving (minimum, maximum) pairs,
    determinise/minimise that shared image, then answer every pair from
    the shared automaton instead of re-walking the full graph per pair.
    Sound because [preserve {min, max} = preserve {min, max} . preserve
    union] for every pair inside the union alphabet, and minimal DFAs
    are unique up to isomorphism — verdicts and exported minimal
    automata are identical to the per-pair path. *)
module Shared : sig
  type build_timing = {
    sb_erase_ns : int64;  (** building the shared image NFA *)
    sb_determinise_ns : int64;
    sb_minimise_ns : int64;
    sb_early_ns : int64;  (** the on-the-fly early-decision pass *)
  }

  type engine

  val build :
    alphabet:Action.Set.t ->
    minima:Action.t list ->
    maxima:Action.t list ->
    Lts.t ->
    engine
  (** Build the shared quotient for [alphabet] (the union of all pair
      actions) and run the early-decision pass for the given minima and
      maxima.  The quotient is built fresh on every call; nothing is
      persisted across runs. *)

  val compose :
    minima:Action.t list -> maxima:Action.t list -> engine list -> engine
  (** The engine of an asynchronous product, from engines built on its
      factors' graphs over disjoint alphabets (the modules of
      [Fsa_core.Analysis]).  It answers what an engine built on the
      product graph over the union alphabet answers: a pair inside one
      factor gets that factor's verdict and minimal automaton (the
      product's image on the pair equals the factor's), a pair across
      two factors is independent.  [minima] and [maxima] are the pair
      endpoints the engines were built for; {!early_count} counts their
      cross-factor pairs.
      @raise Invalid_argument on no engine or overlapping alphabets. *)

  val alphabet : engine -> Action.Set.t

  val dfa : engine -> A.Dfa.t
  (** The shared minimal DFA.  For a {!compose}d engine it is the
      shuffle product of the factors' DFAs — isomorphic to the product
      graph's — built on the first call. *)

  val dfa_states : engine -> int
  (** [A.Dfa.nb_states (dfa e)], without building a composite's
      product. *)

  val timing : engine -> build_timing
  (** Summed over the factors. *)

  val early_count : engine -> int
  (** Number of pairs decided independent without reading a quotient:
      those the single pass proved independent, plus a composite's
      cross-factor pairs. *)

  val depends : engine -> min_action:Action.t -> max_action:Action.t -> bool
  (** Per-pair verdict off the shared engine, identical to
      {!depends_abstract} on the behaviour the engine was built from.
      @raise Invalid_argument if the pair is outside the engine's
      alphabet. *)

  val minimal_automaton :
    engine -> min_action:Action.t -> max_action:Action.t -> A.Dfa.t
  (** The pair's minimal automaton, projected from the shared quotient —
      isomorphic to [minimal_automaton (preserve [min; max]) lts]. *)
end

val is_simple : t -> Lts.t -> bool
(** Weak continuation-closure check on the product of the behaviour with
    the minimal automaton of its image: when it holds, every abstract
    continuation is realisable from every concrete representative and the
    homomorphism is simple on this behaviour (the condition the SH tool
    verifies before transferring abstract results). *)

val dot : ?name:string -> t -> Lts.t -> string
val describe_dfa : A.Dfa.t -> string
