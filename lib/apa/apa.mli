(** Asynchronous Product Automata (Definition 2 of the paper).

    An APA is a family of state components (sets of data terms) and a
    family of elementary automata (rules) communicating via shared state
    components.  Rules are specified in a guarded consume/read/produce
    style matching the paper's state transition relations; each variable
    binding of a rule is one interpretation and yields one labelled state
    transition. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action

(** Global states: one set of ground terms per state component.

    A state lives in a {e layout}: a fixed, name-sorted order of state
    components whose term sets are interned to small ints.  Every APA
    owns one layout, built on first use, and every state it produces
    ({!initial_state}, {!step}) shares it: such a state is an int array of
    set ids plus its hash, so hashing and equality are int-array
    operations.  Hand-built states ({!State.empty}, {!State.set} of a
    component the state lacks) get small private layouts.

    The interface is by name.  {!State.get} of a component the layout
    lacks is the empty set, and equality, hashing and ordering are
    defined by [get]: an absent component and an empty one make the same
    state.  States of different layouts compare by contents. *)
module State : sig
  type t

  val empty : t
  val get : string -> t -> Term.Set.t
  val set : string -> Term.Set.t -> t -> t
  val add_elt : string -> Term.t -> t -> t
  val remove_elt : string -> Term.t -> t -> t
  val mem_elt : string -> Term.t -> t -> bool
  val compare : t -> t -> int
  val equal : t -> t -> bool

  val hash : t -> int
  (** Consistent with [equal], across layouts too. *)

  val components : t -> string list

  val map : comp:(string -> string) -> term:(Term.t -> Term.t) -> t -> t
  (** [map ~comp ~term s] renames every component key through [comp] and
      rewrites every stored element through [term].  Used by symmetry
      reduction ({!Fsa_sym}) to apply a component permutation to a
      global state.  When [comp] permutes the components of [s]'s
      layout, the result stays in that layout and only the sets [term]
      changes are interned; otherwise the sets of colliding keys are
      unioned into a state of a private layout. *)

  val pp : t Fmt.t
  val to_string : t -> string
end

type take = { t_component : string; t_pattern : Term.t; t_consume : bool }
type put = { p_component : string; p_template : Term.t }

type rule = {
  r_name : string;
  r_takes : take list;
  r_guard : Term.Subst.t -> bool;
  r_trivial_guard : bool;
      (** [true] when no guard was supplied to {!rule}: the guard closure
          is the constant [true].  Structural analyses use this to tell
          genuinely unguarded rules from opaque guard closures. *)
  r_puts : put list;
  r_label : Term.Subst.t -> Action.t;
  r_default_label : bool;
      (** [true] when no label closure was supplied to {!rule}: every
          firing is labelled [Action.make r_name].  Symmetry reduction
          relies on this — an opaque label closure could leak instance
          identities the state permutation cannot rewrite. *)
}

val take : ?consume:bool -> string -> Term.t -> take
val read : string -> Term.t -> take
(** [read c p] matches [p] in component [c] without removing it. *)

val put : string -> Term.t -> put

val rule :
  ?guard:(Term.Subst.t -> bool) ->
  ?label:(Term.Subst.t -> Action.t) ->
  takes:take list ->
  puts:put list ->
  string ->
  rule

val rule_name : rule -> string

val neighbourhood : rule -> string list
(** N(t): the state components the elementary automaton reads or writes. *)

type t

type error =
  | Unknown_component of string * string
  | Unbound_put_variable of string * string
  | Nonground_initial of string * Term.t
  | Duplicate_rule of string
  | Duplicate_component of string

val pp_error : error Fmt.t
val validate : t -> (unit, error list) result

val make : components:(string * Term.Set.t) list -> rules:rule list -> string -> t
(** @raise Invalid_argument on an ill-formed APA. *)

val name : t -> string
val components : t -> (string * Term.Set.t) list
val rules : t -> rule list

val rule_names : t -> string list
(** The sorted action alphabet under the default labelling (one action
    per rule name) — what spec-level [check] declarations and
    homomorphism keep sets may refer to. *)

val consumers : t -> string -> rule list
(** Rules with a consuming take on the given state component. *)

val readers : t -> string -> rule list
(** Rules with a non-consuming (read) take on the component. *)

val producers : t -> string -> rule list
(** Rules with a put into the component. *)

val initial_state : t -> State.t

val step : t -> State.t -> (rule * Action.t * State.t) list
(** All enabled transitions of all elementary automata in a state: rules
    in declaration order, each rule's bindings in matching order.

    Each rule's guard-filtered bindings are cached per content of its
    neighbourhood N(r), keyed by the set ids of N(r)'s components.  A
    rule is matched only on a neighbourhood content it has not seen;
    otherwise its cached labels and successor patches are reused
    ([apa.bindings_reused]), so a successor is an array copy plus a
    patch.  Guards and label closures must be pure.  The caches belong
    to the APA and are safe to share between domains.  A state of
    another layout is first re-interned into the APA's by name.
    @raise Invalid_argument if that state holds a non-empty component
    the APA does not declare. *)

val enabled_rules : t -> State.t -> rule list
val is_deadlocked : t -> State.t -> bool

val compose : name:string -> t list -> t
(** Glue APAs by identifying equally-named state components (shared
    memory); initial sets are unioned. *)

val prefix : ?keep:string list -> prefix:string -> t -> t
(** Rename all components and rules with a prefix, except the shared
    components listed in [keep]. *)

val with_initial : string -> Term.Set.t -> t -> t
(** Replace the initial content of one state component. *)

val pp : t Fmt.t
