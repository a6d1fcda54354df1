(** Finite automata over an ordered label alphabet.

    Machinery behind the SH verification tool's minimal-automaton
    computation: NFAs with epsilon transitions (homomorphic images of
    reachability graphs), subset construction, Hopcroft and Moore
    minimisation, language operations and decision procedures. *)

module Int_set : Set.S with type elt = int

module type LABEL = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (L : LABEL) : sig
  module Lset : Set.S with type elt = L.t
  module Lmap : Map.S with type key = L.t

  module Nfa : sig
    type t

    val create :
      nb_states:int ->
      start:Int_set.t ->
      finals:Int_set.t ->
      edges:(int * L.t option * int) list ->
      t
    (** [None] labels are epsilon transitions. *)

    val nb_states : t -> int
    val start : t -> Int_set.t
    val finals : t -> Int_set.t
    val edges : t -> (int * L.t option * int) list
    val alphabet : t -> Lset.t
    val eps_closure : t -> Int_set.t -> Int_set.t
    val accepts : t -> L.t list -> bool
  end

  module Dfa : sig
    (** Partial DFAs: missing transitions reject. *)
    type t

    val create :
      nb_states:int ->
      start:int ->
      finals:Int_set.t ->
      delta:int Lmap.t array ->
      t

    val nb_states : t -> int
    val start : t -> int
    val finals : t -> Int_set.t
    val delta : t -> int Lmap.t array
    val is_final : t -> int -> bool
    val alphabet : t -> Lset.t
    val step : t -> int -> L.t -> int option
    val accepts : t -> L.t list -> bool
    val transitions : t -> (int * L.t * int) list
    val nb_transitions : t -> int

    val determinize : Nfa.t -> t
    (** Subset construction (reachable subsets only). *)

    val trim : t -> t
    (** Remove states that are unreachable or cannot reach a final state. *)

    val complete : alphabet:Lset.t -> t -> t
    (** Make the transition function total by adding a rejecting sink. *)

    val minimize : t -> t
    (** Hopcroft's partition refinement; result is trim. *)

    val minimize_moore : t -> t
    (** Moore's iterated refinement.  It exists only as the reference
        that [minimize] is checked against in its agreement test. *)

    val is_empty : t -> bool
    val intersection : t -> t -> t
    val union : t -> t -> t
    val difference : t -> t -> t

    val shuffle : t -> t -> t
    (** Asynchronous product of two automata over disjoint alphabets: it
        accepts the interleavings of one word of each.  States are the
        reachable pairs; a pair accepts iff both components do.
        @raise Invalid_argument if the alphabets overlap. *)

    val language_subset : t -> t -> bool
    val language_equal : t -> t -> bool
    val words : max_len:int -> t -> L.t list list

    val language_is_finite : t -> bool

    val count_words : t -> int option
    (** Number of accepted words; [None] for infinite languages. *)

    val shortest_accepted : t -> L.t list option
    (** Shortest accepted word; [None] for the empty language. *)

    val canonicalize : t -> t
    (** BFS renumbering of a trim DFA; structural equality of canonical
        forms decides isomorphism of minimal automata. *)

    val isomorphic : t -> t -> bool

    val dot : ?name:string -> ?state_label:(int -> string) -> t -> string
    val pp : t Fmt.t
  end

  val relabel : (L.t -> L.t option) -> Dfa.t -> Nfa.t
  (** Project a DFA through an alphabetic homomorphism on its labels:
      [None] erases the edge to an epsilon transition, [Some l']
      relabels it.  The NFA recognises the image of the DFA's language,
      so [Dfa.minimize (Dfa.determinize (relabel h dfa))] is the minimal
      automaton of the coarser abstraction — computed from [dfa] instead
      of from the original behaviour. *)

  val project : (L.t -> L.t option) -> Dfa.t -> Dfa.t
  (** [project h dfa] accepts the same language as
      [Dfa.determinize (relabel h dfa)], via a subset construction that
      represents subsets as bitsets over the source states — linear-time
      epsilon closures instead of the generic [Int_set] ones, which is
      what keeps per-pair projections from a many-thousand-state shared
      quotient cheap.  The result is deterministic but not minimal;
      follow with {!Dfa.minimize}. *)
end
