(** Static symmetry detection and ample-set partial-order reduction.

    The scalability pass behind [--reduce]: a static analysis over the
    elaborated APA that makes EVITA-scale fleets of near-identical
    vehicles explorable.

    {b Symmetry.}  Instances are recovered from the [Inst_rule] naming
    convention of elaborated specifications (and of the programmatic
    scenario builders).  Two groups of instances are interchangeable
    when a joint renaming of their rule names, state components and
    identity symbols maps the APA onto itself — rule sets isomorphic up
    to the renaming, initial contents included, guards either trivially
    true or attested equivalent by the caller ([guard_sig]).  Verified
    renamings are grouped into {e orbits of blocks} (a block is a set
    of instances that always move together, e.g. a warner/receiver pair
    with its private radio cluster).  States are then canonicalised by
    sorting the blocks of each orbit by their renamed local contents;
    exploring only canonical representatives shrinks a product of [k]
    identical blocks from [n^k] states towards the multiset bound
    [C(n+k-1, k)].

    Canonicalisation is refused (the orbit is kept in the report but
    marked non-reducible) when an instance identity can leak outside
    its own block's components — then per-block signatures would not
    determine the state and the quotient could be inconsistent.

    {b Partial order.}  Rules are partitioned into {e modules}: the
    connected components of the static interference relation
    ({!Fsa_struct.Structural.interferes}).  Rules in different modules
    can neither enable, disable nor feed each other, so expanding only
    one module's transitions in a state is a persistent (ample) set:
    C0 (non-empty), C1 (isolation) hold by construction, C2 is handled
    by always expanding the initial state in full, and C3 (no
    ignoring) by only ever choosing statically terminating modules
    (every rule consumes, intra-module token flow acyclic).  When any
    condition fails the state is expanded in full.

    Soundness gate: on every model that completes un-reduced, the
    reduced analysis produces the identical requirement set
    ({!Fsa_core.Analysis} re-derives per-instance requirements from the
    quotient through the recorded permutations). *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module State = Fsa_apa.Apa.State
module Structural = Fsa_struct.Structural

exception Unsupported of string
(** Raised (by reduction consumers) when a model steps outside what the
    static analysis verified — e.g. a transition whose label is not the
    default rule-name labelling, which the recorded renamings could not
    soundly rewrite.  Callers fall back to unreduced exploration. *)

(** {1 Permutations}

    A permutation of the model's name spaces: state components, rule
    names and identity symbols.  Only non-identity bindings are
    stored. *)
module Perm : sig
  type t

  val id : t
  val is_id : t -> bool
  val equal : t -> t -> bool

  val compose : t -> t -> t
  (** [compose a b] applies [b] first, then [a]. *)

  val inverse : t -> t
  val comp : t -> string -> string
  val rule : t -> string -> string

  val apply_term : t -> Term.t -> Term.t
  (** Rewrites identity symbols ([Sym]) through the symbol map. *)

  val apply_state : t -> State.t -> State.t
  (** Renames component keys and rewrites stored terms. *)

  val apply_action : t -> Action.t -> Action.t
  (** Rewrites the label through the rule map and the argument terms
      through the symbol map; the actor is left unchanged. *)

  val key : t -> string
  (** Canonical encoding, usable as a hash/visited-set key. *)

  val pp : t Fmt.t
end

(** {1 Orbit detection} *)

type block = {
  b_instances : string list;  (** member instances, sorted *)
  b_comps : string list;  (** components owned by the block, sorted *)
  b_rules : string list;  (** rules of the member instances, sorted *)
  b_from_ref : Perm.t;
      (** maps the orbit's reference block (names, rules, identities)
          to this block; the identity for the reference block itself *)
}

type orbit = {
  o_blocks : block list;  (** at least two; the first is the reference *)
  o_reducible : bool;
      (** [false] when canonicalisation was refused (identity leak) *)
  o_why : string;  (** reason when not reducible, [""] otherwise *)
}

type rejection = {
  j_a : string;
  j_b : string;  (** the candidate instance pair that failed *)
  j_reason : [ `Guard | `Initial | `Rules | `Ambiguous ];
  j_detail : string;
}

type report = {
  r_instances : (string * string list) list;
      (** instance name -> owned state components (both sorted) *)
  r_orbits : orbit list;
  r_rejected : rejection list;
      (** same-shape candidate pairs that are not interchangeable *)
  r_attested_guards : string list;
      (** rules with non-trivial guards accepted only because
          [guard_sig] attested equivalence — worth a diagnostic note *)
}

val detect : ?guard_sig:(string -> string option) -> Apa.t -> report
(** Detect component-permutation symmetry.  [guard_sig] maps a rule
    name to a canonical signature of its guard ([None] = unknown): two
    non-trivially guarded rules are only considered equivalent when
    their signatures are equal — spec-driven callers derive signatures
    from the guard syntax, programmatic callers may attest equivalence
    of their guard closures.  Without [guard_sig], any non-trivial
    guard breaks symmetry. *)

val group_order : report -> float
(** Order of the detected symmetry group over the reducible orbits
    (product of factorials of orbit sizes) — an upper bound on the
    state-space reduction factor. *)

val pp_report : report Fmt.t

val report_to_json : report -> Fsa_json.Json.t
(** Deterministic JSON object (fixed key order). *)

(** {1 State canonicalisation} *)

type canonizer

val canonizer : report -> canonizer
(** Canonicaliser over the report's reducible orbits.  The memo table
    inside is guarded by a mutex; safe to share across domains. *)

val nontrivial : canonizer -> bool
(** [true] when at least one reducible orbit exists. *)

val canonical : canonizer -> State.t -> State.t * Perm.t
(** [canonical c s] is [(rep, p)] with [rep = Perm.apply_state p s] the
    canonical representative of [s]'s orbit under the symmetry group.
    Consistent: all states of one orbit map to the same [rep]. *)

(** {1 Ample sets} *)

type por

val por_plan : Apa.t -> Structural.net -> por
(** Partition the net's rules into interference modules and certify
    which are statically terminating (usable as ample sets). *)

type por_module = {
  m_rules : string list;  (** sorted *)
  m_reducible : bool;
  m_why : string;  (** reason when not reducible, [""] otherwise *)
}

val por_modules : por -> por_module list

val ample :
  por ->
  State.t ->
  (Apa.rule * Action.t * State.t) list ->
  (Apa.rule * Action.t * State.t) list
(** Restrict a state's enabled transitions to an ample subset: the
    highest-priority terminating module with enabled rules, when at
    least two modules are active and the state is not the initial one;
    the full list otherwise.  A pure function of the state, so
    sequential and parallel exploration agree. *)

(** {1 Reduction plans} *)

type kind = Sym | Por | Sym_por

val kind_of_string : string -> kind option
(** Recognises ["sym"], ["por"], ["sym+por"]. *)

val kind_to_string : kind -> string

type plan = {
  pl_kind : kind;
  pl_report : report;
  pl_canonizer : canonizer option;  (** [Some] for [Sym]/[Sym_por] *)
  pl_por : por option;  (** [Some] for [Por]/[Sym_por] *)
  pl_net : Structural.net;
  pl_indep : (string -> string -> bool) Lazy.t;
      (** the spec-wide flow-independence matrix, built once and shared
          with {!Fsa_core.Analysis}'s static pruning *)
}

val plan : ?guard_sig:(string -> string option) -> kind -> Apa.t -> plan

val canon_fn : plan -> (State.t -> State.t) option
(** The canonicalisation hook for {!Fsa_lts.Lts.explore}'s [?reduce]. *)

val ample_fn :
  plan ->
  (State.t ->
  (Apa.rule * Action.t * State.t) list ->
  (Apa.rule * Action.t * State.t) list)
  option
(** The ample-set hook for {!Fsa_lts.Lts.explore}'s [?reduce]. *)
