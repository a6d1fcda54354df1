(** Model linting: inspection warnings over functional SoS models
    (isolated actions, unconnected components, degenerate boundary
    actions, singleton policies, uninfluenced outputs, heavy external
    fan-in). *)

module Action = Fsa_term.Action

type warning =
  | Isolated_action of Action.t
  | Unconnected_component of string
  | Degenerate_boundary_action of Action.t
  | Singleton_policy of string * Flow.t
  | Uninfluenced_output of Action.t
  | External_fan_in of Action.t * int

val pp_warning : warning Fmt.t

val code : warning -> string
(** Stable diagnostic code (the FSA03x block of the unified code space
    rendered by [Fsa_check.Diagnostic], whose registry assigns the
    severity; [fsa check] reports the findings). *)

val check : Sos.t -> warning list
