(** Export of requirement sets (JSON, CSV, Markdown) for the follow-up
    inspection, categorisation and prioritisation steps. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent

val class_string : Classify.class_ -> string

val to_json :
  ?classify:(Auth.t -> Classify.class_) -> Auth.t list -> Fsa_json.Json.t
(** An array of [{"cause", "effect", "stakeholder", "formal", "prose"}]
    objects (plus ["classification"] under [classify]), one per
    requirement of the normalised set. *)

val to_csv : ?classify:(Auth.t -> Classify.class_) -> Auth.t list -> string

val to_markdown :
  ?classify:(Auth.t -> Classify.class_) -> Auth.t list -> string
