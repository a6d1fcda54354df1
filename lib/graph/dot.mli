(** Graphviz DOT emission for analysis artefacts. *)

type t

val create : ?graph_attrs:(string * string) list -> string -> t
val node : ?attrs:(string * string) list -> t -> string -> unit
val edge : ?attrs:(string * string) list -> t -> string -> string -> unit
val quote : string -> string
val to_string : t -> string
