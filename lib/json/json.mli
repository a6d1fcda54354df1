(** Minimal JSON values: parsing and deterministic printing.

    Every JSON document the program reads or writes goes through this
    module: the store's cache entries, the server's newline-delimited
    request/response protocol, requirement reports and exports, analyzer
    reports, metrics dumps and Chrome traces.  It is
    deliberately small — no streaming, no numbers beyond OCaml [int] and
    [float] — and deterministic: {!to_string} emits object members in
    the order they were constructed (or parsed), with no whitespace, so
    equal values print identically and printed values hash stably. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** member order is preserved *)

val equal : t -> t -> bool

val parse : string -> (t, string) result
(** Parse one JSON document; trailing whitespace is allowed, any other
    trailing input is an error.  Numbers without [.], [e] or [E] parse
    as [Int]. *)

val to_string : t -> string
(** Compact rendering (no whitespace), object member order preserved.
    In strings, the double quote, backslash, newline, carriage return
    and tab take their two-character escapes and every other control
    character a six-character [u00XX] escape; non-finite floats print
    as [null]. *)

val to_buffer : Buffer.t -> t -> unit

(** {1 Accessors}

    Total accessors for picking requests apart: they return [None]
    rather than raising on shape mismatches. *)

val member : string -> t -> t option
(** [member k (Obj ..)] is the value bound to the first occurrence of
    [k]; [None] on missing members and non-objects. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
