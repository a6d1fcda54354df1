(** Unified diagnostics for the spec-level static analyzer.

    Every finding of [Fsa_check.Check] (and, through it, the manual-path
    lint of [Fsa_model.Lint]) is a diagnostic: a stable code, a severity,
    an optional source span and a message.  Diagnostics render as
    compiler-style text (with an underline when the source is available)
    or as deterministic JSON — two runs over the same input are
    byte-identical. *)

module Loc = Fsa_spec.Loc

type severity = Error | Warning | Info

val pp_severity : severity Fmt.t
val severity_to_string : severity -> string

type t = {
  code : string;  (** stable code, e.g. ["FSA001"] *)
  severity : severity;
  file : string option;
  loc : Loc.t option;
  message : string;
}

val make :
  ?file:string ->
  ?loc:Loc.t ->
  severity:severity ->
  code:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val error :
  ?file:string -> ?loc:Loc.t -> code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warning :
  ?file:string -> ?loc:Loc.t -> code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val info :
  ?file:string -> ?loc:Loc.t -> code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val compare : t -> t -> int
(** Orders by file, then location (line, col), then code, then severity,
    then message — the render order of every report, text and JSON
    alike. *)

val sort : t list -> t list

val promote_warnings : t list -> t list
(** [--werror]: every [Warning] becomes an [Error]; [Info] is unchanged. *)

val has_errors : t list -> bool

val count : severity -> t list -> int

val summary : t list -> string
(** E.g. ["2 errors, 1 warning, 3 notes"]; ["no findings"] when empty. *)

val describe : string -> string option
(** One-line meaning of a diagnostic code, when registered. *)

val registry : (string * severity * string) list
(** All registered codes with their default severity and description,
    sorted by code. *)

val pp : t Fmt.t
(** One-line compiler-style rendering:
    [FILE:LINE:COL: severity\[CODE\]: message]. *)

val render_text : ?sources:(string * string) list -> t list -> string
(** Full text report, sorted.  [sources] maps file names to their
    contents; when the source of a located diagnostic is available the
    offending span is underlined. *)

val to_json : t list -> Fsa_json.Json.t
(** Deterministic JSON array: the diagnostics sorted, each an object
    with [file] (when known), [code], [severity], then
    [line]/[col]/[endLine]/[endCol] (when the location is not dummy)
    and [message]. *)
