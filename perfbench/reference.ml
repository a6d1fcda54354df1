(* Hand-written references and the checker that compares an op's
   structured result with them.

   A reference is a list of facts about one op on one spec.  For the
   bundled specs the facts live in expected/<spec>.expected, one per
   line:

     reach graph <states> <transitions>
     reach minima <action>...
     reach maxima <action>...
     <op> auth <cause> <effect> <stakeholder|*>   (op = requirements|report)
     <op> none                                    (no requirement at all)
     <op> error <kind>                            (a structured error)
     check exit <code>
     known-defect stakeholder <reason...>

   [*] leaves the stakeholder unchecked where the spec does not say who
   it is.  A [known-defect] line marks stakeholder mismatches on that
   spec as a documented program defect: the workloads run its
   requirements and report ops apart, as probes that report the defect,
   not among the counted ops.  For generated fleets the facts follow
   from how the generator builds the spec. *)

module Json = Fsa_store.Json

type auth = { cause : string; effect : string; stakeholder : string option }

type fact =
  | Graph of int * int option  (** states, transitions if checked *)
  | Minima of string list
  | Maxima of string list
  | Auth of auth
  | No_requirements
  | Error_kind of string
  | Exit of int

type t = {
  facts : (string * fact) list;  (** (op, fact) *)
  known_stakeholder_defect : string option;
}

let ops r = List.sort_uniq compare (List.map fst r.facts)
let facts_for r op = List.filter_map (fun (o, f) -> if o = op then Some f else None) r.facts

let parse_line line =
  match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line)) with
  | [] -> `Skip
  | w :: _ when w.[0] = '#' -> `Skip
  | "known-defect" :: "stakeholder" :: reason -> `Defect (String.concat " " reason)
  | [ op; "graph"; s; t ] -> `Fact (op, Graph (int_of_string s, Some (int_of_string t)))
  | op :: "minima" :: xs -> `Fact (op, Minima (List.sort compare xs))
  | op :: "maxima" :: xs -> `Fact (op, Maxima (List.sort compare xs))
  | [ op; "auth"; c; e; s ] ->
    `Fact
      (op, Auth { cause = c; effect = e; stakeholder = (if s = "*" then None else Some s) })
  | [ op; "none" ] -> `Fact (op, No_requirements)
  | [ op; "error"; k ] -> `Fact (op, Error_kind k)
  | [ op; "exit"; n ] -> `Fact (op, Exit (int_of_string n))
  | _ -> invalid_arg ("reference: cannot read line: " ^ line)

let of_string s =
  List.fold_left
    (fun r line ->
      match parse_line line with
      | `Skip -> r
      | `Defect why -> { r with known_stakeholder_defect = Some why }
      | `Fact f -> { r with facts = r.facts @ [ f ] })
    { facts = []; known_stakeholder_defect = None }
    (String.split_on_char '\n' s)

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

(* What the generator built: per pair, the receiver's show depends on
   its own position, the warner's position and the warner's sensor; the
   vehicular stakeholder of V<n>_show is its driver D_<n>. *)
let of_fleet ?(graph = true) (f : Gen.fleet) =
  let n = List.length f.Gen.f_pairs in
  let auths =
    List.concat_map
      (fun { Gen.warner = w; receiver = r } ->
        let show = Gen.vname r ^ "_show" and d = Some (Printf.sprintf "D_%d" r) in
        [ { cause = Gen.vname r ^ "_pos"; effect = show; stakeholder = d };
          { cause = Gen.vname w ^ "_pos"; effect = show; stakeholder = d };
          { cause = Gen.vname w ^ "_sense"; effect = show; stakeholder = d } ])
      f.Gen.f_pairs
  in
  let states = int_of_float (13. ** float_of_int n) in
  let per_op op =
    List.map (fun a -> (op, Auth a)) auths
  in
  let reach =
    let minima =
      List.concat_map
        (fun p ->
          [ Gen.vname p.Gen.receiver ^ "_pos"; Gen.vname p.Gen.warner ^ "_pos";
            Gen.vname p.Gen.warner ^ "_sense" ])
        f.Gen.f_pairs
    and maxima = List.map (fun p -> Gen.vname p.Gen.receiver ^ "_show") f.Gen.f_pairs in
    [ ("reach", Minima (List.sort compare minima));
      ("reach", Maxima (List.sort compare maxima)) ]
  in
  let graph_facts =
    if graph then [ ("reach", Graph (states, None)); ("report", Graph (states, None)) ] else []
  in
  { facts = reach @ graph_facts @ per_op "requirements" @ per_op "report";
    known_stakeholder_defect = None }

(* ---- checking ---------------------------------------------------- *)

type verdict =
  | Ok
  | Stakeholder_mismatch of string  (** right pairs, wrong stakeholder *)
  | Mismatch of string

let str j k = Option.bind (Json.member k j) Json.to_str
let int j k = Option.bind (Json.member k j) Json.to_int
let strs j k =
  match Json.member k j with
  | Some (Json.List l) -> Some (List.sort compare (List.filter_map Json.to_str l))
  | _ -> None

let auth_of_json j =
  match (str j "cause", str j "effect", str j "stakeholder") with
  | Some c, Some e, Some s -> Some (c, e, s)
  | _ -> None

(* Requirement triples of a requirements result or a report (single or
   multi-report). *)
let requirements_of result =
  let of_list j =
    match Json.member "requirements" j with
    | Some (Json.List l) -> List.filter_map auth_of_json l
    | _ -> []
  in
  match Json.member "reports" result with
  | Some (Json.List rs) -> List.concat_map of_list rs
  | _ -> of_list result

let graph_of op result =
  match op with
  | "reach" -> (int result "states", int result "transitions")
  | _ -> (
    match Json.member "graph" result with
    | Some g -> (int g "states", int g "transitions")
    | None -> (None, None))

let show_triple (c, e, s) = Printf.sprintf "auth(%s, %s, %s)" c e s

let check_auths expected got =
  let pairs l = List.sort_uniq compare (List.map (fun (c, e, _) -> (c, e)) l) in
  let exp_pairs = List.sort_uniq compare (List.map (fun a -> (a.cause, a.effect)) expected) in
  let got_pairs = pairs got in
  if exp_pairs <> got_pairs || List.length got <> List.length expected then
    Mismatch
      (Printf.sprintf "requirement set: expected %d, got %d [%s]" (List.length expected)
         (List.length got)
         (String.concat "; " (List.map show_triple got)))
  else
    let wrong =
      List.filter
        (fun (c, e, s) ->
          List.exists
            (fun a ->
              a.cause = c && a.effect = e
              && match a.stakeholder with Some s' -> s' <> s | None -> false)
            expected)
        got
    in
    if wrong = [] then Ok
    else Stakeholder_mismatch (String.concat "; " (List.map show_triple wrong))

(* [response] is the op's outcome as the server would answer it:
   either [Ok (exit, result)] or [Error kind]. *)
let check r ~op response =
  let facts = facts_for r op in
  let first_failure vs =
    match List.find_opt (function Ok -> false | _ -> true) vs with
    | Some v -> v
    | None -> Ok
  in
  match response with
  | Error kind -> (
    match List.find_map (function Error_kind k -> Some k | _ -> None) facts with
    | Some k when k = kind -> Ok
    | Some k -> Mismatch (Printf.sprintf "error %s, expected error %s" kind k)
    | None -> Mismatch ("unexpected error " ^ kind))
  | Stdlib.Ok (exit, result) ->
    let auths = List.filter_map (function Auth a -> Some a | _ -> None) facts in
    let per_fact = function
      | Error_kind k -> Mismatch ("succeeded, expected error " ^ k)
      | Exit n -> if exit = n then Ok else Mismatch (Printf.sprintf "exit %d, expected %d" exit n)
      | Graph (s, t) -> (
        match graph_of op result with
        | Some s', t' when s = s' && (t = None || t' = t) -> Ok
        | _ -> Mismatch (Printf.sprintf "graph: expected %d states" s))
      | Minima m ->
        if strs result "minima" = Some m then Ok else Mismatch "minima differ"
      | Maxima m ->
        if strs result "maxima" = Some m then Ok else Mismatch "maxima differ"
      | No_requirements ->
        if requirements_of result = [] then Ok else Mismatch "expected no requirement"
      | Auth _ -> Ok
    in
    let auth_verdict =
      if auths = [] then Ok else check_auths auths (requirements_of result)
    in
    if facts = [] then Mismatch ("no reference for op " ^ op)
    else first_failure (List.map per_fact facts @ [ auth_verdict ])
