(* Export of requirement sets for downstream tooling.

   Requirements inspection, categorisation and prioritisation (the steps
   following elicitation in the paper's process) typically happen in
   external tools; this module renders requirement sets as JSON, CSV and
   Markdown.  The JSON document is an array of objects with the
   requirement triple, its classification and prose. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Json = Fsa_json.Json

let class_string = function
  | Classify.Safety_critical -> "safety-critical"
  | Classify.Policy_induced policies ->
    "policy-induced: " ^ String.concat ", " policies

let to_json ?classify reqs =
  let entry r =
    let classification =
      match classify with
      | None -> []
      | Some f -> [ ("classification", Json.Str (class_string (f r))) ]
    in
    Json.Obj
      ([ ("cause", Json.Str (Action.to_string (Auth.cause r)));
         ("effect", Json.Str (Action.to_string (Auth.effect r)));
         ("stakeholder", Json.Str (Agent.to_string (Auth.stakeholder r)));
         ("formal", Json.Str (Auth.to_string r));
         ("prose", Json.Str (Fmt.str "%a" Auth.pp_prose r)) ]
      @ classification)
  in
  Json.List (List.map entry (Auth.normalise reqs))

(* CSV with a header row; fields are quoted, embedded quotes doubled. *)
let csv_quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_csv ?classify reqs =
  let header =
    "cause,effect,stakeholder"
    ^ (if classify = None then "" else ",classification")
    ^ "\n"
  in
  let row r =
    let base =
      String.concat ","
        [ csv_quote (Action.to_string (Auth.cause r));
          csv_quote (Action.to_string (Auth.effect r));
          csv_quote (Agent.to_string (Auth.stakeholder r)) ]
    in
    match classify with
    | None -> base
    | Some f -> base ^ "," ^ csv_quote (class_string (f r))
  in
  header ^ String.concat "\n" (List.map row (Auth.normalise reqs)) ^ "\n"

(* A Markdown table for documentation and reviews. *)
let to_markdown ?classify reqs =
  let buf = Buffer.create 512 in
  let has_class = classify <> None in
  Buffer.add_string buf
    (if has_class then
       "| # | Cause | Effect | Stakeholder | Classification |\n\
        |---|---|---|---|---|\n"
     else "| # | Cause | Effect | Stakeholder |\n|---|---|---|---|\n");
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "| %d | %s | %s | %s |" (i + 1)
           (Action.to_string (Auth.cause r))
           (Action.to_string (Auth.effect r))
           (Agent.to_string (Auth.stakeholder r)));
      (match classify with
      | Some f -> Buffer.add_string buf (" " ^ class_string (f r) ^ " |")
      | None -> ());
      Buffer.add_char buf '\n')
    (Auth.normalise reqs);
  Buffer.contents buf
