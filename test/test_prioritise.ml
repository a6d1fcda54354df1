(* Tests for requirement prioritisation, plus a JSON well-formedness check
   for the export module (using a minimal JSON reader defined here). *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Auth = Fsa_requirements.Auth
module Classify = Fsa_requirements.Classify
module Prioritise = Fsa_requirements.Prioritise
module Derive = Fsa_requirements.Derive
module S = Fsa_vanet.Scenario
module Evita = Fsa_vanet.Evita

(* ------------------------------------------------------------------ *)
(* Prioritisation                                                      *)
(* ------------------------------------------------------------------ *)

let test_factors () =
  let sos = S.three_vehicles in
  let req =
    List.find
      (fun r -> Action.label (Auth.cause r) = "sense")
      (Derive.of_sos sos)
  in
  let s = Prioritise.score sos req in
  (* sense -> send -> (ext) rec2 -> fwd2 -> (ext) recw -> show: two
     external hops, shortest path of 5 flows *)
  Alcotest.(check int) "exposure counts external hops" 2 s.Prioritise.s_exposure;
  Alcotest.(check int) "reach is the shortest path" 5 s.Prioritise.s_reach;
  Alcotest.(check bool) "safety-critical impact" true
    (s.Prioritise.s_impact = 10)

let test_safety_above_policy () =
  let sos = S.three_vehicles in
  let ranking = Prioritise.rank sos (Derive.of_sos sos) in
  (* every safety-critical requirement ranks above the policy-induced one *)
  let rec split_ranks acc = function
    | [] -> List.rev acc
    | s :: rest ->
      split_ranks
        ((Classify.equal_class s.Prioritise.s_class Classify.Safety_critical)
         :: acc)
        rest
  in
  let flags = split_ranks [] ranking in
  (* safety block first, then policy block: no true after a false *)
  let rec monotone seen_policy = function
    | [] -> true
    | true :: _ when seen_policy -> false
    | true :: rest -> monotone false rest
    | false :: rest -> monotone true rest
  in
  Alcotest.(check bool) "safety ranks above policy" true (monotone false flags)

let test_stakeholder_weights () =
  let sos = Evita.model in
  let reqs = Derive.of_sos ~stakeholder:Evita.stakeholder sos in
  let weights =
    { Prioritise.default_weights with
      Prioritise.stakeholder_weight =
        (fun a -> if Agent.role a = "Driver" then 5 else 1) }
  in
  let ranking = Prioritise.rank ~weights sos reqs in
  (* the top-ranked requirement concerns a driver-facing output *)
  match ranking with
  | top :: _ ->
    Alcotest.(check string) "driver on top" "Driver"
      (Agent.role (Auth.stakeholder top.Prioritise.s_requirement))
  | [] -> Alcotest.fail "non-empty ranking expected"

let test_rank_deterministic () =
  let sos = S.chain 4 in
  let reqs = Derive.of_sos sos in
  let r1 = Prioritise.rank sos reqs and r2 = Prioritise.rank sos (List.rev reqs) in
  Alcotest.(check (list string)) "order independent of input order"
    (List.map (fun s -> Auth.to_string s.Prioritise.s_requirement) r1)
    (List.map (fun s -> Auth.to_string s.Prioritise.s_requirement) r2)

let test_ranking_renders () =
  let sos = S.two_vehicles in
  let text =
    Fmt.str "%a" Prioritise.pp_ranking (Prioritise.rank sos (Derive.of_sos sos))
  in
  Alcotest.(check bool) "mentions impact" true
    (let sub = "impact" in
     let rec contains i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* JSON well-formedness of the export                                  *)
(* ------------------------------------------------------------------ *)

(* A minimal JSON reader, sufficient to validate the exporter's output:
   values are objects, arrays, strings; no numbers are emitted. *)
let json_parses input =
  let pos = ref 0 in
  let n = String.length input in
  let fail () = raise Exit in
  let peek () = if !pos < n then input.[!pos] else fail () in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t') then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c = if peek () = c then advance () else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> str ()
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else begin
      let rec fields () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        if peek () = ',' then begin
          advance ();
          fields ()
        end
        else expect '}'
      in
      fields ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else begin
      let rec items () =
        value ();
        skip_ws ();
        if peek () = ',' then begin
          advance ();
          items ()
        end
        else expect ']'
      in
      items ()
    end
  and str () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        advance ();
        go ()
      | _ ->
        advance ();
        go ()
    in
    go ()
  in
  match
    value ();
    skip_ws ()
  with
  | () -> !pos = n
  | exception Exit -> false

let test_export_json_wellformed () =
  let sos = Evita.model in
  let reqs = Derive.of_sos ~stakeholder:Evita.stakeholder sos in
  let json =
    Fsa_json.Json.to_string
      (Fsa_requirements.Export.to_json ~classify:(Classify.classify sos) reqs)
  in
  Alcotest.(check bool) "EVITA export parses as JSON" true (json_parses json);
  (* escaping survives adversarial content *)
  let nasty =
    Auth.make
      ~cause:(Action.make "a\"b\\c")
      ~effect:(Action.make "x\ny")
      ~stakeholder:(Agent.unindexed "P\tQ")
  in
  Alcotest.(check bool) "nasty strings stay well-formed" true
    (json_parses
       (Fsa_json.Json.to_string (Fsa_requirements.Export.to_json [ nasty ])))

let suite =
  [ Alcotest.test_case "score factors" `Quick test_factors;
    Alcotest.test_case "safety above policy" `Quick test_safety_above_policy;
    Alcotest.test_case "stakeholder weights" `Quick test_stakeholder_weights;
    Alcotest.test_case "deterministic ranking" `Quick test_rank_deterministic;
    Alcotest.test_case "ranking renders" `Quick test_ranking_renders;
    Alcotest.test_case "export JSON well-formed" `Quick test_export_json_wellformed ]
