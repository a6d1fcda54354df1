(* Tests for Fsa_mc.Monitor: runtime verification of requirements, and
   for the export formats. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Auth = Fsa_requirements.Auth
module Monitor = Fsa_mc.Monitor
module Export = Fsa_requirements.Export
module Classify = Fsa_requirements.Classify
module Lts = Fsa_lts.Lts
module V = Fsa_vanet.Vehicle_apa
module S = Fsa_vanet.Scenario

let requirements2 =
  lazy
    (Fsa_core.Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()))
      .Fsa_core.Analysis.t_requirements

(* ------------------------------------------------------------------ *)
(* Monitoring                                                          *)
(* ------------------------------------------------------------------ *)

let test_system_traces_satisfy_requirements () =
  (* every word of the behaviour satisfies the derived requirements —
     completeness of the derivation in monitor form *)
  let lts = Lts.explore (V.two_vehicles ()) in
  let reqs = Lazy.force requirements2 in
  List.iter
    (fun trace ->
      let verdicts = Monitor.run reqs trace in
      List.iter
        (fun (r, v) ->
          Alcotest.(check bool)
            (Fmt.str "%a on a system trace" Auth.pp r)
            true
            (Monitor.equal_verdict v Monitor.Satisfied))
        verdicts)
    (Lts.words ~max_len:6 lts)

let test_forged_trace_detected () =
  let reqs = Lazy.force requirements2 in
  (* an attacker injects the warning without any sensing: V2 receives and
     shows, but V1 never sensed *)
  let forged = [ V.v_pos 2; V.v_rec 2; V.v_show 2 ] in
  let verdicts = Monitor.run reqs forged in
  let violated =
    List.filter
      (fun (_, v) -> not (Monitor.equal_verdict v Monitor.Satisfied))
      verdicts
  in
  (* V1_sense and V1_pos requirements fire; V2_pos was satisfied *)
  Alcotest.(check int) "two requirements violated" 2 (List.length violated);
  match violated with
  | (_, Monitor.Violated { position; _ }) :: _ ->
    Alcotest.(check int) "violation at the show event" 2 position
  | _ -> Alcotest.fail "expected violation details"

let test_incremental_monitoring () =
  let reqs = Lazy.force requirements2 in
  let m = Monitor.of_requirements reqs in
  Alcotest.(check bool) "initially satisfied" true (Monitor.all_satisfied m);
  Monitor.step m (V.v_sense 1);
  Monitor.step m (V.v_pos 1);
  Monitor.step m (V.v_send 1);
  Monitor.step m (V.v_pos 2);
  Monitor.step m (V.v_rec 2);
  Alcotest.(check bool) "still satisfied before show" true
    (Monitor.all_satisfied m);
  Monitor.step m (V.v_show 2);
  Alcotest.(check bool) "full run satisfied" true (Monitor.all_satisfied m);
  Alcotest.(check int) "no violations" 0 (List.length (Monitor.violations m))

let test_first_violation_sticks () =
  let req =
    Auth.make ~cause:(Action.make "a") ~effect:(Action.make "b")
      ~stakeholder:(Agent.unindexed "P")
  in
  let m = Monitor.of_requirements [ req ] in
  Monitor.step m (Action.make "b");
  (* late cause does not heal the violation *)
  Monitor.step m (Action.make "a");
  Monitor.step m (Action.make "b");
  match Monitor.verdicts m with
  | [ (_, Monitor.Violated { position; _ }) ] ->
    Alcotest.(check int) "first position kept" 0 position
  | _ -> Alcotest.fail "expected a sticky violation"

let test_cause_on_same_event () =
  (* degenerate reflexive requirement: satisfied because the cause check
     precedes the effect check *)
  let a = Action.make "a" in
  let req = Auth.make ~cause:a ~effect:a ~stakeholder:(Agent.unindexed "P") in
  let verdicts = Monitor.run [ req ] [ a ] in
  match verdicts with
  | [ (_, v) ] ->
    Alcotest.(check bool) "reflexive satisfied" true
      (Monitor.equal_verdict v Monitor.Satisfied)
  | _ -> Alcotest.fail "one verdict expected"

let test_report_renders () =
  let reqs = Lazy.force requirements2 in
  let m = Monitor.of_requirements reqs in
  Monitor.step m (V.v_show 2);
  let text = Fmt.str "%a" Monitor.pp_report m in
  Alcotest.(check bool) "report mentions violation" true
    (let sub = "violated" in
     let rec contains i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let rec go i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || go (i + 1))
  in
  go 0

let test_json_export () =
  let reqs = Fsa_requirements.Derive.of_sos S.three_vehicles in
  let json =
    Fsa_json.Json.to_string
      (Export.to_json ~classify:(Classify.classify S.three_vehicles) reqs)
  in
  Alcotest.(check bool) "array" true (json.[0] = '[');
  Alcotest.(check bool) "contains cause field" true (contains json "\"cause\"");
  Alcotest.(check bool) "contains classification" true
    (contains json "policy-induced");
  Alcotest.(check bool) "mentions the driver" true (contains json "D_w")

let test_csv_export () =
  let reqs = Fsa_requirements.Derive.of_sos S.two_vehicles in
  let csv = Export.to_csv reqs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check string) "header" "cause,effect,stakeholder" (List.hd lines);
  let csv_c = Export.to_csv ~classify:(Classify.classify S.two_vehicles) reqs in
  Alcotest.(check bool) "classified header" true
    (contains csv_c "classification")

let test_markdown_export () =
  let reqs = Fsa_requirements.Derive.of_sos S.two_vehicles in
  let md = Export.to_markdown reqs in
  Alcotest.(check bool) "table header" true (contains md "| # | Cause |");
  Alcotest.(check bool) "numbered rows" true (contains md "| 1 |");
  Alcotest.(check bool) "three rows" true (contains md "| 3 |")

let suite =
  [ Alcotest.test_case "system traces satisfy requirements" `Quick
      test_system_traces_satisfy_requirements;
    Alcotest.test_case "forged trace detected" `Quick test_forged_trace_detected;
    Alcotest.test_case "incremental monitoring" `Quick test_incremental_monitoring;
    Alcotest.test_case "first violation sticks" `Quick test_first_violation_sticks;
    Alcotest.test_case "reflexive requirement" `Quick test_cause_on_same_event;
    Alcotest.test_case "report rendering" `Quick test_report_renders;
    Alcotest.test_case "json export" `Quick test_json_export;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "markdown export" `Quick test_markdown_export ]
