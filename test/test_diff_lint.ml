(* Tests for change-impact analysis (Diff) and model linting (Lint). *)

module Term = Fsa_term.Term
module Agent = Fsa_term.Agent
module Action = Fsa_term.Action
module Component = Fsa_model.Component
module Flow = Fsa_model.Flow
module Sos = Fsa_model.Sos
module Lint = Fsa_model.Lint
module Auth = Fsa_requirements.Auth
module Diff = Fsa_requirements.Diff
module Classify = Fsa_requirements.Classify
module S = Fsa_vanet.Scenario

let act role name = Action.make ~actor:(Agent.unindexed role) name

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let test_diff_neutral () =
  let d =
    Diff.compare_models ~before:S.two_vehicles ~after:S.two_vehicles ()
  in
  Alcotest.(check bool) "identical models are neutral" true (Diff.is_neutral d);
  Alcotest.(check int) "all requirements kept" 3 (List.length d.Diff.kept)

let test_diff_added_forwarder () =
  (* adding the forwarding hop introduces exactly the GPS_2 requirement *)
  let d =
    Diff.compare_models ~before:S.two_vehicles ~after:S.three_vehicles ()
  in
  Alcotest.(check (list string)) "one added requirement"
    [ "auth(pos(GPS_2, pos), show(HMI_w, warn), D_w)" ]
    (List.map Auth.to_string d.Diff.added);
  Alcotest.(check int) "nothing removed" 0 (List.length d.Diff.removed);
  Alcotest.(check int) "base requirements kept" 3 (List.length d.Diff.kept);
  Alcotest.(check int) "no reclassification" 0 (List.length d.Diff.reclassified)

let test_diff_reclassification () =
  (* same dependency graph, but a flow becomes policy-induced: the
     dependent requirement reclassifies without being added/removed *)
  let mk policy =
    let a = act "A" "input" and b = act "B" "process" and c = act "B" "output" in
    Sos.make "v"
      ~components:
        [ Component.make "A" ~actions:[ a ] ~flows:[];
          Component.make "B" ~actions:[ b; c ]
            ~flows:[ Flow.internal ?policy b c ] ]
      ~links:[ Flow.external_ a b ]
  in
  let d =
    Diff.compare_models ~before:(mk None) ~after:(mk (Some "caching")) ()
  in
  Alcotest.(check int) "no additions" 0 (List.length d.Diff.added);
  Alcotest.(check int) "no removals" 0 (List.length d.Diff.removed);
  (match d.Diff.reclassified with
  | [ rc ] ->
    Alcotest.(check bool) "was safety" true
      (Classify.equal_class rc.Diff.rc_before Classify.Safety_critical);
    Alcotest.(check bool) "now policy" true
      (Classify.equal_class rc.Diff.rc_after (Classify.Policy_induced [ "caching" ]))
  | _ -> Alcotest.fail "one reclassification expected");
  Alcotest.(check bool) "not neutral" false (Diff.is_neutral d)

let test_diff_removed () =
  let d =
    Diff.compare_models ~before:S.three_vehicles ~after:S.two_vehicles ()
  in
  Alcotest.(check int) "one removed" 1 (List.length d.Diff.removed);
  Alcotest.(check bool) "renders" true
    (String.length (Fmt.str "%a" Diff.pp d) > 0)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

(* The error-level findings, at the diagnostic registry's severity. *)
let errors sos =
  let module D = Fsa_check.Diagnostic in
  List.filter
    (fun w ->
      List.exists
        (fun (code, sev, _) -> String.equal code (Lint.code w) && sev = D.Error)
        D.registry)
    (Lint.check sos)

let test_lint_clean_models () =
  (* the grid model is fan-in heavy but otherwise clean *)
  Alcotest.(check (list string)) "two-vehicle model lints clean" []
    (List.map (Fmt.str "%a" Lint.pp_warning) (Lint.check S.two_vehicles));
  Alcotest.(check int) "grid has no errors" 0
    (List.length (errors (Fsa_grid.Scenario.demand_response ())))

let test_lint_isolated_action () =
  let a = act "A" "go" and stray = act "A" "stray" in
  let sos =
    Sos.make "iso"
      ~components:[ Component.make "A" ~actions:[ a; stray ] ~flows:[] ]
  in
  let findings = Lint.check sos in
  Alcotest.(check bool) "isolated actions flagged" true
    (List.exists
       (function Lint.Isolated_action _ -> true | _ -> false)
       findings)

let test_lint_unconnected_component () =
  let a = act "A" "out" and b = act "B" "in" and c = act "C" "lonely" in
  let sos =
    Sos.make "uncon"
      ~components:
        [ Component.make "A" ~actions:[ a ] ~flows:[];
          Component.make "B" ~actions:[ b ] ~flows:[];
          Component.make "C" ~actions:[ c ] ~flows:[] ]
      ~links:[ Flow.external_ a b ]
  in
  Alcotest.(check bool) "lonely component flagged" true
    (List.exists
       (function Lint.Unconnected_component "C" -> true | _ -> false)
       (Lint.check sos))

let test_lint_degenerate_boundary () =
  let a = act "A" "solo" in
  let sos =
    Sos.make "deg" ~components:[ Component.make "A" ~actions:[ a ] ~flows:[] ]
  in
  Alcotest.(check bool) "input-and-output action flagged" true
    (List.exists
       (function Lint.Degenerate_boundary_action _ -> true | _ -> false)
       (Lint.check sos));
  Alcotest.(check bool) "it is an error" true (errors sos <> [])

let test_lint_singleton_policy () =
  Alcotest.(check bool) "forwarding policy used once in fig4" true
    (List.exists
       (function Lint.Singleton_policy _ -> true | _ -> false)
       (Lint.check S.three_vehicles));
  (* with two forwarders the policy is used twice: no warning *)
  Alcotest.(check bool) "no singleton with two forwarders" false
    (List.exists
       (function Lint.Singleton_policy _ -> true | _ -> false)
       (Lint.check (S.chain 4)))

let test_lint_fan_in () =
  let findings = Lint.check Fsa_vanet.Evita.model in
  (* the fusion and logging inputs receive three or more external flows *)
  Alcotest.(check bool) "fan-in flagged on EVITA" true
    (List.exists
       (function Lint.External_fan_in (_, n) -> n >= 3 | _ -> false)
       findings);
  (* but none of the findings are errors *)
  Alcotest.(check int) "EVITA has no lint errors" 0
    (List.length (errors Fsa_vanet.Evita.model))

let suite =
  [ Alcotest.test_case "diff: neutral" `Quick test_diff_neutral;
    Alcotest.test_case "diff: added forwarder" `Quick test_diff_added_forwarder;
    Alcotest.test_case "diff: reclassification" `Quick test_diff_reclassification;
    Alcotest.test_case "diff: removed" `Quick test_diff_removed;
    Alcotest.test_case "lint: clean models" `Quick test_lint_clean_models;
    Alcotest.test_case "lint: isolated action" `Quick test_lint_isolated_action;
    Alcotest.test_case "lint: unconnected component" `Quick test_lint_unconnected_component;
    Alcotest.test_case "lint: degenerate boundary" `Quick test_lint_degenerate_boundary;
    Alcotest.test_case "lint: singleton policy" `Quick test_lint_singleton_policy;
    Alcotest.test_case "lint: external fan-in" `Quick test_lint_fan_in ]
