(* Tests for Fsa_apa: rule matching semantics, execution, composition. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa

let term = Alcotest.testable Term.pp Term.equal
let state = Alcotest.testable Apa.State.pp Apa.State.equal

let set = Term.Set.of_list
let sym = Term.sym
let var = Term.var

let labels_of_step apa st =
  List.map (fun (_, l, _) -> Action.label l) (Apa.step apa st)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* State operations                                                    *)
(* ------------------------------------------------------------------ *)

let test_state_ops () =
  let s = Apa.State.set "c" (set [ sym "a" ]) Apa.State.empty in
  Alcotest.(check bool) "mem" true (Apa.State.mem_elt "c" (sym "a") s);
  let s2 = Apa.State.add_elt "c" (sym "b") s in
  Alcotest.(check int) "add" 2 (Term.Set.cardinal (Apa.State.get "c" s2));
  let s3 = Apa.State.remove_elt "c" (sym "a") s2 in
  Alcotest.(check bool) "removed" false (Apa.State.mem_elt "c" (sym "a") s3);
  Alcotest.(check bool) "missing component is empty" true
    (Term.Set.is_empty (Apa.State.get "nope" s));
  Alcotest.(check bool) "states with equal content equal" true
    (Apa.State.equal s (Apa.State.set "c" (set [ sym "a" ]) Apa.State.empty))

(* An absent component and an empty one make the same state: equality,
   hash and order follow [get], whichever layout the states live in. *)
let test_absent_is_empty () =
  let same what a b =
    Alcotest.(check bool) (what ^ ": equal") true (Apa.State.equal a b);
    Alcotest.(check int) (what ^ ": hash") (Apa.State.hash a) (Apa.State.hash b);
    Alcotest.(check int) (what ^ ": compare") 0 (Apa.State.compare a b)
  in
  same "empty vs set-to-empty" Apa.State.empty
    (Apa.State.set "c" Term.Set.empty Apa.State.empty);
  let s = Apa.State.set "a" (set [ sym "x" ]) Apa.State.empty in
  same "extra empty component" s (Apa.State.set "b" Term.Set.empty s);
  same "emptied component" Apa.State.empty
    (Apa.State.remove_elt "a" (sym "x") s);
  let apa =
    Apa.make
      ~components:[ ("a", set [ sym "x" ]); ("b", Term.Set.empty) ]
      ~rules:[] "layout"
  in
  same "APA state vs hand-built" (Apa.initial_state apa) s;
  Alcotest.(check bool) "different contents differ" false
    (Apa.State.equal (Apa.initial_state apa)
       (Apa.State.set "b" (set [ sym "x" ]) s))

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  (* unknown component in a rule *)
  (match
     Apa.make ~components:[ ("c", Term.Set.empty) ]
       ~rules:[ Apa.rule "r" ~takes:[ Apa.take "nope" (var "x") ] ~puts:[] ]
       "bad"
   with
  | _ -> Alcotest.fail "unknown component must be rejected"
  | exception Invalid_argument _ -> ());
  (* unbound variable in a put *)
  (match
     Apa.make ~components:[ ("c", Term.Set.empty) ]
       ~rules:[ Apa.rule "r" ~takes:[] ~puts:[ Apa.put "c" (var "x") ] ]
       "bad"
   with
  | _ -> Alcotest.fail "unbound put variable must be rejected"
  | exception Invalid_argument _ -> ());
  (* non-ground initial content *)
  (match
     Apa.make ~components:[ ("c", set [ var "x" ]) ] ~rules:[] "bad"
   with
  | _ -> Alcotest.fail "non-ground initial content must be rejected"
  | exception Invalid_argument _ -> ());
  (* duplicate rule names *)
  match
    Apa.make ~components:[ ("c", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "r" ~takes:[ Apa.take "c" (var "x") ] ~puts:[];
          Apa.rule "r" ~takes:[ Apa.take "c" (var "y") ] ~puts:[] ]
      "bad"
  with
  | _ -> Alcotest.fail "duplicate rule names must be rejected"
  | exception Invalid_argument _ -> ()

let test_neighbourhood () =
  let r =
    Apa.rule "r"
      ~takes:[ Apa.take "a" (var "x"); Apa.read "b" (var "y") ]
      ~puts:[ Apa.put "c" (var "x") ]
  in
  Alcotest.(check (list string)) "N(t)" [ "a"; "b"; "c" ] (Apa.neighbourhood r)

(* ------------------------------------------------------------------ *)
(* Execution semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_simple_move () =
  let apa =
    Apa.make
      ~components:[ ("src", set [ sym "a" ]); ("dst", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "move" ~takes:[ Apa.take "src" (var "x") ]
            ~puts:[ Apa.put "dst" (var "x") ] ]
      "mover"
  in
  match Apa.step apa (Apa.initial_state apa) with
  | [ (_, label, next) ] ->
    Alcotest.(check string) "label" "move" (Action.label label);
    Alcotest.check state "moved"
      (Apa.State.set "src" Term.Set.empty
         (Apa.State.set "dst" (set [ sym "a" ]) Apa.State.empty))
      next;
    Alcotest.(check bool) "deadlocked after" true (Apa.is_deadlocked apa next)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 transition, got %d" (List.length other))

let test_binding_enumeration () =
  (* two elements match the pattern: two interpretations *)
  let apa =
    Apa.make
      ~components:[ ("src", set [ sym "a"; sym "b" ]); ("dst", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "move" ~takes:[ Apa.take "src" (var "x") ]
            ~puts:[ Apa.put "dst" (var "x") ] ]
      "mover"
  in
  Alcotest.(check int) "two interpretations" 2
    (List.length (Apa.step apa (Apa.initial_state apa)))

let test_distinct_consumption () =
  (* two consuming takes on one component must bind distinct elements *)
  let apa =
    Apa.make
      ~components:[ ("src", set [ sym "a"; sym "b" ]); ("dst", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "pair"
            ~takes:[ Apa.take "src" (var "x"); Apa.take "src" (var "y") ]
            ~puts:[ Apa.put "dst" (Term.app "p" [ var "x"; var "y" ]) ] ]
      "pairer"
  in
  let steps = Apa.step apa (Apa.initial_state apa) in
  (* (a,b) and (b,a): the diagonal pairs (a,a), (b,b) are excluded *)
  Alcotest.(check int) "distinct elements" 2 (List.length steps);
  List.iter
    (fun (_, _, next) ->
      Alcotest.(check bool) "source emptied" true
        (Term.Set.is_empty (Apa.State.get "src" next)))
    steps

let test_read_does_not_consume () =
  let apa =
    Apa.make
      ~components:[ ("cfg", set [ sym "k" ]); ("out", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "use" ~takes:[ Apa.read "cfg" (var "x") ]
            ~puts:[ Apa.put "out" (var "x") ] ]
      "reader"
  in
  match Apa.step apa (Apa.initial_state apa) with
  | [ (_, _, next) ] ->
    Alcotest.(check bool) "config kept" true (Apa.State.mem_elt "cfg" (sym "k") next);
    Alcotest.(check bool) "output produced" true (Apa.State.mem_elt "out" (sym "k") next)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 transition, got %d" (List.length other))

let test_guard () =
  let apa =
    Apa.make
      ~components:[ ("src", set [ sym "good"; sym "bad" ]); ("dst", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "filter"
            ~takes:[ Apa.take "src" (var "x") ]
            ~guard:(fun s -> Term.Subst.find "x" s = Some (sym "good"))
            ~puts:[ Apa.put "dst" (var "x") ] ]
      "guarded"
  in
  match Apa.step apa (Apa.initial_state apa) with
  | [ (_, _, next) ] ->
    Alcotest.check term "only the good element moves" (sym "good")
      (Term.Set.choose (Apa.State.get "dst" next))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 transition, got %d" (List.length other))

let test_pattern_take () =
  (* a structured pattern binds subterms *)
  let apa =
    Apa.make
      ~components:
        [ ("net", set [ Term.app "cam" [ sym "V1"; sym "pos1" ] ]);
          ("bus", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "rec"
            ~takes:[ Apa.take "net" (Term.app "cam" [ var "v"; var "p" ]) ]
            ~puts:[ Apa.put "bus" (Term.app "warn" [ var "p" ]) ] ]
      "pattern"
  in
  match Apa.step apa (Apa.initial_state apa) with
  | [ (_, _, next) ] ->
    Alcotest.check term "payload extracted"
      (Term.app "warn" [ sym "pos1" ])
      (Term.Set.choose (Apa.State.get "bus" next))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 transition, got %d" (List.length other))

let test_custom_labels () =
  let apa =
    Apa.make
      ~components:[ ("src", set [ sym "a" ]) ]
      ~rules:
        [ Apa.rule "r"
            ~takes:[ Apa.take "src" (var "x") ]
            ~puts:[]
            ~label:(fun s ->
              Action.make
                ~args:[ Option.get (Term.Subst.find "x" s) ]
                "consumed") ]
      "labelled"
  in
  match Apa.step apa (Apa.initial_state apa) with
  | [ (_, label, _) ] ->
    Alcotest.(check string) "label carries binding" "consumed(a)"
      (Action.to_string label)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 transition, got %d" (List.length other))

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let test_compose_shares_components () =
  let mk name dir =
    Apa.make
      ~components:[ (name ^ "_local", set [ sym "t" ]); ("net", Term.Set.empty) ]
      ~rules:
        [ Apa.rule (name ^ "_" ^ dir)
            ~takes:[ Apa.take (name ^ "_local") (var "x") ]
            ~puts:[ Apa.put "net" (var "x") ] ]
      name
  in
  let c = Apa.compose ~name:"both" [ mk "a" "send"; mk "b" "send" ] in
  Alcotest.(check int) "net shared: 3 components" 3 (List.length (Apa.components c));
  Alcotest.(check int) "rules concatenated" 2 (List.length (Apa.rules c))

let test_compose_unions_initials () =
  let mk name init =
    Apa.make ~components:[ ("net", set init) ] ~rules:[] name
  in
  let c = Apa.compose ~name:"u" [ mk "a" [ sym "x" ]; mk "b" [ sym "y" ] ] in
  Alcotest.(check int) "initial union" 2
    (Term.Set.cardinal (Apa.State.get "net" (Apa.initial_state c)))

let test_prefix () =
  let apa =
    Apa.make
      ~components:[ ("local", set [ sym "a" ]); ("net", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "send" ~takes:[ Apa.take "local" (var "x") ]
            ~puts:[ Apa.put "net" (var "x") ] ]
      "v"
  in
  let p = Apa.prefix ~keep:[ "net" ] ~prefix:"V1_" apa in
  Alcotest.(check bool) "local renamed" true
    (List.mem_assoc "V1_local" (Apa.components p));
  Alcotest.(check bool) "net kept" true (List.mem_assoc "net" (Apa.components p));
  Alcotest.(check (list string)) "rule renamed" [ "V1_send" ]
    (List.map Apa.rule_name (Apa.rules p))

let test_with_initial () =
  let apa = Apa.make ~components:[ ("c", Term.Set.empty) ] ~rules:[] "x" in
  let apa' = Apa.with_initial "c" (set [ sym "a" ]) apa in
  Alcotest.(check int) "initial replaced" 1
    (Term.Set.cardinal (Apa.State.get "c" (Apa.initial_state apa')));
  match Apa.with_initial "nope" Term.Set.empty apa with
  | _ -> Alcotest.fail "unknown component must be rejected"
  | exception Invalid_argument _ -> ()

let test_vehicle_enabled_rules () =
  (* in the initial two-vehicle state exactly sense/pos/pos are enabled *)
  let apa = Fsa_vanet.Vehicle_apa.two_vehicles () in
  Alcotest.(check (list string)) "initially enabled"
    [ "V1_pos"; "V1_sense"; "V2_pos" ]
    (labels_of_step apa (Apa.initial_state apa))

let test_rec_ignores_own_messages () =
  (* V1's message must not be consumable by V1 itself: give V1 a pending
     gps so it could in principle receive *)
  let open Fsa_vanet.Vehicle_apa in
  let apa =
    Apa.compose ~name:"self_rx"
      [ vehicle ~role:Full ~esp_init:[ sw ] ~gps_init:[ pos1; pos2 ] 1 ]
  in
  (* drive: sense, pos(pos1), send -> message in net; V1_rec must not fire *)
  let rec drive st = function
    | [] -> st
    | label :: rest ->
      let next =
        List.find_map
          (fun (r, _, s) -> if Apa.rule_name r = label then Some s else None)
          (Apa.step apa st)
      in
      (match next with
      | Some s -> drive s rest
      | None -> Alcotest.fail (Printf.sprintf "cannot drive %s" label))
  in
  let st = drive (Apa.initial_state apa) [ "V1_sense"; "V1_pos"; "V1_send" ] in
  Alcotest.(check bool) "a message is on the net" true
    (not (Term.Set.is_empty (Apa.State.get "net" st)));
  Alcotest.(check bool) "V1 does not receive its own message" true
    (List.for_all
       (fun (r, _, _) -> Apa.rule_name r <> "V1_rec")
       (Apa.step apa st))

let suite =
  [ Alcotest.test_case "state operations" `Quick test_state_ops;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "neighbourhood" `Quick test_neighbourhood;
    Alcotest.test_case "simple move" `Quick test_simple_move;
    Alcotest.test_case "binding enumeration" `Quick test_binding_enumeration;
    Alcotest.test_case "distinct consumption" `Quick test_distinct_consumption;
    Alcotest.test_case "read does not consume" `Quick test_read_does_not_consume;
    Alcotest.test_case "guard" `Quick test_guard;
    Alcotest.test_case "pattern take" `Quick test_pattern_take;
    Alcotest.test_case "custom labels" `Quick test_custom_labels;
    Alcotest.test_case "compose shares components" `Quick test_compose_shares_components;
    Alcotest.test_case "compose unions initials" `Quick test_compose_unions_initials;
    Alcotest.test_case "prefix" `Quick test_prefix;
    Alcotest.test_case "with_initial" `Quick test_with_initial;
    Alcotest.test_case "vehicle enabled rules" `Quick test_vehicle_enabled_rules;
    Alcotest.test_case "rec ignores own messages" `Quick test_rec_ignores_own_messages;
    Alcotest.test_case "absent component is empty" `Quick test_absent_is_empty ]
