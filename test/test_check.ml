(* Tests for Fsa_check: the spec-level static analyzer and its unified
   diagnostics. *)

module Parser = Fsa_spec.Parser
module Loc = Fsa_spec.Loc
module Check = Fsa_check.Check
module D = Fsa_check.Diagnostic
module Json = Fsa_json.Json

let parse s = Parser.parse_string s

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let codes ds = List.map (fun d -> d.D.code) ds

let has_code code ds = List.mem code (codes ds)

let find_code code ds = List.find (fun d -> String.equal d.D.code code) ds

(* ------------------------------------------------------------------ *)
(* One intentionally broken spec per diagnostic code                   *)
(* ------------------------------------------------------------------ *)

let test_dead_rule () =
  (* s can only ever hold the constant [a]; the take pattern [b] is
     unsatisfiable — even though producers keep writing [b]'s shape
     nowhere *)
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(b) -> put s(b)
           }
           instance I = C(1) { }|})
  in
  Alcotest.(check bool) "FSA001 reported" true (has_code "FSA001" ds);
  let d = find_code "FSA001" ds in
  Alcotest.(check bool) "is an error" true (d.D.severity = D.Error);
  (match d.D.loc with
  | Some l -> Alcotest.(check int) "on the take" 3 l.Loc.line
  | None -> Alcotest.fail "dead rule diagnostic must be located")

let test_dead_producer_chain () =
  (* b's only producer is itself dead, so c's consumer is dead too —
     and the message distinguishes "all producers dead" *)
  let ds =
    Check.spec
      (parse
         {|component C {
             state a = { }
             state b = { }
             action mk: take a(x) -> put b(x)
             action use: take b(x) -> put b(done)
           }
           instance I = C(1) { }|})
  in
  (* a is never written and initially empty: mk is inert (info), and b
     stays empty so use is reported dead via its empty component *)
  Alcotest.(check bool) "FSA006 for mk" true (has_code "FSA006" ds);
  Alcotest.(check bool) "FSA001 for use" true (has_code "FSA001" ds)

let test_unbound_put_variable () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(_x) -> put s(pair(_x, _y))
           }
           instance I = C(1) { }|})
  in
  let d = find_code "FSA002" ds in
  Alcotest.(check bool) "is an error" true (d.D.severity = D.Error)

let test_unbound_guard_variable () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(_x) when _z != self -> put s(_x)
           }
           instance I = C(1) { }|})
  in
  let d = find_code "FSA003" ds in
  Alcotest.(check bool) "is a warning" true (d.D.severity = D.Warning)

let test_undeclared_component () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(_x) -> put t(_x)
           }
           instance I = C(1) { }|})
  in
  let d = find_code "FSA007" ds in
  Alcotest.(check bool) "is an error" true (d.D.severity = D.Error)

let test_unused_component () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             state u = { }
             action go: take s(_x) -> put s(_x)
           }
           instance I = C(1) { }|})
  in
  Alcotest.(check bool) "FSA005 reported" true (has_code "FSA005" ds)

let test_race_consume_consume () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { m }
             state o = { }
             action eat1: take s(_x) -> put o(one(_x))
             action eat2: take s(_x) -> put o(two(_x))
           }
           instance I = C(1) { }|})
  in
  let d = find_code "FSA010" ds in
  Alcotest.(check bool) "is a warning" true (d.D.severity = D.Warning)

let test_race_consume_read () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { m }
             state o = { }
             action eat: take s(_x) -> put o(ate(_x))
             action look: read s(_x) -> put o(saw(_x))
           }
           instance I = C(1) { }|})
  in
  Alcotest.(check bool) "FSA011 reported" true (has_code "FSA011" ds);
  Alcotest.(check bool) "no consume/consume race" false (has_code "FSA010" ds)

let test_race_guard_suppression () =
  (* both rules guarded: the guard may disambiguate the interleaving, so
     no race is reported *)
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { m }
             state o = { }
             action eat1: take s(_x) when _x != self -> put o(one(_x))
             action eat2: take s(_x) -> put o(two(_x))
           }
           instance I = C(1) { }|})
  in
  Alcotest.(check bool) "guarded pair suppressed" false (has_code "FSA010" ds)

let test_check_unknown_action () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(_x) -> put s(_x)
           }
           instance I = C(1) { }
           check absence I_gone|})
  in
  let d = find_code "FSA020" ds in
  Alcotest.(check bool) "is an error" true (d.D.severity = D.Error);
  Alcotest.(check bool) "suggests I_go" true
    (contains ~affix:"I_go" d.D.message)

let test_check_vacuous () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(b) -> put s(b)
           }
           instance I = C(1) { }
           check existence I_go|})
  in
  Alcotest.(check bool) "FSA021 reported" true (has_code "FSA021" ds)

let test_keep_set () =
  let alphabet = [ "I_go"; "I_stop" ] in
  let ds = Check.keep_set ~alphabet [ "I_go" ] in
  Alcotest.(check int) "known action is clean" 0 (List.length ds);
  let ds = Check.keep_set ~alphabet [ "I_gone" ] in
  Alcotest.(check bool) "FSA022 reported" true (has_code "FSA022" ds);
  Alcotest.(check bool) "FSA023 when nothing kept" true (has_code "FSA023" ds);
  let ds = Check.keep_set ~alphabet [ "I_gone"; "I_stop" ] in
  Alcotest.(check bool) "partially known keeps the abstraction" false
    (has_code "FSA023" ds)

let test_rename_map () =
  let alphabet = [ "I_go"; "I_stop" ] in
  (* renaming onto a fresh target is injective and clean *)
  let ds = Check.rename_map ~alphabet [ ("I_go", "go") ] in
  Alcotest.(check int) "injective rename is clean" 0 (List.length ds);
  (* unknown source *)
  let ds = Check.rename_map ~alphabet [ ("I_gone", "go") ] in
  Alcotest.(check bool) "FSA022 for unknown source" true (has_code "FSA022" ds);
  let d = find_code "FSA022" ds in
  Alcotest.(check bool) "did-you-mean hint" true
    (contains ~affix:"I_go" d.D.message);
  (* renaming one action onto another alphabet action merges it with
     that action's identity image *)
  let ds = Check.rename_map ~alphabet [ ("I_go", "I_stop") ] in
  Alcotest.(check bool) "FSA036 for merge with identity image" true
    (has_code "FSA036" ds);
  let d = find_code "FSA036" ds in
  Alcotest.(check bool) "names both sources" true
    (contains ~affix:"I_go" d.D.message
    && contains ~affix:"I_stop" d.D.message);
  (* two sources on one fresh target *)
  let ds = Check.rename_map ~alphabet [ ("I_go", "x"); ("I_stop", "x") ] in
  Alcotest.(check bool) "FSA036 for two sources on one target" true
    (has_code "FSA036" ds);
  (* duplicate bindings for one source follow first-binding-wins *)
  let ds = Check.rename_map ~alphabet [ ("I_go", "x"); ("I_go", "y") ] in
  Alcotest.(check bool) "duplicate source is not a merge" false
    (has_code "FSA036" ds)

let test_parse_failure_is_fsa000 () =
  let ds =
    Check.spec
      (parse
         {|component C {
             state s = { a }
             action go: take s(_x) -> put s(missing(_y))
           }
           instance I = C(1) { s = { b } }
           sos nope { use NoSuchModel(1) as M }|})
  in
  (* the sos references an unknown model: elaboration fails, but as a
     diagnostic rather than an exception *)
  Alcotest.(check bool) "FSA000 reported" true (has_code "FSA000" ds)

let test_suggest () =
  Alcotest.(check (option string)) "near miss"
    (Some "V1_send")
    (Check.suggest "V1_snd" [ "V1_send"; "V2_rec" ]);
  Alcotest.(check (option string)) "no wild guesses" None
    (Check.suggest "completely_different" [ "V1_send"; "V2_rec" ])

(* ------------------------------------------------------------------ *)
(* Renderer determinism and golden cleanliness of shipped examples     *)
(* ------------------------------------------------------------------ *)

let spec_dir () =
  List.find_opt Sys.file_exists
    [ "examples/specs"; "../../../examples/specs"; "../../../../examples/specs" ]

let example_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fsa")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let test_examples_clean () =
  match spec_dir () with
  | None -> ()
  | Some dir ->
    List.iter
      (fun path ->
        let ds = Check.spec ~file:path (Parser.parse_file path) in
        List.iter
          (fun d ->
            if d.D.severity <> D.Info then
              Alcotest.failf "%s: unexpected finding %a" path D.pp d)
          ds)
      (example_files dir)

let test_json_deterministic () =
  match spec_dir () with
  | None -> ()
  | Some dir ->
    let render () =
      example_files dir
      |> List.concat_map (fun p -> Check.spec ~file:p (Parser.parse_file p))
      |> D.to_json |> Json.to_string
    in
    let a = render () and b = render () in
    Alcotest.(check string) "byte-identical across runs" a b;
    Alcotest.(check bool) "non-trivial output" true (String.length a > 2)

(* Every bundled spec's findings print as an array that parses back, one
   object per sorted finding with code/severity/message, and the span
   members exactly when the location is real. *)
let test_json_shape () =
  match spec_dir () with
  | None -> ()
  | Some dir ->
    List.iter
      (fun path ->
        let ds = Check.spec ~file:path ~deep:true (Parser.parse_file path) in
        match Json.parse (Json.to_string (D.to_json ds)) with
        | Ok (Json.List elts) when List.length elts = List.length ds ->
          List.iter2
            (fun d j ->
              let has k = Json.member k j <> None in
              Alcotest.(check bool) (path ^ ": code") true
                (Json.member "code" j = Some (Json.Str d.D.code));
              Alcotest.(check bool) (path ^ ": severity and message") true
                (has "severity" && has "message");
              let located =
                match d.D.loc with
                | Some l -> not (Loc.is_dummy l)
                | None -> false
              in
              List.iter
                (fun k ->
                  Alcotest.(check bool) (path ^ ": " ^ k) located (has k))
                [ "line"; "col"; "endLine"; "endCol" ])
            (D.sort ds) elts
        | Ok _ -> Alcotest.failf "%s: not one array element per finding" path
        | Error msg -> Alcotest.failf "%s: %s" path msg)
      (example_files dir)

let test_render_text_underline () =
  let ds =
    Check.spec ~file:"broken.fsa"
      (parse "component C {\n  state s = { a }\n  action go: take s(b) -> put s(b)\n}\ninstance I = C(1) { }")
  in
  let text =
    D.render_text
      ~sources:
        [ ("broken.fsa",
           "component C {\n  state s = { a }\n  action go: take s(b) -> put s(b)\n}\ninstance I = C(1) { }") ]
      ds
  in
  Alcotest.(check bool) "quotes the offending line" true
    (contains ~affix:"take s(b)" text);
  Alcotest.(check bool) "underlines it" true (contains ~affix:"^~" text)

let test_registry_complete () =
  (* every code the analyzer can emit is registered with a description *)
  List.iter
    (fun code ->
      match D.describe code with
      | Some _ -> ()
      | None -> Alcotest.failf "code %s not registered" code)
    [ "FSA000"; "FSA001"; "FSA002"; "FSA003"; "FSA004"; "FSA005"; "FSA006";
      "FSA007"; "FSA010"; "FSA011"; "FSA020"; "FSA021"; "FSA022"; "FSA023";
      "FSA030"; "FSA031"; "FSA032"; "FSA033"; "FSA034"; "FSA035";
      "FSA040"; "FSA041"; "FSA042"; "FSA043"; "FSA044"; "FSA045"; "FSA046";
      "FSA047"; "FSA048";
      "FSA060"; "FSA061"; "FSA062"; "FSA063"; "FSA064"; "FSA065" ];
  (* lint codes map into the registry *)
  List.iter
    (fun w ->
      match D.describe (Fsa_model.Lint.code w) with
      | Some _ -> ()
      | None -> Alcotest.failf "lint code %s not registered" (Fsa_model.Lint.code w))
    [ Fsa_model.Lint.Isolated_action (Fsa_term.Action.make "a");
      Fsa_model.Lint.Unconnected_component "c";
      Fsa_model.Lint.Uninfluenced_output (Fsa_term.Action.make "o") ]

(* [fsa check] is the only front end of the manual-path lint: for every
   sos it must report exactly the FSA030-FSA035 codes [Lint.check] finds,
   at the registry's severity (FSA030/032/034 are errors, and fail the
   run). *)
let lint_codes = [ "FSA030"; "FSA031"; "FSA032"; "FSA033"; "FSA034"; "FSA035" ]
let lint_errors = [ "FSA030"; "FSA032"; "FSA034" ]

let check_lint_correspondence name ast =
  let expected =
    Fsa_spec.Elaborate.sos_list ast
    |> List.concat_map (fun sos ->
           List.map Fsa_model.Lint.code (Fsa_model.Lint.check sos))
    |> List.sort String.compare
  in
  let ds =
    List.filter (fun d -> List.mem d.D.code lint_codes) (Check.spec ast)
  in
  Alcotest.(check (list string)) (name ^ ": lint codes") expected
    (List.sort String.compare (codes ds));
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Fmt.str "%s: %s is an error" name d.D.code)
        (List.mem d.D.code lint_errors)
        (d.D.severity = D.Error))
    ds;
  expected

let test_check_covers_lint () =
  (match spec_dir () with
   | None -> ()
   | Some dir ->
     List.iter
       (fun path -> ignore (check_lint_correspondence path (Parser.parse_file path)))
       (example_files dir));
  (* the bundled specs raise only info-level smells; an isolated action
     raises the error-level ones (FSA034 needs a flow cycle, which no sos
     admits, so its severity is pinned on the registry alone) *)
  let found =
    check_lint_correspondence "degenerate"
      (parse
         {|model M(i) {
             action idle(X_i, a)
             action a(A_i, a)
             action b(B_i, b)
             flow a -> b
           }
           sos degenerate { use M(1) as M1 }|})
  in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " raised") true (List.mem code found))
    [ "FSA030"; "FSA032" ];
  List.iter
    (fun (code, sev, _) ->
      if List.mem code lint_codes then
        Alcotest.(check bool) (code ^ " registry severity")
          (List.mem code lint_errors)
          (sev = D.Error))
    D.registry

let test_werror_promotion () =
  let w = D.warning ~code:"FSA010" "race" in
  let i = D.info ~code:"FSA004" "sink" in
  match D.promote_warnings [ w; i ] with
  | [ w'; i' ] ->
    Alcotest.(check bool) "warning promoted" true (w'.D.severity = D.Error);
    Alcotest.(check bool) "info untouched" true (i'.D.severity = D.Info)
  | _ -> Alcotest.fail "promotion must preserve the list"

let suite =
  [ Alcotest.test_case "dead rule (FSA001)" `Quick test_dead_rule;
    Alcotest.test_case "dead producer chain" `Quick test_dead_producer_chain;
    Alcotest.test_case "unbound put var (FSA002)" `Quick test_unbound_put_variable;
    Alcotest.test_case "unbound guard var (FSA003)" `Quick test_unbound_guard_variable;
    Alcotest.test_case "undeclared component (FSA007)" `Quick test_undeclared_component;
    Alcotest.test_case "unused component (FSA005)" `Quick test_unused_component;
    Alcotest.test_case "consume/consume race (FSA010)" `Quick test_race_consume_consume;
    Alcotest.test_case "consume/read race (FSA011)" `Quick test_race_consume_read;
    Alcotest.test_case "guards suppress races" `Quick test_race_guard_suppression;
    Alcotest.test_case "unknown check action (FSA020)" `Quick test_check_unknown_action;
    Alcotest.test_case "vacuous check (FSA021)" `Quick test_check_vacuous;
    Alcotest.test_case "keep set (FSA022/FSA023)" `Quick test_keep_set;
    Alcotest.test_case "rename map (FSA022/FSA036)" `Quick test_rename_map;
    Alcotest.test_case "elaboration failure (FSA000)" `Quick test_parse_failure_is_fsa000;
    Alcotest.test_case "did-you-mean suggestions" `Quick test_suggest;
    Alcotest.test_case "shipped examples are clean" `Quick test_examples_clean;
    Alcotest.test_case "JSON output deterministic" `Quick test_json_deterministic;
    Alcotest.test_case "JSON output shape" `Quick test_json_shape;
    Alcotest.test_case "text renderer underlines" `Quick test_render_text_underline;
    Alcotest.test_case "code registry complete" `Quick test_registry_complete;
    Alcotest.test_case "check covers every lint finding" `Quick test_check_covers_lint;
    Alcotest.test_case "--werror promotion" `Quick test_werror_promotion ]
