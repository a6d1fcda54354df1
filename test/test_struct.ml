(* Tests for Fsa_struct: exact kernel computation, invariant-derived
   bounds, siphon/trap enumeration and deadlock verdicts on hand-built
   nets, the FSA041 unboundedness certificate, and the golden property
   behind the static pruning an ample-set reduction forces on: no pair
   the skeleton proves independent ever tests dependent, and pruning
   runs derive identical requirement sets on every shipped example. *)

module Term = Fsa_term.Term
module Structural = Fsa_struct.Structural
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Analysis = Fsa_core.Analysis
module Auth = Fsa_requirements.Auth
module Metrics = Fsa_obs.Metrics
module Json = Fsa_json.Json

let const name = Term.app name []

let vec = Alcotest.(list (array int))
let sets = Alcotest.(list (list string))

(* ------------------------------------------------------------------ *)
(* Kernel (exact rational Gaussian elimination)                        *)
(* ------------------------------------------------------------------ *)

let test_kernel_dependent_rows () =
  (* row 3 = row 1 + row 2; kernel is spanned by (1, -1, 1) *)
  let m = [| [| 1; 1; 0 |]; [| 0; 1; 1 |]; [| 1; 2; 1 |] |] in
  Alcotest.check vec "kernel basis" [ [| 1; -1; 1 |] ] (Structural.kernel m)

let test_kernel_rational_pivot () =
  (* elimination passes through the pivot 3/2; the basis vector must
     still come out integral and minimal: 2x+3y = 0, 5z = 0 *)
  let m = [| [| 2; 3; 0 |]; [| 0; 0; 5 |]; [| 2; 3; 5 |] |] in
  Alcotest.check vec "kernel basis" [ [| 3; -2; 0 |] ] (Structural.kernel m)

let test_kernel_full_rank () =
  let m = [| [| 1; 0; 0 |]; [| 0; 2; 0 |]; [| 0; 0; 3 |] |] in
  Alcotest.check vec "trivial kernel" [] (Structural.kernel m)

let test_kernel_zero_matrix () =
  let m = [| [| 0; 0 |]; [| 0; 0 |] |] in
  Alcotest.check vec "whole space" [ [| 1; 0 |]; [| 0; 1 |] ]
    (Structural.kernel m)

(* ------------------------------------------------------------------ *)
(* Hand-built nets                                                     *)
(* ------------------------------------------------------------------ *)

let place ?(initial = []) name =
  { Structural.pl_name = name;
    pl_initial = Term.Set.of_list (List.map const initial) }

let rule_sig ?(guarded = false) name ~takes ~puts =
  { Structural.rs_name = name;
    rs_takes = List.map (fun (c, t) -> (c, const t, true)) takes;
    rs_puts = List.map (fun (c, t) -> (c, const t)) puts;
    rs_guarded = guarded }

(* A -> B transfer: tokens are conserved, so (1,1) is a P-invariant and
   both components are bounded by the initial marking. *)
let transfer_net =
  { Structural.n_places = [ place ~initial:[ "a" ] "A"; place "B" ];
    n_rules = [ rule_sig "r" ~takes:[ ("A", "a") ] ~puts:[ ("B", "a") ] ] }

let test_transfer_invariant () =
  let inc = Structural.incidence transfer_net in
  Alcotest.check vec "P-invariant" [ [| 1; 1 |] ]
    (Structural.p_invariants inc);
  Alcotest.(check (list (pair string int)))
    "both bounded by 1"
    [ ("A", 1); ("B", 1) ]
    (Structural.bounds transfer_net inc);
  Alcotest.(check (list (pair string int)))
    "nothing uncovered" []
    (Structural.potentially_unbounded transfer_net inc)

let test_transfer_siphon_deadlock () =
  (* {A} is a siphon with no trap inside: draining it kills the net *)
  let s, complete = Structural.siphons transfer_net in
  Alcotest.(check bool) "enumeration complete" true complete;
  Alcotest.check sets "minimal siphons" [ [ "A" ] ] s;
  Alcotest.(check (list string)) "no trap inside" []
    (Structural.max_trap_in transfer_net [ "A" ]);
  match Structural.deadlock transfer_net with
  | Structural.May_deadlock bad ->
    Alcotest.check sets "offending siphon" [ [ "A" ] ] bad
  | _ -> Alcotest.fail "expected May_deadlock"

(* A self-loop take A / put A: {A} is both a siphon and a trap, and it
   is initially marked, so Commoner's condition holds. *)
let cycle_net =
  { Structural.n_places = [ place ~initial:[ "a" ] "A" ];
    n_rules = [ rule_sig "r" ~takes:[ ("A", "a") ] ~puts:[ ("A", "a") ] ] }

let test_cycle_deadlock_free () =
  Alcotest.(check bool) "siphon" true (Structural.is_siphon cycle_net [ "A" ]);
  Alcotest.(check bool) "trap" true (Structural.is_trap cycle_net [ "A" ]);
  Alcotest.(check (list string)) "max trap" [ "A" ]
    (Structural.max_trap_in cycle_net [ "A" ]);
  match Structural.deadlock cycle_net with
  | Structural.Deadlock_free_skeleton -> ()
  | _ -> Alcotest.fail "expected Deadlock_free_skeleton"

let test_reads_do_not_count () =
  (* a read arc must not appear in the incidence matrix *)
  let net =
    { Structural.n_places = [ place ~initial:[ "a" ] "A"; place "B" ];
      n_rules =
        [ { Structural.rs_name = "r";
            rs_takes = [ ("A", const "a", false) ];
            rs_puts = [ ("B", const "b") ];
            rs_guarded = false } ] }
  in
  let inc = Structural.incidence net in
  Alcotest.(check int) "read row is zero" 0 inc.Structural.i_matrix.(0).(0);
  Alcotest.(check int) "put row counts" 1 inc.Structural.i_matrix.(1).(0)

let test_budget_truncation () =
  let s, complete = Structural.siphons ~budget:1 transfer_net in
  Alcotest.(check bool) "truncated" false complete;
  ignore s;
  match Structural.deadlock ~budget:1 transfer_net with
  | Structural.Unknown_budget -> ()
  | _ -> Alcotest.fail "expected Unknown_budget"

(* ------------------------------------------------------------------ *)
(* Static independence                                                 *)
(* ------------------------------------------------------------------ *)

let test_independence () =
  (* r1 feeds r2 through B; r3 is off in its own component *)
  let net =
    { Structural.n_places =
        [ place ~initial:[ "a" ] "A"; place "B"; place ~initial:[ "c" ] "C" ];
      n_rules =
        [ rule_sig "r1" ~takes:[ ("A", "a") ] ~puts:[ ("B", "b") ];
          rule_sig "r2" ~takes:[ ("B", "b") ] ~puts:[];
          rule_sig "r3" ~takes:[ ("C", "c") ] ~puts:[ ("C", "c") ] ] }
  in
  Alcotest.(check bool) "r1 flows into r2" false
    (Structural.independent net ~min:"r1" ~max:"r2");
  Alcotest.(check bool) "r2 does not flow into r1" true
    (Structural.independent net ~min:"r2" ~max:"r1");
  Alcotest.(check bool) "r3 is isolated" true
    (Structural.independent net ~min:"r1" ~max:"r3");
  Alcotest.(check bool) "a rule depends on itself" false
    (Structural.independent net ~min:"r3" ~max:"r3");
  Alcotest.(check bool) "unknown rules stay dependent" false
    (Structural.independent net ~min:"r1" ~max:"nope")

(* ------------------------------------------------------------------ *)
(* FSA041: certified infinite state space, without exploration         *)
(* ------------------------------------------------------------------ *)

let counter_spec =
  "component Counter {\n\
  \  state ctr = { z }\n\
  \  action inc: take ctr(_x) -> put ctr(s(_x))\n\
   }\n\
   instance C1 = Counter(1)\n"

let test_fsa041_certificate () =
  let module D = Fsa_check.Diagnostic in
  let ds =
    Fsa_check.Check.spec ~file:"counter.fsa" ~deep:true
      (Parser.parse_string counter_spec)
  in
  match List.find_opt (fun d -> d.D.code = "FSA041") ds with
  | None -> Alcotest.fail "expected an FSA041 certificate"
  | Some d ->
    Alcotest.(check bool) "it is a warning" true (d.D.severity = D.Warning)

let test_deep_examples_stay_info () =
  (* the shipped examples must never trip a structural warning: the CI
     gate runs check --deep --werror over them.  leaky_gateway.fsa is
     the exception by design — it exists to trip the FSA060
     confidentiality leak, which test_flow pins and CI asserts *)
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    List.iter
      (fun path ->
        if Filename.basename path <> "leaky_gateway.fsa" then
          let module D = Fsa_check.Diagnostic in
          Fsa_check.Check.spec ~file:path ~deep:true (Parser.parse_file path)
          |> List.iter (fun d ->
                 if d.D.severity <> D.Info then
                   Alcotest.failf "%s: unexpected %a" path D.pp d))
      (Test_check.example_files dir)

(* ------------------------------------------------------------------ *)
(* Golden property: pruning never changes the derived requirements      *)
(* ------------------------------------------------------------------ *)

let test_prune_identical_on_examples () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let stakeholder = Fsa_vanet.Vehicle_apa.stakeholder in
    let analysed = ref 0 in
    List.iter
      (fun path ->
        let spec = Parser.parse_file path in
        match Elaborate.apa_of_spec spec with
        | exception (Fsa_spec.Loc.Error _ | Invalid_argument _) ->
          () (* model-only spec, no instances *)
        | apa ->
          incr analysed;
          let plain = Analysis.tool ~stakeholder apa in
          let net = Structural.of_apa apa in
          List.iter
            (fun (mn, mx, dep) ->
              let mn = Fsa_term.Action.label mn
              and mx = Fsa_term.Action.label mx in
              if mn <> mx && Structural.independent net ~min:mn ~max:mx then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: statically independent (%s, %s)" path
                     mn mx)
                  false dep)
            (Analysis.matrix_pairs plain);
          let sigs = Elaborate.guard_signatures spec in
          let por =
            Fsa_sym.Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs)
              Fsa_sym.Sym.Por apa
          in
          let pruned = Analysis.tool ~reduce:por ~stakeholder apa in
          Alcotest.(check bool)
            (path ^ ": requirement sets identical")
            true
            (Auth.equal_set plain.Analysis.t_requirements
               pruned.Analysis.t_requirements))
      (Test_check.example_files dir);
    Alcotest.(check bool) "at least one spec analysed" true (!analysed > 0)

(* On the EVITA fleet the ample-set reduction applies, so the skeleton
   pruner runs and settles cross-module pairs without a test. *)
let test_prune_actually_skips () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir "evita_fleet.fsa" in
    if Sys.file_exists path then begin
      let apa = Elaborate.apa_of_spec (Parser.parse_file path) in
      Metrics.set_enabled true;
      Metrics.reset ();
      ignore
        (Analysis.tool
           ~reduce:(Fsa_sym.Sym.plan Fsa_sym.Sym.Por apa)
           ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder apa);
      let skipped = Metrics.counter_value Structural.pairs_pruned in
      Metrics.set_enabled false;
      Metrics.reset ();
      Alcotest.(check bool) "pairs were pruned" true (skipped > 0)
    end

(* ------------------------------------------------------------------ *)
(* Report plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let test_report_json_deterministic () =
  let render () =
    Json.to_string (Structural.report_to_json (Structural.analyse transfer_net))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical" a b;
  let siphons =
    Option.bind (Result.to_option (Json.parse a)) (Json.member "siphons")
  in
  Alcotest.(check bool) "mentions the siphon" true
    (siphons = Some Json.(List [ List [ Str "A" ] ]))

let suite =
  [ Alcotest.test_case "kernel: dependent rows" `Quick
      test_kernel_dependent_rows;
    Alcotest.test_case "kernel: rational pivot" `Quick
      test_kernel_rational_pivot;
    Alcotest.test_case "kernel: full rank" `Quick test_kernel_full_rank;
    Alcotest.test_case "kernel: zero matrix" `Quick test_kernel_zero_matrix;
    Alcotest.test_case "transfer net invariant and bounds" `Quick
      test_transfer_invariant;
    Alcotest.test_case "transfer net siphon deadlock" `Quick
      test_transfer_siphon_deadlock;
    Alcotest.test_case "cycle net deadlock free" `Quick
      test_cycle_deadlock_free;
    Alcotest.test_case "reads do not count" `Quick test_reads_do_not_count;
    Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
    Alcotest.test_case "static independence" `Quick test_independence;
    Alcotest.test_case "FSA041 certificate" `Quick test_fsa041_certificate;
    Alcotest.test_case "deep pass on examples stays info" `Quick
      test_deep_examples_stay_info;
    Alcotest.test_case "pruning identical on examples" `Quick
      test_prune_identical_on_examples;
    Alcotest.test_case "pruning actually skips pairs" `Quick
      test_prune_actually_skips;
    Alcotest.test_case "report json deterministic" `Quick
      test_report_json_deterministic ]
