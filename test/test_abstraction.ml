(* Tests for the dependence engine: the tool path's matrix and
   requirement set against both per-pair oracles across every bundled
   example spec (x --reduce kind), the on-the-fly
   early-decision pass, projected minimal automata, the report's reuse
   of the analysis engine, and the engine-versioned store keys at the
   server level (pre-engine entries must never replay as shared-pass
   results). *)

module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Sym = Fsa_sym.Sym
module Analysis = Fsa_core.Analysis
module Auth = Fsa_requirements.Auth
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Server = Fsa_server.Server
module Exec = Fsa_server.Server.Exec
module Json = Fsa_json.Json
module Store = Fsa_store.Store
module V = Fsa_vanet.Vehicle_apa

(* ------------------------------------------------------------------ *)
(* Equivalence with the per-pair oracle                                *)
(* ------------------------------------------------------------------ *)

let pair_strings pairs =
  List.sort compare
    (List.map
       (fun (mn, mx, d) -> (Action.to_string mn, Action.to_string mx, d))
       pairs)

(* The per-pair oracles: abstraction to the pair alone, and the BFS. *)
let oracles =
  [ ("abstract", fun lts mn mx -> Hom.depends_abstract lts ~min_action:mn ~max_action:mx);
    ("direct", fun lts mn mx -> Lts.depends_on lts ~max_action:mx ~min_action:mn) ]

(* The ground truth: every (min, max) pair of the unreduced graph, each
   tested on its own by [depends], and the requirements those verdicts
   give. *)
let oracle depends ~stakeholder lts =
  let set f = Action.Set.elements (f lts) in
  let pairs =
    List.concat_map
      (fun mx ->
        List.map (fun mn -> (mn, mx, depends lts mn mx)) (set Lts.minima))
      (set Lts.maxima)
  in
  let requirements =
    List.filter_map
      (fun (mn, mx, d) ->
        if d then
          Some (Auth.make ~cause:mn ~effect:mx ~stakeholder:(stakeholder mx))
        else None)
      pairs
    |> Auth.normalise
  in
  (pair_strings pairs, requirements)

(* Each oracle is computed once per model, on the unreduced graph: the
   reductions must not change the matrix, so every run of the tool path
   compares against the same references, pruned pairs included. *)
let check_matches_oracle name ?guard_sig ?flow apa =
  let stakeholder = V.stakeholder in
  let lts = Lts.explore ~max_states:1_000_000 apa in
  let references =
    List.map (fun (oname, depends) -> (oname, oracle depends ~stakeholder lts)) oracles
  in
  List.iter
    (fun kind ->
      let reduce = Option.map (fun k -> Sym.plan ?guard_sig k apa) kind in
      let r = Analysis.tool ?flow ?reduce ~stakeholder apa in
      List.iter
        (fun (oname, (pairs, requirements)) ->
          let label =
            Printf.sprintf "%s/--reduce %s/flow %b/%s" name
              (match kind with None -> "none" | Some k -> Sym.kind_to_string k)
              (flow <> None) oname
          in
          Alcotest.(check (list (triple string string bool)))
            (label ^ ": matrix = per-pair oracle")
            pairs
            (pair_strings (Analysis.matrix_pairs r));
          Alcotest.(check bool)
            (label ^ ": requirements = per-pair oracle")
            true
            (Auth.equal_set requirements r.Analysis.t_requirements))
        references)
    [ None; Some Sym.Sym; Some Sym.Sym_por ]

let test_shared_identical_vanet () =
  check_matches_oracle "two-vehicles" ~guard_sig:V.guard_attest
    (V.two_vehicles ());
  check_matches_oracle "four-vehicles" ~guard_sig:V.guard_attest
    (V.four_vehicles ())

(* Every bundled spec that elaborates instances, with its guard
   signatures; [f] gets the file name, the spec and the guard lookup. *)
let iter_example_specs f =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let analysed = ref 0 in
    List.iter
      (fun path ->
        match Parser.parse_file path with
        | exception _ -> ()
        | spec -> (
          match Elaborate.apa_of_spec spec with
          | exception (Fsa_spec.Loc.Error _ | Invalid_argument _) -> ()
          | apa ->
            incr analysed;
            let sigs = Elaborate.guard_signatures spec in
            f (Filename.basename path) spec apa ~guard_sig:(fun n ->
                List.assoc_opt n sigs)))
      (Test_check.example_files dir);
    Alcotest.(check bool) "at least one spec analysed" true (!analysed > 0)

let test_shared_identical_specs () =
  iter_example_specs (fun name _spec apa ~guard_sig ->
      check_matches_oracle name ~guard_sig apa)

(* The shared engine must actually answer the pairs: its timing section
   is present and covers every minimum and maximum. *)
let test_shared_timing_section () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  match r.Analysis.t_timings.Analysis.ph_shared with
  | None -> Alcotest.fail "expected a shared timing section"
  | Some s ->
    Alcotest.(check bool) "quotient has states" true (s.Analysis.sh_dfa_states > 0);
    Alcotest.(check bool)
      "alphabet covers minima and maxima" true
      (s.Analysis.sh_alphabet_size
      = List.length r.Analysis.t_minima + List.length r.Analysis.t_maxima)

(* A report on a decomposed spec (four_vehicles: two modules) reads its
   per-item automata off the analysis engine, and a requirements
   outcome builds its summary from the composed counts: neither
   explores the product graph. *)
let test_product_unexplored () =
  let module R = Fsa_report.Report in
  let apa = V.four_vehicles () in
  let r = Analysis.tool ~stakeholder:V.stakeholder apa in
  Alcotest.(check bool) "has requirements" true (r.Analysis.t_requirements <> []);
  let rpt =
    R.of_tool ~alphabet:(Apa.rule_names apa) ~digest:"four_vehicles"
      ~settings:
        { R.sg_path = "tool";
          sg_method = "abstract";
          sg_engine = "shared-v1";
          sg_reduce = "none";
          sg_prune = "none";
          sg_max_states = 1_000_000 }
      r
  in
  Alcotest.(check bool) "every item has an automaton" true
    (List.for_all (fun it -> it.R.it_automaton <> None) rpt.R.r_items);
  Alcotest.(check bool) "the product graph was not explored" false
    (Lts.is_explored r.Analysis.t_lts);
  Alcotest.(check bool) "requirements without an engine are refused" true
    (match
       R.of_tool ~alphabet:(Apa.rule_names apa) ~digest:"four_vehicles"
         ~settings:rpt.R.r_settings
         { r with Analysis.t_engine = None }
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let module Metrics = Fsa_obs.Metrics in
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let spec = Parser.parse_file (Filename.concat dir "four_vehicles.fsa") in
    let cfg = Server.config ~stakeholder:V.stakeholder () in
    List.iter
      (fun op ->
        Metrics.reset ();
        Metrics.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled false;
            Metrics.reset ())
        @@ fun () ->
        ignore (Exec.run cfg ~op ~cache:false ~file:"four_vehicles.fsa" spec);
        Alcotest.(check int)
          (Exec.op_to_string op ^ ": 2 x 13 module states explored, no product")
          26
          (List.assoc "lts.states_explored" (Metrics.counters ())))
      [ Exec.Report; Exec.Requirements ]

(* ------------------------------------------------------------------ *)
(* The engine itself: verdicts, projection, early decisions            *)
(* ------------------------------------------------------------------ *)

let engine_of lts minima maxima =
  let alphabet =
    Action.Set.union (Action.Set.of_list minima) (Action.Set.of_list maxima)
  in
  Hom.Shared.build ~alphabet ~minima ~maxima lts

let test_engine_verdicts_match_per_pair () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  let lts = r.Analysis.t_lts in
  let minima = r.Analysis.t_minima and maxima = r.Analysis.t_maxima in
  let e = engine_of lts minima maxima in
  List.iter
    (fun mn ->
      List.iter
        (fun mx ->
          let expected = Hom.depends_abstract lts ~min_action:mn ~max_action:mx in
          Alcotest.(check bool)
            (Fmt.str "verdict (%a, %a)" Action.pp mn Action.pp mx)
            expected
            (Hom.Shared.depends e ~min_action:mn ~max_action:mx))
        maxima)
    minima

let test_engine_minimal_automata () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  let lts = r.Analysis.t_lts in
  let minima = r.Analysis.t_minima and maxima = r.Analysis.t_maxima in
  let e = engine_of lts minima maxima in
  List.iter
    (fun mn ->
      List.iter
        (fun mx ->
          let shared = Hom.Shared.minimal_automaton e ~min_action:mn ~max_action:mx in
          let legacy = Hom.minimal_automaton (Hom.preserve [ mn; mx ]) lts in
          Alcotest.(check bool)
            (Fmt.str "isomorphic (%a, %a)" Action.pp mn Action.pp mx)
            true
            (Hom.A.Dfa.isomorphic shared legacy);
          (* the exported artefact: canonical renderings byte-identical *)
          Alcotest.(check string)
            (Fmt.str "canonical dot (%a, %a)" Action.pp mn Action.pp mx)
            (Hom.A.Dfa.dot (Hom.A.Dfa.canonicalize legacy))
            (Hom.A.Dfa.dot (Hom.A.Dfa.canonicalize shared)))
        maxima)
    minima

(* four_vehicles is two modules: the analysis composes two module
   engines, which must answer what one engine built on the product
   graph answers — verdicts, minimal automata (cross-module pairs
   included), alphabet, early count — and whose shuffled DFA is the
   product engine's, up to isomorphism. *)
let test_composite_engine () =
  let apa = V.four_vehicles () in
  let r = Analysis.tool ~stakeholder:V.stakeholder apa in
  let minima = r.Analysis.t_minima and maxima = r.Analysis.t_maxima in
  let composite = Option.get r.Analysis.t_engine in
  let product = engine_of (Lts.explore apa) minima maxima in
  Alcotest.(check bool) "the product graph was not explored" false
    (Lts.is_explored r.Analysis.t_lts);
  Alcotest.(check bool) "alphabet" true
    (Action.Set.equal (Hom.Shared.alphabet composite) (Hom.Shared.alphabet product));
  Alcotest.(check int) "early count" (Hom.Shared.early_count product)
    (Hom.Shared.early_count composite);
  Alcotest.(check int) "dfa_states without the product"
    (Hom.A.Dfa.nb_states (Hom.Shared.dfa product))
    (Hom.Shared.dfa_states composite);
  Alcotest.(check bool) "shuffled dfa isomorphic" true
    (Hom.A.Dfa.isomorphic (Hom.Shared.dfa composite) (Hom.Shared.dfa product));
  List.iter
    (fun mn ->
      List.iter
        (fun mx ->
          let pair = Fmt.str "(%a, %a)" Action.pp mn Action.pp mx in
          Alcotest.(check bool) ("verdict " ^ pair)
            (Hom.Shared.depends product ~min_action:mn ~max_action:mx)
            (Hom.Shared.depends composite ~min_action:mn ~max_action:mx);
          let dot e =
            Hom.A.Dfa.dot
              (Hom.A.Dfa.canonicalize
                 (Hom.Shared.minimal_automaton e ~min_action:mn ~max_action:mx))
          in
          Alcotest.(check string) ("minimal automaton " ^ pair) (dot product)
            (dot composite))
        maxima)
    minima

let test_engine_rejects_foreign_pair () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  let e = engine_of r.Analysis.t_lts r.Analysis.t_minima r.Analysis.t_maxima in
  let foreign = Action.make "not_in_alphabet" in
  Alcotest.(check bool) "pair outside the alphabet raises" true
    (match
       Hom.Shared.depends e ~min_action:foreign
         ~max_action:(List.hd r.Analysis.t_maxima)
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let module Metrics = Fsa_obs.Metrics in
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let spec = Parser.parse_file (Filename.concat dir "four_vehicles.fsa") in
    let cfg = Server.config ~stakeholder:V.stakeholder () in
    List.iter
      (fun op ->
        Metrics.reset ();
        Metrics.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled false;
            Metrics.reset ())
        @@ fun () ->
        ignore (Exec.run cfg ~op ~cache:false ~file:"four_vehicles.fsa" spec);
        Alcotest.(check int)
          (Exec.op_to_string op ^ ": 2 x 13 module states explored, no product")
          26
          (List.assoc "lts.states_explored" (Metrics.counters ())))
      [ Exec.Report; Exec.Requirements ]

(* ------------------------------------------------------------------ *)
(* Store integration (server level)                                    *)
(* ------------------------------------------------------------------ *)

let parse s = Parser.parse_string s

let with_store f () =
  let dir = Test_store.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> Test_store.rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()))

(* The default keys are pinned — stores written by earlier releases keep
   hitting. *)
let test_engine_cache_keys =
  with_store (fun st ->
      let cfg = Server.config ~store:st () in
      let spec = parse Test_store.spec_text in
      let digest = Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec in
      List.iter
        (fun op ->
          let kind = Exec.op_to_string op in
          Store.add st
            { Store.e_key =
                Store.cache_key ~digest ~kind
                  ~params:
                    [ ("max_states", "1000000");
                      ("method", "abstract");
                      ("engine", "shared-v1");
                      ("flow", "none") ];
              e_kind = kind;
              e_result = Json.Obj [];
              e_output = "pinned entry";
              e_exit = 0 };
          let o = Exec.run cfg ~op ~file:"a.fsa" spec in
          Alcotest.(check bool) (kind ^ ": default key hits") true
            o.Exec.oc_cached;
          Alcotest.(check string) (kind ^ ": pinned entry replays")
            "pinned entry" o.Exec.oc_output)
        [ Exec.Requirements; Exec.Report ])

(* An entry written under the pre-engine key format (no ["engine"]
   param — what earlier releases produced) must never replay as a
   shared-pass result. *)
let test_pre_engine_entry_not_replayed =
  with_store (fun st ->
      let spec = parse Test_store.spec_text in
      let digest = Elaborate.digest_of_spec ~parts:[ `Apa ] spec in
      let stale_key =
        Store.cache_key ~digest ~kind:"requirements"
          ~params:[ ("max_states", "1000000"); ("method", "abstract") ]
      in
      Store.add st
        { Store.e_key = stale_key;
          e_kind = "requirements";
          e_result = Json.Obj [];
          e_output = "stale pre-engine entry";
          e_exit = 0 };
      let cfg = Server.config ~store:st () in
      let o = Exec.run cfg ~op:Exec.Requirements ~file:"a.fsa" spec in
      Alcotest.(check bool) "stale entry is not replayed" false o.Exec.oc_cached;
      Alcotest.(check bool) "fresh report computed" false
        (String.equal o.Exec.oc_output "stale pre-engine entry"))

let suite =
  [ Alcotest.test_case "shared = legacy (vanet builders)" `Quick
      test_shared_identical_vanet;
    Alcotest.test_case "shared = legacy (example specs)" `Slow
      test_shared_identical_specs;
    Alcotest.test_case "shared timing section" `Quick
      test_shared_timing_section;
    Alcotest.test_case "ops leave the product unexplored" `Quick
      test_product_unexplored;
    Alcotest.test_case "engine verdicts = per-pair" `Quick
      test_engine_verdicts_match_per_pair;
    Alcotest.test_case "projected minimal automata" `Quick
      test_engine_minimal_automata;
    Alcotest.test_case "composite engine = product engine" `Quick
      test_composite_engine;
    Alcotest.test_case "foreign pair rejected" `Quick
      test_engine_rejects_foreign_pair;
    Alcotest.test_case "engine-versioned cache keys" `Quick
      test_engine_cache_keys;
    Alcotest.test_case "pre-engine entry never replays" `Quick
      test_pre_engine_entry_not_replayed ]
