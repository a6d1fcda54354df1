(* Tests for the dependence engine: the tool path's matrix and
   requirement set against the per-pair oracle across every bundled
   example spec (x --reduce kind x method), the on-the-fly
   early-decision pass, projected minimal automata, the quotient-cache
   hooks at the analysis level, and the engine-versioned store keys at
   the server level (pre-engine entries must never replay as
   shared-pass results). *)

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
module Json = Fsa_store.Json
module Store = Fsa_store.Store
module V = Fsa_vanet.Vehicle_apa

let render r = Fmt.str "%a" Analysis.pp_tool_report r

(* ------------------------------------------------------------------ *)
(* Equivalence with the per-pair oracle                                *)
(* ------------------------------------------------------------------ *)

let meth_name = function
  | Analysis.Direct -> "direct"
  | Analysis.Abstract -> "abstract"

let pair_strings pairs =
  List.sort compare
    (List.map
       (fun (mn, mx, d) -> (Action.to_string mn, Action.to_string mx, d))
       pairs)

(* The ground truth: every (min, max) pair of the unreduced graph, each
   tested on its own by {!Analysis.dependence} ([Hom.depends_abstract]
   or [Lts.depends_on]), and the requirements those verdicts give. *)
let oracle ~meth ~stakeholder lts =
  let set f = Action.Set.elements (f lts) in
  let pairs =
    List.concat_map
      (fun mx ->
        List.map
          (fun mn ->
            ( mn,
              mx,
              Analysis.dependence ~meth lts ~min_action:mn ~max_action:mx ))
          (set Lts.minima))
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

(* One oracle per (model, method), computed on the unreduced graph: the
   reductions must not change the matrix, so every run of the tool path
   compares against the same reference, pruned pairs included. *)
let check_matches_oracle name ?guard_sig ?flow apa =
  let stakeholder = V.stakeholder in
  let lts = Lts.explore ~max_states:1_000_000 apa in
  List.iter
    (fun meth ->
      let pairs, requirements = oracle ~meth ~stakeholder lts in
      List.iter
        (fun kind ->
          let reduce = Option.map (fun k -> Sym.plan ?guard_sig k apa) kind in
          let r = Analysis.tool ~meth ?flow ?reduce ~stakeholder apa in
          let label =
            Printf.sprintf "%s/%s/--reduce %s/flow %b" name (meth_name meth)
              (match kind with None -> "none" | Some k -> Sym.kind_to_string k)
              (flow <> None)
          in
          Alcotest.(check (list (triple string string bool)))
            (label ^ ": matrix = per-pair oracle")
            pairs
            (pair_strings (Analysis.matrix_pairs r));
          Alcotest.(check bool)
            (label ^ ": requirements = per-pair oracle")
            true
            (Auth.equal_set requirements r.Analysis.t_requirements))
        [ None; Some Sym.Sym; Some Sym.Sym_por ])
    [ Analysis.Abstract; Analysis.Direct ]

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
    Alcotest.(check bool) "fresh build" false s.Analysis.sh_cached;
    Alcotest.(check bool) "quotient has states" true (s.Analysis.sh_dfa_states > 0);
    Alcotest.(check bool)
      "alphabet covers minima and maxima" true
      (s.Analysis.sh_alphabet_size
      = List.length r.Analysis.t_minima + List.length r.Analysis.t_maxima);
    Alcotest.(check bool)
      "direct method builds no engine" true
      ((Analysis.tool ~meth:Analysis.Direct ~stakeholder:V.stakeholder
          (V.four_vehicles ()))
         .Analysis.t_timings.Analysis.ph_shared
      = None)

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
  (* a cached engine (quotient injected, graph never walked) must give
     the same verdicts, with the early-decision pass skipped *)
  let e' =
    Hom.Shared.build ~dfa:(Hom.Shared.dfa e)
      ~alphabet:(Hom.Shared.alphabet e) ~minima ~maxima lts
  in
  Alcotest.(check bool) "injected quotient reports cached" true
    (Hom.Shared.cached e');
  Alcotest.(check int) "no early pass on a cached engine" 0
    (Hom.Shared.early_count e');
  List.iter
    (fun mn ->
      List.iter
        (fun mx ->
          let expected =
            Analysis.dependence ~meth:Analysis.Abstract lts ~min_action:mn
              ~max_action:mx
          in
          Alcotest.(check bool)
            (Fmt.str "verdict (%a, %a)" Action.pp mn Action.pp mx)
            expected
            (Hom.Shared.depends e ~min_action:mn ~max_action:mx);
          Alcotest.(check bool)
            (Fmt.str "cached verdict (%a, %a)" Action.pp mn Action.pp mx)
            expected
            (Hom.Shared.depends e' ~min_action:mn ~max_action:mx))
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
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Quotient-cache hooks (analysis level)                               *)
(* ------------------------------------------------------------------ *)

let test_quotient_cache_hooks () =
  let apa = V.four_vehicles () in
  let stakeholder = V.stakeholder in
  let stored = ref None in
  let finds = ref 0 and stores = ref 0 in
  let qc =
    { Analysis.qc_find =
        (fun ~alphabet:_ ->
          incr finds;
          !stored);
      qc_store =
        (fun ~alphabet:_ dfa ->
          incr stores;
          stored := Some dfa) }
  in
  let r1 = Analysis.tool ~quotient_cache:qc ~stakeholder apa in
  Alcotest.(check int) "miss consults the cache" 1 !finds;
  Alcotest.(check int) "fresh quotient is stored" 1 !stores;
  (match r1.Analysis.t_timings.Analysis.ph_shared with
  | Some s -> Alcotest.(check bool) "first run is uncached" false s.Analysis.sh_cached
  | None -> Alcotest.fail "expected a shared timing section");
  let r2 = Analysis.tool ~quotient_cache:qc ~stakeholder apa in
  Alcotest.(check int) "hit consults the cache" 2 !finds;
  Alcotest.(check int) "hit is not re-stored" 1 !stores;
  (match r2.Analysis.t_timings.Analysis.ph_shared with
  | Some s -> Alcotest.(check bool) "second run is cached" true s.Analysis.sh_cached
  | None -> Alcotest.fail "expected a shared timing section");
  Alcotest.(check string) "reports byte-identical across hit and miss"
    (render r1) (render r2)

(* ------------------------------------------------------------------ *)
(* Store integration (server level)                                    *)
(* ------------------------------------------------------------------ *)

let parse s = Parser.parse_string s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let entries_of_kind dir kind =
  let affix = Printf.sprintf "\"kind\":%S" kind in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         if contains ~affix (read_file path) then Some path else None)

let shared_cached o =
  match
    Option.bind
      (Option.bind (Json.member "timings" o.Exec.oc_result)
         (Json.member "shared"))
      (Json.member "cached")
  with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail "result has no timings.shared.cached member"

let with_store f () =
  let dir = Test_store.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> Test_store.rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()) dir)

(* The default keys are pinned — stores written by earlier releases keep
   hitting — and direct-method outcomes live under their own ["engine"]
   param, so the two methods never replay for each other. *)
let test_engine_cache_keys =
  with_store (fun st _dir ->
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
            "pinned entry" o.Exec.oc_output;
          let d1 = Exec.run cfg ~op ~meth:Analysis.Direct ~file:"a.fsa" spec in
          Alcotest.(check bool)
            (kind ^ ": abstract entry does not serve direct")
            false d1.Exec.oc_cached;
          let d2 = Exec.run cfg ~op ~meth:Analysis.Direct ~file:"a.fsa" spec in
          Alcotest.(check bool) (kind ^ ": direct outcome replays") true
            d2.Exec.oc_cached)
        [ Exec.Requirements; Exec.Report ])

(* An entry written under the pre-engine key format (no ["engine"]
   param — what earlier releases produced) must never replay as a
   shared-pass result. *)
let test_pre_engine_entry_not_replayed =
  with_store (fun st _dir ->
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

(* The shared quotient is persisted under kind ["quotient"] and reused
   when the outcome entry is gone; corrupt or bogus quotient entries
   are silent misses with identical verdicts. *)
let test_quotient_reuse_and_corruption =
  with_store (fun st dir ->
      let cfg = Server.config ~store:st () in
      let spec = parse Test_store.spec_text in
      let run () = Exec.run cfg ~op:Exec.Requirements ~file:"a.fsa" spec in
      let delete_outcome () =
        match entries_of_kind dir "requirements" with
        | [ p ] -> Sys.remove p
        | ps ->
          Alcotest.failf "expected one requirements entry, found %d"
            (List.length ps)
      in
      let quotient_entry () =
        match entries_of_kind dir "quotient" with
        | [ q ] -> q
        | qs ->
          Alcotest.failf "expected one quotient entry, found %d"
            (List.length qs)
      in
      let o1 = run () in
      Alcotest.(check bool) "first run computes" false o1.Exec.oc_cached;
      Alcotest.(check bool) "first run builds the quotient fresh" false
        (shared_cached o1);
      ignore (quotient_entry ());
      (* outcome gone, quotient kept: the engine is rebuilt from the
         store without re-walking the graph *)
      delete_outcome ();
      let o2 = run () in
      Alcotest.(check bool) "outcome is a miss" false o2.Exec.oc_cached;
      Alcotest.(check bool) "quotient is a hit" true (shared_cached o2);
      Alcotest.(check bool) "requirements identical off the cached quotient"
        true
        (Json.member "requirements" o2.Exec.oc_result
        = Json.member "requirements" o1.Exec.oc_result);
      Alcotest.(check string) "rendered report identical" o1.Exec.oc_output
        o2.Exec.oc_output;
      (* truncated entry bytes: fails the store checksum, so a miss *)
      delete_outcome ();
      (let q = quotient_entry () in
       let s = read_file q in
       write_file q (String.sub s 0 (String.length s / 2)));
      let o3 = run () in
      Alcotest.(check bool) "corrupt quotient entry is a miss" false
        (shared_cached o3);
      Alcotest.(check string) "verdicts unchanged after corruption"
        o1.Exec.oc_output o3.Exec.oc_output;
      (* well-formed entry, bogus payload: the DFA decoder must reject
         it rather than trust the bytes *)
      delete_outcome ();
      (let q = quotient_entry () in
       let key = Filename.remove_extension (Filename.basename q) in
       Store.add st
         { Store.e_key = key;
           e_kind = "quotient";
           e_result = Json.Str "not a dfa";
           e_output = "";
           e_exit = 0 });
      let o4 = run () in
      Alcotest.(check bool) "bogus quotient payload is a miss" false
        (shared_cached o4);
      Alcotest.(check string) "verdicts unchanged after bogus payload"
        o1.Exec.oc_output o4.Exec.oc_output)

let suite =
  [ Alcotest.test_case "shared = legacy (vanet builders)" `Quick
      test_shared_identical_vanet;
    Alcotest.test_case "shared = legacy (example specs)" `Slow
      test_shared_identical_specs;
    Alcotest.test_case "shared timing section" `Quick
      test_shared_timing_section;
    Alcotest.test_case "engine verdicts = per-pair" `Quick
      test_engine_verdicts_match_per_pair;
    Alcotest.test_case "projected minimal automata" `Quick
      test_engine_minimal_automata;
    Alcotest.test_case "foreign pair rejected" `Quick
      test_engine_rejects_foreign_pair;
    Alcotest.test_case "quotient cache hooks" `Quick
      test_quotient_cache_hooks;
    Alcotest.test_case "engine-versioned cache keys" `Quick
      test_engine_cache_keys;
    Alcotest.test_case "pre-engine entry never replays" `Quick
      test_pre_engine_entry_not_replayed;
    Alcotest.test_case "quotient reuse and corruption" `Quick
      test_quotient_reuse_and_corruption ]
