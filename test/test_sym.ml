(* Tests for Fsa_sym and the --reduce pipeline: orbit detection on the
   scenario builders (including guard-broken and initial-broken
   symmetry), canonicalisation consistency, ample-set module
   certification with its full-expansion fallbacks, and the soundness
   gate behind --reduce: on every model that completes un-reduced, the
   reduced analysis derives the identical requirement set, across
   reduction kinds and job counts. *)

module Term = Fsa_term.Term
module Apa = Fsa_apa.Apa
module State = Fsa_apa.Apa.State
module Sym = Fsa_sym.Sym
module Structural = Fsa_struct.Structural
module Lts = Fsa_lts.Lts
module Analysis = Fsa_core.Analysis
module Auth = Fsa_requirements.Auth
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module V = Fsa_vanet.Vehicle_apa

let guard_sig = V.guard_attest

(* ------------------------------------------------------------------ *)
(* Orbit detection                                                     *)
(* ------------------------------------------------------------------ *)

let test_pairs_orbit () =
  let apa = V.pairs ~uniform:true 2 in
  let r = Sym.detect ~guard_sig apa in
  let reducible = List.filter (fun o -> o.Sym.o_reducible) r.Sym.r_orbits in
  Alcotest.(check int) "one reducible orbit" 1 (List.length reducible);
  let o = List.hd reducible in
  Alcotest.(check int) "two blocks" 2 (List.length o.Sym.o_blocks);
  List.iter
    (fun b ->
      Alcotest.(check int)
        "warner/receiver pair moves together" 2
        (List.length b.Sym.b_instances))
    o.Sym.o_blocks;
  Alcotest.(check bool)
    "non-trivial guards were attested" true
    (r.Sym.r_attested_guards <> []);
  Alcotest.(check (float 0.001)) "group order 2!" 2. (Sym.group_order r)

let test_pairs_orbit_three () =
  let r = Sym.detect ~guard_sig (V.pairs ~uniform:true 3) in
  let reducible = List.filter (fun o -> o.Sym.o_reducible) r.Sym.r_orbits in
  Alcotest.(check int) "one reducible orbit" 1 (List.length reducible);
  Alcotest.(check int) "three blocks" 3
    (List.length (List.hd reducible).Sym.o_blocks);
  Alcotest.(check (float 0.001)) "group order 3!" 6. (Sym.group_order r)

let test_guard_breaks_symmetry () =
  (* without attestation the opaque guard closures must break the
     candidate symmetry, not silently pass *)
  let r = Sym.detect (V.pairs ~uniform:true 2) in
  Alcotest.(check int) "no orbits without guard_sig" 0
    (List.length r.Sym.r_orbits);
  Alcotest.(check bool) "rejected for guards" true
    (List.exists (fun j -> j.Sym.j_reason = `Guard) r.Sym.r_rejected)

let test_initial_breaks_symmetry () =
  (* the alternating position layout puts pair 2 at pos3/pos4: same
     rules, different initial contents *)
  let r = Sym.detect ~guard_sig (V.pairs 2) in
  Alcotest.(check int) "no orbits on alternating layout" 0
    (List.length r.Sym.r_orbits);
  Alcotest.(check bool) "rejected for initial contents" true
    (List.exists (fun j -> j.Sym.j_reason = `Initial) r.Sym.r_rejected)

let test_platoon_orbit () =
  let path = "platoon.fsa" in
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let spec = Parser.parse_file (Filename.concat dir path) in
    let sigs = Elaborate.guard_signatures spec in
    let guard_sig n = List.assoc_opt n sigs in
    let apa = Elaborate.apa_of_spec spec in
    let r = Sym.detect ~guard_sig apa in
    let reducible = List.filter (fun o -> o.Sym.o_reducible) r.Sym.r_orbits in
    Alcotest.(check int) "followers form one reducible orbit" 1
      (List.length reducible)

let test_report_json_deterministic () =
  let render () =
    Fsa_json.Json.to_string
      (Sym.report_to_json (Sym.detect ~guard_sig (V.pairs ~uniform:true 2)))
  in
  Alcotest.(check string) "byte-identical" (render ()) (render ())

(* ------------------------------------------------------------------ *)
(* Canonicalisation                                                    *)
(* ------------------------------------------------------------------ *)

let test_canonical_consistency () =
  let apa = V.pairs ~uniform:true 2 in
  let r = Sym.detect ~guard_sig apa in
  let cz = Sym.canonizer r in
  Alcotest.(check bool) "canonizer nontrivial" true (Sym.nontrivial cz);
  (* canonicalise every state of the full graph: each state must map to
     a fixed-point representative via its recorded permutation, and the
     distinct representatives must hit the multiset bound C(14, 2) = 91
     exactly — fewer would conflate orbits, more would split one *)
  let lts = Lts.explore apa in
  let reps = Hashtbl.create 97 in
  for id = 0 to Lts.nb_states lts - 1 do
    let s = Lts.state lts id in
    let rep, p = Sym.canonical cz s in
    Alcotest.(check bool) "rep = p s" true
      (State.equal rep (Sym.Perm.apply_state p s));
    let rep', p' = Sym.canonical cz rep in
    Alcotest.(check bool) "representatives are fixed points" true
      (State.equal rep rep' && Sym.Perm.is_id p');
    Hashtbl.replace reps (State.to_string rep) ()
  done;
  Alcotest.(check int) "91 orbits of 169 states" 91 (Hashtbl.length reps)

let test_quotient_smaller () =
  let apa = V.pairs ~uniform:true 2 in
  let pl = Sym.plan ~guard_sig Sym.Sym apa in
  let full = Lts.explore apa in
  let quot = Analysis.quotient pl apa in
  Alcotest.(check int) "full graph is 13^2" 169 (Lts.nb_states full);
  Alcotest.(check int) "quotient is C(14,2)" 91 (Lts.nb_states quot)

(* ------------------------------------------------------------------ *)
(* Ample sets                                                          *)
(* ------------------------------------------------------------------ *)

let test_por_modules () =
  let apa = V.pairs ~uniform:true 2 in
  let pl = Sym.plan ~guard_sig Sym.Por apa in
  let po = Option.get pl.Sym.pl_por in
  let ms = Sym.por_modules po in
  Alcotest.(check int) "one module per pair" 2 (List.length ms);
  List.iter
    (fun m ->
      Alcotest.(check bool) "pair modules terminate" true m.Sym.m_reducible)
    ms;
  (* the initial state is expanded in full (C2) ... *)
  let succs s = Apa.step apa s in
  let s0 = Apa.initial_state apa in
  Alcotest.(check int) "initial expanded in full"
    (List.length (succs s0))
    (List.length (Sym.ample po s0 (succs s0)));
  (* ... and a state with both modules active is restricted to one *)
  let lts = Lts.explore apa in
  let restricted = ref false in
  for id = 0 to Lts.nb_states lts - 1 do
    let s = Lts.state lts id in
    let full = succs s in
    let amp = Sym.ample po s full in
    Alcotest.(check bool) "ample is a subset" true
      (List.length amp <= List.length full);
    if List.length amp < List.length full then restricted := true
  done;
  Alcotest.(check bool) "some state was restricted" true !restricted

let test_por_fallback_single_module () =
  (* two_vehicles: one radio medium couples everything into a single
     interference module, so C1 never holds and ample stays full *)
  let apa = V.two_vehicles () in
  let pl = Sym.plan ~guard_sig Sym.Por apa in
  Alcotest.(check bool) "no ample hook" true (Sym.ample_fn pl = None)

let test_por_fallback_nonconsuming () =
  (* platoon: every take is a read, no module can be certified
     terminating (C3), so ample falls back to full expansion *)
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let spec = Parser.parse_file (Filename.concat dir "platoon.fsa") in
    let apa = Elaborate.apa_of_spec spec in
    let pl = Sym.plan Sym.Por apa in
    (match pl.Sym.pl_por with
    | None -> Alcotest.fail "expected a por plan"
    | Some po ->
      List.iter
        (fun m ->
          Alcotest.(check bool) "read-only modules not reducible" false
            m.Sym.m_reducible)
        (Sym.por_modules po));
    Alcotest.(check bool) "no ample hook" true (Sym.ample_fn pl = None)

(* ------------------------------------------------------------------ *)
(* Soundness gate: reduced == unreduced requirements                   *)
(* ------------------------------------------------------------------ *)

let kinds = [ Sym.Sym; Sym.Por; Sym.Sym_por ]

let check_equal_requirements name ?guard_sig apa =
  let stakeholder = V.stakeholder in
  let plain = Analysis.tool ~stakeholder apa in
  List.iter
    (fun kind ->
      let pl = Sym.plan ?guard_sig kind apa in
      let red = Analysis.tool ~reduce:pl ~stakeholder apa in
      let label = Printf.sprintf "%s/--reduce %s" name (Sym.kind_to_string kind) in
      Alcotest.(check bool)
        (label ^ ": requirement sets identical")
        true
        (Auth.equal_set plain.Analysis.t_requirements
           red.Analysis.t_requirements);
      Alcotest.(check bool)
        (label ^ ": reduction info present")
        true
        (red.Analysis.t_reduction <> None))
    kinds

let test_reduce_identical_vanet () =
  check_equal_requirements "pairs-2-uniform" ~guard_sig
    (V.pairs ~uniform:true 2);
  check_equal_requirements "pairs-2-alternating" ~guard_sig (V.pairs 2);
  check_equal_requirements "four-vehicles" ~guard_sig (V.four_vehicles ())

let test_reduce_identical_specs () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let analysed = ref 0 in
    List.iter
      (fun path ->
        match Parser.parse_file path with
        | exception _ -> ()
        | spec ->
          (match Elaborate.apa_of_spec spec with
          | exception (Fsa_spec.Loc.Error _ | Invalid_argument _) -> ()
          | apa ->
            incr analysed;
            let sigs = Elaborate.guard_signatures spec in
            let guard_sig n = List.assoc_opt n sigs in
            check_equal_requirements (Filename.basename path) ~guard_sig apa))
      (Test_check.example_files dir);
    Alcotest.(check bool) "at least one spec analysed" true (!analysed > 0)

(* Sym+por on uniform pairs fleets: no fallback, the full run's
   requirements, and at most [bound] representatives.  The 25% bound is
   for EVITA-scale fleets (k >= 3 pairs, 2197 full states); the k = 2
   instance is bounded below by C(14,2)/13^2 = 54% for symmetry alone,
   so it gets 50% of 169. *)
let test_reduce_actually_reduces () =
  List.iter
    (fun (k, bound) ->
      let apa = V.pairs ~uniform:true k in
      let pl = Sym.plan ~guard_sig Sym.Sym_por apa in
      let plain = Analysis.tool ~stakeholder:V.stakeholder apa in
      let red = Analysis.tool ~reduce:pl ~stakeholder:V.stakeholder apa in
      let name = Printf.sprintf "pairs-%d" k in
      let reqs r =
        List.sort String.compare
          (List.map Fsa_requirements.Auth.to_string r.Analysis.t_requirements)
      in
      Alcotest.(check (list string)) (name ^ ": requirements") (reqs plain)
        (reqs red);
      match red.Analysis.t_reduction with
      | None -> Alcotest.fail "expected reduction info"
      | Some ri ->
        Alcotest.(check string) "kind" "sym+por" ri.Analysis.ri_kind;
        Alcotest.(check (option string)) "no fallback" None ri.Analysis.ri_fallback;
        Alcotest.(check bool) "matched fewer states than the full graph" true
          (ri.Analysis.ri_reduced_states < plain.Analysis.t_stats.Lts.nb_states);
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d representatives <= %d" name
             ri.Analysis.ri_reduced_states bound)
          true
          (ri.Analysis.ri_reduced_states <= bound))
    [ (2, 84); (3, 549) ]

let test_reduce_fallback_on_custom_labels () =
  (* a model with a custom label closure must fall back to unreduced
     exploration and say so, not derive from an unsound rewrite *)
  let apa =
    Apa.make
      ~components:
        [ ("a1", Term.Set.of_list [ Term.sym "t" ]);
          ("a2", Term.Set.of_list [ Term.sym "t" ]);
          ("b1", Term.Set.empty);
          ("b2", Term.Set.empty) ]
      ~rules:
        [ Apa.rule "I1_go"
            ~label:(fun _ -> Fsa_term.Action.make "go")
            ~takes:[ Apa.take "a1" (Term.var "x") ]
            ~puts:[ Apa.put "b1" (Term.var "x") ];
          Apa.rule "I2_go"
            ~label:(fun _ -> Fsa_term.Action.make "go")
            ~takes:[ Apa.take "a2" (Term.var "x") ]
            ~puts:[ Apa.put "b2" (Term.var "x") ] ]
      "custom"
  in
  let pl = Sym.plan Sym.Sym apa in
  let red = Analysis.tool ~reduce:pl ~stakeholder:V.stakeholder apa in
  match red.Analysis.t_reduction with
  | None -> Alcotest.fail "expected reduction info"
  | Some ri ->
    Alcotest.(check bool) "fell back" true (ri.Analysis.ri_fallback <> None)

let suite =
  [ Alcotest.test_case "pairs: one orbit of two blocks" `Quick
      test_pairs_orbit;
    Alcotest.test_case "pairs: three blocks, order 6" `Quick
      test_pairs_orbit_three;
    Alcotest.test_case "unattested guards break symmetry" `Quick
      test_guard_breaks_symmetry;
    Alcotest.test_case "initial contents break symmetry" `Quick
      test_initial_breaks_symmetry;
    Alcotest.test_case "platoon followers form an orbit" `Quick
      test_platoon_orbit;
    Alcotest.test_case "report json deterministic" `Quick
      test_report_json_deterministic;
    Alcotest.test_case "canonical form is orbit-constant" `Quick
      test_canonical_consistency;
    Alcotest.test_case "quotient hits the multiset bound" `Quick
      test_quotient_smaller;
    Alcotest.test_case "por modules certified and restricting" `Quick
      test_por_modules;
    Alcotest.test_case "por fallback: single module" `Quick
      test_por_fallback_single_module;
    Alcotest.test_case "por fallback: non-consuming rules" `Quick
      test_por_fallback_nonconsuming;
    Alcotest.test_case "reduced == unreduced on vanet builders" `Quick
      test_reduce_identical_vanet;
    Alcotest.test_case "reduced == unreduced on example specs" `Quick
      test_reduce_identical_specs;
    Alcotest.test_case "sym+por actually reduces pairs-2" `Quick
      test_reduce_actually_reduces;
    Alcotest.test_case "custom labels fall back unreduced" `Quick
      test_reduce_fallback_on_custom_labels ]
