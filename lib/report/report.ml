(* Requirement reports: stable IDs, provenance, traceability, coverage
   and verification tagging over a derived requirement set.

   Everything here is deterministic by construction: items are ordered
   by the canonical requirement order, every list in the output is
   sorted, and no wall-clock reading enters the report — two runs over
   the same model emit byte-identical JSON and Markdown.  The
   run-dependent blocks (settings, pair coverage, graph shape, per-item
   automata) are segregated so [~body_only:true] emission is invariant
   across engine and reduction choices. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Auth = Fsa_requirements.Auth
module Classify = Fsa_requirements.Classify
module Prioritise = Fsa_requirements.Prioritise
module Sos = Fsa_model.Sos
module Component = Fsa_model.Component
module Analysis = Fsa_core.Analysis
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Elaborate = Fsa_spec.Elaborate
module Json = Fsa_json.Json
module Store = Fsa_store.Store

let schema = "fsa-report/1"

(* ------------------------------------------------------------------ *)
(* Verification methods                                                *)
(* ------------------------------------------------------------------ *)

type verification = Test | Analysis | Inspection | Demonstration

let verification_to_string = function
  | Test -> "test"
  | Analysis -> "analysis"
  | Inspection -> "inspection"
  | Demonstration -> "demonstration"

let pp_verification ppf v = Fmt.string ppf (verification_to_string v)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

type origin = {
  og_rule : string;
  og_instance : string option;
  og_component : string option;
  og_action : string option;
}

let origins_of_skeleton (sk : Elaborate.skeleton) =
  List.map
    (fun (lr : Elaborate.located_rule) ->
      let prefix = lr.Elaborate.lr_instance ^ "_" in
      let plen = String.length prefix in
      let name = lr.Elaborate.lr_name in
      let use_case =
        if
          String.length name > plen
          && String.equal (String.sub name 0 plen) prefix
        then String.sub name plen (String.length name - plen)
        else name
      in
      { og_rule = name;
        og_instance = Some lr.Elaborate.lr_instance;
        og_component = Some lr.Elaborate.lr_component;
        og_action = Some use_case })
    sk.Elaborate.sk_rules

let origins_of_rules names =
  List.map
    (fun name ->
      match String.index_opt name '_' with
      | Some i when i > 0 && i < String.length name - 1 ->
        { og_rule = name;
          og_instance = Some (String.sub name 0 i);
          og_component = None;
          og_action = Some (String.sub name (i + 1) (String.length name - i - 1))
        }
      | _ ->
        { og_rule = name;
          og_instance = None;
          og_component = None;
          og_action = None })
    names

type endpoint = {
  ep_action : string;
  ep_instance : string option;
  ep_component : string option;
  ep_use_case : string option;
}

type automaton = { am_states : int; am_transitions : int }

type item = {
  it_id : string;
  it_digest : string;
  it_requirement : Auth.t;
  it_class : Classify.class_;
  it_score : int;
  it_rank : int;
  it_verification : verification;
  it_cause : endpoint;
  it_effect : endpoint;
  it_automaton : automaton option;
}

type pair_coverage = {
  pc_total : int;
  pc_tested : int;
  pc_pruned : int;
  pc_pruned_flow : int;
  pc_dependent : int;
  pc_independent : int;
}

type coverage = {
  cv_actions_total : int;
  cv_actions_covered : int;
  cv_actions_uncovered : string list;
  cv_pairs : pair_coverage;
}

type settings = {
  sg_path : string;
  sg_method : string;
  sg_engine : string;
  sg_reduce : string;
  sg_prune : string;
  sg_max_states : int;
}

type t = {
  r_digest : string;
  r_settings : settings;
  r_items : item list;
  r_actions : string list;
  r_instances : string list;
  r_by_action : (string * string list) list;
  r_by_instance : (string * string list) list;
  r_coverage : coverage;
  r_graph : (int * int) option;
}

(* ------------------------------------------------------------------ *)
(* Shared building blocks                                              *)
(* ------------------------------------------------------------------ *)

(* Identifier digests are content addresses of the canonical,
   location-free requirement rendering — the same requirement keeps the
   same digest across re-derivation, spec reformatting and declaration
   permutation, for the same reason Elaborate.digest_of_spec is stable
   there. *)
let item_digest req = String.sub (Store.digest_hex (Auth.to_string req)) 0 12
let item_id i = Printf.sprintf "SR-%04d" (i + 1)

let classify_verification cls cause effect =
  match cls with
  | Classify.Policy_induced _ -> Analysis
  | Classify.Safety_critical -> (
    match (cause.ep_instance, effect.ep_instance) with
    | Some a, Some b -> if String.equal a b then Demonstration else Test
    | _ -> Inspection)

(* Priority ordering: categorisation first (class weight dominates, as
   in Prioritise.rank), then the risk score, then the canonical
   requirement order as a deterministic tie-break. *)
let rank_items items =
  let weight cls = Prioritise.default_weights.Prioritise.class_weight cls in
  let order =
    List.sort
      (fun (a : item) b ->
        match compare (weight b.it_class) (weight a.it_class) with
        | 0 -> (
          match compare b.it_score a.it_score with
          | 0 -> Auth.compare a.it_requirement b.it_requirement
          | c -> c)
        | c -> c)
      items
  in
  List.map
    (fun (it : item) ->
      let rank =
        match
          List.find_index
            (fun (o : item) -> Auth.equal o.it_requirement it.it_requirement)
            order
        with
        | Some i -> i + 1
        | None -> 0
      in
      { it with it_rank = rank })
    items

let matrix ~universe ~instances items =
  let ids_where pred =
    List.filter_map
      (fun (it : item) -> if pred it then Some it.it_id else None)
      items
  in
  let by_action =
    List.map
      (fun a ->
        ( a,
          ids_where (fun it ->
              String.equal it.it_cause.ep_action a
              || String.equal it.it_effect.ep_action a) ))
      universe
  in
  let by_instance =
    List.map
      (fun i ->
        ( i,
          ids_where (fun it ->
              it.it_cause.ep_instance = Some i
              || it.it_effect.ep_instance = Some i) ))
      instances
  in
  (by_action, by_instance)

let action_coverage ~universe items pairs =
  let covered =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (it : item) -> [ it.it_cause.ep_action; it.it_effect.ep_action ])
         items)
  in
  let uncovered =
    List.filter (fun a -> not (List.mem a covered)) universe
  in
  { cv_actions_total = List.length universe;
    cv_actions_covered = List.length universe - List.length uncovered;
    cv_actions_uncovered = uncovered;
    cv_pairs = pairs }

(* ------------------------------------------------------------------ *)
(* Tool path                                                           *)
(* ------------------------------------------------------------------ *)

(* Map a tool-path endpoint onto a declared functional model through
   the instance/label correspondence of Analysis.crosscheck: prefer
   the sos component named like the elaborated instance, fall back to
   a label that is unique across the whole sos. *)
let map_endpoint sos ep =
  match ep.ep_use_case with
  | None -> None
  | Some label -> (
    let in_component =
      match ep.ep_instance with
      | None -> None
      | Some inst -> (
        match
          List.find_opt
            (fun c -> String.equal (Component.name c) inst)
            (Sos.components sos)
        with
        | None -> None
        | Some c ->
          List.find_opt
            (fun a -> String.equal (Action.label a) label)
            (Component.actions c))
    in
    match in_component with
    | Some _ as r -> r
    | None -> (
      match
        List.filter
          (fun a -> String.equal (Action.label a) label)
          (Sos.all_actions sos)
      with
      | [ a ] -> Some a
      | _ -> None))

(* Classification and score through the first declared functional model
   both endpoints map into.  Requirements that map nowhere stay
   Safety_critical: the APA model carries no policy annotations, so the
   Sect. 4.4 criterion (does the dependence survive the removal of
   policy-induced flows?) degenerates — there is nothing to remove. *)
let assess ~soses req cause effect =
  let rec go = function
    | [] -> (Classify.Safety_critical, 0)
    | sos :: rest -> (
      match (map_endpoint sos cause, map_endpoint sos effect) with
      | Some c, Some e ->
        let mapped =
          Auth.make ~cause:c ~effect:e ~stakeholder:(Auth.stakeholder req)
        in
        let s = Prioritise.score sos mapped in
        (s.Prioritise.s_class, s.Prioritise.s_score)
      | _ -> go rest)
  in
  go soses

let endpoint_of_origin origins a =
  let name = Action.to_string a in
  match
    List.find_opt (fun o -> String.equal o.og_rule (Action.label a)) origins
  with
  | Some o ->
    { ep_action = name;
      ep_instance = o.og_instance;
      ep_component = o.og_component;
      ep_use_case = o.og_action }
  | None ->
    { ep_action = name;
      ep_instance = None;
      ep_component = None;
      ep_use_case = None }

let of_tool ?origins ?(soses = []) ?alphabet ~digest ~settings
    (tr : Analysis.tool_report) =
  let universe =
    List.sort_uniq String.compare
      (match alphabet with
      | Some names -> names
      | None ->
        List.map Action.to_string
          (Action.Set.elements (Lts.alphabet tr.Analysis.t_lts)))
  in
  let origins =
    match origins with Some os -> os | None -> origins_of_rules universe
  in
  let reqs = Auth.normalise tr.Analysis.t_requirements in
  (* Per-item minimal automata are projected from the engine the
     analysis built: its alphabet covers every surviving pair, hence
     every requirement, and reading it never touches [t_lts] (which
     would force a decomposed run's product graph). *)
  let engine =
    match (reqs, tr.Analysis.t_engine) with
    | [], _ -> None
    | _, (Some _ as e) -> e
    | _, None -> invalid_arg "Report.of_tool: requirements without a shared engine"
  in
  let items =
    List.mapi
      (fun i req ->
        let cause = endpoint_of_origin origins (Auth.cause req) in
        let effect = endpoint_of_origin origins (Auth.effect req) in
        let cls, score = assess ~soses req cause effect in
        let automaton =
          Option.map
            (fun eng ->
              let dfa =
                Hom.Shared.minimal_automaton eng ~min_action:(Auth.cause req)
                  ~max_action:(Auth.effect req)
              in
              { am_states = Hom.A.Dfa.nb_states dfa;
                am_transitions = List.length (Hom.A.Dfa.transitions dfa) })
            engine
        in
        { it_id = item_id i;
          it_digest = item_digest req;
          it_requirement = req;
          it_class = cls;
          it_score = score;
          it_rank = 0;
          it_verification = classify_verification cls cause effect;
          it_cause = cause;
          it_effect = effect;
          it_automaton = automaton })
      reqs
  in
  let items = rank_items items in
  let instances =
    List.sort_uniq String.compare
      (List.filter_map (fun o -> o.og_instance)
         (List.filter (fun o -> List.mem o.og_rule universe) origins)
      @ List.concat_map
          (fun (it : item) ->
            Option.to_list it.it_cause.ep_instance
            @ Option.to_list it.it_effect.ep_instance)
          items)
  in
  let by_action, by_instance = matrix ~universe ~instances items in
  let pairs =
    match tr.Analysis.t_timings.Analysis.ph_pairs with
    | [] ->
      (* no per-pair rows (degenerate run): count off the matrix *)
      let flat = Analysis.matrix_pairs tr in
      let total = List.length flat in
      let dependent =
        List.length (List.filter (fun (_, _, d) -> d) flat)
      in
      { pc_total = total;
        pc_tested = total;
        pc_pruned = 0;
        pc_pruned_flow = 0;
        pc_dependent = dependent;
        pc_independent = total - dependent }
    | rows ->
      let total = List.length rows in
      let pruned =
        List.length
          (List.filter (fun p -> p.Analysis.pt_pruned) rows)
      in
      let pruned_flow =
        List.length
          (List.filter
             (fun p ->
               match p.Analysis.pt_pruned_by with
               | Some by -> String.equal by "static-flow"
               | None -> false)
             rows)
      in
      let dependent =
        List.length
          (List.filter (fun (_, _, d) -> d) (Analysis.matrix_pairs tr))
      in
      { pc_total = total;
        pc_tested = total - pruned;
        pc_pruned = pruned;
        pc_pruned_flow = pruned_flow;
        pc_dependent = dependent;
        pc_independent = total - dependent }
  in
  { r_digest = digest;
    r_settings = settings;
    r_items = items;
    r_actions = universe;
    r_instances = instances;
    r_by_action = by_action;
    r_by_instance = by_instance;
    r_coverage = action_coverage ~universe items pairs;
    r_graph =
      Some
        ( tr.Analysis.t_stats.Lts.nb_states,
          tr.Analysis.t_stats.Lts.nb_transitions ) }

(* ------------------------------------------------------------------ *)
(* Manual path                                                         *)
(* ------------------------------------------------------------------ *)

let of_manual ~digest sos (mr : Analysis.manual_report) =
  let comps = Sos.components sos in
  let endpoint a =
    let owner = Sos.owner_of comps a in
    { ep_action = Action.to_string a;
      ep_instance = Option.map Component.name owner;
      ep_component = Option.map Component.name owner;
      ep_use_case = Some (Action.label a) }
  in
  let reqs = Auth.normalise mr.Analysis.m_requirements in
  let items =
    List.mapi
      (fun i req ->
        let cause = endpoint (Auth.cause req) in
        let effect = endpoint (Auth.effect req) in
        let cls =
          match
            List.find_opt
              (fun (r, _) -> Auth.equal r req)
              mr.Analysis.m_classified
          with
          | Some (_, c) -> c
          | None -> Classify.classify sos req
        in
        let score = (Prioritise.score sos req).Prioritise.s_score in
        { it_id = item_id i;
          it_digest = item_digest req;
          it_requirement = req;
          it_class = cls;
          it_score = score;
          it_rank = 0;
          it_verification = classify_verification cls cause effect;
          it_cause = cause;
          it_effect = effect;
          it_automaton = None })
      reqs
  in
  let items = rank_items items in
  let universe =
    List.sort_uniq String.compare
      (List.map Action.to_string (Sos.all_actions sos))
  in
  let instances =
    List.sort_uniq String.compare (List.map Component.name comps)
  in
  let by_action, by_instance = matrix ~universe ~instances items in
  (* the manual path enumerates χ directly — every candidate pair is a
     dependent pair, so the pair coverage is degenerate by design *)
  let chi = List.length mr.Analysis.m_chi in
  let pairs =
    { pc_total = chi;
      pc_tested = chi;
      pc_pruned = 0;
      pc_pruned_flow = 0;
      pc_dependent = chi;
      pc_independent = 0 }
  in
  { r_digest = digest;
    r_settings =
      { sg_path = "manual";
        sg_method = "manual";
        sg_engine = "manual";
        sg_reduce = "none";
        sg_prune = "none";
        sg_max_states = 0 };
    r_items = items;
    r_actions = universe;
    r_instances = instances;
    r_by_action = by_action;
    r_by_instance = by_instance;
    r_coverage = action_coverage ~universe items pairs;
    r_graph = None }

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let class_kind = function
  | Classify.Safety_critical -> "safety-critical"
  | Classify.Policy_induced _ -> "policy-induced"

let class_policies = function
  | Classify.Safety_critical -> []
  | Classify.Policy_induced ps -> List.sort_uniq String.compare ps

let opt_str = function None -> Json.Null | Some s -> Json.Str s

let endpoint_json ep =
  Json.Obj
    [ ("action", Json.Str ep.ep_action);
      ("instance", opt_str ep.ep_instance);
      ("component", opt_str ep.ep_component);
      ("use_case", opt_str ep.ep_use_case) ]

let item_json ~body_only (it : item) =
  let automaton =
    match (body_only, it.it_automaton) with
    | true, _ | _, None -> []
    | false, Some a ->
      [ ( "automaton",
          Json.Obj
            [ ("states", Json.Int a.am_states);
              ("transitions", Json.Int a.am_transitions) ] ) ]
  in
  Json.Obj
    [ ("id", Json.Str it.it_id);
      ("digest", Json.Str it.it_digest);
      ("cause", Json.Str (Action.to_string (Auth.cause it.it_requirement)));
      ("effect", Json.Str (Action.to_string (Auth.effect it.it_requirement)));
      ( "stakeholder",
        Json.Str (Agent.to_string (Auth.stakeholder it.it_requirement)) );
      ("class", Json.Str (class_kind it.it_class));
      ( "policies",
        Json.List
          (List.map (fun p -> Json.Str p) (class_policies it.it_class)) );
      ("score", Json.Int it.it_score);
      ("rank", Json.Int it.it_rank);
      ( "verification",
        Json.Str (verification_to_string it.it_verification) );
      ( "provenance",
        Json.Obj
          ([ ("cause", endpoint_json it.it_cause);
             ("effect", endpoint_json it.it_effect) ]
          @ automaton) ) ]

let ids_json ids = Json.List (List.map (fun i -> Json.Str i) ids)

let to_json ?(body_only = false) r =
  let settings =
    if body_only then []
    else
      [ ( "settings",
          Json.Obj
            [ ("path", Json.Str r.r_settings.sg_path);
              ("method", Json.Str r.r_settings.sg_method);
              ("engine", Json.Str r.r_settings.sg_engine);
              ("reduce", Json.Str r.r_settings.sg_reduce);
              ("prune", Json.Str r.r_settings.sg_prune);
              ("max_states", Json.Int r.r_settings.sg_max_states) ] ) ]
  in
  let cov = r.r_coverage in
  let pair_cov =
    if body_only then []
    else
      [ ( "pairs",
          Json.Obj
            [ ("total", Json.Int cov.cv_pairs.pc_total);
              ("tested", Json.Int cov.cv_pairs.pc_tested);
              ("pruned", Json.Int cov.cv_pairs.pc_pruned);
              ("pruned_flow", Json.Int cov.cv_pairs.pc_pruned_flow);
              ("dependent", Json.Int cov.cv_pairs.pc_dependent);
              ("independent", Json.Int cov.cv_pairs.pc_independent) ] ) ]
  in
  let graph =
    match (body_only, r.r_graph) with
    | true, _ | _, None -> []
    | false, Some (states, transitions) ->
      [ ( "graph",
          Json.Obj
            [ ("states", Json.Int states);
              ("transitions", Json.Int transitions) ] ) ]
  in
  Json.Obj
    ([ ("schema", Json.Str schema); ("digest", Json.Str r.r_digest) ]
    @ settings
    @ [ ( "requirements",
          Json.List (List.map (item_json ~body_only) r.r_items) );
        ( "traceability",
          Json.Obj
            [ ( "actions",
                Json.Obj
                  (List.map (fun (a, ids) -> (a, ids_json ids)) r.r_by_action)
              );
              ( "instances",
                Json.Obj
                  (List.map
                     (fun (i, ids) -> (i, ids_json ids))
                     r.r_by_instance) );
              ( "requirements",
                Json.Obj
                  (List.map
                     (fun (it : item) ->
                       ( it.it_id,
                         Json.Obj
                           [ ( "actions",
                               ids_json
                                 (List.sort_uniq String.compare
                                    [ it.it_cause.ep_action;
                                      it.it_effect.ep_action ]) );
                             ( "instances",
                               ids_json
                                 (List.sort_uniq String.compare
                                    (Option.to_list it.it_cause.ep_instance
                                    @ Option.to_list it.it_effect.ep_instance))
                             ) ] ))
                     r.r_items) ) ] );
        ( "coverage",
          Json.Obj
            ([ ( "actions",
                 Json.Obj
                   [ ("total", Json.Int cov.cv_actions_total);
                     ("covered", Json.Int cov.cv_actions_covered);
                     ( "uncovered",
                       ids_json cov.cv_actions_uncovered ) ] ) ]
            @ pair_cov) ) ]
    @ graph)

let to_json_string ?body_only r = Json.to_string (to_json ?body_only r)

(* ------------------------------------------------------------------ *)
(* Markdown emission                                                   *)
(* ------------------------------------------------------------------ *)

let md_ids = function [] -> "—" | ids -> String.concat ", " ids

let to_markdown ?(body_only = false) r =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# Security requirements report\n\n";
  pf "- model digest: `%s`\n" r.r_digest;
  if not body_only then begin
    pf "- path: %s; method: %s; engine: %s; reduce: %s; prune: %s; \
        max states: %d\n"
      r.r_settings.sg_path r.r_settings.sg_method r.r_settings.sg_engine
      r.r_settings.sg_reduce r.r_settings.sg_prune
      r.r_settings.sg_max_states;
    match r.r_graph with
    | Some (states, transitions) ->
      pf "- reachability graph: %d states, %d transitions\n" states
        transitions
    | None -> ()
  end;
  pf "\n## Requirements (%d)\n\n" (List.length r.r_items);
  if r.r_items <> [] then begin
    pf "| ID | Requirement | Class | Verification | Score | Rank |\n";
    pf "|---|---|---|---|---|---|\n";
    List.iter
      (fun (it : item) ->
        pf "| %s | `%s` | %s | %s | %d | %d |\n" it.it_id
          (Auth.to_string it.it_requirement)
          (class_kind it.it_class)
          (verification_to_string it.it_verification)
          it.it_score it.it_rank)
      r.r_items;
    pf "\n";
    List.iter
      (fun (it : item) ->
        pf "### %s `%s`\n\n" it.it_id it.it_digest;
        pf "- requirement: `%s`\n" (Auth.to_string it.it_requirement);
        let ep role e =
          pf "- %s: `%s`%s%s%s\n" role e.ep_action
            (match e.ep_instance with
            | Some i -> Printf.sprintf " — instance %s" i
            | None -> "")
            (match e.ep_component with
            | Some c -> Printf.sprintf ", component %s" c
            | None -> "")
            (match e.ep_use_case with
            | Some u -> Printf.sprintf ", use case `%s`" u
            | None -> "")
        in
        ep "cause" it.it_cause;
        ep "effect" it.it_effect;
        (match class_policies it.it_class with
        | [] -> ()
        | ps -> pf "- policies: %s\n" (String.concat ", " ps));
        (match (body_only, it.it_automaton) with
        | true, _ | _, None -> ()
        | false, Some a ->
          pf "- minimal automaton: %d states, %d transitions\n" a.am_states
            a.am_transitions);
        pf "\n")
      r.r_items
  end;
  pf "## Traceability\n\n### Actions\n\n";
  pf "| Action | Requirements |\n|---|---|\n";
  List.iter
    (fun (a, ids) -> pf "| `%s` | %s |\n" a (md_ids ids))
    r.r_by_action;
  pf "\n### Instances\n\n| Instance | Requirements |\n|---|---|\n";
  List.iter
    (fun (i, ids) -> pf "| %s | %s |\n" i (md_ids ids))
    r.r_by_instance;
  let cov = r.r_coverage in
  pf "\n## Coverage\n\n";
  pf "- actions: %d/%d covered%s\n" cov.cv_actions_covered
    cov.cv_actions_total
    (match cov.cv_actions_uncovered with
    | [] -> ""
    | us -> Printf.sprintf "; uncovered: %s" (String.concat ", " us));
  if not body_only then
    pf "- pairs: %d total = %d tested + %d pruned%s; %d dependent, %d \
        independent\n"
      cov.cv_pairs.pc_total cov.cv_pairs.pc_tested cov.cv_pairs.pc_pruned
      (if cov.cv_pairs.pc_pruned_flow > 0 then
         Printf.sprintf " (%d static-flow)" cov.cv_pairs.pc_pruned_flow
       else "")
      cov.cv_pairs.pc_dependent cov.cv_pairs.pc_independent;
  Buffer.contents b
