(* The functional security analysis methodology — the paper's primary
   contribution, as a library facade over the substrates.

   Two analysis paths produce the set of authenticity requirements of a
   system of systems:

   - the *manual* path (Sect. 4): functional model -> partial order zeta*
     -> restriction chi to (minima x maxima) -> auth(x, y, stakeholder(y));

   - the *tool* path (Sect. 5): APA model -> reachability graph ->
     minima/maxima identification -> per-pair functional dependence test
     (directly on the graph, or by abstraction with an alphabetic
     homomorphism and inspection of the minimal automaton).

   Both paths are implemented and can be cross-validated against each
   other via a label correspondence. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Sos = Fsa_model.Sos
module Auth = Fsa_requirements.Auth
module Derive = Fsa_requirements.Derive
module Classify = Fsa_requirements.Classify
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom

let log_src = Logs.Src.create "fsa.core" ~doc:"analysis pipeline phases"

module Log = (val Logs.src_log log_src)

module Span = Fsa_obs.Span

(* ------------------------------------------------------------------ *)
(* Manual path                                                         *)
(* ------------------------------------------------------------------ *)

type manual_report = {
  m_sos : Sos.t;
  m_stats : Sos.stats;
  m_boundary : Sos.boundary;
  m_chi : (Action.t * Action.t) list;
  m_requirements : Auth.t list;
  m_classified : (Auth.t * Classify.class_) list;
}

let manual ?(stakeholder = Derive.default_stakeholder) sos =
  Span.with_ ~cat:"core" "manual" @@ fun () ->
  let poset = Span.with_ ~cat:"core" "manual.poset" (fun () -> Sos.poset sos) in
  let requirements =
    Span.with_ ~cat:"core" "manual.derive" (fun () ->
        Derive.of_sos ~stakeholder sos)
  in
  let classified =
    Span.with_ ~cat:"core" "manual.classify" (fun () ->
        Classify.classify_all sos requirements)
  in
  Log.debug (fun m ->
      m "manual path %s: %d requirements" (Sos.name sos)
        (List.length requirements));
  { m_sos = sos;
    m_stats = Sos.stats sos;
    m_boundary = Sos.boundary sos;
    m_chi = Fsa_model.Action_graph.P.chi poset;
    m_requirements = requirements;
    m_classified = classified }

let pp_manual_report ppf r =
  Fmt.pf ppf
    "@[<v>== manual functional security analysis: %s ==@,\
     model: %a@,\
     incoming boundary actions: @[%a@]@,\
     outgoing boundary actions: @[%a@]@,\
     requirements:@,%a@]"
    (Sos.name r.m_sos) Sos.pp_stats r.m_stats
    Fmt.(list ~sep:comma Action.pp)
    r.m_boundary.Sos.incoming
    Fmt.(list ~sep:comma Action.pp)
    r.m_boundary.Sos.outgoing
    Fmt.(list ~sep:cut (fun ppf rc -> Fmt.pf ppf "- %a" Classify.pp_classified rc))
    r.m_classified

(* ------------------------------------------------------------------ *)
(* Tool path                                                           *)
(* ------------------------------------------------------------------ *)

(* Wall-clock time of one (min, max) dependence test: the verdict off
   the shared quotient (whose erase/determinise/minimise cost is paid
   once, in [shared_timing]). *)
type pair_timing = {
  pt_min : Action.t;
  pt_max : Action.t;
  pt_pruned : bool;
  pt_pruned_by : string option;
      (* ["static"] (skeleton reachability) or ["static-flow"]
         (guard-refined flow graph); [None] when tested *)
  pt_compare_ns : int64;
}

(* The shared engine's one-off cost and shape. *)
type shared_timing = {
  sh_alphabet_size : int;
  sh_dfa_states : int;
  sh_early_pairs : int;  (** pairs decided during the single pass *)
  sh_erase_ns : int64;
  sh_determinise_ns : int64;
  sh_minimise_ns : int64;
  sh_early_ns : int64;
}

type phase_timings = {
  ph_explore_ns : int64;
  ph_min_max_ns : int64;
  ph_matrix_ns : int64;
  ph_derive_ns : int64;
  ph_pairs : pair_timing list;
  ph_shared : shared_timing option;
}

(* What --reduce actually did: the size of the reduced exploration (the
   states and transitions that underwent rule matching), the order of
   the detected symmetry group, and — when the plan could not be applied
   soundly — why the run fell back to unreduced exploration. *)
type reduction_info = {
  ri_kind : string;  (** ["sym"], ["por"] or ["sym+por"] *)
  ri_reduced_states : int;
  ri_reduced_transitions : int;
  ri_group_order : float;
  ri_fallback : string option;
}

type tool_report = {
  t_lts : Lts.t;
  t_stats : Lts.stats;
  t_minima : Action.t list;
  t_maxima : Action.t list;
  t_matrix : (Action.t * (Action.t * bool) list) list;
  t_requirements : Auth.t list;
  t_timings : phase_timings;
  t_reduction : reduction_info option;
  t_engine : Hom.Shared.engine option;
}

module Structural = Fsa_struct.Structural
module Sym = Fsa_sym.Sym
module Apa = Fsa_apa.Apa

(* Static dependence pruning, forced on by an ample-set reduction (see
   [tool]).  [prune mn mx] answers [true] only when it is sound to skip
   the dependence test and record "independent": the LTS must be
   labelled by rule names (the default labelling — an action with an
   actor, arguments or a label outside the rule names disables pruning
   for the whole run), and the token-flow graph of the net skeleton
   must admit no path from [mn]'s rule to [mx]'s rule.  Then no firing
   of [mx] can consume or read (transitively) anything [mn] produced:
   deleting [mn]'s firings and their downward flow closure from any run
   leaves a valid run still containing [mx], so the functional
   dependence test is negative by construction and pruning cannot
   change the result.

   [indep] is the skeleton's flow-independence matrix, which the
   reduction plan carries for its ample-set modules. *)
let default_labelled_rules apa =
  List.for_all (fun r -> r.Apa.r_default_label) (Apa.rules apa)

let rule_name_labelled apa lts =
  let rule_names = Apa.rule_names apa in
  default_labelled_rules apa
  || Action.Set.for_all
       (fun a ->
         Action.equal a (Action.make (Action.label a))
         && List.mem (Action.label a) rule_names)
       (Lts.alphabet lts)

let static_pruner indep apa lts =
  if not (rule_name_labelled apa lts) then fun _ _ -> false
  else
    fun mn mx ->
      not (Action.equal mn mx)
      && Lazy.force indep (Action.label mn) (Action.label mx)

let c_pairs_pruned = Structural.pairs_pruned

module Flow = Fsa_flow.Flow

(* Flow pruning ([--prune-flow]), the pruner a caller switches on: the
   same soundness shape as {!static_pruner} — rule-name labelling
   required, reachability over a token-flow graph — but the graph is
   the guard-refined one of {!Fsa_flow.Flow}, a subgraph of the
   skeleton's, so it can only prune more pairs, never fewer, and the
   argument carries over verbatim (see the soundness note in
   [lib/flow/flow.mli]). *)
let flow_pruner flow apa lts =
  if not (rule_name_labelled apa lts) then fun _ _ -> false
  else
    fun mn mx ->
      (not (Action.equal mn mx))
      && Flow.independent flow ~min:(Action.label mn) ~max:(Action.label mx)

(* ------------------------------------------------------------------ *)
(* Reduced exploration (--reduce)                                      *)
(* ------------------------------------------------------------------ *)

module Stbl = Hashtbl.Make (struct
  type t = Apa.State.t

  let equal = Apa.State.equal
  let hash = Apa.State.hash
end)

let reduction_hooks pl =
  { Lts.rd_canon = Option.value (Sym.canon_fn pl) ~default:Fun.id;
    rd_ample = Option.value (Sym.ample_fn pl) ~default:(fun _ succs -> succs) }

let quotient ?(max_states = 1_000_000) ?progress pl apa =
  Lts.explore ~max_states ~reduce:(reduction_hooks pl) ?progress apa

(* ------------------------------------------------------------------ *)
(* Modules (DESIGN.md §14)                                             *)
(* ------------------------------------------------------------------ *)

(* The APA as a product of independent sub-APAs.  A module is a
   connected component of "shares a state component" over the rules'
   neighbourhoods: rules of different modules touch disjoint state, so
   they only interleave and the reachability graph is the asynchronous
   product of the module graphs.  Decomposing needs the default
   rule-name labelling, which keeps the module alphabets disjoint;
   custom labels, like an APA whose rules all meet, give one module —
   the APA itself.

   Shared neighbourhoods, not interference ({!Structural.interferes}):
   two put-only rules commute, but the union of their puts merges
   product states, so the product of their graphs is not the APA's. *)
let module_rules apa =
  let rules = Apa.rules apa in
  (* union-find over rule indices; a root is its module's first rule *)
  let parent = Array.init (List.length rules) Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let first_user = Hashtbl.create 16 in
  List.iteri
    (fun i r ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt first_user c with
          | Some j ->
            let ri = find i and rj = find j in
            parent.(max ri rj) <- min ri rj
          | None -> Hashtbl.add first_user c i)
        (Apa.neighbourhood r))
    rules;
  let roots = List.sort_uniq Int.compare (List.init (Array.length parent) find) in
  List.map (fun root -> List.filteri (fun i _ -> find i = root) rules) roots

type modules = {
  md_graphs : Lts.t array;  (* one per module; the APA's own graph if one *)
  md_of : Action.t -> int;  (* the module whose graph carries an action *)
}

let one_module lts = { md_graphs = [| lts |]; md_of = (fun _ -> 0) }

(* [a * b], saturating: the product bound must not wrap. *)
let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

(* Explore each group of rules alone, as a sub-APA over all the
   components. *)
let explore_each ?(max_states = 1_000_000) ?progress apa groups =
  List.map
    (fun rules ->
      Lts.explore ~max_states ?progress
        (Apa.make ~components:(Apa.components apa) ~rules (Apa.name apa)))
    groups

(* Explore each module alone.  The product graph has Π nᵢ states, so
   [max_states] bounds that product, not the modules: the run fails
   iff exploring the APA itself would. *)
let explore_modules ?(max_states = 1_000_000) ?progress apa =
  match module_rules apa with
  | ([] | [ _ ]) -> one_module (Lts.explore ~max_states ?progress apa)
  | _ when not (default_labelled_rules apa) ->
    one_module (Lts.explore ~max_states ?progress apa)
  | mods ->
    let index = Hashtbl.create 64 in
    List.iteri
      (fun i rules -> List.iter (fun r -> Hashtbl.replace index r.Apa.r_name i) rules)
      mods;
    let graphs = explore_each ~max_states ?progress apa mods in
    Log.debug (fun m ->
        m "%s: %d modules of %a states" (Apa.name apa) (List.length graphs)
          Fmt.(list ~sep:(any " x ") int)
          (List.map Lts.nb_states graphs));
    if List.fold_left (fun n g -> sat_mul n (Lts.nb_states g)) 1 graphs > max_states
    then raise (Lts.State_space_too_large max_states);
    { md_graphs = Array.of_list graphs;
      md_of = (fun a -> Hashtbl.find index (Action.label a)) }

let union f graphs =
  List.fold_left (fun acc g -> Action.Set.union acc (f g)) Action.Set.empty graphs

(* The product's minima: the actions leaving its initial state, i.e.
   leaving some module's. *)
let modules_minima md = union Lts.minima (Array.to_list md.md_graphs)

(* The product's maxima: a product state is dead iff every module's
   component is, and every combination of module states is reachable,
   so an action enters a dead product state iff it enters a dead state
   of its module and every other module can die. *)
let modules_maxima md =
  if Array.exists (fun g -> Lts.deadlocks g = []) md.md_graphs then
    Action.Set.empty
  else union Lts.maxima (Array.to_list md.md_graphs)

(* The full maxima under an ample-set reduction [po], from the reduced
   graph [lts].  The reduction keeps only some interleavings of the
   interference modules ({!Sym.por_modules}), which are finer than the
   modules above when put-only rules share a component; the same
   argument applies to them:
   - the reduced graph has a dead state iff every interference module
     can locally die (a reduced dead state is a genuine product dead
     state, and conversely termination of the chosen modules drives
     every module to a local dead end when it has one);
   - then an action enters a dead state iff it enters a dead state of
     its interference module's local graph.
   Each interference module is explored alone under [max_states]: the
   local graphs are tiny, and no product bound applies, since the
   reduced graph is what stands for the product here. *)
let por_module_maxima ?max_states po apa lts =
  if Lts.deadlocks lts = [] then Action.Set.empty
  else
    let rules = Apa.rules apa in
    Sym.por_modules po
    |> List.map (fun m ->
           List.filter (fun r -> List.mem r.Apa.r_name m.Sym.m_rules) rules)
    |> explore_each ?max_states apa
    |> union Lts.maxima

(* States Π nᵢ, transitions Σ tᵢ·Π_{j≠i} nⱼ (a module's transition, at
   every combination of the others' states), dead states Π dᵢ, labels
   Σ lᵢ (disjoint alphabets). *)
let modules_stats md =
  let ss = Array.map Lts.stats md.md_graphs in
  let prod f = Array.fold_left (fun n s -> n * f s) 1 ss in
  let states = prod (fun s -> s.Lts.nb_states) in
  { Lts.nb_states = states;
    nb_transitions =
      Array.fold_left
        (fun n s -> n + (s.Lts.nb_transitions * (states / s.Lts.nb_states)))
        0 ss;
    nb_deadlocks = prod (fun s -> s.Lts.nb_deadlocks);
    nb_labels = Array.fold_left (fun n s -> n + s.Lts.nb_labels) 0 ss }

(* Unfold a symmetry quotient back to the full reachability graph.

   Quotient exploration shrinks the expensive part — rule matching runs
   only on canonical representatives — but the dependence tests need the
   full graph with per-instance labels: testing over the quotient with
   its raw labels is unsound, because one representative path can mix
   transitions of different concrete instances.  The product BFS below
   enumerates pairs [(rep, sigma)] denoting the concrete state
   [sigma rep]: the successors of each representative are computed (and
   ample-filtered) once, then replayed under [sigma] for every concrete
   state of the orbit — the concrete label of a raw successor [(a, t)]
   is [sigma a], and the successor's own pair is [(rep', sigma . inv
   tau)] where [canonical t = (rep', tau)].  Per concrete edge the work
   is a permutation application, not a rule match.  BFS order is
   deterministic, so the rebuilt graph is reproducible (though its state
   numbering may differ from an unreduced exploration's; all set-level
   results — minima, maxima, dependence, requirements — coincide).

   [max_states] bounds the representatives (the states actually
   matched); the concrete graph may legitimately be [group_order] times
   larger, so it gets a proportionally larger safety cap. *)
let unfolded ?(max_states = 1_000_000) pl apa =
  let cz =
    match pl.Sym.pl_canonizer with
    | Some cz -> cz
    | None -> invalid_arg "Analysis.unfolded: plan has no canonizer"
  in
  if not (default_labelled_rules apa) then
    raise
      (Sym.Unsupported
         "model has custom action labels; the recorded renamings only \
          rewrite default rule-name labels");
  let ample = Option.value (Sym.ample_fn pl) ~default:(fun _ succs -> succs) in
  let full_cap =
    let order = Sym.group_order pl.Sym.pl_report in
    let scale = if Float.is_integer order && order <= 4096. then
        int_of_float order else 4096
    in
    max max_states (max_states * scale)
  in
  let succs = Stbl.create 1024 in
  let succ_of q =
    match Stbl.find_opt succs q with
    | Some l -> l
    | None ->
      if Stbl.length succs >= max_states then
        raise (Lts.State_space_too_large max_states);
      let l =
        List.map (fun (_, a, t) -> (a, t)) (ample q (Apa.step apa q))
      in
      Stbl.add succs q l;
      l
  in
  let index = Stbl.create 4096 in
  let rev_states = ref [] in
  let nb = ref 0 in
  let rev_edges = ref [] in
  let nb_edges = ref 0 in
  let queue = Queue.create () in
  let intern s q sigma =
    match Stbl.find_opt index s with
    | Some id -> id
    | None ->
      if !nb >= full_cap then raise (Lts.State_space_too_large full_cap);
      let id = !nb in
      incr nb;
      Stbl.add index s id;
      rev_states := s :: !rev_states;
      Queue.add (id, q, sigma) queue;
      id
  in
  let s0 = Apa.initial_state apa in
  ignore (intern s0 s0 Sym.Perm.id);
  while not (Queue.is_empty queue) do
    let id, q, sigma = Queue.pop queue in
    List.iter
      (fun (a, t) ->
        let label = Sym.Perm.apply_action sigma a in
        let rep, tau = Sym.canonical cz t in
        let sigma' = Sym.Perm.compose sigma (Sym.Perm.inverse tau) in
        let s' = Sym.Perm.apply_state sigma' rep in
        let id' = intern s' rep sigma' in
        incr nb_edges;
        rev_edges := { Lts.t_src = id; t_label = label; t_dst = id' } :: !rev_edges)
      (succ_of q)
  done;
  let states = Array.of_list (List.rev !rev_states) in
  let edges = List.rev !rev_edges in
  let reps = Stbl.length succs in
  let rep_transitions =
    Stbl.fold (fun _ l acc -> acc + List.length l) succs 0
  in
  (Lts.of_graph ~name:(Apa.name apa) ~states edges, reps, rep_transitions)

let tool ?(max_states = 1_000_000) ?flow ?reduce ?progress ~stakeholder apa =
  Span.with_ ~cat:"core" "tool" @@ fun () ->
  let timed f =
    let t0 = Span.now_ns () in
    let v = f () in
    (v, Int64.sub (Span.now_ns ()) t0)
  in
  (* The requirement pipeline needs concrete per-instance labels, so a
     symmetry plan is applied as quotient-then-unfold; that in turn
     needs the default rule-name labelling the recorded renamings can
     rewrite.  Models with custom labels fall back to unreduced
     exploration (recorded in [ri_fallback]). *)
  let eff_reduce, fallback =
    match reduce with
    | None -> (None, None)
    | Some pl when default_labelled_rules apa -> (Some pl, None)
    | Some pl ->
      let reason =
        "model has custom action labels; explored unreduced"
      in
      Log.warn (fun m ->
          m "--reduce %s: %s" (Sym.kind_to_string pl.Sym.pl_kind) reason);
      (None, Some reason)
  in
  let quotient_size = ref None in
  (* Unreduced, the graph is decided module by module; the product
     graph is explored only if a consumer of [t_lts] asks for it. *)
  let (lts, md), ph_explore_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.explore" (fun () ->
        match eff_reduce with
        | Some pl when Sym.canon_fn pl <> None ->
          let lts, reps, rep_transitions = unfolded ~max_states pl apa in
          quotient_size := Some (reps, rep_transitions);
          (lts, one_module lts)
        | Some pl ->
          (* partial order only: the reduced graph is analysed as-is *)
          let lts = quotient ~max_states ?progress pl apa in
          (lts, one_module lts)
        | None -> (
          let md = explore_modules ~max_states ?progress apa in
          match md.md_graphs with
          | [| lts |] -> (lts, md)
          | _ -> (Lts.explore_lazy ~max_states ?progress apa, md)))
  in
  (* An active ample-set reduction drops interleavings of rules from
     different interference modules, with two consequences downstream:
     maxima come from the interference modules' own graphs
     ({!por_module_maxima}) — a reduced graph's dead states are entered
     only by whichever module the scheduler ran last — and the
     dependence test on the reduced graph could spuriously report
     cross-module pairs as dependent, so static pruning is forced on —
     flow-independent pairs are settled by the (sound) structural
     argument in both the reduced and the unreduced run, and same-module
     pairs project to the same module-local runs either way. *)
  let por_active =
    match eff_reduce with
    | Some pl -> Sym.ample_fn pl <> None
    | None -> false
  in
  let (minima, maxima), ph_min_max_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.min_max" (fun () ->
        let maxima =
          match eff_reduce with
          | Some { Sym.pl_por = Some po; _ } when por_active ->
            por_module_maxima ~max_states po apa lts
          | _ -> modules_maxima md
        in
        (Action.Set.elements (modules_minima md), Action.Set.elements maxima))
  in
  let struct_pruned =
    match eff_reduce with
    | Some pl when por_active -> static_pruner pl.Sym.pl_indep apa lts
    | _ -> fun _ _ -> false
  in
  let flow_pruned =
    match flow with
    | Some g -> flow_pruner g apa lts
    | None -> fun _ _ -> false
  in
  (* Attribution order matters only for reporting: a pair both pruners
     decide is credited to the skeleton argument POR forced on. *)
  let pruned_by mn mx =
    if struct_pruned mn mx then Some "static"
    else if flow_pruned mn mx then Some "static-flow"
    else None
  in
  let pruned mn mx = pruned_by mn mx <> None in
  let pair_timings = ref [] in
  let engine = ref None in
  let matrix, ph_matrix_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.dependence_matrix" @@ fun () ->
    (* One shared engine per module: erase once to the module's share
       of the union alphabet of all surviving pairs, determinise/minimise
       that image, compose the modules' engines, and read every verdict
       off the result.  Pruned pairs contribute nothing to the alphabet:
       their verdict never touches the automaton. *)
    let surviving_minima =
      List.filter (fun mn -> List.exists (fun mx -> not (pruned mn mx)) maxima) minima
    and surviving_maxima =
      List.filter (fun mx -> List.exists (fun mn -> not (pruned mn mx)) minima) maxima
    in
    let build i lts =
      let mine = List.filter (fun a -> md.md_of a = i) in
      let minima = mine surviving_minima and maxima = mine surviving_maxima in
      let alphabet =
        Action.Set.union (Action.Set.of_list minima) (Action.Set.of_list maxima)
      in
      if Action.Set.is_empty alphabet then None
      else Some (Hom.Shared.build ~alphabet ~minima ~maxima lts)
    in
    (engine :=
       match List.filter_map Fun.id (Array.to_list (Array.mapi build md.md_graphs)) with
       | [] -> None
       | [ e ] -> Some e
       | es ->
         Some
           (Hom.Shared.compose ~minima:surviving_minima
              ~maxima:surviving_maxima es));
    let decide mn mx =
      match !engine with
      | Some e -> Hom.Shared.depends e ~min_action:mn ~max_action:mx
      | None -> assert false (* every pair was pruned *)
    in
    List.map
      (fun mx ->
        (mx,
         List.map
           (fun mn ->
             let row pruned_by compare_ns =
               pair_timings :=
                 { pt_min = mn;
                   pt_max = mx;
                   pt_pruned = pruned_by <> None;
                   pt_pruned_by = pruned_by;
                   pt_compare_ns = compare_ns }
                 :: !pair_timings
             in
             match pruned_by mn mx with
             | Some by ->
               (if String.equal by "static-flow" then
                  Fsa_obs.Metrics.incr Flow.pairs_pruned
                else Fsa_obs.Metrics.incr c_pairs_pruned);
               row (Some by) 0L;
               (mn, false)
             | None ->
               let dep, ns = timed (fun () -> decide mn mx) in
               row None ns;
               (mn, dep))
           minima))
      maxima
  in
  let requirements, ph_derive_ns =
    timed @@ fun () ->
    Span.with_ ~cat:"core" "tool.derive" @@ fun () ->
    List.concat_map
      (fun (mx, row) ->
        List.filter_map
          (fun (mn, dep) ->
            if dep then
              Some (Auth.make ~cause:mn ~effect:mx ~stakeholder:(stakeholder mx))
            else None)
          row)
      matrix
    |> Auth.normalise
  in
  let t_stats = modules_stats md in
  Log.debug (fun m ->
      m "tool path %s: %d states, %d minima x %d maxima, %d requirements"
        (Lts.name lts) t_stats.Lts.nb_states (List.length minima)
        (List.length maxima)
        (List.length requirements));
  let t_reduction =
    match reduce with
    | None -> None
    | Some pl ->
      let reduced_states, reduced_transitions =
        match !quotient_size with
        | Some (s, t) -> (s, t)
        | None -> (Lts.nb_states lts, Lts.nb_transitions lts)
      in
      Some
        { ri_kind = Sym.kind_to_string pl.Sym.pl_kind;
          ri_reduced_states = reduced_states;
          ri_reduced_transitions = reduced_transitions;
          ri_group_order = Sym.group_order pl.Sym.pl_report;
          ri_fallback = fallback }
  in
  { t_lts = lts;
    t_stats;
    t_minima = minima;
    t_maxima = maxima;
    t_matrix = matrix;
    t_requirements = requirements;
    t_timings =
      { ph_explore_ns;
        ph_min_max_ns;
        ph_matrix_ns;
        ph_derive_ns;
        ph_pairs = List.rev !pair_timings;
        ph_shared =
          Option.map
            (fun e ->
              let bt = Hom.Shared.timing e in
              { sh_alphabet_size =
                  Action.Set.cardinal (Hom.Shared.alphabet e);
                sh_dfa_states = Hom.Shared.dfa_states e;
                sh_early_pairs = Hom.Shared.early_count e;
                sh_erase_ns = bt.Hom.Shared.sb_erase_ns;
                sh_determinise_ns = bt.Hom.Shared.sb_determinise_ns;
                sh_minimise_ns = bt.Hom.Shared.sb_minimise_ns;
                sh_early_ns = bt.Hom.Shared.sb_early_ns })
            !engine };
    t_reduction;
    t_engine = !engine }

let matrix_pairs r =
  List.concat_map
    (fun (mx, row) -> List.map (fun (mn, dep) -> (mn, mx, dep)) row)
    r.t_matrix

let pp_tool_report ppf r =
  let pp_row ppf (mx, row) =
    Fmt.pf ppf "%a depends on: @[%a@]" Action.pp mx
      Fmt.(list ~sep:comma Action.pp)
      (List.filter_map (fun (mn, d) -> if d then Some mn else None) row)
  in
  Fmt.pf ppf
    "@[<v>== tool-assisted analysis: %s ==@,\
     reachability graph: %a@,\
     minima: @[%a@]@,\
     maxima: @[%a@]@,\
     dependence:@,%a@,\
     requirements:@,%a@]"
    (Lts.name r.t_lts) Lts.pp_stats r.t_stats
    Fmt.(list ~sep:comma Action.pp)
    r.t_minima
    Fmt.(list ~sep:comma Action.pp)
    r.t_maxima
    Fmt.(list ~sep:cut pp_row)
    r.t_matrix Auth.pp_set r.t_requirements

(* ------------------------------------------------------------------ *)
(* Cross-validation of the two paths                                   *)
(* ------------------------------------------------------------------ *)

type crosscheck = {
  c_agree : bool;
  c_manual_only : Auth.t list;
  c_tool_only : Auth.t list;
  c_unmapped : Action.t list;  (* tool actions without a manual image *)
}

(* Translate the tool path's requirements into the manual action
   vocabulary via [map] (e.g. V1_sense -> sense(ESP_1, sW)) and compare
   requirement sets.  Stakeholders are compared as well, so [map] must be
   paired with consistent stakeholder assignments on both sides. *)
let crosscheck ~map ~manual_requirements ~tool_requirements =
  let unmapped = ref [] in
  let translate r =
    match map (Auth.cause r), map (Auth.effect r) with
    | Some cause, Some effect ->
      Some (Auth.make ~cause ~effect ~stakeholder:(Auth.stakeholder r))
    | None, _ ->
      unmapped := Auth.cause r :: !unmapped;
      None
    | _, None ->
      unmapped := Auth.effect r :: !unmapped;
      None
  in
  let tool_translated = List.filter_map translate tool_requirements in
  let manual_only = Auth.diff manual_requirements tool_translated in
  let tool_only = Auth.diff tool_translated manual_requirements in
  { c_agree = manual_only = [] && tool_only = [] && !unmapped = [];
    c_manual_only = manual_only;
    c_tool_only = tool_only;
    c_unmapped = List.sort_uniq Action.compare !unmapped }

let pp_crosscheck ppf c =
  if c.c_agree then Fmt.pf ppf "both analysis paths agree"
  else
    Fmt.pf ppf
      "@[<v>analysis paths disagree:@,manual only: %a@,tool only: %a@,\
       unmapped tool actions: @[%a@]@]"
      Auth.pp_set c.c_manual_only Auth.pp_set c.c_tool_only
      Fmt.(list ~sep:comma Action.pp)
      c.c_unmapped
