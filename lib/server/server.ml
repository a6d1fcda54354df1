(* Batch and daemon serving layer.

   The interesting design point is [Exec]: one executor shared by the
   CLI subcommands, the batch runner and the daemon, so all three agree
   on what an analysis result *is* (a structured JSON value, the
   rendered human report and an exit code) and all three share the same
   content-addressed cache entries.  The cache replays the stored
   report string verbatim, which makes cached CLI output byte-identical
   to a fresh run by construction.

   The daemon pipes requests through a small pipeline:

     reader (select loop) -> work queue -> worker domains -> writer

   The reader polls with a short select timeout so a SIGTERM-driven
   [request_shutdown] is noticed promptly even with no input pending;
   on shutdown the queue is drained — every request already read gets
   its response before the loop returns.  Workers push results tagged
   with their request sequence number and the writer holds them in a
   reorder buffer, so responses always come out in request order no
   matter which worker finishes first. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Auth = Fsa_requirements.Auth
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Pattern = Fsa_mc.Pattern
module Analysis = Fsa_core.Analysis
module Elaborate = Fsa_spec.Elaborate
module Parser = Fsa_spec.Parser
module Loc = Fsa_spec.Loc
module Sos = Fsa_model.Sos
module Apa = Fsa_apa.Apa
module Report = Fsa_report.Report
module Json = Fsa_store.Json
module Store = Fsa_store.Store
module Metrics = Fsa_obs.Metrics
module Structural = Fsa_struct.Structural
module Flow = Fsa_flow.Flow
module Sym = Fsa_sym.Sym
module Span = Fsa_obs.Span
module Recorder = Fsa_obs.Recorder
module Progress = Fsa_obs.Progress

type config = {
  sv_workers : int;
  sv_max_states : int;
  sv_timeout_ms : int;
  sv_store : Store.t option;
  sv_stakeholder : Action.t -> Agent.t;
  sv_flight_dir : string option;
  sv_slow_ms : float;
}

let config ?(workers = 1) ?(max_states = 1_000_000) ?(timeout_ms = 0) ?store
    ?(stakeholder = Fsa_requirements.Derive.default_stakeholder)
    ?flight_dir ?(slow_ms = 0.) () =
  { sv_workers = workers;
    sv_max_states = max_states;
    sv_timeout_ms = timeout_ms;
    sv_store = store;
    sv_stakeholder = stakeholder;
    sv_flight_dir = flight_dir;
    sv_slow_ms = slow_ms }

exception Request_timeout
exception Usage_error of string

exception Too_large of int * string
(* [Lts.State_space_too_large], enriched with the structural growth hint
   (computed where the spec is still in scope) *)

let m_requests = Metrics.counter "server.requests"
let m_errors = Metrics.counter "server.errors"

let h_latency =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.;
                5000.; 10000. |]
    "server.latency_ms"

(* Optional request members.  An absent member takes its default; a
   present member of the wrong JSON type is a bad request naming the
   member — never silently the default. *)
let req_member conv ty req k =
  match Json.member k req with
  | None -> None
  | Some v -> (
    match conv v with
    | Some _ as x -> x
    | None -> raise (Usage_error (Printf.sprintf "%S must be %s" k ty)))

let req_str = req_member Json.to_str "a string"
let req_int = req_member Json.to_int "an integer"
let req_bool = req_member Json.to_bool "a boolean"

(* ------------------------------------------------------------------ *)
(* Shared executor                                                     *)
(* ------------------------------------------------------------------ *)

module Exec = struct
  type op = Reach | Requirements | Analyze | Abstract | Verify | Check | Report

  let op_to_string = function
    | Reach -> "reach"
    | Requirements -> "requirements"
    | Analyze -> "analyze"
    | Abstract -> "abstract"
    | Verify -> "verify"
    | Check -> "check"
    | Report -> "report"

  let all_ops = [ Reach; Requirements; Analyze; Abstract; Verify; Check; Report ]
  let op_of_string s = List.find_opt (fun op -> op_to_string op = s) all_ops

  type outcome = {
    oc_result : Json.t;
    oc_output : string;
    oc_exit : int;
    oc_cached : bool;
  }

  let meth_to_string = function
    | Analysis.Direct -> "direct"
    | Analysis.Abstract -> "abstract"

  let meth_of_string s =
    List.find_opt
      (fun m -> meth_to_string m = s)
      [ Analysis.Direct; Analysis.Abstract ]

  (* Version stamp of the shared abstraction engine.  Part of every
     abstract-method requirements key and of every quotient entry's
     key, so entries written by a different engine generation can never
     replay as this one's results. *)
  let abstraction_engine = "shared-v1"

  (* Which engine answers dependence queries — part of the
     requirements/report outcome keys and of the report settings. *)
  let engine_string = function
    | Analysis.Direct -> "direct"
    | Analysis.Abstract -> abstraction_engine

  (* ---- analysis parameters -------------------------------------- *)

  type params = {
    meth : Analysis.dependence_method;
    max_states : int;
    flow : bool;
    reduce : Sym.kind option;
    sos : string option;
    keep : string list option;
  }

  let defaults =
    { meth = Analysis.Abstract; max_states = 1_000_000; flow = false;
      reduce = None; sos = None; keep = None }

  type field = Meth | Max_states | Flow | Reduce | Sos | Keep

  (* The one spelling of each option: it is both the request member and
     the cache-key param. *)
  let field_name = function
    | Meth -> "method"
    | Max_states -> "max_states"
    | Flow -> "flow"
    | Reduce -> "reduce"
    | Sos -> "sos"
    | Keep -> "keep"

  (* The fields each op honours.  Exactly these key its outcomes, so a
     field missing here would let one setting's outcome replay for
     another's. *)
  let fields = function
    | Reach | Verify -> [ Max_states; Reduce ]
    | Requirements -> [ Meth; Max_states; Flow; Reduce ]
    | Report -> [ Meth; Max_states; Flow; Reduce; Sos ]
    | Analyze -> [ Sos ]
    | Abstract -> [ Max_states; Keep ]
    | Check -> []

  (* The shared quotient depends only on the APA part of the spec, the
     exploration bound and the effective reduction (its key adds the
     erased alphabet and the engine version). *)
  let quotient_fields = [ Max_states; Reduce ]

  (* A field's cache-key params.  [reduce] keys because reduced runs
     report quotient statistics; [flow] because flow-pruned outcomes
     attribute pairs ("pruned_by", settings, coverage) that unpruned
     entries — including any written before the member existed — lack;
     ["engine"] rides with [method] because the timing sections of
     another engine generation differ even though verdicts agree. *)
  let field_key p f =
    let k = field_name f in
    match f with
    | Meth -> [ (k, meth_to_string p.meth); ("engine", engine_string p.meth) ]
    | Max_states -> [ (k, string_of_int p.max_states) ]
    | Flow -> [ (k, if p.flow then "static-flow" else "none") ]
    | Reduce ->
      Option.to_list (Option.map (fun r -> (k, Sym.kind_to_string r)) p.reduce)
    | Sos -> Option.to_list (Option.map (fun s -> (k, s)) p.sos)
    | Keep -> [ (k, String.concat "," (Option.value p.keep ~default:[])) ]

  let key_params op p = List.concat_map (field_key p) (fields op)

  let report_settings p =
    { Report.sg_path = "tool";
      sg_method = meth_to_string p.meth;
      sg_engine = engine_string p.meth;
      sg_reduce =
        (match p.reduce with None -> "none" | Some k -> Sym.kind_to_string k);
      sg_prune = (if p.flow then "flow" else "none");
      sg_max_states = p.max_states }

  (* [keep] accepts both a JSON list of names and a comma-separated
     string, matching the CLI's --keep. *)
  let keep_of_json = function
    | Json.List vs ->
      let names = List.filter_map Json.to_str vs in
      if List.length names = List.length vs then Some names else None
    | Json.Str s -> Some (List.filter (( <> ) "") (String.split_on_char ',' s))
    | _ -> None

  (* Every field is decoded whatever the op, so a mistyped member is a
     bad request even where the op ignores it. *)
  let params_of_json ~bound req =
    let member conv ty f = req_member conv ty req (field_name f) in
    let str = member Json.to_str "a string" in
    let bad fmt = Printf.ksprintf (fun m -> raise (Usage_error m)) fmt in
    let parse f of_string choices =
      Option.map
        (fun s ->
          match of_string s with
          | Some v -> v
          | None -> bad "unknown %s %S (%s)" (field_name f) s choices)
        (str f)
    in
    { meth =
        Option.value (parse Meth meth_of_string "direct|abstract")
          ~default:defaults.meth;
      max_states =
        (match member Json.to_int "an integer" Max_states with
        | Some n when n > 0 -> min n bound
        | Some _ -> bad "%S must be positive" (field_name Max_states)
        | None -> bound);
      flow =
        Option.value (member Json.to_bool "a boolean" Flow)
          ~default:defaults.flow;
      reduce = parse Reduce Sym.kind_of_string "sym|por|sym+por";
      sos = str Sos;
      keep =
        member keep_of_json "a list of strings or a comma-separated string"
          Keep }

  (* A cooperative timeout: exploration progress ticks double as
     deadline checks.  The final tick must not raise — [Progress.finish]
     runs inside the explorer's [Fun.protect ~finally], where a raise
     would surface as [Finally_raised] instead of the timeout. *)
  let deadline_progress deadline_ns =
    Progress.create ~every_n:256 ~every_ns:5_000_000L (fun u ->
        if
          (not u.Progress.u_final)
          && Int64.compare (Span.now_ns ()) deadline_ns > 0
        then raise Request_timeout)

  (* A spec without instances has no APA: that is a usage error of the
     exploring ops, not an internal failure. *)
  let apa_of spec =
    try Elaborate.apa_of_spec spec
    with Invalid_argument msg -> raise (Usage_error msg)

  let actions_json set =
    Json.List
      (List.map
         (fun a -> Json.Str (Action.to_string a))
         (Action.Set.elements set))

  let summary_of_lts lts =
    let { Lts.nb_states; nb_transitions; nb_deadlocks; nb_labels } =
      Lts.stats lts
    in
    Json.Obj
      [ ("states", Json.Int nb_states);
        ("transitions", Json.Int nb_transitions);
        ("labels", Json.Int nb_labels);
        ( "deadlocks",
          Json.Obj
            [ ("count", Json.Int nb_deadlocks);
              ( "states",
                Json.List (List.map (fun i -> Json.Int i) (Lts.deadlocks lts))
              ) ] );
        ("minima", actions_json (Lts.minima lts));
        ("maxima", actions_json (Lts.maxima lts)) ]

  let requirements_json reqs =
    Json.List
      (List.map
         (fun r ->
           Json.Obj
             [ ("cause", Json.Str (Action.to_string (Auth.cause r)));
               ("effect", Json.Str (Action.to_string (Auth.effect r)));
               ( "stakeholder",
                 Json.Str (Agent.to_string (Auth.stakeholder r)) ) ])
         reqs)

  (* One reduction plan per request: guard signatures come from the
     spec's own syntax, so spec-driven symmetry detection needs no
     caller attestation. *)
  let reduce_plan p spec apa =
    match p.reduce with
    | None -> None
    | Some kind ->
      let sigs = Elaborate.guard_signatures spec in
      Some (Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) kind apa)

  let reduction_json (ri : Analysis.reduction_info) =
    Json.Obj
      [ ("kind", Json.Str ri.Analysis.ri_kind);
        ("reduced_states", Json.Int ri.Analysis.ri_reduced_states);
        ( "reduced_transitions",
          Json.Int ri.Analysis.ri_reduced_transitions );
        ("group_order", Json.Float ri.Analysis.ri_group_order);
        ( "fallback",
          match ri.Analysis.ri_fallback with
          | None -> Json.Null
          | Some s -> Json.Str s ) ]

  let run_reach ~progress p spec =
    let apa = apa_of spec in
    match reduce_plan p spec apa with
    | None ->
      let lts = Lts.explore ~max_states:p.max_states ?progress apa in
      let output =
        Fmt.str "%a@.%a@." Lts.pp_stats (Lts.stats lts) Lts.pp_min_max lts
      in
      (summary_of_lts lts, output, 0)
    | Some pl ->
      let lts = Analysis.quotient ~max_states:p.max_states ?progress pl apa in
      let order = Sym.group_order pl.Sym.pl_report in
      let output =
        Fmt.str "%a@.%a@.reduction: %s quotient (group order %.0f)@."
          Lts.pp_stats (Lts.stats lts) Lts.pp_min_max lts
          (Sym.kind_to_string pl.Sym.pl_kind)
          order
      in
      let summary =
        match summary_of_lts lts with
        | Json.Obj fields ->
          Json.Obj
            (fields
            @ [ ( "reduction",
                  Json.Obj
                    [ ( "kind",
                        Json.Str (Sym.kind_to_string pl.Sym.pl_kind) );
                      ("group_order", Json.Float order) ] ) ])
        | j -> j
      in
      (summary, output, 0)

  let ms_of_ns ns = Int64.to_float ns /. 1e6

  (* Exact interpolated quantile over a small sample (the histogram
     machinery in Fsa_obs is for streaming data; pair rows are a
     finished list). *)
  let quantile_of xs q =
    match List.sort Float.compare xs with
    | [] -> 0.
    | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = max 0 (min (n - 1) (int_of_float (floor pos))) in
      let hi = max 0 (min (n - 1) (int_of_float (ceil pos))) in
      if lo = hi then a.(lo)
      else a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

  (* Per-pair timing quantiles.  Statically pruned pairs never ran a
     test — their rows are zero placeholders — so they are excluded
     from the aggregation: counting them drags every quantile toward 0
     and makes the dependence tests look cheaper than they are. *)
  let pair_quantiles pairs =
    let live = List.filter (fun p -> not p.Analysis.pt_pruned) pairs in
    let qobj xs =
      Json.Obj
        [ ("p50", Json.Float (quantile_of xs 0.5));
          ("p90", Json.Float (quantile_of xs 0.9));
          ("p99", Json.Float (quantile_of xs 0.99)) ]
    in
    Json.Obj
      [ ("tested", Json.Int (List.length live));
        ("pruned", Json.Int (List.length pairs - List.length live));
        ( "compare_ms",
          qobj (List.map (fun p -> ms_of_ns p.Analysis.pt_compare_ns) live)
        ) ]

  let shared_json (s : Analysis.shared_timing) =
    Json.Obj
      [ ("alphabet", Json.Int s.Analysis.sh_alphabet_size);
        ("dfa_states", Json.Int s.Analysis.sh_dfa_states);
        ("cached", Json.Bool s.Analysis.sh_cached);
        ("early_pairs", Json.Int s.Analysis.sh_early_pairs);
        ("erase_ms", Json.Float (ms_of_ns s.Analysis.sh_erase_ns));
        ( "determinise_ms",
          Json.Float (ms_of_ns s.Analysis.sh_determinise_ns) );
        ("minimise_ms", Json.Float (ms_of_ns s.Analysis.sh_minimise_ns));
        ("early_ms", Json.Float (ms_of_ns s.Analysis.sh_early_ns)) ]

  (* Per-phase wall-clock breakdown of a tool run.  Cached entries
     replay the timings of the run that produced them — they describe
     the analysis, not the serving. *)
  let timings_json (t : Analysis.phase_timings) =
    Json.Obj
      ([ ("explore_ms", Json.Float (ms_of_ns t.Analysis.ph_explore_ns));
         ("min_max_ms", Json.Float (ms_of_ns t.Analysis.ph_min_max_ns));
         ("matrix_ms", Json.Float (ms_of_ns t.Analysis.ph_matrix_ns));
         ("derive_ms", Json.Float (ms_of_ns t.Analysis.ph_derive_ns));
         ( "pairs",
           Json.List
             (List.map
                (fun p ->
                  Json.Obj
                    [ ("min", Json.Str (Action.to_string p.Analysis.pt_min));
                      ("max", Json.Str (Action.to_string p.Analysis.pt_max));
                      ("pruned", Json.Bool p.Analysis.pt_pruned);
                      ( "pruned_by",
                        match p.Analysis.pt_pruned_by with
                        | Some by -> Json.Str by
                        | None -> Json.Null );
                      ( "compare_ms",
                        Json.Float (ms_of_ns p.Analysis.pt_compare_ns) ) ])
                t.Analysis.ph_pairs) );
         ("pair_quantiles", pair_quantiles t.Analysis.ph_pairs) ]
      @
      match t.Analysis.ph_shared with
      | None -> []
      | Some s -> [ ("shared", shared_json s) ])

  (* ---- shared-quotient cache ------------------------------------ *)

  module Int_set = Fsa_automata.Automata.Int_set

  let dfa_to_json dfa =
    let module D = Hom.A.Dfa in
    Json.Obj
      [ ("states", Json.Int (D.nb_states dfa));
        ("start", Json.Int (D.start dfa));
        ( "finals",
          Json.List
            (List.map
               (fun i -> Json.Int i)
               (Int_set.elements (D.finals dfa))) );
        ( "edges",
          Json.List
            (List.map
               (fun (s, l, d) ->
                 Json.List
                   [ Json.Int s; Json.Str (Action.to_string l); Json.Int d ])
               (D.transitions dfa)) ) ]

  (* Any malformed shape is [None] — a silent cache miss, matching the
     store's corruption contract. *)
  let dfa_of_json j =
    let module D = Hom.A.Dfa in
    match
      ( Option.bind (Json.member "states" j) Json.to_int,
        Option.bind (Json.member "start" j) Json.to_int,
        Json.member "finals" j,
        Json.member "edges" j )
    with
    | Some n, Some start, Some (Json.List finals), Some (Json.List edges)
      when n >= 0 && start >= 0 && start < n -> (
      try
        let fins =
          List.fold_left
            (fun acc v ->
              match Json.to_int v with
              | Some i when i >= 0 && i < n -> Int_set.add i acc
              | _ -> raise Exit)
            Int_set.empty finals
        in
        let delta = Array.make n Hom.A.Lmap.empty in
        List.iter
          (fun e ->
            match e with
            | Json.List [ Json.Int s; Json.Str l; Json.Int d ]
              when s >= 0 && s < n && d >= 0 && d < n -> (
              match Action.of_string l with
              | Ok a -> delta.(s) <- Hom.A.Lmap.add a d delta.(s)
              | Error _ -> raise Exit)
            | _ -> raise Exit)
          edges;
        Some (D.create ~nb_states:n ~start ~finals:fins ~delta)
      with Exit -> None)
    | _ -> None

  (* Only cache when every alphabet action survives the string round
     trip: an action [Action.of_string] cannot reconstruct exactly
     would deserialise into a different DFA. *)
  let alphabet_round_trips alphabet =
    List.for_all
      (fun a ->
        match Action.of_string (Action.to_string a) with
        | Ok a' -> Action.equal a a'
        | Error _ -> false)
      alphabet

  let quotient_cache st ~digest p : Analysis.quotient_cache =
    let key ~alphabet =
      let params =
        ("engine", abstraction_engine)
        :: ( "alphabet",
             Store.digest_hex
               (String.concat "\x00" (List.map Action.to_string alphabet)) )
        :: List.concat_map (field_key p) quotient_fields
      in
      Store.cache_key ~digest ~kind:"quotient" ~params
    in
    { Analysis.qc_find =
        (fun ~alphabet ->
          if not (alphabet_round_trips alphabet) then None
          else
            match Store.find st ~key:(key ~alphabet) with
            | Some e -> dfa_of_json e.Store.e_result
            | None -> None);
      qc_store =
        (fun ~alphabet dfa ->
          if alphabet_round_trips alphabet then
            Store.add st
              { Store.e_key = key ~alphabet;
                e_kind = "quotient";
                e_result = dfa_to_json dfa;
                e_output = "";
                e_exit = 0 }) }

  (* ---- requirement reports -------------------------------------- *)

  (* One tool-path run plus its Fsa_report view.  The report digest
     covers APA *and* models: classification maps requirements onto the
     declared functional models, so a model edit must change it even
     when the APA part is untouched. *)
  let tool_report_of cfg ~progress ?quotient_cache p spec =
    let apa = apa_of spec in
    (* the flow graph is rebuilt per request: it is cheap (no state
       space) and its attribution needs the located skeleton *)
    let flow_graph =
      if not p.flow then None
      else
        Some
          (Flow.build
             ~attribution:
               (Fsa_check.Check.flow_attribution
                  (Elaborate.skeleton_of_spec spec))
             apa)
    in
    let tr =
      Analysis.tool ~meth:p.meth ~max_states:p.max_states ?flow:flow_graph
        ?reduce:(reduce_plan p spec apa)
        ?quotient_cache ?progress ~stakeholder:cfg.sv_stakeholder apa
    in
    let rpt =
      Report.of_tool
        ~origins:(Report.origins_of_skeleton (Elaborate.skeleton_of_spec spec))
        ~soses:(Elaborate.sos_list spec)
        ~alphabet:(Apa.rule_names apa)
        ~digest:(Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec)
        ~settings:(report_settings p)
        tr
    in
    (tr, rpt)

  let run_requirements cfg ~progress ?quotient_cache p spec =
    let report, rpt = tool_report_of cfg ~progress ?quotient_cache p spec in
    let reduction =
      match report.Analysis.t_reduction with
      | None -> []
      | Some ri -> [ ("reduction", reduction_json ri) ]
    in
    let result =
      Json.Obj
        ([ ("summary", summary_of_lts report.Analysis.t_lts);
           ("requirements", requirements_json report.Analysis.t_requirements);
           ("timings", timings_json report.Analysis.t_timings);
           ("report", Report.to_json rpt) ]
        @ reduction)
    in
    (result, Fmt.str "%a@." Analysis.pp_tool_report report, 0)

  let soses_of p spec =
    let soses =
      match p.sos with
      | Some name -> (
        try [ Elaborate.sos_of_spec spec name ]
        with Invalid_argument msg -> raise (Usage_error msg))
      | None -> Elaborate.sos_list spec
    in
    if soses = [] then
      raise (Usage_error "the specification declares no sos");
    soses

  (* The manual path keeps the paper's default stakeholder assignment
     (driver for HMI actions): [sv_stakeholder] parameterises only the
     tool path, mirroring the CLI. *)
  let run_analyze p spec =
    let soses = soses_of p spec in
    let digest = Elaborate.digest_of_spec ~parts:[ `Models ] spec in
    let reports = List.map (fun s -> (s, Analysis.manual s)) soses in
    let output =
      String.concat ""
        (List.map
           (fun (_, r) -> Fmt.str "%a@." Analysis.pp_manual_report r)
           reports)
    in
    let result =
      Json.Obj
        [ ( "soses",
            Json.List
              (List.map
                 (fun (s, r) ->
                   Json.Obj
                     [ ("name", Json.Str (Sos.name s));
                       ( "requirements",
                         requirements_json r.Analysis.m_requirements );
                       ( "report",
                         Report.to_json (Report.of_manual ~digest s r) ) ])
                 reports) ) ]
    in
    (result, output, 0)

  (* The report op renders the Fsa_report layer on its own: the tool
     path when the spec elaborates instances (or the manual path for an
     explicitly named sos), otherwise the manual path over the declared
     functional models, mirroring [run_analyze]'s selection. *)
  let run_report cfg ~progress ?quotient_cache p spec =
    let manual soses =
      let digest = Elaborate.digest_of_spec ~parts:[ `Models ] spec in
      List.map (fun s -> Report.of_manual ~digest s (Analysis.manual s)) soses
    in
    let reports =
      match p.sos with
      | Some _ -> manual (soses_of p spec)
      | None ->
        if (Elaborate.env_of_spec spec).Elaborate.instances <> [] then
          [ snd (tool_report_of cfg ~progress ?quotient_cache p spec) ]
        else manual (soses_of p spec)
    in
    match reports with
    | [ r ] -> (Report.to_json r, Report.to_markdown r, 0)
    | rs ->
      ( Json.Obj [ ("reports", Json.List (List.map Report.to_json rs)) ],
        String.concat "\n" (List.map Report.to_markdown rs),
        0 )

  let run_abstract ~progress p spec =
    let keep =
      match p.keep with
      | Some (_ :: _ as ks) -> ks
      | _ -> raise (Usage_error "abstract requires a non-empty keep set")
    in
    let lts = Lts.explore ~max_states:p.max_states ?progress (apa_of spec) in
    let actions = List.map Action.make keep in
    let h = Hom.preserve actions in
    let dfa = Hom.minimal_automaton h lts in
    let desc = Hom.describe_dfa dfa in
    let simple = Hom.is_simple h lts in
    let b = Buffer.create 256 in
    Buffer.add_string b (Fmt.str "minimal automaton: %s@." desc);
    Buffer.add_string b
      (Fmt.str "homomorphism simple on this behaviour: %b@." simple);
    let dependence =
      match actions with
      | [ mn; mx ] ->
        let d = Hom.depends_abstract lts ~min_action:mn ~max_action:mx in
        Buffer.add_string b
          (Fmt.str "functional dependence %a -> %a: %b@." Action.pp mn
             Action.pp mx d);
        Json.Bool d
      | _ -> Json.Null
    in
    let result =
      Json.Obj
        [ ("dfa", Json.Str desc);
          ("simple", Json.Bool simple);
          ("dependence", dependence) ]
    in
    (result, Buffer.contents b, 0)

  (* The POR-reduced graph is unsound for arbitrary properties, so
     verify honours only the symmetry half of a reduction request:
     [Sym_por] degrades to [Sym] and [Por] to no reduction.  The [Sym]
     path model-checks the exact full graph rebuilt by
     {!Analysis.unfolded} — identical verdicts, cheaper rule
     matching. *)
  let verify_reduce = function
    | Some Sym.Sym_por -> Some Sym.Sym
    | Some Sym.Por -> None
    | k -> k

  let run_verify ~progress p spec =
    let patterns = Elaborate.patterns_of_spec spec in
    if patterns = [] then
      raise (Usage_error "the specification declares no check");
    let apa = apa_of spec in
    let explore () = Lts.explore ~max_states:p.max_states ?progress apa in
    let lts, note =
      match reduce_plan p spec apa with
      | Some pl when Sym.canon_fn pl <> None -> (
        try
          let lts, _, _ = Analysis.unfolded ~max_states:p.max_states pl apa in
          (lts, "note: symmetry-guided exploration (exact graph)\n")
        with Sym.Unsupported reason ->
          ( explore (),
            Printf.sprintf "note: reduction fell back (%s)\n" reason ))
      | Some _ ->
        (explore (), "note: no reducible symmetry; explored unreduced\n")
      | None -> (explore (), "")
    in
    let results =
      List.map (fun (d, p) -> (d, Pattern.check lts p)) patterns
    in
    let failures =
      List.length
        (List.filter (fun (_, r) -> not r.Pattern.holds_) results)
    in
    let output =
      note
      ^ String.concat ""
          (List.map
             (fun (d, r) -> Fmt.str "%-50s %a@." d Pattern.pp_result r)
             results)
    in
    let result =
      Json.Obj
        [ ( "checks",
            Json.List
              (List.map
                 (fun (d, r) ->
                   Json.Obj
                     [ ("check", Json.Str d);
                       ("holds", Json.Bool r.Pattern.holds_) ])
                 results) );
          ("failed", Json.Int failures) ]
    in
    (result, output, if failures > 0 then 1 else 0)

  let run_check ~file spec =
    let module D = Fsa_check.Diagnostic in
    let ds = Fsa_check.Check.spec ~file spec in
    let rendered = D.render_json ds in
    let result =
      match Json.parse rendered with Ok j -> j | Error _ -> Json.Str rendered
    in
    (result, rendered, if D.has_errors ds then 1 else 0)

  let digest_parts = function
    | Reach | Abstract -> [ `Apa ]
    (* requirements and report outcomes embed an Fsa_report view whose
       classification maps onto the declared functional models, so both
       must miss when the models change even if the APA part did not *)
    | Requirements | Report -> [ `Apa; `Models ]
    | Verify -> [ `Apa; `Checks ]
    | Analyze -> [ `Models ]
    | Check -> [ `Apa; `Checks; `Models ]

  let exec cfg ~op ?progress ?deadline_ns ?(cache = true) ~file p spec =
    (* the effective reduction is what runs AND what keys the cache:
       verify ignores the POR half (unsound for arbitrary properties),
       so a [por] verify request shares the unreduced entry *)
    let p =
      match op with Verify -> { p with reduce = verify_reduce p.reduce } | _ -> p
    in
    let progress =
      match (progress, deadline_ns) with
      | (Some _ as pr), _ -> pr
      | None, Some d -> Some (deadline_progress d)
      | None, None -> None
    in
    let compute () =
      (* the quotient cache shares the outcome store; a quotient entry
         is useful exactly when the outcome itself missed (different
         max_states, evicted outcome, …) *)
      let quotient_hook () =
        match (p.meth, if cache then cfg.sv_store else None) with
        | Analysis.Abstract, Some st ->
          Some
            (quotient_cache st
               ~digest:(Elaborate.digest_of_spec ~parts:[ `Apa ] spec)
               p)
        | _ -> None
      in
      try
        match op with
        | Reach -> run_reach ~progress p spec
        | Requirements ->
          run_requirements cfg ~progress ?quotient_cache:(quotient_hook ()) p
            spec
        | Analyze -> run_analyze p spec
        | Abstract -> run_abstract ~progress p spec
        | Verify -> run_verify ~progress p spec
        | Check -> run_check ~file spec
        | Report ->
          run_report cfg ~progress ?quotient_cache:(quotient_hook ()) p spec
      with Lts.State_space_too_large n ->
        (* enrich with the structural growth hint while the spec is still
           in scope; never let the hint computation mask the error *)
        let hint =
          try
            Structural.growth_hint
              (Fsa_check.Check.net_of_skeleton
                 (Elaborate.skeleton_of_spec spec))
          with _ -> ""
        in
        (* when the model carries unexploited symmetry, say so: the
           reduction is often the difference between blowing the bound
           and finishing (same guard: never mask the error) *)
        let hint =
          if p.reduce <> None then hint
          else
            hint
            ^
            try
              let apa = Elaborate.apa_of_spec spec in
              let sigs = Elaborate.guard_signatures spec in
              let rep =
                Sym.detect
                  ~guard_sig:(fun r -> List.assoc_opt r sigs)
                  apa
              in
              if
                List.exists
                  (fun o -> o.Sym.o_reducible)
                  rep.Sym.r_orbits
              then
                Printf.sprintf
                  "; symmetric instances detected (group order %.0f) — \
                   retry with --reduce sym+por, see `fsa sym`"
                  (Sym.group_order rep)
              else ""
            with _ -> ""
        in
        raise (Too_large (n, hint))
    in
    let fresh () =
      let result, output, exit_ = compute () in
      { oc_result = result; oc_output = output; oc_exit = exit_;
        oc_cached = false }
    in
    (* check is uncacheable: diagnostics carry source locations, which
       the location-free digest deliberately abstracts away *)
    let store = if cache && op <> Check then cfg.sv_store else None in
    match store with
    | None -> fresh ()
    | Some st -> (
      let digest = Elaborate.digest_of_spec ~parts:(digest_parts op) spec in
      let key =
        Store.cache_key ~digest ~kind:(op_to_string op)
          ~params:(key_params op p)
      in
      match Store.find st ~key with
      | Some e ->
        { oc_result = e.Store.e_result;
          oc_output = e.Store.e_output;
          oc_exit = e.Store.e_exit;
          oc_cached = true }
      | None ->
        let o = fresh () in
        Store.add st
          { Store.e_key = key;
            e_kind = op_to_string op;
            e_result = o.oc_result;
            e_output = o.oc_output;
            e_exit = o.oc_exit };
        o)

  let run cfg ~op ?(meth = defaults.meth) ?(max_states = defaults.max_states)
      ?(flow = defaults.flow) ?sos ?keep ?reduce ?progress ?deadline_ns ?cache
      ~file spec =
    exec cfg ~op ?progress ?deadline_ns ?cache ~file
      { meth; max_states; flow; reduce; sos; keep }
      spec
end

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* The absolute deadline of a wall-clock budget; [0] means none. *)
let deadline_of_ms ms =
  if ms > 0 then
    Some (Int64.add (Span.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L))
  else None

(* The error kind and message of a failed request. *)
let error_of_exn = function
  | Request_timeout -> ("timeout", "request exceeded its wall-clock budget")
  | Lts.State_space_too_large n ->
    ("too_large", Printf.sprintf "state space exceeds the bound of %d states" n)
  | Too_large (n, hint) ->
    ( "too_large",
      Printf.sprintf "state space exceeds the bound of %d states%s" n hint )
  | Usage_error msg | Invalid_argument msg -> ("bad_request", msg)
  | Loc.Error (loc, msg) ->
    ("parse_error", Fmt.str "%a" Loc.pp_exn (loc, msg))
  | Sys_error msg -> ("io_error", msg)
  | e -> ("internal", Printexc.to_string e)

(* Every response echoes the request's trace id (generated when the
   request did not supply one), so clients can line responses up with
   flight-recorder dumps and trace trees. *)
let trace_seq = Atomic.make 0

let gen_trace_id () =
  Printf.sprintf "fsa-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add trace_seq 1)

let error_response ~id ~trace_id kind message =
  Json.Obj
    [ ("id", id);
      ("trace_id", Json.Str trace_id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("kind", Json.Str kind); ("message", Json.Str message) ] ) ]

let ok_response ~id ~trace_id (o : Exec.outcome) =
  Json.Obj
    [ ("id", id);
      ("trace_id", Json.Str trace_id);
      ("ok", Json.Bool true);
      ("cached", Json.Bool o.Exec.oc_cached);
      ("exit", Json.Int o.Exec.oc_exit);
      ("result", o.Exec.oc_result) ]

(* ------------------------------------------------------------------ *)
(* Live introspection state                                            *)
(* ------------------------------------------------------------------ *)

(* One slot per worker domain, mutated by its owner and read (without a
   lock) by whichever worker serves a [stats] request: the fields are
   single words, so a racy read sees a slightly stale snapshot, which is
   exactly what a diagnostic endpoint promises anyway. *)
type slot = {
  mutable sl_domain : int;
  mutable sl_busy : bool;
  mutable sl_op : string;
  mutable sl_trace : string;
  mutable sl_since_ns : int64;
  mutable sl_handled : int;
}

let fresh_slot () =
  { sl_domain = 0;
    sl_busy = false;
    sl_op = "";
    sl_trace = "";
    sl_since_ns = 0L;
    sl_handled = 0 }

let slots : slot array Atomic.t = Atomic.make [||]
let slot_key = Domain.DLS.new_key (fun () -> -1)
let queue_depth = Atomic.make 0

let my_slot () =
  let i = Domain.DLS.get slot_key in
  let arr = Atomic.get slots in
  if i >= 0 && i < Array.length arr then Some arr.(i) else None

(* ------------------------------------------------------------------ *)
(* Flight dumps                                                        *)
(* ------------------------------------------------------------------ *)

let safe_filename s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    s

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Dump everything the recorder still holds about the request.  Failures
   are swallowed: the flight recorder must never turn a served error
   into an unserved one. *)
let flight_dump cfg ~trace_id =
  match cfg.sv_flight_dir with
  | None -> ()
  | Some dir -> (
    try
      mkdir_p dir;
      let path = Filename.concat dir (safe_filename trace_id ^ ".json") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Recorder.dump_trace ~trace_id))
    with Sys_error _ | Unix.Unix_error _ -> ())

(* An error kind worth a flight dump: the request died inside the
   analysis, so the phase events around it are the evidence. *)
let dump_worthy = function
  | "timeout" | "too_large" | "internal" -> true
  | _ -> false

(* Read without validating, for what [handle_line] needs before the
   request is handled; [handle_request] rejects the mistyped ones. *)
let peek_str req k = Option.bind (Json.member k req) Json.to_str

(* ------------------------------------------------------------------ *)
(* The stats op                                                        *)
(* ------------------------------------------------------------------ *)

(* A point-in-time snapshot of the server, computed entirely from state
   the process already maintains: the metrics registry (as Prometheus
   text plus interpolated latency quantiles), the work queue, the worker
   slots, the cache directory and the recorder ring. *)
let stats_json cfg =
  let now = Span.now_ns () in
  let quantiles =
    Json.Obj
      [ ("p50", Json.Float (Metrics.quantile h_latency 0.5));
        ("p90", Json.Float (Metrics.quantile h_latency 0.9));
        ("p99", Json.Float (Metrics.quantile h_latency 0.99));
        ("count", Json.Int (Metrics.histogram_count h_latency)) ]
  in
  let workers =
    Json.List
      (Array.to_list (Atomic.get slots)
      |> List.map (fun sl ->
             let base =
               [ ("domain", Json.Int sl.sl_domain);
                 ("busy", Json.Bool sl.sl_busy);
                 ("handled", Json.Int sl.sl_handled) ]
             in
             let busy =
               if sl.sl_busy then
                 [ ("op", Json.Str sl.sl_op);
                   ("trace_id", Json.Str sl.sl_trace);
                   ( "for_ms",
                     Json.Float
                       (Int64.to_float (Int64.sub now sl.sl_since_ns) /. 1e6)
                   ) ]
               else []
             in
             Json.Obj (base @ busy)))
  in
  let store =
    match cfg.sv_store with
    | None -> Json.Null
    | Some st ->
      let entries, bytes = Store.occupancy st in
      Json.Obj
        [ ("dir", Json.Str (Store.dir st));
          ("entries", Json.Int entries);
          ("bytes", Json.Int bytes) ]
  in
  let recorder =
    Json.Obj
      [ ("capacity", Json.Int (Recorder.capacity ()));
        ("size", Json.Int (Recorder.size ()));
        ("dropped", Json.Int (Recorder.dropped ())) ]
  in
  Json.Obj
    [ ("latency_ms", quantiles);
      ("queue_depth", Json.Int (Atomic.get queue_depth));
      ("workers", workers);
      ("store", store);
      ("recorder", recorder);
      ("prometheus", Json.Str (Metrics.to_prometheus ())) ]

let handle_request cfg ~trace_id req =
  let id = Option.value (Json.member "id" req) ~default:Json.Null in
  try
    (* [handle_line] read the trace id leniently, as every response
       needs one; a mistyped one still makes the request bad *)
    ignore (req_str req "trace_id");
    if req_str req "op" = Some "stats" then
      Json.Obj
        [ ("id", id);
          ("trace_id", Json.Str trace_id);
          ("ok", Json.Bool true);
          ("cached", Json.Bool false);
          ("exit", Json.Int 0);
          ("result", stats_json cfg) ]
    else
    let op =
      match req_str req "op" with
      | None -> raise (Usage_error "missing \"op\"")
      | Some s -> (
        match Exec.op_of_string s with
        | Some op -> op
        | None -> raise (Usage_error (Printf.sprintf "unknown op %S" s)))
    in
    let file, spec =
      match (req_str req "source", req_str req "spec") with
      | Some src, _ -> ("<request>", Parser.parse_string src)
      | None, Some path -> (path, Parser.parse_file path)
      | None, None ->
        raise (Usage_error "missing \"source\" or \"spec\"")
    in
    let p = Exec.params_of_json ~bound:cfg.sv_max_states req in
    let timeout_ms =
      match req_int req "timeout_ms" with
      | Some t when t > 0 ->
        if cfg.sv_timeout_ms > 0 then min t cfg.sv_timeout_ms else t
      | Some _ -> raise (Usage_error "\"timeout_ms\" must be positive")
      | None -> cfg.sv_timeout_ms
    in
    let outcome =
      Exec.exec cfg ~op
        ?deadline_ns:(deadline_of_ms timeout_ms)
        ~cache:(Option.value (req_bool req "cache") ~default:true)
        ~file p spec
    in
    ok_response ~id ~trace_id outcome
  with e ->
    Metrics.incr m_errors;
    let kind, message = error_of_exn e in
    Recorder.record Recorder.Error (kind ^ ": " ^ message);
    if dump_worthy kind then flight_dump cfg ~trace_id;
    error_response ~id ~trace_id kind message

let handle_line ?(seq = -1) cfg line =
  Metrics.incr m_requests;
  let t0 = Span.now_ns () in
  let parsed = Json.parse line in
  let trace_id =
    match parsed with
    | Ok req -> (
      match peek_str req "trace_id" with
      | Some t when t <> "" -> t
      | _ -> gen_trace_id ())
    | Error _ -> gen_trace_id ()
  in
  Span.with_trace ~trace_id @@ fun () ->
  Recorder.record Recorder.Dequeue
    (if seq >= 0 then Printf.sprintf "seq=%d" seq else "request");
  let op_name =
    match parsed with
    | Ok req -> Option.value (peek_str req "op") ~default:"?"
    | Error _ -> "?"
  in
  let slot = my_slot () in
  Option.iter
    (fun sl ->
      sl.sl_busy <- true;
      sl.sl_op <- op_name;
      sl.sl_trace <- trace_id;
      sl.sl_since_ns <- t0)
    slot;
  let resp =
    Span.with_ ~cat:"server" "server.request" @@ fun () ->
    match parsed with
    | Error msg ->
      Metrics.incr m_errors;
      Recorder.record Recorder.Error ("parse_error: " ^ msg);
      error_response ~id:Json.Null ~trace_id "parse_error" msg
    | Ok req -> handle_request cfg ~trace_id req
  in
  let ms = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e6 in
  Metrics.observe h_latency ms;
  if cfg.sv_slow_ms > 0. && ms > cfg.sv_slow_ms then begin
    Recorder.record Recorder.Slow (Printf.sprintf "%s %.1fms" op_name ms);
    Logs.warn (fun m ->
        m "slow request: op=%s trace=%s %.1f ms (threshold %.1f ms)" op_name
          trace_id ms cfg.sv_slow_ms)
  end;
  Option.iter
    (fun sl ->
      sl.sl_busy <- false;
      sl.sl_handled <- sl.sl_handled + 1)
    slot;
  Json.to_string resp

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

(* A minimal multi-domain channel; [None] is the poison pill. *)
module Chan = struct
  type 'a t = { q : 'a Queue.t; m : Mutex.t; c : Condition.t }

  let make () =
    { q = Queue.create (); m = Mutex.create (); c = Condition.create () }

  let push t v =
    Mutex.protect t.m (fun () ->
        Queue.push v t.q;
        Condition.signal t.c)

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.c t.m
    done;
    let v = Queue.pop t.q in
    Mutex.unlock t.m;
    v
end

let shutdown_flag = Atomic.make false
let request_shutdown () = Atomic.set shutdown_flag true

let serve_loop cfg ~fd_in oc =
  let work : (int * string) option Chan.t = Chan.make () in
  let results : (int * string) option Chan.t = Chan.make () in
  let nworkers = max 1 cfg.sv_workers in
  Atomic.set slots (Array.init nworkers (fun _ -> fresh_slot ()));
  Atomic.set queue_depth 0;
  let workers =
    Array.init nworkers (fun w ->
        Domain.spawn (fun () ->
            Domain.DLS.set slot_key w;
            Option.iter
              (fun sl -> sl.sl_domain <- (Domain.self () :> int))
              (my_slot ());
            let rec loop () =
              match Chan.pop work with
              | None -> ()
              | Some (seq, line) ->
                ignore (Atomic.fetch_and_add queue_depth (-1));
                Chan.push results (Some (seq, handle_line ~seq cfg line));
                loop ()
            in
            loop ()))
  in
  (* Responses leave in request order: the writer parks out-of-order
     results until their predecessors have been written. *)
  let writer =
    Domain.spawn (fun () ->
        let pending = Hashtbl.create 16 in
        let next = ref 0 in
        let rec flush_ready () =
          match Hashtbl.find_opt pending !next with
          | Some resp ->
            Hashtbl.remove pending !next;
            output_string oc resp;
            output_char oc '\n';
            flush oc;
            incr next;
            flush_ready ()
          | None -> ()
        in
        let rec loop () =
          match Chan.pop results with
          | None -> ()
          | Some (seq, resp) ->
            Hashtbl.replace pending seq resp;
            flush_ready ();
            loop ()
        in
        loop ())
  in
  let seq = ref 0 in
  let submit line =
    if String.trim line <> "" then begin
      Recorder.record Recorder.Enqueue (Printf.sprintf "seq=%d" !seq);
      ignore (Atomic.fetch_and_add queue_depth 1);
      Chan.push work (Some (!seq, line));
      incr seq
    end
  in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec split_lines () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      submit (String.sub s 0 i);
      split_lines ()
  in
  (* Short select timeouts keep the loop responsive to
     [request_shutdown] even when no input is pending. *)
  let rec read_loop () =
    if not (Atomic.get shutdown_flag) then
      match Unix.select [ fd_in ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_loop ()
      | [], _, _ -> read_loop ()
      | _ -> (
        match Unix.read fd_in chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_loop ()
        | 0 -> if Buffer.length buf > 0 then submit (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          split_lines ();
          read_loop ())
  in
  read_loop ();
  (* graceful drain: poison the workers, wait for every accepted
     request's response, then stop the writer *)
  for _ = 1 to nworkers do
    Chan.push work None
  done;
  Array.iter Domain.join workers;
  Chan.push results None;
  Domain.join writer

let serve_channels cfg ~fd_in oc =
  Atomic.set shutdown_flag false;
  serve_loop cfg ~fd_in oc

let serve_unix_socket cfg ~path =
  Atomic.set shutdown_flag false;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (try Sys.remove path with Sys_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let rec accept_loop () =
    if not (Atomic.get shutdown_flag) then
      match Unix.select [ sock ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ ->
        let client, _ = Unix.accept sock in
        let oc = Unix.out_channel_of_descr client in
        Fun.protect
          ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
          (fun () -> serve_loop cfg ~fd_in:client oc);
        accept_loop ()
  in
  accept_loop ()

(* ------------------------------------------------------------------ *)
(* Batch runs                                                          *)
(* ------------------------------------------------------------------ *)

module Batch = struct
  let result_of_path cfg ~op path =
    try
      let spec = Parser.parse_file path in
      let o =
        Exec.exec cfg ~op
          ?deadline_ns:(deadline_of_ms cfg.sv_timeout_ms)
          ~file:path
          { Exec.defaults with max_states = cfg.sv_max_states }
          spec
      in
      Json.Obj
        [ ("spec", Json.Str path);
          ("ok", Json.Bool true);
          ("cached", Json.Bool o.Exec.oc_cached);
          ("exit", Json.Int o.Exec.oc_exit);
          ("result", o.Exec.oc_result) ]
    with e ->
      let kind, message = error_of_exn e in
      Json.Obj
        [ ("spec", Json.Str path);
          ("ok", Json.Bool false);
          ( "error",
            Json.Obj
              [ ("kind", Json.Str kind); ("message", Json.Str message) ] ) ]

  let run cfg ~op ~jobs paths =
    let arr = Array.of_list paths in
    let n = Array.length arr in
    let out = Array.make n Json.Null in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- result_of_path cfg ~op arr.(i);
          loop ()
        end
      in
      loop ()
    in
    let jobs = max 1 (min jobs n) in
    let doms = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join doms;
    let ok = ref 0 and cached = ref 0 and failed = ref 0 in
    Array.iter
      (fun r ->
        print_string (Json.to_string r);
        print_newline ();
        let good =
          Json.member "ok" r = Some (Json.Bool true)
          && Json.member "exit" r = Some (Json.Int 0)
        in
        if good then incr ok else incr failed;
        if Json.member "cached" r = Some (Json.Bool true) then incr cached)
      out;
    Fmt.epr "fsa: batch: %d spec(s), %d ok, %d cached, %d failed@." n !ok
      !cached !failed;
    if !failed > 0 then 1 else 0
  end
