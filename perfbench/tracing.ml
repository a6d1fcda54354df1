(* The traced run: per-layer metrics, kept apart from the timed runs.

   Each op runs in its own trace ([op-<i>]) under an [op] span, with the
   program's observability on, so the spans it already records
   ([server.request], [tool], [tool.explore], [lts.explore],
   [tool.min_max], [tool.dependence_matrix], [hom.shared_build], ...)
   nest beneath it.  A span's self time is its duration minus its
   children's; [layer_of_span] maps each program span to a layer.

   The layers the program does not span inside an op (elaborate,
   digest, report build and emit, store key/find/add, the protocol
   codec, and parse on [serve]) are timed by replaying the op's calls
   to their public functions right after the op on the same inputs,
   each call once and under one layer, under a [probe] span in the
   same trace.  Those times are taken out of the op's unattributed self
   time; what remains is [core.residual].
   Side measurements (re-stepping every reached state, parallel
   exploration, the symmetry quotient, the flow graph) are probes too,
   but they are not part of the op and do not enter the accounting. *)

open Workloads

(* Program span -> layer metric prefix; [None] = unattributed. *)
let layer_of_span ~sym = function
  | "spec.parse" -> Some "spec.parse"
  | "lts.explore" | "lts.explore_par" -> Some "lts.explore"
  | "hom.shared_build" -> Some "hom.shared_build"
  (* the matrix span's own work is the per-pair verdicts; its only
     child is the shared build *)
  | "tool.dependence_matrix" | "hom.minimal_automaton" -> Some "hom.depends"
  (* under a symmetry plan [tool.explore] wraps exactly
     [Analysis.unfolded], which records no span of its own *)
  | "tool.explore" when sym -> Some "sym.unfold"
  | "tool" | "tool.explore" | "tool.min_max" | "tool.derive" -> Some "core.tool"
  | s when String.length s >= 6 && String.sub s 0 6 = "manual" -> Some "core.tool"
  | "flow.build" | "flow.analyse" -> Some "flow.analyse"
  | _ -> None

(* Layers whose in-op time comes from probes. *)
let probed =
  [ "spec.parse"; "spec.elaborate"; "spec.digest"; "sym.plan"; "report.build";
    "report.emit"; "store.key"; "store.find"; "store.add"; "server.protocol" ]

(* The layers an op's time is divided into (plus [core.residual]), in
   pipeline order. *)
let accounted =
  [ "spec.parse"; "spec.elaborate"; "spec.digest"; "sym.plan"; "lts.explore"; "sym.unfold";
    "hom.shared_build"; "hom.depends"; "core.tool"; "report.build"; "report.emit";
    "store.key"; "store.find"; "store.add"; "server.protocol" ]

(* Every per-layer metric, in output order: (name, unit). *)
let metric_specs =
  [ ("spec.parse_ms", "ms"); ("spec.elaborate_ms", "ms"); ("spec.digest_ms", "ms");
    ("apa.step_ms", "ms"); ("apa.rules_tried", "count");
    ("lts.explore_ms", "ms"); ("lts.states", "count"); ("lts.transitions", "count");
    ("lts.states_per_s", "1/s"); ("lts.dedup_hits", "count");
    ("lts.explore_alloc_mb", "MB"); ("lts.explore_par_ms", "ms");
    ("sym.plan_ms", "ms"); ("sym.quotient_ms", "ms"); ("sym.reps", "count");
    ("sym.unfold_ms", "ms"); ("sym.unfolded_states", "count");
    ("hom.shared_build_ms", "ms"); ("hom.depends_ms", "ms"); ("hom.alphabet", "count");
    ("hom.dfa_states", "count"); ("hom.early_pairs", "count"); ("hom.alloc_mb", "MB");
    ("core.tool_ms", "ms"); ("core.residual_ms", "ms");
    ("flow.analyse_ms", "ms"); ("flow.pairs_pruned", "count");
    ("report.build_ms", "ms"); ("report.emit_ms", "ms"); ("report.bytes", "B");
    ("store.key_ms", "ms"); ("store.find_ms", "ms"); ("store.add_ms", "ms");
    ("store.hits", "count"); ("store.misses", "count"); ("store.bytes_written", "B");
    ("server.handle_ms", "ms"); ("server.protocol_ms", "ms"); ("server.response_bytes", "B");
    ("gc.alloc_mb_per_op", "MB"); ("gc.minor_collections_per_op", "count");
    ("gc.major_collections_per_op", "count"); ("host.spin_ms", "ms") ]

(* ---- allocation inside program spans ------------------------------ *)

(* Bytes allocated inside spans of a given name, on the main domain;
   fed by the span phase hook. *)
let alloc_in : (string, float) Hashtbl.t = Hashtbl.create 16
let alloc_stack : (string * float) list ref = ref []
let main_domain = (Domain.self () :> int)

let install_alloc_hook () =
  Span.set_phase_hook (fun phase name _ ->
      if (Domain.self () :> int) = main_domain then
        match phase with
        | `Start -> alloc_stack := (name, Gc.allocated_bytes ()) :: !alloc_stack
        | `End -> (
          match !alloc_stack with
          | (n, a0) :: rest when n = name ->
            alloc_stack := rest;
            let prev = Option.value ~default:0. (Hashtbl.find_opt alloc_in name) in
            Hashtbl.replace alloc_in name (prev +. Gc.allocated_bytes () -. a0)
          | _ -> ()))

(* ---- accumulation ------------------------------------------------ *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
let get k = Option.value ~default:0. (Hashtbl.find_opt sums k)

let counter name = Metrics.counter_value (Metrics.counter name)

let op_counters =
  [ ("apa.rules_tried", "apa.rules_tried"); ("lts.states", "lts.states_explored");
    ("lts.transitions", "lts.transitions"); ("lts.dedup_hits", "lts.dedup_hits");
    ("store.hits", "store.hits"); ("store.misses", "store.misses") ]

(* [f ()] timed in ms, recorded as a span named [name]. *)
let probe name f =
  let t0 = Stats.now () in
  let v = Span.with_ ~cat:"probe" name f in
  (v, (Stats.now () -. t0) *. 1000.)

(* [f ()] probed and its time added to layer [name]. *)
let timed name f =
  let v, ms = probe name f in
  add name ms;
  v

(* Untraced, uncounted: inputs the probes need. *)
let quietly f =
  Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled true) f

let jobs = min 2 (Domain.recommended_domain_count ())

type analysed =
  | Tool of { spec : Fsa_spec.Ast.t; apa : Apa.t; plan : Sym.plan option; tr : Analysis.tool_report }
  | Manual of (Analysis.Sos.t * Analysis.manual_report) list
      (** a spec without instances: the report op's manual path *)

(* One analysis per distinct (text, reduction), outside the trace. *)
let analysed_memo : (string * bool, analysed option) Hashtbl.t = Hashtbl.create 64

let analysed ~reduce text =
  let key = (text, reduce <> None) in
  match Hashtbl.find_opt analysed_memo key with
  | Some a -> a
  | None ->
    let a =
      quietly (fun () ->
          try
            let spec = Parser.parse_string text in
            if (Elaborate.env_of_spec spec).Elaborate.instances = [] then
              Some (Manual (List.map (fun s -> (s, Analysis.manual s)) (Elaborate.sos_list spec)))
            else
              let apa = Elaborate.apa_of_spec spec in
              let plan =
                Option.map
                  (fun k ->
                    let sigs = Elaborate.guard_signatures spec in
                    Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) k apa)
                  reduce
              in
              Some (Tool { spec; apa; plan; tr = Analysis.tool ?reduce:plan ~stakeholder apa })
          with _ -> None)
    in
    if Hashtbl.length analysed_memo > 256 then Hashtbl.reset analysed_memo;
    Hashtbl.replace analysed_memo key a;
    a

let settings ~reduce =
  { Report.sg_path = "tool";
    sg_method = "abstract";
    sg_engine = "shared-v1";
    sg_reduce = (match reduce with None -> "none" | Some k -> Sym.kind_to_string k);
    sg_prune = "none";
    sg_max_states = 1_000_000 }

(* The emission an op does: every op that builds a report embeds its
   JSON; only the report op renders Markdown as well.  [report.bytes] is
   the size of the JSON the op carries. *)
let probe_emit ~op rs =
  let js =
    timed "report.emit" (fun () ->
        let js = List.map Report.to_json rs in
        if op = "report" then List.iter (fun r -> ignore (Report.to_markdown r)) rs;
        js)
  in
  List.iter (fun j -> add "report.bytes" (float_of_int (String.length (Json.to_string j)))) js

(* The part of [Exec.run]'s computation for a [reach], [requirements] or
   [report] op that the program records no span for, replayed on the
   op's spec with every function timed once, under its own layer, in
   the order the op calls it.  [Analysis.tool] and [Analysis.manual]
   are not replayed: their spans are in the op's own trace. *)
let probe_compute ~op ~reduce ~cache spec a =
  if op = "report" then ignore (timed "spec.elaborate" (fun () -> Elaborate.env_of_spec spec));
  match a with
  | Manual runs ->
    let soses = timed "spec.elaborate" (fun () -> Elaborate.sos_list spec) in
    let digest =
      timed "spec.digest" (fun () -> Elaborate.digest_of_spec ~parts:[ `Models ] spec)
    in
    let rs =
      timed "report.build" (fun () ->
          List.map2 (fun s (_, m) -> Report.of_manual ~digest s m) soses runs)
    in
    probe_emit ~op rs
  | Tool a ->
    ignore (timed "spec.elaborate" (fun () -> Elaborate.apa_of_spec spec));
    Option.iter
      (fun k ->
        ignore
          (timed "sym.plan" (fun () ->
               let sigs = Elaborate.guard_signatures spec in
               Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) k a.apa)))
      reduce;
    if op <> "reach" then begin
      (* with a store, the shared engine's quotient cache keys on the
         APA digest *)
      if cache then
        ignore (timed "spec.digest" (fun () -> Elaborate.digest_of_spec ~parts:[ `Apa ] spec));
      (* the arguments of Report.of_tool, then the build itself *)
      let skeleton = timed "spec.elaborate" (fun () -> Elaborate.skeleton_of_spec spec) in
      let soses = timed "spec.elaborate" (fun () -> Elaborate.sos_list spec) in
      let digest =
        timed "spec.digest" (fun () -> Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec)
      in
      let alphabet = Apa.rule_names a.apa in
      let r =
        timed "report.build" (fun () ->
            Report.of_tool ~origins:(Report.origins_of_skeleton skeleton) ~soses ~alphabet
              ~digest ~settings:(settings ~reduce) a.tr)
      in
      probe_emit ~op [ r ]
    end

(* Side measurements on the op's model; not part of the op. *)
let side_probes = function
  | Manual _ -> ()
  | Tool a ->
    let lts = a.tr.Analysis.t_lts in
    ignore
      (timed "apa.step" (fun () ->
           for i = 0 to Lts.nb_states lts - 1 do
             ignore (Apa.step a.apa (Lts.state lts i))
           done));
    ignore (timed "lts.explore_par" (fun () -> Lts.explore_par ~jobs a.apa));
    Option.iter
      (fun pl -> ignore (timed "sym.quotient" (fun () -> Analysis.quotient pl a.apa)))
      a.plan;
    (match a.tr.Analysis.t_reduction with
    | Some ri when a.plan <> None ->
      add "sym.reps" (float_of_int ri.Analysis.ri_reduced_states);
      add "sym.unfolded_states" (float_of_int (Lts.nb_states lts))
    | _ -> ());
    let g =
      timed "flow.analyse" (fun () ->
          let g =
            Flow.build
              ~attribution:(Fsa_check.Check.flow_attribution (Elaborate.skeleton_of_spec a.spec))
              a.apa
          in
          ignore (Flow.analyse g);
          g)
    in
    let pruned =
      List.length
        (List.filter
           (fun (mn, mx, _) ->
             Flow.independent g ~min:(Action.label mn) ~max:(Action.label mx))
           (Analysis.matrix_pairs a.tr))
    in
    add "flow.pairs_pruned" (float_of_int pruned);
    Option.iter
      (fun e ->
        add "hom.alphabet" (float_of_int (Action.Set.cardinal (Hom.Shared.alphabet e)));
        add "hom.dfa_states" (float_of_int (Hom.A.Dfa.nb_states (Hom.Shared.dfa e)));
        add "hom.early_pairs" (float_of_int (Hom.Shared.early_count e)))
      a.tr.Analysis.t_engine

(* Fleet ops run with [~cache:false]: no store digest, key, find or add.
   The parse is a span of the op itself. *)
let fleet_probes env rq =
  match analysed ~reduce:env.reduce rq.rq_source with
  | None -> ()
  | Some a ->
    let spec = Parser.parse_string rq.rq_source in
    probe_compute ~op:"report" ~reduce:env.reduce ~cache:false spec a;
    side_probes a

(* The cache key [Exec.run] derives for the serve ops (default
   max_states, abstract method, shared engine, no flow pruning). *)
let store_params = function
  | "reach" -> [ ("max_states", "1000000") ]
  | _ ->
    [ ("max_states", "1000000"); ("method", "abstract"); ("engine", "shared-v1");
      ("flow", "none") ]

let key_drift = ref 0

let serve_probes env rq ~line ~cached ~ok =
  let st = Option.get env.store in
  let resp = Result.get_ok (Json.parse line) in
  ignore
    (timed "server.protocol" (fun () ->
         ignore (Json.parse rq.rq_line);
         ignore (Json.to_string resp)));
  add "server.response_bytes" (float_of_int (String.length line));
  let spec = timed "spec.parse" (fun () -> Parser.parse_string rq.rq_source) in
  let cacheable = List.mem rq.rq_op [ "reach"; "requirements"; "report" ] in
  let a = if cacheable && ok then analysed ~reduce:None rq.rq_source else None in
  if cacheable then begin
    let parts = if rq.rq_op = "reach" then [ `Apa ] else [ `Apa; `Models ] in
    match timed "spec.digest" (fun () -> Elaborate.digest_of_spec ~parts spec) with
    | exception _ -> ()
    | digest ->
      let key =
        timed "store.key" (fun () ->
            Store.cache_key ~digest ~kind:rq.rq_op ~params:(store_params rq.rq_op))
      in
      if cached = Some true then begin
        if timed "store.find" (fun () -> Store.find st ~key) = None then incr key_drift
      end
      else begin
        ignore (timed "store.find" (fun () -> Store.find st ~key:(key ^ "-absent")));
        Option.iter (probe_compute ~op:rq.rq_op ~reduce:None ~cache:true spec) a;
        if ok then
          match Store.find st ~key with
          | None -> incr key_drift
          | Some e ->
            timed "store.add" (fun () -> Store.add st e);
            add "store.bytes_written"
              (float_of_int (String.length (Json.to_string (Store.entry_to_json e))))
      end
  end;
  (* side measurements on every op that elaborates a model *)
  Option.iter side_probes a

(* Self time per layer of one op's span tree; returns (op_ms,
   unattributed_ms).  [Server.handle_line] roots its own trace context,
   so its spans carry the op's trace id but no parent: every span of
   the trace outside the [probe] subtree belongs to the op. *)
let account ~sym ~trace events =
  let evs = List.filter (fun e -> e.Span.ev_trace = trace) events in
  let by_id = Hashtbl.create 32 and children = Hashtbl.create 32 in
  List.iter
    (fun e ->
      Hashtbl.replace by_id e.Span.ev_id e;
      let p = e.Span.ev_parent in
      Hashtbl.replace children p
        (Int64.add e.Span.ev_dur_ns (Option.value ~default:0L (Hashtbl.find_opt children p))))
    evs;
  let rec under_probe e =
    e.Span.ev_name = "probe"
    || match Hashtbl.find_opt by_id e.Span.ev_parent with
       | Some p -> under_probe p
       | None -> false
  in
  let ms ns = Int64.to_float ns /. 1e6 in
  match List.find_opt (fun e -> e.Span.ev_name = "op") evs with
  | None -> (0., 0.)
  | Some root ->
    let inner =
      List.filter (fun e -> e.Span.ev_id <> root.Span.ev_id && not (under_probe e)) evs
    in
    let top =
      List.filter
        (fun e -> e.Span.ev_parent = root.Span.ev_id || e.Span.ev_parent = 0)
        inner
    in
    let root_self =
      ms root.Span.ev_dur_ns
      -. List.fold_left (fun acc e -> acc +. ms e.Span.ev_dur_ns) 0. top
    in
    let unattributed = ref root_self in
    List.iter
      (fun e ->
        let self =
          ms (Int64.sub e.Span.ev_dur_ns
                (Option.value ~default:0L (Hashtbl.find_opt children e.Span.ev_id)))
        in
        match layer_of_span ~sym e.Span.ev_name with
        | Some l -> add ("self." ^ l) self
        | None -> unattributed := !unattributed +. self)
      inner;
    (ms root.Span.ev_dur_ns, !unattributed)

let keep_traced_ops = 40

type traced = { ops : int; t : tally; chrome : string; table : string; metrics : Stats.metric list }

let traced_run env ~seconds =
  Hashtbl.reset sums;
  Metrics.set_enabled true;
  install_alloc_hook ();
  let spin0 = Stats.spin_ms () in
  let t = tally () in
  let sym = env.reduce <> None in
  let chrome = ref "" in
  let start = Stats.now () in
  let i = ref 0 in
  (* whole passes of the script, so per-op counts are exact *)
  while !i = 0 || !i mod env.cycle <> 0 || Stats.now () -. start < seconds do
    let rq = env.next !i in
    let trace = Printf.sprintf "op-%d" !i in
    let c0 = List.map (fun (_, c) -> counter c) op_counters in
    Hashtbl.reset alloc_in;
    let g0 = Gc.quick_stat () and a0 = Stats.allocated_mb () in
    let raw =
      Span.with_trace ~trace_id:trace (fun () ->
          Span.with_ ~cat:"bench" "op" (fun () ->
              match env.workload with
              | "serve" -> run_op env rq
              | _ -> (
                try
                  let spec = Span.with_ ~cat:"bench" "spec.parse" (fun () ->
                      Parser.parse_string rq.rq_source) in
                  Outcome
                    (Exec.run env.cfg ~op:Exec.Report ?reduce:env.reduce ~cache:false
                       ~file:"fleet.fsa" spec)
                with e -> Failed (Printexc.to_string e))))
    in
    let a1 = Stats.allocated_mb () and g1 = Gc.quick_stat () in
    add "gc.alloc_mb_per_op" (a1 -. a0);
    add "gc.minor_collections_per_op" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    add "gc.major_collections_per_op" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    List.iter2 (fun (m, c) v0 -> add m (float_of_int (counter c - v0))) op_counters c0;
    let mb name = Option.value ~default:0. (Hashtbl.find_opt alloc_in name) /. 1048576. in
    add "lts.explore_alloc_mb" (mb "lts.explore");
    add "hom.alloc_mb" (mb "hom.shared_build");
    let resp, cached = record_check t rq raw in
    let before = Hashtbl.copy sums in
    Span.with_trace ~trace_id:trace (fun () ->
        Span.with_ ~cat:"bench" "probe" (fun () ->
            match raw with
            | Line line ->
              serve_probes env rq ~line ~cached ~ok:(Result.is_ok resp)
            | Outcome _ -> fleet_probes env rq
            | Failed _ -> ()));
    let op_ms, unattributed = account ~sym ~trace (Span.events ()) in
    add "op" op_ms;
    if env.workload = "serve" then add "server.handle" op_ms;
    (* probe estimates of this op's unspanned layers come out of its
       unattributed time *)
    let probed_ms =
      List.fold_left
        (fun acc l ->
          acc +. (Option.value ~default:0. (Hashtbl.find_opt sums l)
                  -. Option.value ~default:0. (Hashtbl.find_opt before l)))
        0. probed
    in
    add "core.residual" (unattributed -. probed_ms);
    incr i;
    if !i = keep_traced_ops then chrome := Span.to_chrome_json ();
    if !i >= keep_traced_ops then Span.reset ()
  done;
  if !chrome = "" then chrome := Span.to_chrome_json ();
  Span.reset ();
  Metrics.set_enabled false;
  let spin1 = Stats.spin_ms () in
  let n = float_of_int !i in
  let per_op k = get k /. n in
  let layer_ms l = (get ("self." ^ l) +. if List.mem l probed then get l else 0.) /. n in
  let explore_s = get "self.lts.explore" /. 1000. in
  let value = function
    | "lts.states_per_s" -> if explore_s > 0. then get "lts.states" /. explore_s else 0.
    | "host.spin_ms" -> (spin0 +. spin1) /. 2.
    | name when Filename.check_suffix name "_ms" ->
      let l = Filename.chop_suffix name "_ms" in
      if List.mem l accounted then layer_ms l else per_op l
    | name -> per_op name
  in
  let metrics =
    List.map (fun (name, u) -> Stats.metric ~samples:!i name u (value name)) metric_specs
  in
  let op_ms = per_op "op" in
  let table =
    let b = Buffer.create 1024 in
    Printf.bprintf b "traced %s: %d ops, %.3f ms/op (self time per layer, share of the op)\n"
      env.workload !i op_ms;
    let covered = ref 0. in
    List.iter
      (fun l ->
        let ms = layer_ms l in
        covered := !covered +. ms;
        Printf.bprintf b "  %-18s %12.4f ms  %6.2f %%\n" l ms (100. *. ms /. op_ms))
      accounted;
    let res = per_op "core.residual" in
    Printf.bprintf b "  %-18s %12.4f ms  %6.2f %%\n" "core.residual" res (100. *. res /. op_ms);
    Printf.bprintf b "  %-18s %12.4f ms  %6.2f %%\n" "(sum)" (!covered +. res)
      (100. *. (!covered +. res) /. op_ms);
    Printf.bprintf b "  side measurements (not part of the op): apa.step %.3f ms, \
                      lts.explore_par %.3f ms (jobs=%d), sym.quotient %.3f ms, flow.analyse %.3f ms\n"
      (per_op "apa.step") (per_op "lts.explore_par") jobs (per_op "sym.quotient")
      (per_op "flow.analyse");
    if !key_drift > 0 then
      Printf.bprintf b "  warning: %d store probes did not find the op's entry (key drift)\n"
        !key_drift;
    Buffer.contents b
  in
  { ops = !i; t; chrome = !chrome; table; metrics }
