(* The three workloads, their set-up, the timed run and the traced run.

   fleet / fleet-sym: one client calls [Exec.run ~op:Report ~cache:false]
   on generated 4-pair fleets (fleet-sym with [~reduce:Sym_por]); an op
   is spec text to rendered report, parse included.
   serve: one client maps request lines through [Server.handle_line]
   against a store in a fresh directory, following a seeded script of
   repeats (store hits), first-seen fleets (misses) and checks. *)

module Server = Fsa_server.Server
module Exec = Server.Exec
module Json = Fsa_store.Json
module Store = Fsa_store.Store
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Analysis = Fsa_core.Analysis
module Report = Fsa_report.Report
module Sym = Fsa_sym.Sym
module Flow = Fsa_flow.Flow
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Span = Fsa_obs.Span
module Metrics = Fsa_obs.Metrics
module Action = Fsa_term.Action

let names = [ "fleet"; "fleet-sym"; "serve" ]

(* The stakeholder assignment the CLI and the daemon pass. *)
let stakeholder = Fsa_vanet.Vehicle_apa.stakeholder

let fleet_pairs = 4
let fleet_variants = 3

(* Bundled specs served by [serve]; evita_fleet is the fleet workloads'
   own input and too large for a request mix. *)
let bundled =
  [ "two_vehicles"; "four_vehicles"; "platoon"; "smart_grid"; "leaky_gateway";
    "evita_onboard" ]

type request = {
  rq_op : string;  (** reach | requirements | report | check *)
  rq_source : string;
  rq_ref : Reference.t;
  rq_line : string;  (** the request line ([serve] only) *)
}

type env = {
  workload : string;
  cfg : Server.config;
  store : Store.t option;
  reduce : Sym.kind option;
  cycle : int;  (** ops in one pass of the workload's script *)
  next : int -> request;  (** the [i]-th op of the run *)
  hit : request option;  (** fleet: the op the store answers between ops *)
  probes : request list;
      (** ops a documented program defect makes fail: run once after
          the run and reported, never among the counted ops *)
  workdir : string;  (** directory removed when the run ends *)
}

(* ---- files ------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The trace id names the op, so the traced run finds the program's
   spans for it. *)
let request_line ~id ~op ~source =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int id); ("op", Json.Str op); ("source", Json.Str source);
         ("trace_id", Json.Str (Printf.sprintf "op-%d" id)) ])

(* ---- set-up ------------------------------------------------------ *)

let fleet_setup ~root:_ ~workdir ~seed ~reduce =
  let rng = Gen.rng seed in
  let fleets = List.init fleet_variants (fun _ -> Gen.fleet rng ~pairs:fleet_pairs) in
  let reqs =
    Array.of_list
      (List.map
         (fun f ->
           (* parsing is part of set-up as well as of every op *)
           ignore (Parser.parse_string f.Gen.f_text);
           { rq_op = "report";
             rq_source = f.Gen.f_text;
             rq_ref = Reference.of_fleet ~graph:(reduce = None) f;
             rq_line = "" })
         fleets)
  in
  let store = Store.open_ ~max_bytes:(1 lsl 30) ~dir:(Filename.concat workdir "store") () in
  let cfg = Server.config ~store ~stakeholder () in
  (* warm-up: one full op, which also stores the outcome the hits
     replay *)
  ignore
    (Exec.run cfg ~op:Exec.Report ?reduce ~file:"fleet.fsa"
       (Parser.parse_string reqs.(0).rq_source));
  { workload = (if reduce = None then "fleet" else "fleet-sym");
    cfg;
    store = Some store;
    reduce;
    cycle = 1;
    next = (fun i -> reqs.(i mod Array.length reqs));
    hit = Some reqs.(0);
    probes = [];
    workdir }

(* Per pass of the serve script: every hit-set request once (a third of
   them as reformatted text), [serve_misses] first-seen fleets and one
   check per bundled spec, shuffled per pass.  These shares are assumed,
   not taken from recorded traffic (see README.md). *)
let serve_variants = 12

(* The store's size budget.  Every add scans the store directory to
   evict, so an add costs more the more entries the store holds; set-up
   fills the store close to this budget, so the timed run starts in the
   steady state of a full cache, where each first-seen request evicts
   the oldest entries, instead of measuring a store that grows with the
   run's length. *)
let serve_store_bytes = 1 lsl 20

let serve_misses =
  List.concat_map
    (fun op -> [ (1, op); (2, op) ])
    [ "reach"; "requirements"; "report"; "requirements"; "report"; "reach" ]

let serve_setup ~root ~workdir ~seed =
  let rng = Gen.rng seed in
  let spec_dir = Filename.concat root "examples/specs" in
  let ref_dir = Filename.concat root "perfbench/expected" in
  let specs =
    List.map
      (fun name ->
        ( read_file (Filename.concat spec_dir (name ^ ".fsa")),
          Reference.load (Filename.concat ref_dir (name ^ ".expected")) ))
      bundled
  in
  let variants =
    List.map
      (fun n ->
        let f = Gen.fleet rng ~pairs:n in
        (f.Gen.f_text, Reference.of_fleet f))
      (List.init serve_variants (fun k -> 1 + (k mod 2)))
  in
  let requests (text, r) =
    List.filter_map
      (fun op ->
        if List.mem op (Reference.ops r) then
          Some { rq_op = op; rq_source = text; rq_ref = r; rq_line = "" }
        else None)
      [ "reach"; "requirements"; "report" ]
  in
  (* The ops a documented stakeholder defect makes fail (requirements
     and report on smart_grid) are not in the script, so that no
     counted op fails; [probes] runs them once per run and reports the
     defect. *)
  let defective rq =
    rq.rq_ref.Reference.known_stakeholder_defect <> None && rq.rq_op <> "reach"
  in
  let probes, hit_set = List.partition defective (List.concat_map requests (specs @ variants)) in
  let checks =
    List.map
      (fun (text, r) -> { rq_op = "check"; rq_source = text; rq_ref = r; rq_line = "" })
      specs
  in
  let store =
    Store.open_ ~max_bytes:serve_store_bytes ~dir:(Filename.concat workdir "store") ()
  in
  let cfg = Server.config ~store ~stakeholder () in
  let with_line id rq = { rq with rq_line = request_line ~id ~op:rq.rq_op ~source:rq.rq_source } in
  List.iteri (fun i rq -> ignore (Server.handle_line cfg (with_line i rq).rq_line)) hit_set;
  (* fill to 90 % of the budget with analyses of other first-seen
     fleets (numbered apart from the run's), evicting nothing yet *)
  let k = ref 0 in
  while snd (Store.occupancy store) < serve_store_bytes * 9 / 10 do
    for _ = 1 to 8 do
      let f = Gen.fresh_fleet rng ~pairs:(1 + (!k mod 2)) (50_000 + !k) in
      let op = List.nth [ "reach"; "requirements"; "report" ] (!k mod 3) in
      ignore
        (Server.handle_line cfg (request_line ~id:(-1000 - !k) ~op ~source:f.Gen.f_text));
      incr k
    done
  done;
  let fresh = ref 0 in
  let pass c =
    let prng = Gen.rng ((seed * 7919) + c) in
    let hits =
      List.mapi
        (fun k rq ->
          if k mod 3 = 2 then { rq with rq_source = Gen.reformat k rq.rq_source } else rq)
        hit_set
    in
    let misses =
      List.map
        (fun (n, op) ->
          let f = Gen.fresh_fleet prng ~pairs:n !fresh in
          incr fresh;
          { rq_op = op; rq_source = f.Gen.f_text; rq_ref = Reference.of_fleet f; rq_line = "" })
        serve_misses
    in
    Array.of_list (Gen.shuffle prng (hits @ misses @ checks))
  in
  let cycle = List.length hit_set + List.length serve_misses + List.length checks in
  let current = ref (-1, [||]) in
  let next i =
    let c = i / cycle in
    if fst !current <> c then current := (c, pass c);
    with_line i (snd !current).(i mod cycle)
  in
  (* warm-up: one pass of the script, numbered apart from the run's ops;
     its hits make the hit set the most recently used entries *)
  Array.iteri
    (fun k rq -> ignore (Server.handle_line cfg (with_line (-1 - k) rq).rq_line))
    (pass (-1));
  let probes = List.mapi (fun k rq -> with_line (-100_000 - k) rq) probes in
  { workload = "serve"; cfg; store = Some store; reduce = None; cycle; next; hit = None; probes;
    workdir }

let setup ~root ~seed workload =
  let workdir =
    Filename.concat root
      (Printf.sprintf ".perfbench/run-%d-%s" (Unix.getpid ()) workload)
  in
  rm_rf workdir;
  mkdir_p workdir;
  match workload with
  | "fleet" -> fleet_setup ~root ~workdir ~seed ~reduce:None
  | "fleet-sym" -> fleet_setup ~root ~workdir ~seed ~reduce:(Some Sym.Sym_por)
  | "serve" -> serve_setup ~root ~workdir ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let teardown env = rm_rf env.workdir

(* ---- one op ------------------------------------------------------ *)

type raw = Outcome of Exec.outcome | Line of string | Failed of string

let run_op env rq =
  match env.workload with
  | "serve" -> Line (Server.handle_line env.cfg rq.rq_line)
  | _ -> (
    try
      Outcome
        (Exec.run env.cfg ~op:Exec.Report ?reduce:env.reduce ~cache:false ~file:"fleet.fsa"
           (Parser.parse_string rq.rq_source))
    with e -> Failed (Printexc.to_string e))

(* The op's answer as the checker sees it, and its [cached] flag. *)
let interpret raw =
  match raw with
  | Failed msg -> (Error ("exception: " ^ msg), None)
  | Outcome o -> (Ok (o.Exec.oc_exit, o.Exec.oc_result), Some o.Exec.oc_cached)
  | Line l -> (
    match Json.parse l with
    | Error e -> (Error ("unparsable response: " ^ e), None)
    | Ok j -> (
      let cached = Option.bind (Json.member "cached" j) Json.to_bool in
      match Option.bind (Json.member "ok" j) Json.to_bool with
      | Some true ->
        let exit = Option.value ~default:(-1) (Option.bind (Json.member "exit" j) Json.to_int) in
        let result = Option.value ~default:Json.Null (Json.member "result" j) in
        (Ok (exit, result), cached)
      | _ ->
        let kind =
          Option.bind (Json.member "error" j) (fun e ->
              Option.bind (Json.member "kind" e) Json.to_str)
        in
        (Error (Option.value kind ~default:"?"), cached)))

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
}

let tally () = { attempted = 0; failed = 0; first_error = None }

let describe = function
  | Reference.Ok -> "ok"
  | Reference.Mismatch m | Reference.Stakeholder_mismatch m -> m

let record_check t rq raw =
  let resp, cached = interpret raw in
  let verdict = Reference.check rq.rq_ref ~op:rq.rq_op resp in
  t.attempted <- t.attempted + 1;
  (match verdict with
  | Reference.Ok -> ()
  | v ->
    t.failed <- t.failed + 1;
    if t.first_error = None then
      t.first_error <- Some (Printf.sprintf "%s op: %s" rq.rq_op (describe v)));
  (resp, cached)

(* One line per defect probe: still failing as documented, or fixed. *)
let probe_known_defects env =
  List.map
    (fun rq ->
      let resp, _ = interpret (run_op env rq) in
      let why = Option.value rq.rq_ref.Reference.known_stakeholder_defect ~default:"" in
      match Reference.check rq.rq_ref ~op:rq.rq_op resp with
      | Reference.Ok -> Printf.sprintf "known defect fixed (%s op): %s" rq.rq_op why
      | v -> Printf.sprintf "known defect, not counted (%s op): %s: %s" rq.rq_op why (describe v))
    env.probes

(* ---- the timed run ----------------------------------------------- *)

type timed = {
  op_ms : float list;
  hit_ms : float list;
  miss_ms : float list;
  window_s : float;
      (** timed wall time, without building requests, checking answers
          and the fleet hits *)
  peak_mb : float;  (** top heap once set-up and the first op are done *)
  t : tally;
}

(* Fleet workloads: after every op, the same report answered from the
   store [hits_per_op] times, so hit samples spread over the whole run.
   They are timed apart from the ops and from the window. *)
let hits_per_op = 10

let timed_run env ~seconds =
  let t = tally () in
  let op_ms = Stats.samples () and hit_ms = Stats.samples () and miss_ms = Stats.samples () in
  let start = Stats.now () and aside = ref 0. in
  let i = ref 0 and peak_mb = ref 0. in
  while !i = 0 || Stats.now () -. start < seconds do
    (* building the request (a new pass of the script, its spec texts
       and request lines) is the client's work, not the program's *)
    let tn = Stats.now () in
    let rq = env.next !i in
    let t0 = Stats.now () in
    aside := !aside +. (t0 -. tn);
    let raw = run_op env rq in
    let t1 = Stats.now () in
    let ms = (t1 -. t0) *. 1000. in
    Stats.push op_ms ms;
    (* The top heap is read at a fixed amount of work: every set-up and
       one op.  Later in a run it climbs in ~10 MB steps on fleet, as
       major-GC work left by one op overlaps the next (live data after a
       full major stays the same from op to op), so a reading at the end
       would depend on how many ops the host got through. *)
    if !i = 0 then peak_mb := Stats.peak_heap_mb ();
    let _, cached = record_check t rq raw in
    (* [check] never consults the store, so its [cached: false] is no
       store miss; counted among the misses, its 0.1-1 ms answers put
       the misses' median in the gap between reach (~2 ms) and
       requirements/report (~3-7 ms), where it jumped with the host *)
    (match cached with
    | Some true -> Stats.push hit_ms ms
    | Some false when rq.rq_op <> "check" -> Stats.push miss_ms ms
    | _ -> ());
    Option.iter
      (fun hrq ->
        for _ = 1 to hits_per_op do
          let h0 = Stats.now () in
          let o =
            Exec.run env.cfg ~op:Exec.Report ?reduce:env.reduce ~file:"fleet.fsa"
              (Parser.parse_string hrq.rq_source)
          in
          let ms = (Stats.now () -. h0) *. 1000. in
          ignore (record_check t hrq (Outcome o));
          if o.Exec.oc_cached then Stats.push hit_ms ms
        done)
      env.hit;
    aside := !aside +. (Stats.now () -. t1);
    incr i
  done;
  let window_s = Stats.now () -. start -. !aside in
  { op_ms = Stats.to_list op_ms; hit_ms = Stats.to_list hit_ms;
    miss_ms = Stats.to_list miss_ms; window_s; peak_mb = !peak_mb; t }

(* The end-to-end metrics of a timed run, in output order. *)
let end_to_end r ~setup_s =
  let n xs = List.length xs in
  let med name xs =
    Stats.metric ~samples:(n xs) name "ms" (if xs = [] then 0. else Stats.median xs)
  in
  let ops = n r.op_ms in
  [ med "op_ms_p50" r.op_ms;
    Stats.metric ~samples:ops "op_ms_p99" "ms" (Stats.quantile r.op_ms 0.99);
    Stats.metric ~samples:ops "ops_per_s" "1/s" (float_of_int ops /. r.window_s);
    med "hit_ms_p50" r.hit_ms;
    med "miss_ms_p50" r.miss_ms;
    Stats.metric ~samples:(n setup_s) "setup_s" "s" (Stats.median setup_s);
    Stats.metric "peak_heap_mb" "MB" r.peak_mb;
    Stats.metric ~samples:r.t.attempted "ok_ratio" "ratio"
      (float_of_int (r.t.attempted - r.t.failed) /. float_of_int r.t.attempted) ]
