(* Reachability graphs (Definition 3 of the paper).

   The behaviour of an APA is the set of all coherent sequences of state
   transitions starting in the initial state; state transitions are the
   labelled edges of a directed graph whose nodes are the reachable global
   states.  States are numbered in breadth-first discovery order starting
   from 1, and printed M-1, M-2, ... in the style of the SH verification
   tool. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module State = Fsa_apa.Apa.State

type transition = { t_src : int; t_label : Action.t; t_dst : int }

type graph = {
  apa_name : string;
  states : State.t array;
  initial : int;  (* always 0 *)
  succs : transition list array;  (* outgoing transitions, by source *)
  preds : transition list array;  (* incoming transitions, by target *)
}

(* A graph, or the promise of one: {!explore_lazy} defers the
   exploration to the first accessor that needs the graph.  The lock
   makes that first force safe when two domains reach it at once. *)
type t = { lz_name : string; lz_graph : graph Lazy.t; lz_lock : Mutex.t }

let of_value g =
  { lz_name = g.apa_name; lz_graph = Lazy.from_val g; lz_lock = Mutex.create () }

let graph t =
  if Lazy.is_val t.lz_graph then Lazy.force t.lz_graph
  else Mutex.protect t.lz_lock (fun () -> Lazy.force t.lz_graph)

exception State_space_too_large of int

let log_src = Logs.Src.create "fsa.lts" ~doc:"state-space exploration"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics
module Span = Fsa_obs.Span
module Progress = Fsa_obs.Progress

let m_states = Metrics.counter "lts.states_explored"
let m_transitions = Metrics.counter "lts.transitions"
let m_dedup = Metrics.counter "lts.dedup_hits"
let m_shard_conflicts = Metrics.counter "lts.shard_conflicts"
let g_frontier_peak = Metrics.gauge "lts.frontier_peak"
let g_rate = Metrics.gauge "lts.states_per_sec"
let g_domains = Metrics.gauge "lts.domains"

let h_out_degree =
  Metrics.histogram ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "lts.out_degree"

module State_table = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

(* Growable arrays for the exploration accumulators.  The previous list
   accumulators were built reversed and re-walked at the end; appending
   into a doubling array keeps the hot loop allocation-light and the
   final assembly a plain [Array.sub]. *)
module Buf = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length b = b.len
  let get b i = b.data.(i)

  let push b x =
    let cap = Array.length b.data in
    if b.len = cap then begin
      let data = Array.make (max 16 (2 * cap)) x in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len

  let iter f b =
    for i = 0 to b.len - 1 do
      f b.data.(i)
    done
end

(* Exploration-time reduction hooks (symmetry / partial order, see
   Fsa_sym).  Both must be pure functions of their arguments: the
   sequential and the parallel explorer apply them transition-by-
   transition and rely on that purity for bit-identical results. *)
type reduction = {
  rd_canon : State.t -> State.t;
      (* canonical orbit representative; applied to every successor
         before interning (never to the initial state) *)
  rd_ample :
    State.t ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list ->
    (Fsa_apa.Apa.rule * Action.t * State.t) list;
      (* restrict a state's enabled transitions to an ample subset *)
}

let no_reduction = { rd_canon = Fun.id; rd_ample = (fun _ succs -> succs) }

(* Keep transition lists deterministically ordered. *)
let order_transition a b =
  let c = Int.compare a.t_src b.t_src in
  if c <> 0 then c
  else
    let c =
      if a.t_label == b.t_label then 0 else Action.compare a.t_label b.t_label
    in
    if c <> 0 then c else Int.compare a.t_dst b.t_dst

(* Shared final assembly: both the sequential and the parallel explorer
   hand their states (in canonical BFS order) and edges to this, so the
   resulting structures are constructed identically. *)
let assemble ~apa_name ~states ~iter_edges =
  let succs = Array.make (Array.length states) [] in
  let preds = Array.make (Array.length states) [] in
  iter_edges (fun tr ->
      succs.(tr.t_src) <- tr :: succs.(tr.t_src);
      preds.(tr.t_dst) <- tr :: preds.(tr.t_dst));
  Array.iteri (fun i l -> succs.(i) <- List.sort order_transition l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.sort order_transition l) preds;
  of_value { apa_name; states; initial = 0; succs; preds }

let explore ?(max_states = 1_000_000) ?(reduce = no_reduction) ?progress apa =
  Span.with_ ~cat:"lts" "lts.explore" @@ fun () ->
  let obs = Metrics.enabled () in
  let t0 = if obs then Span.now_ns () else 0L in
  let initial = Fsa_apa.Apa.initial_state apa in
  let index = State_table.create 1024 in
  State_table.replace index initial 0;
  (* the states buffer doubles as the BFS queue: states are appended in
     discovery order and expanded in append order *)
  let states = Buf.create () in
  Buf.push states initial;
  let edges = Buf.create () in
  let cursor = ref 0 in
  (* Progress and the rate gauge are finalized on every exit path:
     aborting on State_space_too_large used to leave the live progress
     line dangling and [lts.states_per_sec] unset. *)
  Fun.protect
    ~finally:(fun () ->
      if obs then begin
        let elapsed = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9 in
        if elapsed > 0. then
          Metrics.set_gauge g_rate (float_of_int (Buf.length states) /. elapsed)
      end;
      match progress with
      | Some p -> Progress.finish p ~count:(Buf.length states)
      | None -> ())
  @@ fun () ->
  while !cursor < Buf.length states do
    let src_id = !cursor in
    let src = Buf.get states src_id in
    incr cursor;
    let succs = reduce.rd_ample src (Fsa_apa.Apa.step apa src) in
    if obs then begin
      Metrics.incr m_states;
      Metrics.incr ~by:(List.length succs) m_transitions;
      Metrics.observe h_out_degree (float_of_int (List.length succs));
      Metrics.set_gauge_max g_frontier_peak
        (float_of_int (Buf.length states - !cursor))
    end;
    (match progress with
    | Some p ->
      Progress.tick p ~count:(Buf.length states)
        ~frontier:(Buf.length states - !cursor)
    | None -> ());
    List.iter
      (fun (_rule, label, dst) ->
        let dst = reduce.rd_canon dst in
        let dst_id =
          match State_table.find_opt index dst with
          | Some id ->
            if obs then Metrics.incr m_dedup;
            id
          | None ->
            let id = Buf.length states in
            if id >= max_states then raise (State_space_too_large max_states);
            State_table.add index dst id;
            Buf.push states dst;
            id
        in
        Buf.push edges { t_src = src_id; t_label = label; t_dst = dst_id })
      succs
  done;
  Log.debug (fun m ->
      m "explored %s: %d states, %d transitions" (Fsa_apa.Apa.name apa)
        (Buf.length states) (Buf.length edges));
  assemble ~apa_name:(Fsa_apa.Apa.name apa) ~states:(Buf.to_array states)
    ~iter_edges:(fun f -> Buf.iter f edges)

(* ------------------------------------------------------------------ *)
(* Parallel exploration                                                 *)
(* ------------------------------------------------------------------ *)

(* Domain-based level-synchronous BFS.

   Each level's frontier is expanded by [jobs] domains that self-schedule
   chunks off a shared atomic cursor (cheap work-stealing); discovered
   states are deduplicated in a sharded hash table — one mutex per shard,
   shard chosen by the state's memoized hash — and numbered provisionally
   by an atomic counter, so provisional numbers depend on domain
   interleaving.  A final sequential renumbering pass replays the
   discovery in canonical BFS order over the recorded per-state successor
   lists (which preserve [Apa.step] order), making the result
   bit-identical to {!explore}: same M-k numbering, same sorted
   transition lists.  The expensive work — rule matching in [Apa.step] —
   happens in the parallel phase; renumbering is a linear scan. *)

type shard = {
  sh_lock : Mutex.t;
  sh_table : int State_table.t;
  mutable sh_members : (int * State.t) list;
}

let explore_par ?(max_states = 1_000_000) ?(reduce = no_reduction) ?progress
    ?shards ~jobs apa =
  if jobs <= 1 then explore ~max_states ~reduce ?progress apa
  else begin
    Span.with_ ~cat:"lts" "lts.explore_par" @@ fun () ->
    let obs = Metrics.enabled () in
    let t0 = if obs then Span.now_ns () else 0L in
    (* instruments are registered here, on the main domain: the metrics
       registry itself is not safe for concurrent registration *)
    let domain_rate =
      Array.init jobs (fun i ->
          Metrics.gauge (Printf.sprintf "lts.d%d.states_per_sec" i))
    in
    let nshards =
      let requested =
        match shards with Some s -> max 1 s | None -> 64 * jobs
      in
      let rec pow2 n = if n >= requested then n else pow2 (2 * n) in
      pow2 1
    in
    let mask = nshards - 1 in
    let shards =
      Array.init nshards (fun _ ->
          { sh_lock = Mutex.create ();
            sh_table = State_table.create 256;
            sh_members = [] })
    in
    let next_id = Atomic.make 0 in
    let too_large = Atomic.make false in
    let conflicts = Atomic.make 0 in
    let total_transitions = Atomic.make 0 in
    let total_dedup = Atomic.make 0 in
    (* insert into the sharded table; returns the id, whether the state is
       new, and whether the shard lock was contended *)
    let insert st =
      let sh = shards.(State.hash st land mask) in
      let contended =
        if obs then
          if Mutex.try_lock sh.sh_lock then false
          else begin
            Mutex.lock sh.sh_lock;
            true
          end
        else begin
          Mutex.lock sh.sh_lock;
          false
        end
      in
      let res =
        match State_table.find_opt sh.sh_table st with
        | Some id -> (id, false)
        | None ->
          let id = Atomic.fetch_and_add next_id 1 in
          if id >= max_states then begin
            Atomic.set too_large true;
            (id, false)
          end
          else begin
            State_table.replace sh.sh_table st id;
            sh.sh_members <- (id, st) :: sh.sh_members;
            (id, true)
          end
      in
      Mutex.unlock sh.sh_lock;
      (res, contended)
    in
    let initial = Fsa_apa.Apa.initial_state apa in
    let (id0, _), _ = insert initial in
    assert (id0 = 0);
    let frontier = ref [| (0, initial) |] in
    (* per-domain accumulators; index [w] is touched only by worker [w]
       while domains run, and by the main domain after the join *)
    let all_records : (int * (Action.t * int) list) list array =
      Array.make jobs []
    in
    let domain_expanded = Array.make jobs 0 in
    let domain_busy_ns = Array.make jobs 0L in
    let exception Abort in
    Fun.protect
      ~finally:(fun () ->
        if obs then begin
          Metrics.set_gauge g_domains (float_of_int jobs);
          let elapsed =
            Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9
          in
          if elapsed > 0. then
            Metrics.set_gauge g_rate
              (float_of_int (Atomic.get next_id) /. elapsed)
        end;
        match progress with
        | Some p -> Progress.finish p ~count:(Atomic.get next_id)
        | None -> ())
    @@ fun () ->
    while Array.length !frontier > 0 do
      let fr = !frontier in
      let len = Array.length fr in
      if obs then Metrics.set_gauge_max g_frontier_peak (float_of_int len);
      let cursor = Atomic.make 0 in
      let chunk = max 1 (min 64 (len / (jobs * 4))) in
      let next_frontiers = Array.make jobs [] in
      let worker w =
        let t_start = Span.now_ns () in
        let my_records = ref [] in
        let my_next = ref [] in
        let my_expanded = ref 0 in
        let my_conflicts = ref 0 in
        let my_transitions = ref 0 in
        let my_dedup = ref 0 in
        (try
           let continue = ref true in
           while !continue do
             if Atomic.get too_large then raise Abort;
             let i0 = Atomic.fetch_and_add cursor chunk in
             if i0 >= len then continue := false
             else
               for i = i0 to min (len - 1) (i0 + chunk - 1) do
                 let src_id, src = fr.(i) in
                 let succs = reduce.rd_ample src (Fsa_apa.Apa.step apa src) in
                 incr my_expanded;
                 my_transitions := !my_transitions + List.length succs;
                 let dsts =
                   List.map
                     (fun (_rule, label, dst) ->
                       let (id, fresh), contended =
                         insert (reduce.rd_canon dst)
                       in
                       if contended then incr my_conflicts;
                       if Atomic.get too_large then raise Abort;
                       if fresh then my_next := (id, dst) :: !my_next
                       else incr my_dedup;
                       (label, id))
                     succs
                 in
                 my_records := (src_id, dsts) :: !my_records
               done
           done
         with Abort -> ());
        all_records.(w) <- List.rev_append !my_records all_records.(w);
        next_frontiers.(w) <- !my_next;
        domain_expanded.(w) <- domain_expanded.(w) + !my_expanded;
        domain_busy_ns.(w) <-
          Int64.add domain_busy_ns.(w)
            (Int64.sub (Span.now_ns ()) t_start);
        ignore (Atomic.fetch_and_add conflicts !my_conflicts);
        ignore (Atomic.fetch_and_add total_transitions !my_transitions);
        ignore (Atomic.fetch_and_add total_dedup !my_dedup)
      in
      (* spawned workers adopt the caller's trace context, so their
         recorder events and spans land in the requesting trace's tree
         instead of an anonymous one *)
      let ctx = Span.current_context () in
      let doms =
        Array.init (jobs - 1) (fun w ->
            Domain.spawn (fun () -> Span.with_context ctx (fun () -> worker (w + 1))))
      in
      worker 0;
      Array.iter Domain.join doms;
      if Atomic.get too_large then raise (State_space_too_large max_states);
      frontier :=
        Array.concat (Array.to_list (Array.map Array.of_list next_frontiers));
      match progress with
      | Some p ->
        Progress.tick p ~count:(Atomic.get next_id)
          ~frontier:(Array.length !frontier)
      | None -> ()
    done;
    let total = Atomic.get next_id in
    let prov_states = Array.make total initial in
    Array.iter
      (fun sh ->
        List.iter (fun (id, st) -> prov_states.(id) <- st) sh.sh_members)
      shards;
    let prov_succ = Array.make total [] in
    Array.iter
      (List.iter (fun (src, dsts) -> prov_succ.(src) <- dsts))
      all_records;
    (* canonical renumbering: replay the BFS deterministically — expand in
       canonical id order, successors in recorded Apa.step order *)
    let canon = Array.make total (-1) in
    let order = Array.make total 0 in
    canon.(0) <- 0;
    let nb = ref 1 in
    let c = ref 0 in
    while !c < !nb do
      let p = order.(!c) in
      List.iter
        (fun (_label, d) ->
          if canon.(d) < 0 then begin
            canon.(d) <- !nb;
            order.(!nb) <- d;
            incr nb
          end)
        prov_succ.(p);
      incr c
    done;
    assert (!nb = total);
    let states = Array.init total (fun cid -> prov_states.(order.(cid))) in
    let iter_edges f =
      for cid = 0 to total - 1 do
        List.iter
          (fun (label, d) ->
            f { t_src = cid; t_label = label; t_dst = canon.(d) })
          prov_succ.(order.(cid))
      done
    in
    if obs then begin
      Metrics.incr ~by:total m_states;
      Metrics.incr ~by:(Atomic.get total_transitions) m_transitions;
      Metrics.incr ~by:(Atomic.get total_dedup) m_dedup;
      Metrics.incr ~by:(Atomic.get conflicts) m_shard_conflicts;
      Array.iter
        (fun succs ->
          Metrics.observe h_out_degree (float_of_int (List.length succs)))
        prov_succ;
      Array.iteri
        (fun w busy ->
          let busy_s = Int64.to_float busy /. 1e9 in
          if busy_s > 0. then
            Metrics.set_gauge domain_rate.(w)
              (float_of_int domain_expanded.(w) /. busy_s))
        domain_busy_ns
    end;
    Log.debug (fun m ->
        m "explored %s with %d domains: %d states, %d transitions"
          (Fsa_apa.Apa.name apa) jobs total
          (Atomic.get total_transitions));
    assemble ~apa_name:(Fsa_apa.Apa.name apa) ~states ~iter_edges
  end

(* The modular analysis hands this out as the product graph, which
   most of its consumers never ask for. *)
let explore_lazy ?max_states ?progress apa =
  { lz_name = Fsa_apa.Apa.name apa;
    lz_graph = lazy (graph (explore ?max_states ?progress apa));
    lz_lock = Mutex.create () }

let is_explored t = Lazy.is_val t.lz_graph
let name t = t.lz_name
let nb_states t = Array.length (graph t).states

let nb_transitions t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 (graph t).succs

let initial t = (graph t).initial
let state t i = (graph t).states.(i)
let succ t i = (graph t).succs.(i)
let pred t i = (graph t).preds.(i)

let transitions t = Array.to_list (graph t).succs |> List.concat

let iter_transitions f t = Array.iter (fun l -> List.iter f l) (graph t).succs

let fold_transitions f t acc =
  Array.fold_left
    (fun acc l -> List.fold_left (fun acc tr -> f tr acc) acc l)
    acc (graph t).succs

(* Synthetic / imported graphs: states carry no APA content.  Intended
   for tests and for ingesting externally computed reachability graphs;
   state 0 is the initial state. *)
let of_edges ?(name = "imported") ~nb_states edges =
  if nb_states <= 0 then invalid_arg "Lts.of_edges: nb_states must be positive";
  List.iter
    (fun tr ->
      if
        tr.t_src < 0 || tr.t_src >= nb_states || tr.t_dst < 0
        || tr.t_dst >= nb_states
      then invalid_arg "Lts.of_edges: transition endpoint out of range")
    edges;
  assemble ~apa_name:name
    ~states:(Array.make nb_states State.empty)
    ~iter_edges:(fun f -> List.iter f edges)

(* Like [of_edges], but with caller-supplied state contents — the unfold
   of a symmetry quotient rebuilds the full graph this way, with real
   states so that downstream completion predicates and state printing
   keep working. *)
let of_graph ?(name = "imported") ~states edges =
  let nb_states = Array.length states in
  if nb_states <= 0 then invalid_arg "Lts.of_graph: no states";
  List.iter
    (fun tr ->
      if
        tr.t_src < 0 || tr.t_src >= nb_states || tr.t_dst < 0
        || tr.t_dst >= nb_states
      then invalid_arg "Lts.of_graph: transition endpoint out of range")
    edges;
  assemble ~apa_name:name ~states:(Array.copy states) ~iter_edges:(fun f ->
      List.iter f edges)

let state_name i = Printf.sprintf "M-%d" (i + 1)

let fold_states f t acc =
  let g = graph t in
  let acc = ref acc in
  Array.iteri (fun i _ -> acc := f i !acc) g.states;
  !acc

let alphabet t =
  fold_transitions
    (fun tr acc -> Action.Set.add tr.t_label acc)
    t Action.Set.empty

(* Dead states: no outgoing transition ("+++ dead +++" in the tool). *)
let deadlocks t =
  let g = graph t in
  fold_states (fun i acc -> if g.succs.(i) = [] then i :: acc else acc) t []
  |> List.rev

(* Minima of the partial order of functionally dependent actions: every
   action leaving the initial state on any trace is a minimum, because it
   does not depend on any other action having occurred before
   (Sect. 5.4). *)
let minima t =
  let g = graph t in
  List.fold_left
    (fun acc tr -> Action.Set.add tr.t_label acc)
    Action.Set.empty g.succs.(g.initial)

(* Maxima: the actions leading into a dead state from any trace — they do
   not trigger any further action after they have been performed. *)
let maxima t =
  let g = graph t in
  List.fold_left
    (fun acc dead ->
      List.fold_left
        (fun acc tr -> Action.Set.add tr.t_label acc)
        acc g.preds.(dead))
    Action.Set.empty (deadlocks t)

(* Shortest trace (sequence of labels) from the initial state to state [i]. *)
let trace_to t i =
  let g = graph t in
  let n = nb_states t in
  let prev = Array.make n None in
  let visited = Array.make n false in
  let queue = Queue.create () in
  visited.(g.initial) <- true;
  Queue.add g.initial queue;
  (try
     while not (Queue.is_empty queue) do
       let s = Queue.pop queue in
       if s = i then raise Exit;
       List.iter
         (fun tr ->
           if not visited.(tr.t_dst) then begin
             visited.(tr.t_dst) <- true;
             prev.(tr.t_dst) <- Some tr;
             Queue.add tr.t_dst queue
           end)
         g.succs.(s)
     done
   with Exit -> ());
  if not visited.(i) then None
  else begin
    let rec build acc s =
      if s = g.initial then acc
      else
        match prev.(s) with
        | None -> acc
        | Some tr -> build (tr.t_label :: acc) tr.t_src
    in
    Some (build [] i)
  end

(* All words of the (prefix-closed) action language up to length [n] —
   exponential, for tests and small examples only. *)
let words ~max_len t =
  let g = graph t in
  let rec go acc word len s =
    let acc = List.rev word :: acc in
    if len = max_len then acc
    else
      List.fold_left
        (fun acc tr -> go acc (tr.t_label :: word) (len + 1) tr.t_dst)
        acc g.succs.(s)
  in
  List.sort_uniq (List.compare Action.compare) (go [] [] 0 g.initial)

(* Does some occurrence of a [target]-labelled transition happen on a path
   from the initial state that contains no prior [before]-labelled
   transition?  Used for the direct (non-abstracted) functional dependence
   test: [target] depends on [before] iff no such path exists. *)
let reachable_without t ~avoid ~target =
  let g = graph t in
  let n = nb_states t in
  let visited = Array.make n false in
  let queue = Queue.create () in
  visited.(g.initial) <- true;
  Queue.add g.initial queue;
  let found = ref false in
  while not (Queue.is_empty queue || !found) do
    let s = Queue.pop queue in
    List.iter
      (fun tr ->
        if target tr.t_label then found := true
        else if (not (avoid tr.t_label)) && not visited.(tr.t_dst) then begin
          visited.(tr.t_dst) <- true;
          Queue.add tr.t_dst queue
        end)
      g.succs.(s)
  done;
  !found

let depends_on t ~max_action ~min_action =
  not
    (reachable_without t
       ~avoid:(Action.equal min_action)
       ~target:(Action.equal max_action))

(* The number of complete runs (maximal paths from the initial state to a
   dead state); [None] when the graph has a cycle.  For the paper's
   every-action-once scenarios this equals the number of linear
   extensions of the event poset.

   Iterative with an explicit stack: the natural recursion is one frame
   per path edge and overflows the OCaml stack on long-chain graphs. *)
let count_complete_runs t =
  let g = graph t in
  let n = nb_states t in
  let colour = Array.make n 0 in (* 0 unvisited, 1 on stack, 2 done *)
  let memo = Array.make n (-1) in
  let exception Cyclic in
  (* frame: state, successors not yet accounted, partial sum *)
  let stack : (int * transition list ref * int ref) Stack.t =
    Stack.create ()
  in
  let enter s =
    colour.(s) <- 1;
    Stack.push (s, ref g.succs.(s), ref 0) stack
  in
  try
    enter g.initial;
    while not (Stack.is_empty stack) do
      let s, rest, acc = Stack.top stack in
      match !rest with
      | [] ->
        ignore (Stack.pop stack);
        let total = if g.succs.(s) = [] then 1 else !acc in
        colour.(s) <- 2;
        memo.(s) <- total;
        (match Stack.top_opt stack with
        | Some (_, _, acc') -> acc' := !acc' + total
        | None -> ())
      | tr :: tl ->
        rest := tl;
        let d = tr.t_dst in
        if memo.(d) >= 0 then acc := !acc + memo.(d)
        else if colour.(d) = 1 then raise Cyclic
        else enter d
    done;
    Some memo.(g.initial)
  with Cyclic -> None

(* Classify dead states into complete runs and stuck (incomplete) ones by
   a caller-supplied completion predicate on states — a modelling-error
   diagnostic: a stuck deadlock usually indicates a message consumed by a
   component that could not process it. *)
type deadlock_report = { dr_complete : int list; dr_stuck : int list }

let classify_deadlocks t ~complete =
  let g = graph t in
  let complete_l, stuck =
    List.partition (fun s -> complete g.states.(s)) (deadlocks t)
  in
  { dr_complete = complete_l; dr_stuck = stuck }

type stats = {
  nb_states : int;
  nb_transitions : int;
  nb_deadlocks : int;
  nb_labels : int;
}

let stats t =
  { nb_states = nb_states t;
    nb_transitions = nb_transitions t;
    nb_deadlocks = List.length (deadlocks t);
    nb_labels = Action.Set.cardinal (alphabet t) }

let pp_stats ppf s =
  Fmt.pf ppf "states: %d, transitions: %d, dead states: %d, labels: %d"
    s.nb_states s.nb_transitions s.nb_deadlocks s.nb_labels

let dot ?(name = "reachability") t =
  let g = graph t in
  let d = Fsa_graph.Dot.create ~graph_attrs:[ ("rankdir", "TB") ] name in
  let dead = deadlocks t in
  Array.iteri
    (fun i _ ->
      let attrs =
        if i = g.initial then [ ("shape", "box"); ("style", "bold") ]
        else if List.mem i dead then [ ("shape", "doublecircle") ]
        else []
      in
      Fsa_graph.Dot.node ~attrs d (state_name i))
    g.states;
  iter_transitions
    (fun tr ->
      Fsa_graph.Dot.edge
        ~attrs:[ ("label", Action.to_string tr.t_label) ]
        d (state_name tr.t_src) (state_name tr.t_dst))
    t;
  Fsa_graph.Dot.to_string d

(* The tool's summary of minima and maxima (Example 6): minima with the
   state reached from M-1 by that action; maxima with the state from which
   the dead state is entered. *)
let pp_min_max ppf t =
  let g = graph t in
  let minima_entries =
    List.map (fun tr -> (tr.t_label, tr.t_dst)) g.succs.(g.initial)
  in
  let maxima_entries =
    List.concat_map
      (fun dead -> List.map (fun tr -> (tr.t_label, tr.t_src)) g.preds.(dead))
      (deadlocks t)
  in
  let pp_entry ppf (a, s) =
    Fmt.pf ppf "%a %s" Action.pp a (state_name s)
  in
  Fmt.pf ppf "@[<v>The minima of this analysis:@,%a@,The corresponding maxima:@,%a@]"
    Fmt.(list ~sep:cut pp_entry)
    minima_entries
    Fmt.(list ~sep:cut pp_entry)
    maxima_entries
