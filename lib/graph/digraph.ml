(* Persistent directed graphs over an ordered vertex type, with the graph
   algorithms needed by functional security analysis: reachability,
   topological order, cycle detection, strongly connected components,
   reflexive/transitive closure and reduction, and label-preserving
   isomorphism (used to discard isomorphic SoS instance combinations). *)

module type VERTEX = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module type S = sig
  type vertex
  type t

  module Vset : Set.S with type elt = vertex
  module Vmap : Map.S with type key = vertex

  val compare_vertex : vertex -> vertex -> int
  val pp_vertex : vertex Fmt.t
  val empty : t
  val is_empty : t -> bool
  val add_vertex : vertex -> t -> t
  val add_edge : vertex -> vertex -> t -> t
  val remove_edge : vertex -> vertex -> t -> t
  val remove_vertex : vertex -> t -> t
  val of_edges : ?vertices:vertex list -> (vertex * vertex) list -> t
  val mem_vertex : vertex -> t -> bool
  val mem_edge : vertex -> vertex -> t -> bool
  val succ : vertex -> t -> Vset.t
  val pred : vertex -> t -> Vset.t
  val vertices : t -> Vset.t
  val edges : t -> (vertex * vertex) list
  val nb_vertices : t -> int
  val nb_edges : t -> int
  val out_degree : vertex -> t -> int
  val in_degree : vertex -> t -> int
  val sources : t -> Vset.t
  val sinks : t -> Vset.t
  val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val fold_edges : (vertex -> vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val map : (vertex -> vertex) -> t -> t
  val union : t -> t -> t
  val reverse : t -> t
  val reachable : vertex -> t -> Vset.t
  val co_reachable : vertex -> t -> Vset.t
  val topological_sort : t -> vertex list option
  val find_cycle : t -> vertex list option
  val is_acyclic : t -> bool
  val sccs : t -> vertex list list
  val transitive_closure : ?reflexive:bool -> t -> t
  val transitive_closure_dense : ?reflexive:bool -> t -> t
  val transitive_reduction : t -> t
  val max_flow_unit : source:vertex -> sink:vertex -> t -> int * (vertex * vertex) list
  val min_edge_cut : source:vertex -> sink:vertex -> t -> (vertex * vertex) list
  val isomorphic : ?label:(vertex -> vertex -> bool) -> t -> t -> bool
  val pp : t Fmt.t
end

module Make (V : VERTEX) : S with type vertex = V.t = struct
  type vertex = V.t

  module Vset = Set.Make (V)
  module Vmap = Map.Make (V)

  let compare_vertex = V.compare
  let pp_vertex = V.pp

  (* Successor and predecessor maps are kept in sync; every vertex is
     present in both maps (possibly with an empty set). *)
  type t = { succ : Vset.t Vmap.t; pred : Vset.t Vmap.t }

  let empty = { succ = Vmap.empty; pred = Vmap.empty }
  let is_empty g = Vmap.is_empty g.succ

  let add_vertex v g =
    if Vmap.mem v g.succ then g
    else
      { succ = Vmap.add v Vset.empty g.succ;
        pred = Vmap.add v Vset.empty g.pred }

  let adj v m = match Vmap.find_opt v m with Some s -> s | None -> Vset.empty

  let add_edge u v g =
    let g = add_vertex u (add_vertex v g) in
    { succ = Vmap.add u (Vset.add v (adj u g.succ)) g.succ;
      pred = Vmap.add v (Vset.add u (adj v g.pred)) g.pred }

  let remove_edge u v g =
    { succ = Vmap.add u (Vset.remove v (adj u g.succ)) g.succ;
      pred = Vmap.add v (Vset.remove u (adj v g.pred)) g.pred }

  let remove_vertex v g =
    let succs = adj v g.succ and preds = adj v g.pred in
    let g = Vset.fold (fun w acc -> remove_edge v w acc) succs g in
    let g = Vset.fold (fun u acc -> remove_edge u v acc) preds g in
    { succ = Vmap.remove v g.succ; pred = Vmap.remove v g.pred }

  let of_edges ?(vertices = []) edges =
    let g = List.fold_left (fun acc v -> add_vertex v acc) empty vertices in
    List.fold_left (fun acc (u, v) -> add_edge u v acc) g edges

  let mem_vertex v g = Vmap.mem v g.succ
  let mem_edge u v g = Vset.mem v (adj u g.succ)
  let succ v g = adj v g.succ
  let pred v g = adj v g.pred

  let vertices g = Vmap.fold (fun v _ acc -> Vset.add v acc) g.succ Vset.empty

  let edges g =
    Vmap.fold
      (fun u succs acc -> Vset.fold (fun v acc -> (u, v) :: acc) succs acc)
      g.succ []
    |> List.rev

  let nb_vertices g = Vmap.cardinal g.succ
  let nb_edges g = Vmap.fold (fun _ s acc -> acc + Vset.cardinal s) g.succ 0
  let out_degree v g = Vset.cardinal (adj v g.succ)
  let in_degree v g = Vset.cardinal (adj v g.pred)

  let sources g =
    Vmap.fold
      (fun v preds acc -> if Vset.is_empty preds then Vset.add v acc else acc)
      g.pred Vset.empty

  let sinks g =
    Vmap.fold
      (fun v succs acc -> if Vset.is_empty succs then Vset.add v acc else acc)
      g.succ Vset.empty

  let fold_vertices f g acc = Vmap.fold (fun v _ acc -> f v acc) g.succ acc

  let fold_edges f g acc =
    Vmap.fold
      (fun u succs acc -> Vset.fold (fun v acc -> f u v acc) succs acc)
      g.succ acc

  let map f g =
    fold_edges
      (fun u v acc -> add_edge (f u) (f v) acc)
      g
      (fold_vertices (fun v acc -> add_vertex (f v) acc) g empty)

  let union g1 g2 =
    fold_edges
      (fun u v acc -> add_edge u v acc)
      g2
      (fold_vertices (fun v acc -> add_vertex v acc) g2 g1)

  let reverse g = { succ = g.pred; pred = g.succ }

  let reachable_gen adjacency v =
    let rec go visited = function
      | [] -> visited
      | u :: rest ->
        if Vset.mem u visited then go visited rest
        else
          let visited = Vset.add u visited in
          go visited (Vset.elements (adj u adjacency) @ rest)
    in
    go Vset.empty [ v ]

  let reachable v g = reachable_gen g.succ v
  let co_reachable v g = reachable_gen g.pred v

  (* Kahn's algorithm; [None] when the graph has a cycle. *)
  let topological_sort g =
    let in_deg = Vmap.map Vset.cardinal g.pred in
    let ready =
      Vmap.fold (fun v d acc -> if d = 0 then v :: acc else acc) in_deg []
    in
    let rec go in_deg ready acc n =
      match ready with
      | [] -> if n = nb_vertices g then Some (List.rev acc) else None
      | v :: ready ->
        let in_deg, ready =
          Vset.fold
            (fun w (in_deg, ready) ->
              let d = Vmap.find w in_deg - 1 in
              let in_deg = Vmap.add w d in_deg in
              if d = 0 then (in_deg, w :: ready) else (in_deg, ready))
            (adj v g.succ) (in_deg, ready)
        in
        go in_deg ready (v :: acc) (n + 1)
    in
    go in_deg ready [] 0

  (* Find a cycle via DFS with colouring; the returned list is the cycle's
     vertex sequence (first vertex repeated implicitly). *)
  let find_cycle g =
    let exception Found of vertex list in
    let grey = ref Vset.empty and black = ref Vset.empty in
    let rec visit path v =
      if Vset.mem v !black then ()
      else if Vset.mem v !grey then begin
        (* [path] holds the DFS stack from the root; cut at [v]. *)
        let rec cut acc = function
          | [] -> acc
          | u :: rest ->
            if V.compare u v = 0 then u :: acc else cut (u :: acc) rest
        in
        raise (Found (cut [] path))
      end
      else begin
        grey := Vset.add v !grey;
        Vset.iter (visit (v :: path)) (adj v g.succ);
        grey := Vset.remove v !grey;
        black := Vset.add v !black
      end
    in
    match Vmap.iter (fun v _ -> visit [] v) g.succ with
    | () -> None
    | exception Found cycle -> Some cycle

  let is_acyclic g = match topological_sort g with Some _ -> true | None -> false

  (* Tarjan's strongly connected components, iterative-enough for our model
     sizes (recursion depth is bounded by the number of vertices). *)
  let sccs g =
    let index = ref 0 in
    let indices = ref Vmap.empty in
    let lowlinks = ref Vmap.empty in
    let on_stack = ref Vset.empty in
    let stack = ref [] in
    let components = ref [] in
    let rec strongconnect v =
      indices := Vmap.add v !index !indices;
      lowlinks := Vmap.add v !index !lowlinks;
      incr index;
      stack := v :: !stack;
      on_stack := Vset.add v !on_stack;
      Vset.iter
        (fun w ->
          if not (Vmap.mem w !indices) then begin
            strongconnect w;
            let lv = Vmap.find v !lowlinks and lw = Vmap.find w !lowlinks in
            if lw < lv then lowlinks := Vmap.add v lw !lowlinks
          end
          else if Vset.mem w !on_stack then begin
            let lv = Vmap.find v !lowlinks and iw = Vmap.find w !indices in
            if iw < lv then lowlinks := Vmap.add v iw !lowlinks
          end)
        (adj v g.succ);
      if Vmap.find v !lowlinks = Vmap.find v !indices then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
            stack := rest;
            on_stack := Vset.remove w !on_stack;
            if V.compare w v = 0 then w :: acc else pop (w :: acc)
        in
        components := pop [] :: !components
      end
    in
    Vmap.iter (fun v _ -> if not (Vmap.mem v !indices) then strongconnect v) g.succ;
    List.rev !components

  (* Transitive closure by DFS from each vertex.  With [reflexive:true] this
     is the reflexive transitive closure zeta* of the paper. *)
  let transitive_closure ?(reflexive = false) g =
    fold_vertices
      (fun v acc ->
        let reach = reachable v g in
        let reach = if reflexive then reach else Vset.remove v reach in
        let reach = if reflexive then Vset.add v reach else reach in
        Vset.fold (fun w acc -> add_edge v w acc) reach acc)
      g
      (fold_vertices (fun v acc -> add_vertex v acc) g empty)

  (* Dense Floyd-Warshall closure over a bit-matrix.  It exists only as
     the independent reference that the DFS-based [transitive_closure] is
     checked against in its agreement test. *)
  let transitive_closure_dense ?(reflexive = false) g =
    let vs = Array.of_seq (Vset.to_seq (vertices g)) in
    let n = Array.length vs in
    let index =
      let m = ref Vmap.empty in
      Array.iteri (fun i v -> m := Vmap.add v i !m) vs;
      !m
    in
    let reach = Array.make_matrix n n false in
    fold_edges
      (fun u v () -> reach.(Vmap.find u index).(Vmap.find v index) <- true)
      g ();
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if reach.(i).(k) then
          for j = 0 to n - 1 do
            if reach.(k).(j) then reach.(i).(j) <- true
          done
      done
    done;
    let acc = ref (fold_vertices (fun v acc -> add_vertex v acc) g empty) in
    for i = 0 to n - 1 do
      if reflexive then acc := add_edge vs.(i) vs.(i) !acc;
      for j = 0 to n - 1 do
        if reach.(i).(j) then acc := add_edge vs.(i) vs.(j) !acc
      done
    done;
    !acc

  (* Transitive reduction of a DAG (the Hasse diagram when the graph is a
     strict partial order): keep edge (u,v) iff there is no path u ~> v of
     length >= 2. *)
  let transitive_reduction g =
    fold_edges
      (fun u v acc ->
        let via_other =
          Vset.exists
            (fun w -> V.compare w v <> 0 && Vset.mem v (reachable w g))
            (Vset.remove v (adj u g.succ))
        in
        if via_other then remove_edge u v acc else acc)
      g g

  (* Maximum flow with unit edge capacities (Edmonds-Karp) and the induced
     minimum edge cut.  Functional security analysis uses minimum cuts to
     identify the smallest sets of functional flows whose protection
     enforces an end-to-end authenticity requirement. *)
  let max_flow_unit ~source ~sink g =
    if V.compare source sink = 0 then
      invalid_arg "max_flow_unit: source equals sink";
    (* residual capacities: 1 on forward edges, 0 on (implicit) backward
       edges; represented as a map of maps *)
    let cap = ref Vmap.empty in
    let get_cap u v =
      match Vmap.find_opt u !cap with
      | None -> 0
      | Some m -> ( match Vmap.find_opt v m with Some c -> c | None -> 0)
    in
    let set_cap u v c =
      let m = match Vmap.find_opt u !cap with Some m -> m | None -> Vmap.empty in
      cap := Vmap.add u (Vmap.add v c m) !cap
    in
    fold_edges (fun u v () -> set_cap u v (get_cap u v + 1)) g ();
    (* BFS for an augmenting path in the residual graph *)
    let neighbours u =
      match Vmap.find_opt u !cap with
      | None -> []
      | Some m -> Vmap.fold (fun v c acc -> if c > 0 then v :: acc else acc) m []
    in
    let rec augment () =
      let prev = ref Vmap.empty in
      let visited = ref (Vset.singleton source) in
      let queue = Queue.create () in
      Queue.add source queue;
      let found = ref false in
      while (not (Queue.is_empty queue)) && not !found do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
            if not (Vset.mem v !visited) then begin
              visited := Vset.add v !visited;
              prev := Vmap.add v u !prev;
              if V.compare v sink = 0 then found := true
              else Queue.add v queue
            end)
          (neighbours u)
      done;
      if not !found then 0
      else begin
        (* push one unit along the path *)
        let rec push v =
          match Vmap.find_opt v !prev with
          | None -> ()
          | Some u ->
            set_cap u v (get_cap u v - 1);
            set_cap v u (get_cap v u + 1);
            push u
        in
        push sink;
        1 + augment ()
      end
    in
    let value = augment () in
    (* the min cut: edges from the source-side of the residual graph to
       the sink side *)
    let side = ref (Vset.singleton source) in
    let queue = Queue.create () in
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if not (Vset.mem v !side) then begin
            side := Vset.add v !side;
            Queue.add v queue
          end)
        (neighbours u)
    done;
    let cut =
      fold_edges
        (fun u v acc ->
          if Vset.mem u !side && not (Vset.mem v !side) then (u, v) :: acc
          else acc)
        g []
    in
    (value, List.rev cut)

  let min_edge_cut ~source ~sink g = snd (max_flow_unit ~source ~sink g)

  (* Label-preserving isomorphism by backtracking with degree pruning.
     [label u v] holds when concrete vertex [u] of [g1] may be mapped to
     vertex [v] of [g2] (defaults to always-true). *)
  let isomorphic ?(label = fun _ _ -> true) g1 g2 =
    if nb_vertices g1 <> nb_vertices g2 || nb_edges g1 <> nb_edges g2 then false
    else begin
      let vs1 = Vset.elements (vertices g1) in
      let vs2 = Vset.elements (vertices g2) in
      let compatible u v =
        label u v
        && out_degree u g1 = out_degree v g2
        && in_degree u g1 = in_degree v g2
      in
      (* order vs1 by decreasing degree for earlier pruning *)
      let vs1 =
        List.sort
          (fun a b ->
            Stdlib.compare
              (out_degree b g1 + in_degree b g1)
              (out_degree a g1 + in_degree a g1))
          vs1
      in
      let rec assign mapping used = function
        | [] -> true
        | u :: rest ->
          List.exists
            (fun v ->
              (not (Vset.mem v used))
              && compatible u v
              && (* check consistency with already-mapped neighbours *)
              Vmap.for_all
                (fun u' v' ->
                  Bool.equal (mem_edge u u' g1) (mem_edge v v' g2)
                  && Bool.equal (mem_edge u' u g1) (mem_edge v' v g2))
                mapping
              && assign (Vmap.add u v mapping) (Vset.add v used) rest)
            vs2
      in
      assign Vmap.empty Vset.empty vs1
    end

  let pp ppf g =
    let pp_edge ppf (u, v) = Fmt.pf ppf "%a -> %a" V.pp u V.pp v in
    Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_edge) (edges g)
end
