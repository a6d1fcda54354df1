(* Alphabetic language homomorphisms and abstraction-based analysis
   (Sect. 5.5 of the paper).

   Behaviour abstraction of an APA is formalised by alphabetic language
   homomorphisms h : Sigma* -> Sigma'*: certain transitions are ignored
   (mapped to the empty word) and others are renamed.  Applying h to a
   reachability graph yields an NFA with epsilon transitions whose
   determinised, minimised form is the "minimal automaton for the
   homomorphic image" that the SH verification tool computes and displays
   (Figs. 10 and 11). *)

module Action = Fsa_term.Action
module Lts = Fsa_lts.Lts

let log_src =
  Logs.Src.create "fsa.hom" ~doc:"homomorphic abstraction and minimisation"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics
module Span = Fsa_obs.Span

let m_minimal_automata = Metrics.counter "hom.minimal_automata"
let m_dependence_tests = Metrics.counter "hom.dependence_tests"
let m_shared_builds = Metrics.counter "hom.shared_builds"
let m_early_decisions = Metrics.counter "hom.early_decisions"

module Action_label = struct
  type t = Action.t

  let compare = Action.compare
  let pp = Action.pp
end

module A = Fsa_automata.Automata.Make (Action_label)

(* An alphabetic homomorphism: [None] maps the action to the empty word. *)
type t = Action.t -> Action.t option

let identity : t = fun a -> Some a

(* Preserve exactly the listed actions, erase everything else — the
   homomorphism used in the paper to focus on one (minimum, maximum)
   pair.  The set is built once, when the homomorphism is constructed:
   the closure is applied once per transition of the behaviour, and a
   per-call list scan shows up in abstraction profiles. *)
let preserve actions : t =
  let keep = Action.Set.of_list actions in
  fun a -> if Action.Set.mem a keep then Some a else None

(* first binding wins, matching the order semantics of an assoc list *)
let rename_table assoc =
  List.fold_left
    (fun m (x, y) -> if Action.Map.mem x m then m else Action.Map.add x y m)
    Action.Map.empty assoc

(* The merge groups of a non-injective rename map: every target two or
   more distinct source actions end up on, with its sources.  A rename
   map is applied pointwise, so such a merge silently identifies words
   that the behaviour distinguishes — dependence verdicts read off the
   merged image are meaningless.  Actions of [alphabet] the map leaves
   untouched count as sources of themselves: renaming [a] onto an
   existing action [b] merges the two just as surely as mapping both
   onto a third symbol. *)
let rename_collisions ?(alphabet = []) assoc =
  let table = rename_table assoc in
  let add_source tgt src m =
    let srcs =
      Option.value (Action.Map.find_opt tgt m) ~default:Action.Set.empty
    in
    Action.Map.add tgt (Action.Set.add src srcs) m
  in
  let by_target =
    Action.Map.fold (fun src tgt m -> add_source tgt src m) table
      Action.Map.empty
  in
  let by_target =
    List.fold_left
      (fun m a -> if Action.Map.mem a table then m else add_source a a m)
      by_target alphabet
  in
  Action.Map.fold
    (fun tgt srcs acc ->
      if Action.Set.cardinal srcs > 1 then
        (tgt, Action.Set.elements srcs) :: acc
      else acc)
    by_target []
  |> List.rev

let rename assoc : t =
  let table = rename_table assoc in
  (* Within-map collisions are detectable without knowing the alphabet
     and are always a bug: refuse them instead of silently merging the
     sources (callers with an alphabet in hand should run
     {!rename_collisions} first for the full check). *)
  (match rename_collisions assoc with
  | [] -> ()
  | (tgt, srcs) :: _ ->
    invalid_arg
      (Fmt.str "Hom.rename: non-injective map merges %a into %a"
         Fmt.(list ~sep:comma Action.pp)
         srcs Action.pp tgt));
  fun a ->
    match Action.Map.find_opt a table with
    | Some y -> Some y
    | None -> Some a

let compose (h2 : t) (h1 : t) : t = fun a -> Option.bind (h1 a) h2

(* Restrictions of a homomorphism to a concrete alphabet, for static
   soundness checks: an abstraction that erases the whole alphabet (or
   preserves an action the alphabet does not contain) yields a vacuous
   minimal automaton and silently meaningless dependence verdicts. *)
let erased (h : t) alphabet =
  List.filter (fun a -> Option.is_none (h a)) alphabet

let preserved (h : t) alphabet =
  List.filter (fun a -> Option.is_some (h a)) alphabet

(* ------------------------------------------------------------------ *)
(* Application to behaviours                                            *)
(* ------------------------------------------------------------------ *)

(* The homomorphic image of a reachability graph, as an NFA with epsilon
   transitions.  The behaviour of an APA is prefix closed, hence every
   state accepts. *)
let image_nfa (h : t) lts =
  let n = Lts.nb_states lts in
  let edges =
    (* fold + rev keeps the edge order of [Lts.transitions] without
       materializing the transition list *)
    Lts.fold_transitions
      (fun tr acc -> (tr.Lts.t_src, h tr.Lts.t_label, tr.Lts.t_dst) :: acc)
      lts []
    |> List.rev
  in
  let all = List.init n Fun.id |> Fsa_automata.Automata.Int_set.of_list in
  A.Nfa.create ~nb_states:n
    ~start:(Fsa_automata.Automata.Int_set.singleton (Lts.initial lts))
    ~finals:all ~edges

(* The minimal deterministic automaton of the homomorphic image. *)
let minimal_automaton (h : t) lts =
  Span.with_ ~cat:"hom" "hom.minimal_automaton" @@ fun () ->
  Metrics.incr m_minimal_automata;
  let dfa = A.Dfa.minimize (A.Dfa.determinize (image_nfa h lts)) in
  Log.debug (fun m ->
      m "minimal automaton of %s image: %d states, %d transitions"
        (Lts.name lts) (A.Dfa.nb_states dfa) (A.Dfa.nb_transitions dfa));
  dfa

(* ------------------------------------------------------------------ *)
(* Functional dependence by abstraction                                 *)
(* ------------------------------------------------------------------ *)

(* Reading functional dependence off the abstract automaton: with the
   homomorphism preserving only {min, max}, the maximum depends on the
   minimum iff no accepted word contains [max] before the first [min] —
   graphically, iff every path of the minimal automaton reaches a
   [max]-edge only after a [min]-edge (Fig. 10), whereas independence shows
   as a diamond (Fig. 11). *)
let dfa_has_target_before_avoid dfa ~avoid ~target =
  let module IS = Fsa_automata.Automata.Int_set in
  (* [delta] is the DFA's per-state adjacency array — no rescan of the
     full transition list per visited state *)
  let delta = A.Dfa.delta dfa in
  let rec go visited frontier =
    match frontier with
    | [] -> false
    | s :: rest ->
      if IS.mem s visited then go visited rest
      else begin
        let visited = IS.add s visited in
        let hit = ref false in
        let next = ref rest in
        A.Lmap.iter
          (fun l d ->
            if Action.equal l target then hit := true
            else if not (Action.equal l avoid) then next := d :: !next)
          delta.(s);
        !hit || go visited !next
      end
  in
  go IS.empty [ A.Dfa.start dfa ]

(* The per-pair test: preserve only {min, max}, minimise the image of
   the whole behaviour and read the verdict off it.  {!Shared} answers
   the same question for many pairs at once; this stays as its
   reference oracle and as the single-pair query of [fsa abstract]. *)
let depends_abstract lts ~min_action ~max_action =
  Metrics.incr m_dependence_tests;
  let dfa = minimal_automaton (preserve [ min_action; max_action ]) lts in
  not (dfa_has_target_before_avoid dfa ~avoid:min_action ~target:max_action)

(* Testing each maximum against each minimum (Sect. 5.5): the dependence
   matrix of the behaviour. *)
let dependence_matrix lts ~minima ~maxima =
  List.map
    (fun mx ->
      (mx,
       List.map
         (fun mn -> (mn, depends_abstract lts ~min_action:mn ~max_action:mx))
         minima))
    maxima

(* ------------------------------------------------------------------ *)
(* Shared multi-pair abstraction engine                                 *)
(* ------------------------------------------------------------------ *)

(* Answering every (minimum, maximum) dependence pair from one pass over
   the behaviour, instead of erasing/determinising/minimising the full
   reachability graph once per pair.

   Soundness: write U for the union alphabet of all surviving pairs and
   h_U = preserve U, h_p = preserve {min, max} for a pair p with
   {min, max} <= U.  Then h_p = h_p . h_U, so

     h_p (L (lts)) = h_p (h_U (L (lts))) = h_p (L (shared_dfa)),

   and the minimal automaton of a pair computed from [shared_dfa] is the
   minimal automaton computed from the full behaviour (minimal DFAs are
   unique up to isomorphism).  For the verdict itself not even the
   per-pair projection is needed: in [dfa_has_target_before_avoid] a
   label that is neither [avoid] nor [target] is traversed freely —
   exactly what erasing it would do — so running the search directly on
   the shared DFA returns the same answer as running it on the pair's
   minimal automaton. *)

module Pair_set = Set.Make (struct
  type t = Action.t * Action.t

  let compare (a1, b1) (a2, b2) =
    match Action.compare a1 a2 with 0 -> Action.compare b1 b2 | c -> c
end)

module Shared = struct
  type build_timing = {
    sb_erase_ns : int64;
    sb_determinise_ns : int64;
    sb_minimise_ns : int64;
    sb_early_ns : int64;
  }

  (* Interned view of the shared quotient for per-pair projections:
     letters as dense ids, per-state successors as flat arrays.  Built
     once per engine on first use, after which each projection is a
     bitset subset construction whose hot path compares ints only — no
     [Action] comparisons, no per-pair edge re-classification. *)
  type proj_index = {
    px_ids : int Action.Map.t;  (* letter -> dense id *)
    px_succ : (int * int) array array;  (* state -> [(letter id, dst)] *)
    px_final : bool array;
  }

  (* The engine of one behaviour graph. *)
  type part = {
    sh_alphabet : Action.Set.t;
    sh_dfa : A.Dfa.t;
    sh_timing : build_timing;
    sh_early : Pair_set.t;
    mutable sh_proj : proj_index option;
  }

  (* One part per module graph of an asynchronous product (see
     {!compose}); a built engine has one.  [e_cross] counts the pairs
     whose endpoints lie in different parts — independent without a
     look at any automaton — and [e_dfa] is the shuffle product of the
     parts' quotients, built only when asked for. *)
  type engine = {
    e_parts : part list;
    e_alphabet : Action.Set.t;
    e_cross : int;
    mutable e_dfa : A.Dfa.t option;
  }

  let of_part p =
    { e_parts = [ p ]; e_alphabet = p.sh_alphabet; e_cross = 0; e_dfa = Some p.sh_dfa }

  let zero_timing =
    { sb_erase_ns = 0L;
      sb_determinise_ns = 0L;
      sb_minimise_ns = 0L;
      sb_early_ns = 0L }

  (* On-the-fly dependence evaluation during the single pass: a pair
     (min, max) is already decided independent as soon as the pass
     witnesses a path that reaches a [max]-labelled transition without
     traversing [min] (the same condition [dfa_has_target_before_avoid]
     searches for, evaluated on the graph instead of the quotient).  One
     monotone bitset fixpoint decides every such pair at once:
     avoid.(s) is the set of minima some path from the initial state to
     [s] avoids entirely — seeded with all minima at the initial state,
     propagated along each edge minus the edge's own label.  A pair
     (mn, mx) is independent iff some mx-edge leaves a state whose
     avoid-set contains mn.  The "dependent" direction is never decided
     early: it is a property of all paths and needs the full image. *)
  let early_pass ~minima ~maxima lts =
    let mins = Array.of_list minima in
    let k = Array.length mins in
    if k = 0 || maxima = [] then Pair_set.empty
    else begin
      let min_index =
        let m = ref Action.Map.empty in
        Array.iteri (fun i a -> m := Action.Map.add a i !m) mins;
        !m
      in
      let bits_per_word = 62 in
      let words = (k + bits_per_word - 1) / bits_per_word in
      let n = Lts.nb_states lts in
      (* avoid is a flattened [n] x [words] bit matrix *)
      let avoid = Array.make (n * words) 0 in
      let full_word = (1 lsl bits_per_word) - 1 in
      let last_mask =
        let r = k mod bits_per_word in
        if r = 0 then full_word else (1 lsl r) - 1
      in
      let init = Lts.initial lts in
      for w = 0 to words - 1 do
        avoid.((init * words) + w) <-
          (if w = words - 1 then last_mask else full_word)
      done;
      let succ = Lts.succ lts in
      let queue = Queue.create () in
      let queued = Bytes.make n '\000' in
      Queue.add init queue;
      Bytes.set queued init '\001';
      while not (Queue.is_empty queue) do
        let s = Queue.pop queue in
        Bytes.set queued s '\000';
        List.iter
          (fun tr ->
            let d = tr.Lts.t_dst in
            let label_bit = Action.Map.find_opt tr.Lts.t_label min_index in
            let changed = ref false in
            for w = 0 to words - 1 do
              let contrib =
                let v = avoid.((s * words) + w) in
                match label_bit with
                | Some b when b / bits_per_word = w ->
                  v land lnot (1 lsl (b mod bits_per_word))
                | _ -> v
              in
              let cur = avoid.((d * words) + w) in
              let merged = cur lor contrib in
              if merged <> cur then begin
                avoid.((d * words) + w) <- merged;
                changed := true
              end
            done;
            if !changed && Bytes.get queued d = '\000' then begin
              Bytes.set queued d '\001';
              Queue.add d queue
            end)
          (succ s)
      done;
      let maxima_set = Action.Set.of_list maxima in
      Lts.fold_transitions
        (fun tr acc ->
          if Action.Set.mem tr.Lts.t_label maxima_set then begin
            let s = tr.Lts.t_src in
            let acc = ref acc in
            for i = 0 to k - 1 do
              let w = i / bits_per_word and b = i mod bits_per_word in
              if avoid.((s * words) + w) land (1 lsl b) <> 0 then
                acc := Pair_set.add (mins.(i), tr.Lts.t_label) !acc
            done;
            !acc
          end
          else acc)
        lts Pair_set.empty
    end

  (* Build the engine: erase the behaviour once to the union alphabet,
     determinise and minimise the shared image, and run the on-the-fly
     early-decision pass over the graph. *)
  let build ~alphabet ~minima ~maxima lts =
    Metrics.incr m_shared_builds;
    Span.with_ ~cat:"hom" "hom.shared_build" @@ fun () ->
    let h = preserve (Action.Set.elements alphabet) in
    let t0 = Span.now_ns () in
    let nfa = image_nfa h lts in
    let t1 = Span.now_ns () in
    let det = A.Dfa.determinize nfa in
    let t2 = Span.now_ns () in
    let d = A.Dfa.minimize det in
    let t3 = Span.now_ns () in
    let early = early_pass ~minima ~maxima lts in
    let t4 = Span.now_ns () in
    Metrics.incr ~by:(Pair_set.cardinal early) m_early_decisions;
    Log.debug (fun m ->
        m
          "shared abstraction of %s: |alphabet|=%d, %d states, %d \
           transitions, %d pairs decided early"
          (Lts.name lts)
          (Action.Set.cardinal alphabet)
          (A.Dfa.nb_states d) (A.Dfa.nb_transitions d)
          (Pair_set.cardinal early));
    of_part
      { sh_alphabet = alphabet;
        sh_dfa = d;
        sh_timing =
          { sb_erase_ns = Int64.sub t1 t0;
            sb_determinise_ns = Int64.sub t2 t1;
            sb_minimise_ns = Int64.sub t3 t2;
            sb_early_ns = Int64.sub t4 t3 };
        sh_early = early;
        sh_proj = None }

  (* The part whose alphabet holds [a]; parts' alphabets are disjoint. *)
  let part_of e a =
    List.find_opt (fun p -> Action.Set.mem a p.sh_alphabet) e.e_parts

  let compose ~minima ~maxima engines =
    if engines = [] then invalid_arg "Hom.Shared.compose: no engine";
    let parts = List.concat_map (fun e -> e.e_parts) engines in
    let alphabet =
      List.fold_left
        (fun acc p ->
          if not (Action.Set.disjoint acc p.sh_alphabet) then
            invalid_arg "Hom.Shared.compose: overlapping alphabets";
          Action.Set.union acc p.sh_alphabet)
        Action.Set.empty parts
    in
    let e = { e_parts = parts; e_alphabet = alphabet; e_cross = 0; e_dfa = None } in
    let cross =
      List.fold_left
        (fun acc mn ->
          List.fold_left
            (fun acc mx ->
              match (part_of e mn, part_of e mx) with
              | Some p, Some q when p != q -> acc + 1
              | _ -> acc)
            acc maxima)
        0 minima
    in
    { e with e_cross = cross }

  let alphabet e = e.e_alphabet

  let dfa e =
    match e.e_dfa with
    | Some d -> d
    | None ->
      let d =
        match e.e_parts with
        | p :: ps ->
          List.fold_left (fun d q -> A.Dfa.shuffle d q.sh_dfa) p.sh_dfa ps
        | [] -> assert false (* [compose] refuses no engines *)
      in
      e.e_dfa <- Some d;
      d

  let dfa_states e =
    List.fold_left (fun n p -> n * A.Dfa.nb_states p.sh_dfa) 1 e.e_parts

  let timing e =
    List.fold_left
      (fun t p ->
        let q = p.sh_timing in
        { sb_erase_ns = Int64.add t.sb_erase_ns q.sb_erase_ns;
          sb_determinise_ns = Int64.add t.sb_determinise_ns q.sb_determinise_ns;
          sb_minimise_ns = Int64.add t.sb_minimise_ns q.sb_minimise_ns;
          sb_early_ns = Int64.add t.sb_early_ns q.sb_early_ns })
      zero_timing e.e_parts

  let early_count e =
    List.fold_left (fun n p -> n + Pair_set.cardinal p.sh_early) e.e_cross e.e_parts

  (* The parts holding the pair's endpoints. *)
  let parts_of_pair e ~min_action ~max_action =
    match (part_of e min_action, part_of e max_action) with
    | Some p, Some q -> (p, q)
    | _ ->
      invalid_arg
        (Fmt.str "Hom.Shared: pair (%a, %a) outside the shared alphabet"
           Action.pp min_action Action.pp max_action)

  (* A pair across two parts is independent: [max] occurs in its own
     module's runs while [min]'s module stays put. *)
  let depends e ~min_action ~max_action =
    let p, q = parts_of_pair e ~min_action ~max_action in
    Metrics.incr m_dependence_tests;
    p == q
    && (not (Pair_set.mem (min_action, max_action) p.sh_early))
    && not
         (dfa_has_target_before_avoid p.sh_dfa ~avoid:min_action
            ~target:max_action)

  (* The pair's minimal automaton, projected from the shared quotient
     instead of recomputed from the behaviour — isomorphic to
     [minimal_automaton (preserve [min; max]) lts] by h_p = h_p . h_U
     and uniqueness of the minimal DFA. *)
  let proj_index p =
    match p.sh_proj with
    | Some px -> px
    | None ->
      let d = p.sh_dfa in
      let module IS = Fsa_automata.Automata.Int_set in
      let ids = ref Action.Map.empty in
      let nb = ref 0 in
      let id_of l =
        match Action.Map.find_opt l !ids with
        | Some i -> i
        | None ->
          let i = !nb in
          incr nb;
          ids := Action.Map.add l i !ids;
          i
      in
      let succ =
        Array.map
          (fun m ->
            Array.of_list
              (A.Lmap.fold (fun l dst acc -> (id_of l, dst) :: acc) m []))
          (A.Dfa.delta d)
      in
      let final = Array.make (A.Dfa.nb_states d) false in
      IS.iter (fun s -> final.(s) <- true) (A.Dfa.finals d);
      let px = { px_ids = !ids; px_succ = succ; px_final = final } in
      p.sh_proj <- Some px;
      px

  (* The pair projection of the shared quotient, before minimisation:
     the same subset construction as [A.project (preserve [min; max])]
     but over the interned {!proj_index}, so the epsilon closures — the
     per-pair hot path — compare dense letter ids instead of actions.
     A pair letter absent from the quotient's transitions gets id [-1],
     which matches no edge: exactly the semantics of an unexercised
     letter. *)
  let project_pair p ~min_action ~max_action =
    let px = proj_index p in
    let module IS = Fsa_automata.Automata.Int_set in
    let lid a =
      match Action.Map.find_opt a px.px_ids with Some i -> i | None -> -1
    in
    let mn = lid min_action and mx = lid max_action in
    let n = Array.length px.px_succ in
    let nbytes = (n + 7) / 8 in
    let closure seeds =
      let bits = Bytes.make nbytes '\000' in
      let members = ref [] in
      let is_final = ref false in
      let rec visit s =
        let i = s lsr 3 and m = 1 lsl (s land 7) in
        let b = Char.code (Bytes.unsafe_get bits i) in
        if b land m = 0 then begin
          Bytes.unsafe_set bits i (Char.unsafe_chr (b lor m));
          members := s :: !members;
          if px.px_final.(s) then is_final := true;
          let succ = px.px_succ.(s) in
          for k = 0 to Array.length succ - 1 do
            let l, dst = succ.(k) in
            if l <> mn && l <> mx then visit dst
          done
        end
      in
      List.iter visit seeds;
      (Bytes.unsafe_to_string bits, !members, !is_final)
    in
    let index : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let finals_acc = ref IS.empty in
    let nb = ref 0 in
    let queue = Queue.create () in
    let intern (key, members, fin) =
      match Hashtbl.find_opt index key with
      | Some id -> id
      | None ->
        let id = !nb in
        incr nb;
        Hashtbl.add index key id;
        if fin then finals_acc := IS.add id !finals_acc;
        Queue.add (id, members) queue;
        id
    in
    let start = intern (closure [ A.Dfa.start p.sh_dfa ]) in
    let delta_acc = ref [] in
    while not (Queue.is_empty queue) do
      let id, members = Queue.pop queue in
      let mn_seeds = ref [] and mx_seeds = ref [] in
      List.iter
        (fun s ->
          let succ = px.px_succ.(s) in
          for k = 0 to Array.length succ - 1 do
            let l, dst = succ.(k) in
            if l = mn then mn_seeds := dst :: !mn_seeds
            else if l = mx then mx_seeds := dst :: !mx_seeds
          done)
        members;
      let trans = ref A.Lmap.empty in
      if !mn_seeds <> [] then
        trans := A.Lmap.add min_action (intern (closure !mn_seeds)) !trans;
      if !mx_seeds <> [] then
        trans := A.Lmap.add max_action (intern (closure !mx_seeds)) !trans;
      delta_acc := (id, !trans) :: !delta_acc
    done;
    let delta = Array.make !nb A.Lmap.empty in
    List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
    A.Dfa.create ~nb_states:!nb ~start ~finals:!finals_acc ~delta

  (* A pair across two parts: the image of the product is the shuffle
     of each part's image on its one letter. *)
  let minimal_automaton e ~min_action ~max_action =
    let p, q = parts_of_pair e ~min_action ~max_action in
    Metrics.incr m_minimal_automata;
    if p == q then A.Dfa.minimize (project_pair p ~min_action ~max_action)
    else
      let letter part a = A.Dfa.minimize (A.project (preserve [ a ]) part.sh_dfa) in
      A.Dfa.minimize (A.Dfa.shuffle (letter p min_action) (letter q max_action))
end

(* ------------------------------------------------------------------ *)
(* Simplicity of homomorphisms                                          *)
(* ------------------------------------------------------------------ *)

(* The SH verification tool checks "simplicity" of a homomorphism: a
   sufficient condition under which satisfaction of properties on the
   abstract level carries over (approximately) to the concrete level.  We
   implement the weak continuation-closure check on the product of the
   concrete behaviour with the minimal automaton of its image:

     for every reachable product state (q, m) and every abstract action x
     enabled in m, some concrete path from q of erased transitions
     followed by one transition t with h(t) = x must exist.

   If this holds everywhere, every abstract continuation is realisable
   from every concrete representative, so the abstraction adds no spurious
   decisions: h is simple on the given behaviour. *)
let is_simple (h : t) lts =
  let dfa = minimal_automaton h lts in
  let module IS = Fsa_automata.Automata.Int_set in
  (* the graph already indexes transitions by source state *)
  let succ = Lts.succ lts in
  let delta = A.Dfa.delta dfa in
  (* abstract letters enabled in a DFA state *)
  let enabled m = List.map fst (A.Lmap.bindings delta.(m)) in
  (* can concrete state q produce abstract letter x after erased steps? *)
  let can_produce q x =
    let rec go visited = function
      | [] -> false
      | s :: rest ->
        if IS.mem s visited then go visited rest
        else begin
          let visited = IS.add s visited in
          let hit = ref false in
          let next = ref rest in
          List.iter
            (fun tr ->
              match h tr.Lts.t_label with
              | Some y when Action.equal y x -> hit := true
              | Some _ -> ()
              | None -> next := tr.Lts.t_dst :: !next)
            (succ s);
          !hit || go visited !next
        end
    in
    go IS.empty [ q ]
  in
  (* BFS over reachable product states *)
  let module PS = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let step_abstract m l = A.Dfa.step dfa m l in
  let ok = ref true in
  let visited = ref PS.empty in
  let queue = Queue.create () in
  Queue.add (Lts.initial lts, A.Dfa.start dfa) queue;
  while (not (Queue.is_empty queue)) && !ok do
    let (q, m) as ps = Queue.pop queue in
    if not (PS.mem ps !visited) then begin
      visited := PS.add ps !visited;
      List.iter
        (fun x -> if not (can_produce q x) then ok := false)
        (enabled m);
      List.iter
        (fun tr ->
          match h tr.Lts.t_label with
          | None -> Queue.add (tr.Lts.t_dst, m) queue
          | Some x -> (
            match step_abstract m x with
            | Some m' -> Queue.add (tr.Lts.t_dst, m') queue
            | None -> ok := false (* image outside abstract language *)))
        (succ q)
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let dot ?(name = "minimal_automaton") (h : t) lts =
  A.Dfa.dot ~name (minimal_automaton h lts)

(* A compact description of the shape of a minimal automaton, used to
   compare against the figures of the paper. *)
let describe_dfa dfa =
  Fmt.str "%d states, %d transitions, %d final" (A.Dfa.nb_states dfa)
    (A.Dfa.nb_transitions dfa)
    (Fsa_automata.Automata.Int_set.cardinal (A.Dfa.finals dfa))
