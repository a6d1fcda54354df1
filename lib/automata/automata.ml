(* Finite automata over an arbitrary ordered label alphabet.

   The SH verification tool computes, for every homomorphic image of a
   behaviour, the corresponding minimal deterministic automaton (citing
   Eilenberg).  This module provides the underlying machinery: NFAs with
   epsilon transitions (the result of applying an alphabetic language
   homomorphism to a reachability graph), subset construction, completion,
   Hopcroft and Moore minimisation, language operations and decision
   procedures. *)

module Int_set = Set.Make (Int)

let log_src = Logs.Src.create "fsa.automata" ~doc:"finite-automata algorithms"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics

let m_minimize_runs = Metrics.counter "automata.minimize_runs"
let m_refinement_rounds = Metrics.counter "automata.refinement_rounds"
let m_hopcroft_splits = Metrics.counter "automata.hopcroft_splits"
let g_minimize_in = Metrics.gauge "automata.minimize_states_in"
let g_minimize_out = Metrics.gauge "automata.minimize_states_out"

module type LABEL = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (L : LABEL) = struct
  module Lset = Set.Make (L)
  module Lmap = Map.Make (L)

  (* ---------------------------------------------------------------- *)
  (* Nondeterministic finite automata with epsilon transitions          *)
  (* ---------------------------------------------------------------- *)

  module Nfa = struct
    type t = {
      nb_states : int;
      start : Int_set.t;
      finals : Int_set.t;
      edges : (int * L.t option * int) list;  (* None = epsilon *)
    }

    let create ~nb_states ~start ~finals ~edges =
      let check s =
        if s < 0 || s >= nb_states then
          invalid_arg (Printf.sprintf "Nfa.create: state %d out of range" s)
      in
      Int_set.iter check start;
      Int_set.iter check finals;
      List.iter (fun (s, _, d) -> check s; check d) edges;
      { nb_states; start; finals; edges }

    let nb_states t = t.nb_states
    let start t = t.start
    let finals t = t.finals
    let edges t = t.edges

    let alphabet t =
      List.fold_left
        (fun acc (_, l, _) ->
          match l with None -> acc | Some l -> Lset.add l acc)
        Lset.empty t.edges

    (* Adjacency indexed by source state. *)
    let successors t =
      let succ = Array.make t.nb_states [] in
      List.iter (fun (s, l, d) -> succ.(s) <- (l, d) :: succ.(s)) t.edges;
      succ

    let eps_closure_of succ set =
      let rec go visited = function
        | [] -> visited
        | s :: rest ->
          if Int_set.mem s visited then go visited rest
          else
            let visited = Int_set.add s visited in
            let next =
              List.filter_map
                (fun (l, d) -> match l with None -> Some d | Some _ -> None)
                succ.(s)
            in
            go visited (next @ rest)
      in
      go Int_set.empty (Int_set.elements set)

    let eps_closure t set = eps_closure_of (successors t) set

    let step_on succ set l =
      Int_set.fold
        (fun s acc ->
          List.fold_left
            (fun acc (l', d) ->
              match l' with
              | Some l'' when L.compare l l'' = 0 -> Int_set.add d acc
              | Some _ | None -> acc)
            acc succ.(s))
        set Int_set.empty

    let accepts t word =
      let succ = successors t in
      let current =
        List.fold_left
          (fun set l -> eps_closure_of succ (step_on succ set l))
          (eps_closure_of succ t.start)
          word
      in
      not (Int_set.is_empty (Int_set.inter current t.finals))
  end

  (* ---------------------------------------------------------------- *)
  (* Deterministic finite automata                                      *)
  (* ---------------------------------------------------------------- *)

  module Dfa = struct
    (* Partial DFAs: missing transitions go to an implicit non-accepting
       sink.  [delta] is indexed by state. *)
    type t = {
      nb_states : int;
      start : int;
      finals : Int_set.t;
      delta : int Lmap.t array;
    }

    let create ~nb_states ~start ~finals ~delta =
      if Array.length delta <> nb_states then
        invalid_arg "Dfa.create: delta length mismatch";
      if start < 0 || start >= nb_states then invalid_arg "Dfa.create: start";
      { nb_states; start; finals; delta }

    let nb_states t = t.nb_states
    let start t = t.start
    let finals t = t.finals
    let delta t = t.delta
    let is_final t s = Int_set.mem s t.finals

    let alphabet t =
      Array.fold_left
        (fun acc m -> Lmap.fold (fun l _ acc -> Lset.add l acc) m acc)
        Lset.empty t.delta

    let step t s l = Lmap.find_opt l t.delta.(s)

    let accepts t word =
      let rec go s = function
        | [] -> is_final t s
        | l :: rest -> (
          match step t s l with None -> false | Some s' -> go s' rest)
      in
      go t.start word

    let transitions t =
      let acc = ref [] in
      Array.iteri
        (fun s m -> Lmap.iter (fun l d -> acc := (s, l, d) :: !acc) m)
        t.delta;
      List.rev !acc

    let nb_transitions t =
      Array.fold_left (fun acc m -> acc + Lmap.cardinal m) 0 t.delta

    (* Subset construction.  Only reachable subsets are materialised. *)
    let determinize (nfa : Nfa.t) =
      let succ = Nfa.successors nfa in
      let module Sm = Map.Make (Int_set) in
      let start_set = Nfa.eps_closure_of succ (Nfa.start nfa) in
      let index = ref (Sm.singleton start_set 0) in
      let sets = ref [ start_set ] in
      let nb = ref 1 in
      let delta_acc = ref [] in
      let queue = Queue.create () in
      Queue.add (0, start_set) queue;
      while not (Queue.is_empty queue) do
        let id, set = Queue.pop queue in
        let labels =
          Int_set.fold
            (fun s acc ->
              List.fold_left
                (fun acc (l, _) ->
                  match l with None -> acc | Some l -> Lset.add l acc)
                acc succ.(s))
            set Lset.empty
        in
        let trans =
          Lset.fold
            (fun l acc ->
              let target =
                Nfa.eps_closure_of succ (Nfa.step_on succ set l)
              in
              if Int_set.is_empty target then acc
              else
                let tid =
                  match Sm.find_opt target !index with
                  | Some tid -> tid
                  | None ->
                    let tid = !nb in
                    index := Sm.add target tid !index;
                    sets := target :: !sets;
                    incr nb;
                    Queue.add (tid, target) queue;
                    tid
                in
                Lmap.add l tid acc)
            labels Lmap.empty
        in
        delta_acc := (id, trans) :: !delta_acc
      done;
      let nb_states = !nb in
      let delta = Array.make nb_states Lmap.empty in
      List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
      let finals =
        List.fold_left
          (fun acc set ->
            let id = Sm.find set !index in
            if Int_set.is_empty (Int_set.inter set (Nfa.finals nfa)) then acc
            else Int_set.add id acc)
          Int_set.empty !sets
      in
      create ~nb_states ~start:0 ~finals ~delta

    (* Restrict to states reachable from the start and co-reachable to a
       final state (trim); preserves the language. *)
    let trim t =
      let reach = Array.make t.nb_states false in
      let rec fwd s =
        if not reach.(s) then begin
          reach.(s) <- true;
          Lmap.iter (fun _ d -> fwd d) t.delta.(s)
        end
      in
      fwd t.start;
      (* co-reachability via reverse adjacency *)
      let rev = Array.make t.nb_states [] in
      Array.iteri
        (fun s m -> Lmap.iter (fun _ d -> rev.(d) <- s :: rev.(d)) m)
        t.delta;
      let corect = Array.make t.nb_states false in
      let rec bwd s =
        if not corect.(s) then begin
          corect.(s) <- true;
          List.iter bwd rev.(s)
        end
      in
      Int_set.iter (fun s -> if reach.(s) then bwd s) t.finals;
      let keep = Array.init t.nb_states (fun s -> reach.(s) && corect.(s)) in
      if not keep.(t.start) then
        (* empty language: single non-accepting state *)
        create ~nb_states:1 ~start:0 ~finals:Int_set.empty
          ~delta:[| Lmap.empty |]
      else begin
        let remap = Array.make t.nb_states (-1) in
        let nb = ref 0 in
        Array.iteri
          (fun s k ->
            if k then begin
              remap.(s) <- !nb;
              incr nb
            end)
          keep;
        let delta = Array.make !nb Lmap.empty in
        Array.iteri
          (fun s m ->
            if keep.(s) then
              delta.(remap.(s)) <-
                Lmap.fold
                  (fun l d acc ->
                    if keep.(d) then Lmap.add l remap.(d) acc else acc)
                  m Lmap.empty)
          t.delta;
        let finals =
          Int_set.fold
            (fun s acc -> if keep.(s) then Int_set.add remap.(s) acc else acc)
            t.finals Int_set.empty
        in
        create ~nb_states:!nb ~start:remap.(t.start) ~finals ~delta
      end

    (* Complete the DFA over [alphabet] by adding an explicit sink. *)
    let complete ~alphabet t =
      let needs_sink =
        Array.exists
          (fun m -> Lset.exists (fun l -> not (Lmap.mem l m)) alphabet)
          t.delta
      in
      if not needs_sink then t
      else begin
        let sink = t.nb_states in
        let delta = Array.make (t.nb_states + 1) Lmap.empty in
        Array.iteri
          (fun s m ->
            delta.(s) <-
              Lset.fold
                (fun l acc ->
                  if Lmap.mem l acc then acc else Lmap.add l sink acc)
                alphabet m)
          t.delta;
        delta.(sink) <-
          Lset.fold (fun l acc -> Lmap.add l sink acc) alphabet Lmap.empty;
        create ~nb_states:(t.nb_states + 1) ~start:t.start ~finals:t.finals
          ~delta
      end

    (* Moore minimisation: iterated partition refinement by successor
       blocks.  Runs on the completed automaton, then trims the sink. *)
    let minimize_moore t =
      let t = trim t in
      let sigma = alphabet t in
      let t = complete ~alphabet:sigma t in
      let n = t.nb_states in
      let block = Array.init n (fun s -> if is_final t s then 1 else 0) in
      let changed = ref true in
      while !changed do
        changed := false;
        if Metrics.enabled () then Metrics.incr m_refinement_rounds;
        (* signature of a state: its block plus successor blocks *)
        let module Sig = Map.Make (struct
          type t = int * (int option) list

          let compare = Stdlib.compare
        end) in
        let signature s =
          ( block.(s),
            Lset.fold
              (fun l acc ->
                (match step t s l with
                 | Some d -> Some block.(d)
                 | None -> None)
                :: acc)
              sigma [] )
        in
        let index = ref Sig.empty in
        let next = Array.make n 0 in
        let nb = ref 0 in
        for s = 0 to n - 1 do
          let g = signature s in
          match Sig.find_opt g !index with
          | Some b -> next.(s) <- b
          | None ->
            index := Sig.add g !nb !index;
            next.(s) <- !nb;
            incr nb
        done;
        if next <> block then begin
          Array.blit next 0 block 0 n;
          changed := true
        end
      done;
      let nb = Array.fold_left (fun acc b -> max acc (b + 1)) 0 block in
      let delta = Array.make nb Lmap.empty in
      Array.iteri
        (fun s m ->
          delta.(block.(s)) <-
            Lmap.fold (fun l d acc -> Lmap.add l block.(d) acc) m delta.(block.(s)))
        t.delta;
      let finals =
        Int_set.fold
          (fun s acc -> Int_set.add block.(s) acc)
          t.finals Int_set.empty
      in
      trim (create ~nb_states:nb ~start:block.(t.start) ~finals ~delta)

    (* Hopcroft's minimisation with an indexed-partition refinement
       structure: the partition is a permutation array with per-block
       ranges, splits move marked states to the front of their block's
       range, and the "process the smaller half" rule bounds the work at
       O(n log n) block movements per letter. *)
    let minimize t =
      let obs = Metrics.enabled () in
      if obs then begin
        Metrics.incr m_minimize_runs;
        Metrics.set_gauge g_minimize_in (float_of_int t.nb_states)
      end;
      let t = trim t in
      let sigma = alphabet t in
      let t = complete ~alphabet:sigma t in
      let n = t.nb_states in
      if n = 0 then t
      else begin
        let labels = Array.of_seq (Lset.to_seq sigma) in
        let nl = Array.length labels in
        (* reverse transitions per label index *)
        let label_index =
          let m = ref Lmap.empty in
          Array.iteri (fun i l -> m := Lmap.add l i !m) labels;
          !m
        in
        let rev = Array.make_matrix nl n [] in
        Array.iteri
          (fun s m ->
            Lmap.iter
              (fun l d ->
                let li = Lmap.find l label_index in
                rev.(li).(d) <- s :: rev.(li).(d))
              m)
          t.delta;
        (* indexed partition *)
        let elems = Array.init n Fun.id in
        let loc = Array.init n Fun.id in
        let block_of = Array.make n 0 in
        let block_start = Array.make n 0 in
        let block_size = Array.make n 0 in
        let nb_blocks = ref 0 in
        let marked = Array.make n 0 in  (* per block: number marked *)
        (* initial partition: finals / non-finals *)
        let finals = Array.make n false in
        Int_set.iter (fun s -> finals.(s) <- true) t.finals;
        let place pred start =
          let count = ref 0 in
          for s = 0 to n - 1 do
            if pred s then begin
              let pos = start + !count in
              elems.(pos) <- s;
              loc.(s) <- pos;
              incr count
            end
          done;
          !count
        in
        let nf = place (fun s -> finals.(s)) 0 in
        let _ = place (fun s -> not finals.(s)) nf in
        if nf > 0 then begin
          let b = !nb_blocks in
          incr nb_blocks;
          block_start.(b) <- 0;
          block_size.(b) <- nf;
          for i = 0 to nf - 1 do
            block_of.(elems.(i)) <- b
          done
        end;
        if nf < n then begin
          let b = !nb_blocks in
          incr nb_blocks;
          block_start.(b) <- nf;
          block_size.(b) <- n - nf;
          for i = nf to n - 1 do
            block_of.(elems.(i)) <- b
          done
        end;
        (* worklist of (block, letter) with membership flags *)
        let in_work = Array.make_matrix n nl false in
        let work = Queue.create () in
        let push b li =
          if not in_work.(b).(li) then begin
            in_work.(b).(li) <- true;
            Queue.add (b, li) work
          end
        in
        for b = 0 to !nb_blocks - 1 do
          for li = 0 to nl - 1 do
            push b li
          done
        done;
        (* mark a state inside its block: swap it into the marked prefix *)
        let touched = ref [] in
        let mark s =
          let b = block_of.(s) in
          let m = marked.(b) in
          let pos = loc.(s) in
          let boundary = block_start.(b) + m in
          if pos >= boundary then begin
            if m = 0 then touched := b :: !touched;
            let other = elems.(boundary) in
            elems.(boundary) <- s;
            elems.(pos) <- other;
            loc.(s) <- boundary;
            loc.(other) <- pos;
            marked.(b) <- m + 1
          end
        in
        while not (Queue.is_empty work) do
          let a_block, li = Queue.pop work in
          in_work.(a_block).(li) <- false;
          (* X = predecessors on label li of states in a_block *)
          touched := [];
          let astart = block_start.(a_block)
          and asize = block_size.(a_block) in
          (* collect first: marking reorders elems within blocks only, and
             a_block itself may be split, so snapshot its members *)
          let members = Array.sub elems astart asize in
          Array.iter (fun s -> List.iter mark rev.(li).(s)) members;
          (* split every touched block *)
          List.iter
            (fun b ->
              let m = marked.(b) in
              marked.(b) <- 0;
              if m > 0 && m < block_size.(b) then begin
                if obs then Metrics.incr m_hopcroft_splits;
                (* new block: the marked prefix or the remainder, whichever
                   is smaller *)
                let nb = !nb_blocks in
                incr nb_blocks;
                let small_is_prefix = m <= block_size.(b) - m in
                if small_is_prefix then begin
                  block_start.(nb) <- block_start.(b);
                  block_size.(nb) <- m;
                  block_start.(b) <- block_start.(b) + m;
                  block_size.(b) <- block_size.(b) - m
                end
                else begin
                  block_start.(nb) <- block_start.(b) + m;
                  block_size.(nb) <- block_size.(b) - m;
                  block_size.(b) <- m
                end;
                for i = block_start.(nb) to block_start.(nb) + block_size.(nb) - 1
                do
                  block_of.(elems.(i)) <- nb
                done;
                (* enqueue the (smaller) new part for every letter; a
                   pending (b, c) stays pending, which keeps the
                   refinement correct and at most doubles the work *)
                for c = 0 to nl - 1 do
                  push nb c
                done
              end)
            !touched
        done;
        (* build the quotient *)
        let delta = Array.make !nb_blocks Lmap.empty in
        Array.iteri
          (fun s m ->
            let bs = block_of.(s) in
            delta.(bs) <-
              Lmap.fold (fun l d acc -> Lmap.add l block_of.(d) acc) m delta.(bs))
          t.delta;
        let finals_q =
          Int_set.fold
            (fun s acc -> Int_set.add block_of.(s) acc)
            t.finals Int_set.empty
        in
        let result =
          trim
            (create ~nb_states:!nb_blocks ~start:block_of.(t.start)
               ~finals:finals_q ~delta)
        in
        if obs then
          Metrics.set_gauge g_minimize_out (float_of_int result.nb_states);
        Log.debug (fun m ->
            m "hopcroft: minimised %d -> %d states over %d letters" n
              result.nb_states nl);
        result
      end


    let is_empty t =
      let t = trim t in
      Int_set.is_empty t.finals

    (* Product automaton under a boolean combinator on acceptance. *)
    let product ~combine t1 t2 =
      let sigma = Lset.union (alphabet t1) (alphabet t2) in
      let t1 = complete ~alphabet:sigma t1 in
      let t2 = complete ~alphabet:sigma t2 in
      let module Pm = Map.Make (struct
        type t = int * int

        let compare = Stdlib.compare
      end) in
      let index = ref (Pm.singleton (t1.start, t2.start) 0) in
      let nb = ref 1 in
      let delta_acc = ref [] in
      let finals = ref Int_set.empty in
      let queue = Queue.create () in
      Queue.add ((t1.start, t2.start), 0) queue;
      while not (Queue.is_empty queue) do
        let (s1, s2), id = Queue.pop queue in
        if combine (is_final t1 s1) (is_final t2 s2) then
          finals := Int_set.add id !finals;
        let trans =
          Lset.fold
            (fun l acc ->
              match step t1 s1 l, step t2 s2 l with
              | Some d1, Some d2 ->
                let key = (d1, d2) in
                let tid =
                  match Pm.find_opt key !index with
                  | Some tid -> tid
                  | None ->
                    let tid = !nb in
                    index := Pm.add key tid !index;
                    incr nb;
                    Queue.add (key, tid) queue;
                    tid
                in
                Lmap.add l tid acc
              | _, _ -> acc)
            sigma Lmap.empty
        in
        delta_acc := (id, trans) :: !delta_acc
      done;
      let delta = Array.make !nb Lmap.empty in
      List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
      create ~nb_states:!nb ~start:0 ~finals:!finals ~delta

    let intersection t1 t2 = product ~combine:( && ) t1 t2
    let union t1 t2 = product ~combine:( || ) t1 t2

    let difference t1 t2 = product ~combine:(fun a b -> a && not b) t1 t2

    (* Asynchronous (shuffle) product over disjoint alphabets: a letter
       moves the one factor whose alphabet holds it, the other stays.
       States are the reachable pairs, numbered in BFS order; a pair
       accepts iff both factors do.  Over prefix-closed languages with
       every state final, the product of two minimal automata is
       minimal: two pairs differing in one factor are told apart by
       that factor's distinguishing word, which the other factor
       ignores. *)
    let shuffle t1 t2 =
      if not (Lset.disjoint (alphabet t1) (alphabet t2)) then
        invalid_arg "Dfa.shuffle: alphabets overlap";
      let index = Hashtbl.create 64 in
      let nb = ref 0 in
      let delta_acc = ref [] in
      let finals = ref Int_set.empty in
      let queue = Queue.create () in
      let intern key =
        match Hashtbl.find_opt index key with
        | Some id -> id
        | None ->
          let id = !nb in
          incr nb;
          Hashtbl.add index key id;
          Queue.add (key, id) queue;
          id
      in
      ignore (intern (t1.start, t2.start));
      while not (Queue.is_empty queue) do
        let (s1, s2), id = Queue.pop queue in
        if is_final t1 s1 && is_final t2 s2 then
          finals := Int_set.add id !finals;
        let trans =
          Lmap.fold
            (fun l d2 acc -> Lmap.add l (intern (s1, d2)) acc)
            t2.delta.(s2)
            (Lmap.map (fun d1 -> intern (d1, s2)) t1.delta.(s1))
        in
        delta_acc := (id, trans) :: !delta_acc
      done;
      let delta = Array.make !nb Lmap.empty in
      List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
      create ~nb_states:!nb ~start:0 ~finals:!finals ~delta

    let language_subset t1 t2 = is_empty (difference t1 t2)

    let language_equal t1 t2 = language_subset t1 t2 && language_subset t2 t1

    (* All accepted words up to a length bound (tests, small examples). *)
    let words ~max_len t =
      let rec go acc word len s =
        let acc = if is_final t s then List.rev word :: acc else acc in
        if len = max_len then acc
        else
          Lmap.fold
            (fun l d acc -> go acc (l :: word) (len + 1) d)
            t.delta.(s) acc
      in
      List.sort_uniq (List.compare L.compare) (go [] [] 0 t.start)

    (* A language is finite iff the trim automaton is acyclic. *)
    let language_is_finite t =
      let t = trim t in
      let n = t.nb_states in
      (* colours: 0 white, 1 grey, 2 black *)
      let colour = Array.make n 0 in
      let rec cyclic s =
        colour.(s) <- 1;
        let found =
          Lmap.exists
            (fun _ d ->
              colour.(d) = 1 || (colour.(d) = 0 && cyclic d))
            t.delta.(s)
        in
        if not found then colour.(s) <- 2;
        found
      in
      n = 0 || not (cyclic t.start)

    (* The number of accepted words of a finite language ([None] when the
       language is infinite), by memoised counting on the trim DAG. *)
    let count_words t =
      let t = trim t in
      if not (language_is_finite t) then None
      else begin
        let memo = Array.make (max 1 t.nb_states) (-1) in
        let rec count s =
          if memo.(s) >= 0 then memo.(s)
          else begin
            let self = if is_final t s then 1 else 0 in
            let total =
              Lmap.fold (fun _ d acc -> acc + count d) t.delta.(s) self
            in
            memo.(s) <- total;
            total
          end
        in
        if t.nb_states = 0 then Some 0 else Some (count t.start)
      end

    (* Shortest accepted word by BFS; [None] for the empty language.  Used
       to extract counterexamples from difference automata. *)
    let shortest_accepted t =
      let n = t.nb_states in
      let visited = Array.make n false in
      let queue = Queue.create () in
      visited.(t.start) <- true;
      Queue.add (t.start, []) queue;
      let rec go () =
        if Queue.is_empty queue then None
        else begin
          let s, word = Queue.pop queue in
          if is_final t s then Some (List.rev word)
          else begin
            Lmap.iter
              (fun l d ->
                if not visited.(d) then begin
                  visited.(d) <- true;
                  Queue.add (d, l :: word) queue
                end)
              t.delta.(s);
            go ()
          end
        end
      in
      go ()

    (* Canonical form of a trim DFA: BFS renumbering with label-sorted
       edge exploration.  Two minimal automata are isomorphic iff their
       canonical forms are structurally equal. *)
    let canonicalize t =
      let t = trim t in
      let order = Array.make t.nb_states (-1) in
      let nb = ref 0 in
      let queue = Queue.create () in
      order.(t.start) <- 0;
      nb := 1;
      Queue.add t.start queue;
      while not (Queue.is_empty queue) do
        let s = Queue.pop queue in
        Lmap.iter
          (fun _ d ->
            if order.(d) = -1 then begin
              order.(d) <- !nb;
              incr nb;
              Queue.add d queue
            end)
          t.delta.(s)
      done;
      let delta = Array.make !nb Lmap.empty in
      Array.iteri
        (fun s m ->
          if order.(s) >= 0 then
            delta.(order.(s)) <-
              Lmap.fold
                (fun l d acc ->
                  if order.(d) >= 0 then Lmap.add l order.(d) acc else acc)
                m Lmap.empty)
        t.delta;
      let finals =
        Int_set.fold
          (fun s acc ->
            if order.(s) >= 0 then Int_set.add order.(s) acc else acc)
          t.finals Int_set.empty
      in
      create ~nb_states:!nb ~start:0 ~finals ~delta

    let isomorphic t1 t2 =
      let c1 = canonicalize t1 and c2 = canonicalize t2 in
      c1.nb_states = c2.nb_states
      && Int_set.equal c1.finals c2.finals
      && Array.for_all2 (fun m1 m2 -> Lmap.equal Int.equal m1 m2) c1.delta
           c2.delta

    let dot ?(name = "dfa") ?(state_label = fun i -> Printf.sprintf "q%d" i) t =
      let d = Fsa_graph.Dot.create ~graph_attrs:[ ("rankdir", "LR") ] name in
      Array.iteri
        (fun s _ ->
          let attrs =
            (if is_final t s then [ ("shape", "doublecircle") ]
             else [ ("shape", "circle") ])
            @ if s = t.start then [ ("style", "bold") ] else []
          in
          Fsa_graph.Dot.node ~attrs d (state_label s))
        t.delta;
      List.iter
        (fun (s, l, d') ->
          Fsa_graph.Dot.edge
            ~attrs:[ ("label", Fmt.str "%a" L.pp l) ]
            d (state_label s) (state_label d'))
        (transitions t);
      Fsa_graph.Dot.to_string d

    let pp ppf t =
      Fmt.pf ppf "@[<v>dfa: %d states, start q%d, finals {%a}@,%a@]"
        t.nb_states t.start
        Fmt.(list ~sep:comma int)
        (Int_set.elements t.finals)
        Fmt.(
          list ~sep:cut (fun ppf (s, l, d) ->
              Fmt.pf ppf "q%d --%a--> q%d" s L.pp l d))
        (transitions t)
  end

  (* Project a DFA through an alphabetic homomorphism on its labels:
     [None] turns the edge into an epsilon transition, [Some l'] relabels
     it.  The result recognises the homomorphic image of the DFA's
     language, so chaining [relabel] with subset construction and
     minimisation answers any coarser abstraction from an
     already-minimised intermediate automaton instead of from the
     original behaviour — the basis of the shared multi-pair
     abstraction engine. *)
  let relabel (h : L.t -> L.t option) (dfa : Dfa.t) : Nfa.t =
    let edges =
      List.rev_map (fun (s, l, d) -> (s, h l, d)) (Dfa.transitions dfa)
    in
    Nfa.create ~nb_states:(Dfa.nb_states dfa)
      ~start:(Int_set.singleton (Dfa.start dfa))
      ~finals:(Dfa.finals dfa) ~edges

  (* Subset construction specialised to projecting an already
     deterministic automaton: same language as
     [Dfa.determinize (relabel h dfa)], but subsets are bitsets over the
     source states instead of [Int_set], so the epsilon closures that
     dominate the generic construction on a large source become linear
     array walks.  This is what makes per-pair projections from a
     many-thousand-state shared quotient cheap enough to run once per
     derived requirement. *)
  let project (h : L.t -> L.t option) (dfa : Dfa.t) : Dfa.t =
    let n = Dfa.nb_states dfa in
    (* per-state successors, split once into erased and relabelled *)
    let eps = Array.make n [] in
    let lab = Array.make n [] in
    Array.iteri
      (fun s m ->
        Lmap.iter
          (fun l d ->
            match h l with
            | None -> eps.(s) <- d :: eps.(s)
            | Some l' -> lab.(s) <- (l', d) :: lab.(s))
          m)
      (Dfa.delta dfa);
    let final = Array.make n false in
    Int_set.iter (fun s -> final.(s) <- true) (Dfa.finals dfa);
    let nbytes = (n + 7) / 8 in
    (* epsilon closure of [seeds]: hashable bitset key, members, finality *)
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
          if final.(s) then is_final := true;
          List.iter visit eps.(s)
        end
      in
      List.iter visit seeds;
      (Bytes.unsafe_to_string bits, !members, !is_final)
    in
    let index : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let finals_acc = ref Int_set.empty in
    let nb = ref 0 in
    let queue = Queue.create () in
    let intern (key, members, fin) =
      match Hashtbl.find_opt index key with
      | Some id -> id
      | None ->
        let id = !nb in
        incr nb;
        Hashtbl.add index key id;
        if fin then finals_acc := Int_set.add id !finals_acc;
        Queue.add (id, members) queue;
        id
    in
    let start = intern (closure [ Dfa.start dfa ]) in
    let delta_acc = ref [] in
    while not (Queue.is_empty queue) do
      let id, members = Queue.pop queue in
      let seeds =
        List.fold_left
          (fun acc s ->
            List.fold_left
              (fun acc (l', d) ->
                Lmap.update l'
                  (function None -> Some [ d ] | Some ds -> Some (d :: ds))
                  acc)
              acc lab.(s))
          Lmap.empty members
      in
      let trans =
        Lmap.fold
          (fun l' ds acc -> Lmap.add l' (intern (closure ds)) acc)
          seeds Lmap.empty
      in
      delta_acc := (id, trans) :: !delta_acc
    done;
    let delta = Array.make !nb Lmap.empty in
    List.iter (fun (id, m) -> delta.(id) <- m) !delta_acc;
    Dfa.create ~nb_states:!nb ~start ~finals:!finals_acc ~delta
end
