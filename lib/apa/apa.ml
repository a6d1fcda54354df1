(* Asynchronous Product Automata (Definition 2 of the paper).

   An APA consists of a family of state components (sets of data terms), a
   family of elementary automata communicating via shared state components,
   and a neighbourhood relation assigning to each elementary automaton the
   state components it may read and write.

   Elementary automata are specified as rules in a guarded
   consume/read/produce style (the style of the paper's state transition
   relations, e.g. Delta_send): a rule pattern-matches elements of its
   neighbourhood components, binds variables, checks a guard and produces
   new elements.  For each interpretation (variable binding) the rule
   defines one state transition; the transition label is the corresponding
   action. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action

let log_src = Logs.Src.create "fsa.apa" ~doc:"APA rule matching and composition"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics

let m_rules_tried = Metrics.counter "apa.rules_tried"
let m_reused = Metrics.counter "apa.bindings_reused"
let m_bindings = Metrics.counter "apa.bindings_found"
let m_terms = Metrics.counter "apa.terms_allocated"

(* ------------------------------------------------------------------ *)
(* Layouts                                                             *)
(* ------------------------------------------------------------------ *)

(* A layout fixes the order of a family of state components (sorted by
   name) and interns the term sets they hold: each distinct set gets a
   small integer id, [0] being the empty set.  A state is then an int
   array of set ids, so hashing and equality are int-array operations.

   Every APA owns one layout (built on first use, see [compiled]); the
   states it explores all share it, and so do the ids in its binding
   caches.  Hand-built states ([State.empty], [State.set] of an unknown
   component) get small private layouts of their own, so no table
   outlives the states and APAs that use it.

   Interning is serialised by [l_lock].  Readers go lock-free: an id only
   reaches a reader inside a state published after the id was interned,
   and [l_sets] is grown by copy-then-swap, so every array a reader can
   see holds every id it can know. *)

let mix h =
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Content hash of a term set, independent of any layout. *)
let set_hash set = Term.Set.fold (fun t h -> mix (h + Term.hash t)) set 0x51ed

module Set_tbl = Hashtbl.Make (struct
  type t = Term.Set.t

  let equal = Term.Set.equal
  let hash = set_hash
end)

module Name_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type layout = {
  l_names : string array;  (* sorted, distinct *)
  l_index : int Name_tbl.t;  (* name -> position; never written after creation *)
  l_name_h : int array;
  l_lock : Mutex.t;  (* interning, and the owning APA's binding caches *)
  l_ids : int Set_tbl.t;  (* non-empty set -> id *)
  mutable l_sets : Term.Set.t array;  (* id -> set *)
  mutable l_set_h : int array;  (* id -> [set_hash] *)
  mutable l_count : int;
}

let layout names =
  let names = Array.of_list (List.sort_uniq String.compare names) in
  let index = Name_tbl.create (Array.length names) in
  Array.iteri (fun k c -> Name_tbl.replace index c k) names;
  { l_names = names;
    l_index = index;
    l_name_h = Array.map Hashtbl.hash names;
    l_lock = Mutex.create ();
    l_ids = Set_tbl.create 64;
    l_sets = Array.make 64 Term.Set.empty;
    l_set_h = Array.make 64 0;
    l_count = 1 }

let position lay name = Name_tbl.find_opt lay.l_index name

(* [intern_locked] requires [l_lock]. *)
let intern_locked lay set =
  if Term.Set.is_empty set then 0
  else
    match Set_tbl.find_opt lay.l_ids set with
    | Some id -> id
    | None ->
      let id = lay.l_count in
      if id = Array.length lay.l_sets then begin
        let grow a fill =
          let a' = Array.make (2 * id) fill in
          Array.blit a 0 a' 0 id;
          a'
        in
        lay.l_set_h <- grow lay.l_set_h 0;
        lay.l_sets <- grow lay.l_sets Term.Set.empty
      end;
      lay.l_set_h.(id) <- set_hash set;
      lay.l_sets.(id) <- set;
      lay.l_count <- id + 1;
      Set_tbl.add lay.l_ids set id;
      id

let intern lay set =
  if Term.Set.is_empty set then 0
  else Mutex.protect lay.l_lock (fun () -> intern_locked lay set)

(* What component [k] holding set [id] adds to a state's hash: a
   function of the component's name and the set's contents only, and 0
   for the empty set, so that equal states hash alike across layouts and
   an absent component hashes like an empty one. *)
let contrib lay k id =
  if id = 0 then 0 else mix (lay.l_name_h.(k) lxor lay.l_set_h.(id))

(* ------------------------------------------------------------------ *)
(* States                                                              *)
(* ------------------------------------------------------------------ *)

module State = struct
  (* [ids.(k)] is the set id of component [lay.l_names.(k)]; [h] is the
     sum of the components' [contrib]utions, so a successor's hash is its
     parent's plus a per-binding delta. *)
  type t = { lay : layout; ids : int array; h : int }

  let of_ids lay ids =
    let h = ref 0 in
    Array.iteri (fun k id -> h := !h + contrib lay k id) ids;
    { lay; ids; h = !h }

  let bindings s =
    Array.to_list
      (Array.mapi (fun k c -> (c, s.lay.l_sets.(s.ids.(k)))) s.lay.l_names)

  (* A state over the given components in a private layout; the sets of
     a repeated name are unioned. *)
  let of_bindings bs =
    let lay = layout (List.map fst bs) in
    let ids = Array.make (Array.length lay.l_names) 0 in
    Mutex.protect lay.l_lock (fun () ->
        List.iter
          (fun (c, set) ->
            let k = Option.get (position lay c) in
            ids.(k) <- intern_locked lay (Term.Set.union lay.l_sets.(ids.(k)) set))
          bs);
    of_ids lay ids

  let empty = of_bindings []

  let get name s =
    match position s.lay name with
    | Some k -> s.lay.l_sets.(s.ids.(k))
    | None -> Term.Set.empty

  let set name v s =
    match position s.lay name with
    | Some k ->
      let id = intern s.lay v in
      if id = s.ids.(k) then s
      else begin
        let ids = Array.copy s.ids in
        ids.(k) <- id;
        { s with ids; h = s.h - contrib s.lay k s.ids.(k) + contrib s.lay k id }
      end
    | None when Term.Set.is_empty v -> s
    | None -> of_bindings ((name, v) :: bindings s)

  let add_elt name e s = set name (Term.Set.add e (get name s)) s
  let remove_elt name e s = set name (Term.Set.remove e (get name s)) s
  let mem_elt name e s = Term.Set.mem e (get name s)

  (* Contents order: component by component in name order, an absent
     component counting as empty. *)
  let compare a b =
    let rec go = function
      | [] -> 0
      | c :: rest ->
        let d = Term.Set.compare (get c a) (get c b) in
        if d <> 0 then d else go rest
    in
    if a == b then 0
    else
      go
        (List.sort_uniq String.compare
           (Array.to_list a.lay.l_names @ Array.to_list b.lay.l_names))

  (* Within one layout equal ids mean equal sets, and the hash, a
     function of contents, agrees across layouts. *)
  let equal a b =
    a == b
    || a.h = b.h
       &&
       if a.lay == b.lay then begin
         let n = Array.length a.ids in
         let rec go k = k = n || (a.ids.(k) = b.ids.(k) && go (k + 1)) in
         go 0
       end
       else compare a b = 0

  let hash s = s.h land max_int
  let components s = Array.to_list s.lay.l_names

  (* Rename component keys and rewrite the stored terms — the workhorse
     of symmetry canonicalisation ([Fsa_sym]).  A renaming that permutes
     the layout's components stays in the layout: a set the rewrite
     leaves physically unchanged keeps its id, so only rewritten sets are
     interned.  Any other renaming rebuilds the state by name, unioning
     the sets of colliding keys. *)
  let map ~comp ~term s =
    let lay = s.lay in
    let n = Array.length s.ids in
    let target = Array.make n (-1) in
    let rec place k =
      k = n
      ||
      match position lay (comp lay.l_names.(k)) with
      | Some k' when target.(k') < 0 ->
        target.(k') <- k;
        place (k + 1)
      | _ -> false
    in
    if place 0 then
      of_ids lay
        (Array.map
           (fun k ->
             let set = lay.l_sets.(s.ids.(k)) in
             let set' = Term.Set.map term set in
             if set' == set then s.ids.(k) else intern lay set')
           target)
    else
      of_bindings
        (List.map (fun (c, set) -> (comp c, Term.Set.map term set)) (bindings s))

  let pp ppf s =
    let pp_comp ppf (name, set) =
      Fmt.pf ppf "%s = {%a}" name
        Fmt.(list ~sep:comma Term.pp)
        (Term.Set.elements set)
    in
    Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_comp) (bindings s)

  let to_string s = Fmt.str "%a" pp s
end

(* ------------------------------------------------------------------ *)
(* Rules (elementary automata)                                         *)
(* ------------------------------------------------------------------ *)

type take = {
  t_component : string;
  t_pattern : Term.t;
  t_consume : bool;  (* false: read without removing *)
}

type put = { p_component : string; p_template : Term.t }

type rule = {
  r_name : string;
  r_takes : take list;
  r_guard : Term.Subst.t -> bool;
  r_trivial_guard : bool;
  r_puts : put list;
  r_label : Term.Subst.t -> Action.t;
  r_default_label : bool;
}

let take ?(consume = true) component pattern =
  { t_component = component; t_pattern = pattern; t_consume = consume }

let read component pattern = take ~consume:false component pattern

let put component template = { p_component = component; p_template = template }

let rule ?guard ?label ~takes ~puts name =
  let r_guard = match guard with Some g -> g | None -> fun _ -> true in
  let r_label =
    match label with Some l -> l | None -> fun _ -> Action.make name
  in
  { r_name = name; r_takes = takes; r_guard;
    r_trivial_guard = Option.is_none guard; r_puts = puts;
    r_label = r_label; r_default_label = Option.is_none label }

let rule_name r = r.r_name

(* The neighbourhood N(t) of a rule: every state component it reads or
   writes. *)
let neighbourhood r =
  List.map (fun t -> t.t_component) r.r_takes
  @ List.map (fun p -> p.p_component) r.r_puts
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* APA                                                                 *)
(* ------------------------------------------------------------------ *)

(* One successor of a cached binding: its label and the components it
   changes, as (layout position, new set id) pairs, with the hash delta
   that change makes. *)
type succ = { su_label : Action.t; su_patch : int array; su_dh : int }

(* The guard-filtered bindings of a rule for one content of its
   neighbourhood: [en_key] holds the set ids of N(r) ([en_hash] their
   hash), [en_succs] the bindings in matching order. *)
type entry = { en_key : int array; en_hash : int; en_succs : succ array }

type crule = {
  cr_rule : rule;
  cr_nb : int array;  (* layout positions of N(r), ascending *)
  cr_puts : int;
  mutable cr_slots : entry array;  (* open addressing, [no_entry] = free *)
  mutable cr_count : int;
}

type compiled = { co_lay : layout; co_rules : crule array }

type t = {
  name : string;
  components : (string * Term.Set.t) list;  (* declared, with initial sets *)
  rules : rule list;
  compiled : compiled option Atomic.t;  (* built on first use *)
}

type error =
  | Unknown_component of string * string  (* rule name, component *)
  | Unbound_put_variable of string * string  (* rule name, variable *)
  | Nonground_initial of string * Term.t
  | Duplicate_rule of string
  | Duplicate_component of string

let pp_error ppf = function
  | Unknown_component (r, c) ->
    Fmt.pf ppf "rule %s references undeclared state component %s" r c
  | Unbound_put_variable (r, v) ->
    Fmt.pf ppf "rule %s produces a term with unbound variable %s" r v
  | Nonground_initial (c, t) ->
    Fmt.pf ppf "initial content %a of component %s is not ground" Term.pp t c
  | Duplicate_rule r -> Fmt.pf ppf "rule %s is declared twice" r
  | Duplicate_component c -> Fmt.pf ppf "state component %s is declared twice" c

let validate t =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let declared c = List.mem_assoc c t.components in
  let rec dup_comp = function
    | [] -> ()
    | (c, _) :: rest ->
      if List.mem_assoc c rest then err (Duplicate_component c);
      dup_comp rest
  in
  dup_comp t.components;
  let rec dup_rule = function
    | [] -> ()
    | r :: rest ->
      if List.exists (fun r' -> String.equal r.r_name r'.r_name) rest then
        err (Duplicate_rule r.r_name);
      dup_rule rest
  in
  dup_rule t.rules;
  List.iter
    (fun (c, init) ->
      Term.Set.iter
        (fun e -> if not (Term.is_ground e) then err (Nonground_initial (c, e)))
        init)
    t.components;
  List.iter
    (fun r ->
      List.iter
        (fun tk ->
          if not (declared tk.t_component) then
            err (Unknown_component (r.r_name, tk.t_component)))
        r.r_takes;
      List.iter
        (fun p ->
          if not (declared p.p_component) then
            err (Unknown_component (r.r_name, p.p_component)))
        r.r_puts;
      (* Static scope check: every variable of a produced template must be
         bound by some take pattern. *)
      let bound =
        List.fold_left
          (fun acc tk -> Term.String_set.union acc (Term.vars tk.t_pattern))
          Term.String_set.empty r.r_takes
      in
      List.iter
        (fun p ->
          Term.String_set.iter
            (fun v ->
              if not (Term.String_set.mem v bound) then
                err (Unbound_put_variable (r.r_name, v)))
            (Term.vars p.p_template))
        r.r_puts)
    t.rules;
  match List.rev !errors with [] -> Ok () | es -> Error es

let make ~components ~rules name =
  let t = { name; components; rules; compiled = Atomic.make None } in
  match validate t with
  | Ok () ->
    Log.debug (fun m ->
        m "APA %s: %d state components, %d elementary automata" name
          (List.length components) (List.length rules));
    t
  | Error (e :: _) -> invalid_arg (Fmt.str "Apa.make %s: %a" name pp_error e)
  | Error [] -> assert false

let name t = t.name
let components t = t.components
let rules t = t.rules

(* The action alphabet under the default labelling (one action per rule
   name) — what spec-level [check] declarations and homomorphism keep
   sets may refer to. *)
let rule_names t = List.sort_uniq String.compare (List.map rule_name t.rules)

let consumers t c =
  List.filter
    (fun r ->
      List.exists
        (fun tk -> tk.t_consume && String.equal tk.t_component c)
        r.r_takes)
    t.rules

let readers t c =
  List.filter
    (fun r ->
      List.exists
        (fun tk -> (not tk.t_consume) && String.equal tk.t_component c)
        r.r_takes)
    t.rules

let producers t c =
  List.filter
    (fun r ->
      List.exists (fun p -> String.equal p.p_component c) r.r_puts)
    t.rules

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* All interpretations of a rule over the given component contents:
   enumerate, take by take, the possible bindings.  Distinct consuming
   takes of the same component must match distinct elements (set
   semantics: both elements are removed). *)
type binding = { subst : Term.Subst.t; consumed : (string * Term.t) list }

let match_takes get takes =
  let step acc tk =
    List.concat_map
      (fun b ->
        (* extensions of [b] by one matched element of this take *)
        let available = get tk.t_component in
        Term.Set.fold
          (fun elt acc' ->
            let already_consumed =
              List.exists
                (fun (c, e) ->
                  String.equal c tk.t_component && Term.equal e elt)
                b.consumed
            in
            if tk.t_consume && already_consumed then acc'
            else
              match Term.match_ ~pattern:tk.t_pattern ~target:elt with
              | None -> acc'
              | Some s -> (
                match Term.Subst.merge b.subst s with
                | None -> acc'
                | Some subst ->
                  let consumed =
                    if tk.t_consume then (tk.t_component, elt) :: b.consumed
                    else b.consumed
                  in
                  { subst; consumed } :: acc'))
          available [])
      acc
  in
  List.fold_left step [ { subst = Term.Subst.empty; consumed = [] } ] takes

(* The binding caches: per rule, an open-addressing table from the set
   ids of N(r) to the entry matched for that content.  A transition only
   changes its rule's neighbourhood, so most rules see a neighbourhood
   content again and again; their bindings, labels and successor patches
   are reused instead of re-matched.  Guards and label closures are
   assumed pure, as everywhere else (sequential and parallel exploration
   already rely on it). *)
let no_entry = { en_key = [||]; en_hash = 0; en_succs = [||] }

(* The hash of the key a state's ids give, without building it. *)
let hash_nb nb ids =
  let h = ref 0 in
  for j = 0 to Array.length nb - 1 do
    h := mix (!h + ids.(nb.(j)))
  done;
  !h

let rec same_key key nb ids j =
  j = Array.length nb || (key.(j) = ids.(nb.(j)) && same_key key nb ids (j + 1))

let rec probe slots nb ids i =
  let e = slots.(i) in
  if e == no_entry || same_key e.en_key nb ids 0 then i
  else probe slots nb ids ((i + 1) land (Array.length slots - 1))

(* The slot holding the entry for [ids], or the free slot ending its
   probe sequence. *)
let slot slots nb ids =
  probe slots nb ids (hash_nb nb ids land (Array.length slots - 1))

let grow cr =
  let slots = Array.make (2 * Array.length cr.cr_slots) no_entry in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun e ->
      if e != no_entry then begin
        let rec free i = if slots.(i) == no_entry then i else free ((i + 1) land mask) in
        slots.(free (e.en_hash land mask)) <- e
      end)
    cr.cr_slots;
  cr.cr_slots <- slots

(* Match a rule against one neighbourhood content: the successors of
   every guard-filtered binding, as patches over that content. *)
let match_entry lay cr ids =
  let r = cr.cr_rule and nb = cr.cr_nb in
  let names = Array.map (fun k -> lay.l_names.(k)) nb in
  let sets = Array.map (fun k -> lay.l_sets.(ids.(k))) nb in
  let pos c =
    let rec go j = if String.equal names.(j) c then j else go (j + 1) in
    go 0
  in
  let bindings =
    match_takes (fun c -> sets.(pos c)) r.r_takes
    |> List.filter (fun b -> r.r_guard b.subst)
  in
  let succ b =
    let cur = Array.copy sets in
    List.iter
      (fun (c, e) ->
        let j = pos c in
        cur.(j) <- Term.Set.remove e cur.(j))
      b.consumed;
    (* Interning the produced terms makes recurring data items physically
       shared, so set comparisons hit the [==] fast paths of
       [Term.compare]. *)
    List.iter
      (fun p ->
        let j = pos p.p_component in
        cur.(j) <-
          Term.Set.add (Term.intern (Term.Subst.apply b.subst p.p_template)) cur.(j))
      r.r_puts;
    let patch = ref [] and dh = ref 0 in
    for j = Array.length nb - 1 downto 0 do
      let k = nb.(j) in
      if cur.(j) != sets.(j) then begin
        let id = intern_locked lay cur.(j) in
        if id <> ids.(k) then begin
          patch := k :: id :: !patch;
          dh := !dh + contrib lay k id - contrib lay k ids.(k)
        end
      end
    done;
    { su_label = r.r_label b.subst; su_patch = Array.of_list !patch; su_dh = !dh }
  in
  { en_key = Array.map (fun k -> ids.(k)) nb;
    en_hash = hash_nb nb ids;
    en_succs = Array.of_list (List.map succ bindings) }

(* The entry for a state's neighbourhood content, matched on a miss.

   Lookups run without the lock.  Entries are immutable, a free slot is
   only ever filled in place, and [grow] fills a fresh array before
   swapping it in, so a racing reader sees either a complete entry or a
   free slot.  A free slot sends it to the locked path, which probes
   again before matching: only one domain matches a given content. *)
let lookup lay cr ids ~reused =
  let slots = cr.cr_slots in
  let e = slots.(slot slots cr.cr_nb ids) in
  if e != no_entry then begin
    incr reused;
    e
  end
  else
    Mutex.protect lay.l_lock @@ fun () ->
    let slots = cr.cr_slots in
    let i = slot slots cr.cr_nb ids in
    if slots.(i) != no_entry then begin
      incr reused;
      slots.(i)
    end
    else begin
      let e = match_entry lay cr ids in
      slots.(i) <- e;
      cr.cr_count <- cr.cr_count + 1;
      if 2 * cr.cr_count > Array.length slots then grow cr;
      e
    end

let compile t =
  let lay = layout (List.map fst t.components) in
  let crule r =
    let nb =
      Array.of_list
        (List.map
           (fun c ->
             match position lay c with
             | Some k -> k
             | None ->
               invalid_arg
                 (Printf.sprintf "Apa: rule %s references undeclared component %s"
                    r.r_name c))
           (neighbourhood r))
    in
    { cr_rule = r; cr_nb = nb; cr_puts = List.length r.r_puts;
      cr_slots = Array.make 16 no_entry; cr_count = 0 }
  in
  { co_lay = lay; co_rules = Array.of_list (List.map crule t.rules) }

(* Domains racing to build the tables agree on the first one published. *)
let compiled t =
  match Atomic.get t.compiled with
  | Some co -> co
  | None ->
    ignore (Atomic.compare_and_set t.compiled None (Some (compile t)));
    Option.get (Atomic.get t.compiled)

let initial_state t =
  let lay = (compiled t).co_lay in
  let ids = Array.make (Array.length lay.l_names) 0 in
  List.iter
    (fun (c, init) ->
      ids.(Option.get (position lay c)) <- intern lay (Term.Set.map Term.intern init))
    t.components;
  State.of_ids lay ids

(* A state of another layout (built by hand, or explored by another
   APA), re-interned into this APA's layout by component name. *)
let adopt t lay (s : State.t) =
  if s.lay == lay then s
  else begin
    List.iter
      (fun (c, set) ->
        if position lay c = None && not (Term.Set.is_empty set) then
          invalid_arg
            (Printf.sprintf "Apa: state component %s is not declared by %s" c
               t.name))
      (State.bindings s);
    State.of_ids lay (Array.map (fun c -> intern lay (State.get c s)) lay.l_names)
  end

(* Every rule's entry for the state, in rule order. *)
let entries t s ~reused =
  let co = compiled t in
  let lay = co.co_lay in
  let s = adopt t lay s in
  let rules = co.co_rules in
  let es =
    Array.map (fun cr -> lookup lay cr s.State.ids ~reused) rules
  in
  (co, s, es)

let successor (s : State.t) su =
  let ids = Array.copy s.ids in
  let p = su.su_patch in
  for j = 0 to (Array.length p / 2) - 1 do
    ids.(p.(2 * j)) <- p.((2 * j) + 1)
  done;
  { s with ids; h = s.h + su.su_dh }

(* All transitions enabled in [state]: (rule, action label, successor),
   rules in declaration order, each rule's bindings in matching order. *)
let step t state =
  let reused = ref 0 in
  let co, s, es = entries t state ~reused in
  if Metrics.enabled () then begin
    let bindings = ref 0 and terms = ref 0 in
    Array.iteri
      (fun i e ->
        let n = Array.length e.en_succs in
        bindings := !bindings + n;
        terms := !terms + (n * co.co_rules.(i).cr_puts))
      es;
    Metrics.incr ~by:(Array.length es) m_rules_tried;
    Metrics.incr ~by:!reused m_reused;
    Metrics.incr ~by:!bindings m_bindings;
    Metrics.incr ~by:!terms m_terms
  end;
  let out = ref [] in
  for i = Array.length es - 1 downto 0 do
    let r = co.co_rules.(i).cr_rule and succs = es.(i).en_succs in
    for j = Array.length succs - 1 downto 0 do
      let su = succs.(j) in
      out := (r, su.su_label, successor s su) :: !out
    done
  done;
  !out

let enabled_rules t state =
  let co, _, es = entries t state ~reused:(ref 0) in
  Array.to_list co.co_rules
  |> List.filteri (fun i _ -> Array.length es.(i).en_succs > 0)
  |> List.map (fun cr -> cr.cr_rule)

let is_deadlocked t state = enabled_rules t state = []

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

(* Glue APAs together by identifying equally-named state components (the
   paper's shared [net] component): initial sets are unioned, rules are
   concatenated.  Rule names must remain unique. *)
let compose ~name parts =
  let components =
    List.fold_left
      (fun acc part ->
        List.fold_left
          (fun acc (c, init) ->
            match List.assoc_opt c acc with
            | None -> (c, init) :: acc
            | Some prev -> (c, Term.Set.union prev init) :: List.remove_assoc c acc)
          acc part.components)
      [] parts
    |> List.rev
  in
  let rules = List.concat_map (fun p -> p.rules) parts in
  make ~components ~rules name

(* Prefix every component name and rule name: turns a component template
   into a distinctly-named instance before composition.  Shared components
   (e.g. [net]) are listed in [keep] and left unrenamed. *)
let prefix ?(keep = []) ~prefix:pfx t =
  let ren c = if List.mem c keep then c else pfx ^ c in
  let components = List.map (fun (c, init) -> (ren c, init)) t.components in
  let rules =
    List.map
      (fun r ->
        { r with
          r_name = pfx ^ r.r_name;
          r_takes =
            List.map (fun tk -> { tk with t_component = ren tk.t_component }) r.r_takes;
          r_puts =
            List.map (fun p -> { p with p_component = ren p.p_component }) r.r_puts })
      t.rules
  in
  { name = pfx ^ t.name; components; rules; compiled = Atomic.make None }

let with_initial component init t =
  if not (List.mem_assoc component t.components) then
    invalid_arg
      (Printf.sprintf "Apa.with_initial: unknown state component %s" component);
  { t with
    compiled = Atomic.make None;
    components =
      List.map
        (fun (c, old) -> if String.equal c component then (c, init) else (c, old))
        t.components }

let pp ppf t =
  let pp_comp ppf (c, init) =
    Fmt.pf ppf "%s = {%a}" c
      Fmt.(list ~sep:comma Term.pp)
      (Term.Set.elements init)
  in
  let pp_rule ppf r =
    Fmt.pf ppf "%s : N = {%a}" r.r_name
      Fmt.(list ~sep:comma string)
      (neighbourhood r)
  in
  Fmt.pf ppf "@[<v2>APA %s:@,state components:@,%a@,elementary automata:@,%a@]"
    t.name
    Fmt.(list ~sep:cut pp_comp)
    t.components
    Fmt.(list ~sep:cut pp_rule)
    t.rules
