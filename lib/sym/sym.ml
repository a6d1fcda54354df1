(* Static symmetry detection and ample-set partial-order reduction.
   See sym.mli for the soundness arguments. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module State = Fsa_apa.Apa.State
module Structural = Fsa_struct.Structural
module Metrics = Fsa_obs.Metrics
module Json = Fsa_json.Json
module Smap = Map.Make (String)
module Sset = Set.Make (String)

exception Unsupported of string

let m_canon_hits = Metrics.counter "sym.canon_cache_hits"
let m_canon_misses = Metrics.counter "sym.canon_cache_misses"
let m_ample_reduced = Metrics.counter "sym.ample_states_reduced"

(* ------------------------------------------------------------------ *)
(* Permutations                                                        *)
(* ------------------------------------------------------------------ *)

module Perm = struct
  type t = {
    pm_comp : string Smap.t;
    pm_rule : string Smap.t;
    pm_sym : string Smap.t;
  }

  let id = { pm_comp = Smap.empty; pm_rule = Smap.empty; pm_sym = Smap.empty }

  let is_id p =
    Smap.is_empty p.pm_comp && Smap.is_empty p.pm_rule && Smap.is_empty p.pm_sym

  let lookup m x = match Smap.find_opt x m with Some y -> y | None -> x
  let comp p x = lookup p.pm_comp x
  let rule p x = lookup p.pm_rule x
  let ident p x = lookup p.pm_sym x
  let norm m = Smap.filter (fun k v -> not (String.equal k v)) m

  let of_maps ~comps ~rules ~syms =
    { pm_comp = norm comps; pm_rule = norm rules; pm_sym = norm syms }

  (* [compose a b] applies [b] first. *)
  let compose_map ma mb =
    let m = Smap.map (fun v -> lookup ma v) mb in
    let m =
      Smap.fold
        (fun k v acc -> if Smap.mem k acc then acc else Smap.add k v acc)
        ma m
    in
    norm m

  let compose a b =
    {
      pm_comp = compose_map a.pm_comp b.pm_comp;
      pm_rule = compose_map a.pm_rule b.pm_rule;
      pm_sym = compose_map a.pm_sym b.pm_sym;
    }

  let invert_map m = Smap.fold (fun k v acc -> Smap.add v k acc) m Smap.empty

  let inverse p =
    {
      pm_comp = invert_map p.pm_comp;
      pm_rule = invert_map p.pm_rule;
      pm_sym = invert_map p.pm_sym;
    }

  let rec apply_term p t =
    match t with
    | Term.Sym s -> (
        match Smap.find_opt s p.pm_sym with
        | None -> t
        | Some s' -> Term.sym s')
    | Term.Int _ | Term.Var _ -> t
    | Term.App (f, args) ->
        let args' = List.map (apply_term p) args in
        if List.for_all2 (fun a b -> a == b) args args' then t
        else Term.app f args'

  let apply_state p s =
    if is_id p then s else State.map ~comp:(comp p) ~term:(apply_term p) s

  let apply_action p (a : Action.t) =
    let label = rule p a.Action.label in
    let args = List.map (apply_term p) a.Action.args in
    match a.Action.actor with
    | None -> Action.make ~args label
    | Some actor -> Action.make ~actor ~args label

  let equal a b =
    Smap.equal String.equal a.pm_comp b.pm_comp
    && Smap.equal String.equal a.pm_rule b.pm_rule
    && Smap.equal String.equal a.pm_sym b.pm_sym

  let key p =
    let buf = Buffer.create 64 in
    let dump tag m =
      Buffer.add_string buf tag;
      Smap.iter
        (fun k v ->
          Buffer.add_string buf k;
          Buffer.add_char buf '>';
          Buffer.add_string buf v;
          Buffer.add_char buf ';')
        m
    in
    dump "c:" p.pm_comp;
    dump "r:" p.pm_rule;
    dump "s:" p.pm_sym;
    Buffer.contents buf

  let pp ppf p =
    if is_id p then Fmt.string ppf "id"
    else
      let binds m = Smap.bindings m in
      Fmt.pf ppf "@[<h>%a@]"
        Fmt.(list ~sep:(any " ") (pair ~sep:(any "->") string string))
        (binds p.pm_comp @ binds p.pm_rule @ binds p.pm_sym)
end

(* ------------------------------------------------------------------ *)
(* Report types                                                        *)
(* ------------------------------------------------------------------ *)

type block = {
  b_instances : string list;
  b_comps : string list;
  b_rules : string list;
  b_from_ref : Perm.t;
}

type orbit = { o_blocks : block list; o_reducible : bool; o_why : string }

type rejection = {
  j_a : string;
  j_b : string;
  j_reason : [ `Guard | `Initial | `Rules | `Ambiguous ];
  j_detail : string;
}

type report = {
  r_instances : (string * string list) list;
  r_orbits : orbit list;
  r_rejected : rejection list;
  r_attested_guards : string list;
}

let reason_to_string = function
  | `Guard -> "guard"
  | `Initial -> "initial"
  | `Rules -> "rules"
  | `Ambiguous -> "ambiguous"

(* ------------------------------------------------------------------ *)
(* Instance inference                                                  *)
(* ------------------------------------------------------------------ *)

(* "V1_send" -> Some ("V1", "send"); rules without a proper prefix are
   fixed under every candidate permutation. *)
let prefix_of name =
  match String.index_opt name '_' with
  | Some i when i > 0 && i < String.length name - 1 ->
      Some (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | _ -> None

let takes_of (r : Apa.rule) =
  List.map
    (fun (t : Apa.take) -> (t.Apa.t_component, t.Apa.t_pattern, t.Apa.t_consume))
    r.Apa.r_takes

let puts_of (r : Apa.rule) =
  List.map (fun (p : Apa.put) -> (p.Apa.p_component, p.Apa.p_template)) r.Apa.r_puts

(* Symbols (and separately App heads) occurring in a term. *)
let rec term_syms acc t =
  match t with
  | Term.Sym s -> Sset.add s acc
  | Term.Int _ | Term.Var _ -> acc
  | Term.App (_, args) -> List.fold_left term_syms acc args

let rec term_heads acc t =
  match t with
  | Term.Sym _ | Term.Int _ | Term.Var _ -> acc
  | Term.App (f, args) -> List.fold_left term_heads (Sset.add f acc) args

(* ------------------------------------------------------------------ *)
(* Rule comparison up to renaming                                      *)
(* ------------------------------------------------------------------ *)

(* Structural equality of (takes, puts) with a consistent bijective
   renaming of variables, positions aligned. *)
let positional_equal (takes1, puts1) (takes2, puts2) =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let var_ok v1 v2 =
    match (Hashtbl.find_opt fwd v1, Hashtbl.find_opt bwd v2) with
    | None, None ->
        Hashtbl.replace fwd v1 v2;
        Hashtbl.replace bwd v2 v1;
        true
    | Some x, Some y -> String.equal x v2 && String.equal y v1
    | _ -> false
  in
  let rec term_eq t1 t2 =
    match (t1, t2) with
    | Term.Var v1, Term.Var v2 -> var_ok v1 v2
    | Term.Sym a, Term.Sym b -> String.equal a b
    | Term.Int a, Term.Int b -> a = b
    | Term.App (f, xs), Term.App (g, ys) ->
        String.equal f g
        && List.length xs = List.length ys
        && List.for_all2 term_eq xs ys
    | _ -> false
  in
  List.length takes1 = List.length takes2
  && List.length puts1 = List.length puts2
  && List.for_all2
       (fun (c1, p1, k1) (c2, p2, k2) ->
         String.equal c1 c2 && Bool.equal k1 k2 && term_eq p1 p2)
       takes1 takes2
  && List.for_all2
       (fun (c1, p1) (c2, p2) -> String.equal c1 c2 && term_eq p1 p2)
       puts1 puts2

(* Order-insensitive comparison: sort takes and puts by a variable-blind
   key, then rename variables in traversal order.  Used for rules fixed
   by a permutation that shuffles their arcs; binding roles may permute,
   so callers must additionally require a trivial guard. *)
let alpha_canon (takes, puts) =
  let rec blind t =
    match t with
    | Term.Var _ -> Term.Var "_"
    | Term.Sym _ | Term.Int _ -> t
    | Term.App (f, args) -> Term.App (f, List.map blind args)
  in
  let tkey (c, p, k) = (c, Term.to_string (blind p), k) in
  let pkey (c, p) = (c, Term.to_string (blind p)) in
  let takes = List.sort (fun a b -> compare (tkey a) (tkey b)) takes in
  let puts = List.sort (fun a b -> compare (pkey a) (pkey b)) puts in
  let tbl = Hashtbl.create 8 and ctr = ref 0 in
  let rec go t =
    match t with
    | Term.Var v -> (
        match Hashtbl.find_opt tbl v with
        | Some v' -> Term.Var v'
        | None ->
            let v' = Printf.sprintf "v%d" !ctr in
            incr ctr;
            Hashtbl.replace tbl v v';
            Term.Var v')
    | Term.Sym _ | Term.Int _ -> t
    | Term.App (f, args) -> Term.App (f, List.map go args)
  in
  ( List.map (fun (c, p, k) -> (c, go p, k)) takes,
    List.map (fun (c, p) -> (c, go p)) puts )

(* ------------------------------------------------------------------ *)
(* Generator search                                                    *)
(* ------------------------------------------------------------------ *)

type genr = {
  g_pairs : (string * string) list;  (* jointly swapped instances *)
  g_perm : Perm.t;  (* the verified involution *)
  g_moved_comps : (string * string) list;
}

exception Rejected of [ `Guard | `Initial | `Rules | `Ambiguous ] * string

type ctx = {
  cx_comps : (string * Term.Set.t) list;
  cx_comp_init : Term.Set.t Smap.t;
  cx_rules : Apa.rule list;
  cx_rule_tbl : (string, Apa.rule) Hashtbl.t;
  cx_suffix_rules : string -> (string * Apa.rule) list;  (* sorted *)
  cx_shape : string -> string list;
  cx_is_instance : string -> bool;
  cx_touchers : string -> Sset.t;  (* instance prefixes, "" for fixed *)
  cx_owned_by : string -> string option;
  cx_guard_sig : string -> string option;
}

(* Attempt to verify the joint swap closure generated by exchanging
   instances [a0] and [b0].  Returns the verified generator and the set
   of guard-attested rules, or raises [Rejected]. *)
let try_swap ctx a0 b0 =
  let reject reason detail = raise (Rejected (reason, detail)) in
  let cmap = Hashtbl.create 16
  and smap = Hashtbl.create 16
  and rmap = Hashtbl.create 16 in
  let add_map tbl what x y =
    if String.equal x y then ()
    else
      match (Hashtbl.find_opt tbl x, Hashtbl.find_opt tbl y) with
      | Some x', _ when not (String.equal x' y) ->
          reject `Ambiguous
            (Printf.sprintf "%s %s forced to both %s and %s" what x x' y)
      | _, Some y' when not (String.equal y' x) ->
          reject `Ambiguous
            (Printf.sprintf "%s %s forced to both %s and %s" what y y' x)
      | _ ->
          Hashtbl.replace tbl x y;
          Hashtbl.replace tbl y x
  in
  let paired = Hashtbl.create 8 in
  let pair_list = ref [] in
  let queue = Queue.create () in
  let attested = ref Sset.empty in
  let rec add_pair x y =
    if String.equal x y then
      reject `Rules (Printf.sprintf "instance %s forced to pair with itself" x)
    else
      match (Hashtbl.find_opt paired x, Hashtbl.find_opt paired y) with
      | Some x', Some y' when String.equal x' y && String.equal y' x -> ()
      | None, None ->
          if not (List.equal String.equal (ctx.cx_shape x) (ctx.cx_shape y))
          then
            reject `Rules
              (Printf.sprintf "instances %s and %s have different rule sets" x y);
          Hashtbl.replace paired x y;
          Hashtbl.replace paired y x;
          pair_list := (x, y) :: !pair_list;
          Queue.add (x, y) queue
      | _ ->
          reject `Ambiguous
            (Printf.sprintf "instance %s pulled into conflicting pairings" x)
  and add_comp cx cy =
    if String.equal cx cy then ()
    else begin
      let fresh = not (Hashtbl.mem cmap cx) in
      add_map cmap "component" cx cy;
      if fresh then
        match (ctx.cx_owned_by cx, ctx.cx_owned_by cy) with
        | Some ox, Some oy -> add_pair ox oy
        | None, None ->
            (* Shared components: every instance touching [cx] must pair
               with an instance touching [cy]; match the remaining ones
               by rule shape when unambiguous. *)
            let tx = Sset.remove "" (ctx.cx_touchers cx)
            and ty = Sset.remove "" (ctx.cx_touchers cy) in
            if Sset.cardinal tx <> Sset.cardinal ty then
              reject `Rules
                (Printf.sprintf
                   "shared components %s and %s have different clients" cx cy);
            Sset.iter
              (fun u ->
                match Hashtbl.find_opt paired u with
                | Some v when Sset.mem v ty -> ()
                | Some _ ->
                    reject `Rules
                      (Printf.sprintf "client %s of %s paired outside %s" u cx
                         cy)
                | None -> (
                    let candidates =
                      Sset.filter
                        (fun v ->
                          (not (Hashtbl.mem paired v))
                          && List.equal String.equal (ctx.cx_shape u)
                               (ctx.cx_shape v))
                        ty
                    in
                    match Sset.elements candidates with
                    | [ v ] -> add_pair u v
                    | [] ->
                        reject `Rules
                          (Printf.sprintf "no counterpart for client %s of %s"
                             u cx)
                    | _ ->
                        reject `Ambiguous
                          (Printf.sprintf
                             "several counterparts for client %s of %s" u cx)))
              tx
        | _ ->
            reject `Rules
              (Printf.sprintf "components %s and %s have different ownership"
                 cx cy)
    end
  in
  let rec align_term vmap t1 t2 =
    match (t1, t2) with
    | Term.Var v1, Term.Var v2 -> add_map vmap "variable" v1 v2
    | Term.Sym s1, Term.Sym s2 when String.equal s1 s2 -> ()
    | Term.Sym s1, Term.Sym s2 ->
        if ctx.cx_is_instance s1 && ctx.cx_is_instance s2 then begin
          add_map smap "identity" s1 s2;
          add_pair s1 s2
        end
        else
          reject `Rules
            (Printf.sprintf "distinct non-instance symbols %s and %s" s1 s2)
    | Term.Int a, Term.Int b when a = b -> ()
    | Term.App (f, xs), Term.App (g, ys)
      when String.equal f g && List.length xs = List.length ys ->
        List.iter2 (align_term vmap) xs ys
    | _ ->
        reject `Rules
          (Printf.sprintf "patterns %s and %s do not align" (Term.to_string t1)
             (Term.to_string t2))
  in
  let align_rule (rx : Apa.rule) (ry : Apa.rule) =
    add_map rmap "rule" rx.Apa.r_name ry.Apa.r_name;
    (if rx.Apa.r_trivial_guard && ry.Apa.r_trivial_guard then ()
     else
       match (ctx.cx_guard_sig rx.Apa.r_name, ctx.cx_guard_sig ry.Apa.r_name)
       with
       | Some ga, Some gb when String.equal ga gb ->
           attested :=
             Sset.add rx.Apa.r_name (Sset.add ry.Apa.r_name !attested)
       | _ ->
           reject `Guard
             (Printf.sprintf "guards of %s and %s not attested equivalent"
                rx.Apa.r_name ry.Apa.r_name));
    let vmap = Hashtbl.create 8 in
    let tx = takes_of rx and ty = takes_of ry in
    if List.length tx <> List.length ty then
      reject `Rules
        (Printf.sprintf "%s and %s have different take counts" rx.Apa.r_name
           ry.Apa.r_name);
    List.iter2
      (fun (c1, p1, k1) (c2, p2, k2) ->
        if not (Bool.equal k1 k2) then
          reject `Rules
            (Printf.sprintf "consume mismatch between %s and %s" rx.Apa.r_name
               ry.Apa.r_name);
        add_comp c1 c2;
        align_term vmap p1 p2)
      tx ty;
    let px = puts_of rx and py = puts_of ry in
    if List.length px <> List.length py then
      reject `Rules
        (Printf.sprintf "%s and %s have different put counts" rx.Apa.r_name
           ry.Apa.r_name);
    List.iter2
      (fun (c1, t1) (c2, t2) ->
        add_comp c1 c2;
        align_term vmap t1 t2)
      px py
  in
  let process (x, y) =
    add_map smap "identity" x y;
    let sx = ctx.cx_suffix_rules x and sy = ctx.cx_suffix_rules y in
    List.iter2 (fun (_, rx) (_, ry) -> align_rule rx ry) sx sy
  in
  add_pair a0 b0;
  while not (Queue.is_empty queue) do
    process (Queue.pop queue)
  done;
  let tbl_to_map tbl = Hashtbl.fold Smap.add tbl Smap.empty in
  let p =
    Perm.of_maps ~comps:(tbl_to_map cmap) ~rules:(tbl_to_map rmap)
      ~syms:(tbl_to_map smap)
  in
  (* Global verification: the candidate really is an automorphism. *)
  List.iter
    (fun (c, init) ->
      let c' = Perm.comp p c in
      match Smap.find_opt c' ctx.cx_comp_init with
      | None ->
          reject `Rules (Printf.sprintf "image %s of %s is not a component" c' c)
      | Some init' ->
          let mapped = Term.Set.map (Perm.apply_term p) init in
          if not (Term.Set.equal mapped init') then
            reject `Initial
              (Printf.sprintf "initial contents of %s and %s differ" c c'))
    ctx.cx_comps;
  List.iter
    (fun (r : Apa.rule) ->
      let name' = Perm.rule p r.Apa.r_name in
      match Hashtbl.find_opt ctx.cx_rule_tbl name' with
      | None ->
          reject `Rules
            (Printf.sprintf "image %s of rule %s does not exist" name'
               r.Apa.r_name)
      | Some r' ->
          let img =
            ( List.map
                (fun (c, pat, k) -> (Perm.comp p c, Perm.apply_term p pat, k))
                (takes_of r),
              List.map
                (fun (c, t) -> (Perm.comp p c, Perm.apply_term p t))
                (puts_of r) )
          in
          let tgt = (takes_of r', puts_of r') in
          if positional_equal img tgt then ()
          else if alpha_canon img = alpha_canon tgt then begin
            (* Arc order changed: binding roles may permute under the
               opaque guard, so only trivially guarded rules qualify. *)
            if not (r.Apa.r_trivial_guard && r'.Apa.r_trivial_guard) then
              reject `Guard
                (Printf.sprintf
                   "rule %s is guarded and its arcs move under the renaming"
                   r.Apa.r_name)
          end
          else
            reject `Rules
              (Printf.sprintf "rule %s does not map onto %s" r.Apa.r_name name'))
    ctx.cx_rules;
  let moved =
    Hashtbl.fold
      (fun x y acc -> if String.compare x y < 0 then (x, y) :: acc else acc)
      cmap []
    |> List.sort compare
  in
  ({ g_pairs = List.rev !pair_list; g_perm = p; g_moved_comps = moved }, !attested)

(* ------------------------------------------------------------------ *)
(* Orbits, blocks and leak checks                                      *)
(* ------------------------------------------------------------------ *)

let fact n =
  let rec go acc k = if k <= 1 then acc else go (acc *. float_of_int k) (k - 1) in
  go 1.0 n

let detect ?(guard_sig = fun _ -> None) apa =
  let rules = Apa.rules apa in
  let comps = Apa.components apa in
  let comp_init =
    List.fold_left (fun m (c, i) -> Smap.add c i m) Smap.empty comps
  in
  let rule_tbl = Hashtbl.create 64 in
  List.iter (fun (r : Apa.rule) -> Hashtbl.replace rule_tbl r.Apa.r_name r) rules;
  let by_prefix : (string, (string * Apa.rule) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (r : Apa.rule) ->
      match prefix_of r.Apa.r_name with
      | Some (p, s) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_prefix p) in
          Hashtbl.replace by_prefix p ((s, r) :: cur)
      | None -> ())
    rules;
  let instances =
    Hashtbl.fold (fun p _ acc -> p :: acc) by_prefix []
    |> List.sort String.compare
  in
  let suffix_rules p =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Option.value ~default:[] (Hashtbl.find_opt by_prefix p))
  in
  let shape p = List.map fst (suffix_rules p) in
  let is_instance p = Hashtbl.mem by_prefix p in
  let touchers = Hashtbl.create 32 in
  List.iter
    (fun (r : Apa.rule) ->
      let p =
        match prefix_of r.Apa.r_name with Some (p, _) -> p | None -> ""
      in
      List.iter
        (fun c ->
          let cur = Option.value ~default:Sset.empty (Hashtbl.find_opt touchers c) in
          Hashtbl.replace touchers c (Sset.add p cur))
        (Apa.neighbourhood r))
    rules;
  let touchers_of c =
    Option.value ~default:Sset.empty (Hashtbl.find_opt touchers c)
  in
  let owned_by c =
    match Sset.elements (touchers_of c) with
    | [ p ] when not (String.equal p "") -> Some p
    | _ -> None
  in
  let owned_comps p =
    List.filter_map
      (fun (c, _) ->
        match owned_by c with Some q when String.equal p q -> Some c | _ -> None)
      comps
    |> List.sort String.compare
  in
  let r_instances = List.map (fun p -> (p, owned_comps p)) instances in
  let ctx =
    {
      cx_comps = comps;
      cx_comp_init = comp_init;
      cx_rules = rules;
      cx_rule_tbl = rule_tbl;
      cx_suffix_rules = suffix_rules;
      cx_shape = shape;
      cx_is_instance = is_instance;
      cx_touchers = touchers_of;
      cx_owned_by = owned_by;
      cx_guard_sig = guard_sig;
    }
  in
  (* Union-find, path-compressing, over instance names. *)
  let uf_find tbl x =
    let rec go x =
      match Hashtbl.find_opt tbl x with
      | None -> x
      | Some p when String.equal p x -> x
      | Some p ->
          let r = go p in
          Hashtbl.replace tbl x r;
          r
    in
    go x
  in
  let uf_union tbl x y =
    let rx = uf_find tbl x and ry = uf_find tbl y in
    if not (String.equal rx ry) then Hashtbl.replace tbl rx ry
  in
  let conn = Hashtbl.create 8 (* connected by some generator: same orbit *)
  and coside = Hashtbl.create 8 (* jointly moved on the same side: same block *)
  in
  let gens = ref []
  and rejected = ref []
  and attested_all = ref Sset.empty in
  let groups =
    List.fold_left
      (fun m p ->
        let k = String.concat "\x00" (shape p) in
        Smap.add k (p :: (Option.value ~default:[] (Smap.find_opt k m))) m)
      Smap.empty instances
    |> Smap.bindings
    |> List.map (fun (_, ps) -> List.rev ps)
  in
  List.iter
    (fun group ->
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if j > i && not (String.equal (uf_find conn a) (uf_find conn b))
              then
                match try_swap ctx a b with
                | g, att ->
                    gens := g :: !gens;
                    attested_all := Sset.union att !attested_all;
                    List.iter (fun (x, y) -> uf_union conn x y) g.g_pairs;
                    (match g.g_pairs with
                    | (a1, b1) :: rest ->
                        List.iter
                          (fun (x, y) ->
                            uf_union coside a1 x;
                            uf_union coside b1 y)
                          rest
                    | [] -> ())
                | exception Rejected (reason, detail) ->
                    rejected :=
                      { j_a = a; j_b = b; j_reason = reason; j_detail = detail }
                      :: !rejected)
            group)
        group)
    groups;
  let gens = List.rev !gens in
  (* Blocks: co-side equivalence classes of instances moved by some
     verified generator. *)
  let members = Hashtbl.create 8 in
  List.iter
    (fun g ->
      List.iter
        (fun (x, y) ->
          List.iter
            (fun z ->
              let r = uf_find coside z in
              let cur =
                Option.value ~default:Sset.empty (Hashtbl.find_opt members r)
              in
              Hashtbl.replace members r (Sset.add z cur))
            [ x; y ])
        g.g_pairs)
    gens;
  let members_of rep =
    Option.value ~default:Sset.empty (Hashtbl.find_opt members rep)
  in
  (* A generator is usable only when it is a bijection between two whole
     blocks; block merges by later generators can invalidate earlier
     ones. *)
  let valid_gens =
    List.filter
      (fun g ->
        match g.g_pairs with
        | [] -> false
        | (a1, b1) :: _ ->
            let ba = uf_find coside a1 and bb = uf_find coside b1 in
            (not (String.equal ba bb))
            && List.for_all
                 (fun (x, y) ->
                   String.equal (uf_find coside x) ba
                   && String.equal (uf_find coside y) bb)
                 g.g_pairs
            && Sset.equal (Sset.of_list (List.map fst g.g_pairs)) (members_of ba)
            && Sset.equal (Sset.of_list (List.map snd g.g_pairs)) (members_of bb))
      gens
  in
  (* Assign moved shared components to the block of their clients. *)
  let assigned = Hashtbl.create 8 (* comp -> block rep *)
  and assign_bad = Hashtbl.create 8 (* block rep -> reason *) in
  List.iter
    (fun g ->
      List.iter
        (fun (cx, cy) ->
          List.iter
            (fun cz ->
              if ctx.cx_owned_by cz = None && not (Hashtbl.mem assigned cz)
              then begin
                let ts = touchers_of cz in
                let insts = Sset.remove "" ts in
                let reps =
                  Sset.elements insts
                  |> List.map (uf_find coside)
                  |> List.sort_uniq String.compare
                in
                match reps with
                | [ r ]
                  when (not (Sset.mem "" ts))
                       && Sset.subset insts (members_of r) ->
                    Hashtbl.replace assigned cz r
                | r :: _ ->
                    Hashtbl.replace assign_bad r
                      (Printf.sprintf
                         "moved component %s is shared beyond one block" cz)
                | [] -> ()
              end)
            [ cx; cy ])
        g.g_moved_comps)
    valid_gens;
  let block_comps rep =
    let owned =
      Sset.fold (fun i acc -> owned_comps i @ acc) (members_of rep) []
    in
    let shared =
      Hashtbl.fold
        (fun c r acc -> if String.equal r rep then c :: acc else acc)
        assigned []
    in
    List.sort_uniq String.compare (owned @ shared)
  in
  let block_rules rep =
    Sset.fold
      (fun i acc ->
        List.map (fun (_, r) -> r.Apa.r_name) (suffix_rules i) @ acc)
      (members_of rep) []
    |> List.sort String.compare
  in
  (* Orbit graph: connected components of blocks under valid generators. *)
  let block_edges = Hashtbl.create 8 in
  List.iter
    (fun g ->
      match g.g_pairs with
      | (a1, b1) :: _ ->
          let ba = uf_find coside a1 and bb = uf_find coside b1 in
          let add u v =
            let cur = Option.value ~default:[] (Hashtbl.find_opt block_edges u) in
            Hashtbl.replace block_edges u ((v, g) :: cur)
          in
          add ba bb;
          add bb ba
      | [] -> ())
    valid_gens;
  let all_reps =
    Hashtbl.fold (fun r _ acc -> r :: acc) members []
    |> List.sort (fun a b ->
           String.compare (Sset.min_elt (members_of a)) (Sset.min_elt (members_of b)))
  in
  let seen = Hashtbl.create 8 in
  let orbits = ref [] in
  List.iter
    (fun rep0 ->
      if not (Hashtbl.mem seen rep0) then begin
        (* BFS collecting the component and a from-reference permutation
           per block (composed along the spanning tree). *)
        let perms = Hashtbl.create 8 in
        let ref_comps = block_comps rep0
        and ref_rules = block_rules rep0
        and ref_ids = Sset.elements (members_of rep0) in
        Hashtbl.replace perms rep0 Perm.id;
        Hashtbl.replace seen rep0 ();
        let order = ref [ rep0 ] in
        let q = Queue.create () in
        Queue.add rep0 q;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          let pu = Hashtbl.find perms u in
          List.iter
            (fun (v, g) ->
              if not (Hashtbl.mem seen v) then begin
                Hashtbl.replace seen v ();
                let mk proj names =
                  List.fold_left
                    (fun m n ->
                      Smap.add n (proj g.g_perm (proj pu n)) m)
                    Smap.empty names
                in
                let pv =
                  Perm.of_maps ~comps:(mk Perm.comp ref_comps)
                    ~rules:(mk Perm.rule ref_rules)
                    ~syms:(mk Perm.ident ref_ids)
                in
                Hashtbl.replace perms v pv;
                order := v :: !order;
                Queue.add v q
              end)
            (Option.value ~default:[] (Hashtbl.find_opt block_edges u))
        done;
        let reps =
          List.rev !order
          |> List.sort (fun a b ->
                 String.compare (Sset.min_elt (members_of a))
                   (Sset.min_elt (members_of b)))
        in
        if List.length reps >= 2 then begin
          let blocks =
            List.map
              (fun rep ->
                {
                  b_instances = Sset.elements (members_of rep);
                  b_comps = block_comps rep;
                  b_rules = block_rules rep;
                  b_from_ref = Hashtbl.find perms rep;
                })
              reps
          in
          (* Reducibility: component images must line up and no instance
             identity may leak outside its own block's components. *)
          let why = ref "" in
          let fail msg = if String.equal !why "" then why := msg in
          List.iter
            (fun rep ->
              match Hashtbl.find_opt assign_bad rep with
              | Some msg -> fail msg
              | None -> ())
            reps;
          List.iter
            (fun b ->
              let img =
                List.map (Perm.comp b.b_from_ref) ref_comps
                |> List.sort String.compare
              in
              if not (List.equal String.equal img b.b_comps) then
                fail
                  (Printf.sprintf "components of block {%s} do not align"
                     (String.concat " " b.b_instances)))
            blocks;
          let all_ids =
            List.fold_left
              (fun acc b -> List.fold_left (fun a i -> Sset.add i a) acc b.b_instances)
              Sset.empty blocks
          in
          let comp_block =
            List.fold_left
              (fun m (i, b) ->
                List.fold_left (fun m c -> Smap.add c i m) m b.b_comps)
              Smap.empty
              (List.mapi (fun i b -> (i, b)) blocks)
          in
          let ids_at i = Sset.of_list (List.nth blocks i).b_instances in
          let rule_block (r : Apa.rule) =
            match prefix_of r.Apa.r_name with
            | Some (p, _) ->
                List.find_index (fun b -> List.mem p b.b_instances) blocks
            | None -> None
          in
          (* No orbit identity may occur as a compound-term head: the
             renaming rewrites symbols, not heads. *)
          let check_heads where t =
            let heads = term_heads Sset.empty t in
            if not (Sset.is_empty (Sset.inter heads all_ids)) then
              fail
                (Printf.sprintf "instance identity used as a term head in %s"
                   where)
          in
          List.iter
            (fun (c, init) ->
              Term.Set.iter (check_heads ("component " ^ c)) init;
              let mentioned =
                Term.Set.fold (fun t acc -> term_syms acc t) init Sset.empty
              in
              let leaked =
                match Smap.find_opt c comp_block with
                | Some i -> Sset.diff (Sset.inter mentioned all_ids) (ids_at i)
                | None -> Sset.inter mentioned all_ids
              in
              if not (Sset.is_empty leaked) then
                fail
                  (Printf.sprintf
                     "identity %s occurs initially outside its block (in %s)"
                     (Sset.min_elt leaked) c))
            comps;
          List.iter
            (fun (r : Apa.rule) ->
              let rb = rule_block r in
              List.iter
                (fun (c, pat, _) ->
                  check_heads ("rule " ^ r.Apa.r_name) pat;
                  match (rb, Smap.find_opt c comp_block) with
                  | Some i, Some j when i <> j ->
                      fail
                        (Printf.sprintf "rule %s reads another block's %s"
                           r.Apa.r_name c)
                  | None, Some _ ->
                      (* An outside rule touching orbit components may
                         ferry identities out through its bindings. *)
                      if
                        List.exists
                          (fun (_, t) -> not (Term.is_ground t))
                          (puts_of r)
                      then
                        fail
                          (Printf.sprintf
                             "rule %s outside the orbit takes %s and puts \
                              non-ground terms"
                             r.Apa.r_name c)
                  | _ -> ())
                (takes_of r);
              List.iter
                (fun (c, tpl) ->
                  check_heads ("rule " ^ r.Apa.r_name) tpl;
                  let mentioned = Sset.inter (term_syms Sset.empty tpl) all_ids in
                  match (rb, Smap.find_opt c comp_block) with
                  | Some i, Some j when i = j ->
                      if not (Sset.subset mentioned (ids_at i)) then
                        fail
                          (Printf.sprintf
                             "rule %s writes a foreign identity into %s"
                             r.Apa.r_name c)
                  | Some _, _ ->
                      if not (Sset.is_empty mentioned) then
                        fail
                          (Printf.sprintf
                             "rule %s writes its identity outside its block \
                              (into %s)"
                             r.Apa.r_name c)
                      else if not (Term.is_ground tpl) then
                        fail
                          (Printf.sprintf
                             "rule %s may ferry block data outside (into %s)"
                             r.Apa.r_name c)
                  | None, _ ->
                      if not (Sset.is_empty mentioned) then
                        fail
                          (Printf.sprintf
                             "rule %s outside the orbit writes identity %s"
                             r.Apa.r_name (Sset.min_elt mentioned)))
                (puts_of r))
            rules;
          orbits :=
            {
              o_blocks = blocks;
              o_reducible = String.equal !why "";
              o_why = !why;
            }
            :: !orbits
        end
      end)
    all_reps;
  {
    r_instances;
    r_orbits = List.rev !orbits;
    r_rejected = List.rev !rejected;
    r_attested_guards = Sset.elements !attested_all;
  }

let group_order r =
  List.fold_left
    (fun acc o ->
      if o.o_reducible then acc *. fact (List.length o.o_blocks) else acc)
    1.0 r.r_orbits

(* ------------------------------------------------------------------ *)
(* Report printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "instances: %d@," (List.length r.r_instances);
  List.iter
    (fun (i, comps) ->
      Fmt.pf ppf "  %s: %a@," i Fmt.(list ~sep:(any " ") string) comps)
    r.r_instances;
  if r.r_orbits = [] then Fmt.pf ppf "no symmetry orbits@,"
  else
    List.iter
      (fun o ->
        let blocks =
          String.concat " ~ "
            (List.map
               (fun b -> "{" ^ String.concat " " b.b_instances ^ "}")
               o.o_blocks)
        in
        if o.o_reducible then
          Fmt.pf ppf "orbit: %s (reducible, %g states/class)@," blocks
            (fact (List.length o.o_blocks))
        else Fmt.pf ppf "orbit: %s (not reducible: %s)@," blocks o.o_why)
      r.r_orbits;
  List.iter
    (fun j ->
      Fmt.pf ppf "rejected: %s ~ %s (%s): %s@," j.j_a j.j_b
        (reason_to_string j.j_reason)
        j.j_detail)
    r.r_rejected;
  if r.r_attested_guards <> [] then
    Fmt.pf ppf "guard equivalence attested for: %a@,"
      Fmt.(list ~sep:(any " ") string)
      r.r_attested_guards;
  Fmt.pf ppf "group order: %g@]" (group_order r)

let report_to_json r =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  let list f l = Json.List (List.map f l) in
  Json.Obj
    [ ( "instances",
        list
          (fun (name, comps) ->
            Json.Obj [ ("name", Json.Str name); ("components", strs comps) ])
          r.r_instances );
      ( "orbits",
        list
          (fun o ->
            Json.Obj
              [ ("blocks", list (fun b -> strs b.b_instances) o.o_blocks);
                ("components", list (fun b -> strs b.b_comps) o.o_blocks);
                ("reducible", Json.Bool o.o_reducible);
                ("why", Json.Str o.o_why) ])
          r.r_orbits );
      ( "rejected",
        list
          (fun j ->
            Json.Obj
              [ ("a", Json.Str j.j_a);
                ("b", Json.Str j.j_b);
                ("reason", Json.Str (reason_to_string j.j_reason));
                ("detail", Json.Str j.j_detail) ])
          r.r_rejected );
      ("attested_guards", strs r.r_attested_guards);
      ("group_order", Json.Float (group_order r)) ]

(* ------------------------------------------------------------------ *)
(* Canonicalisation                                                    *)
(* ------------------------------------------------------------------ *)

module Stbl = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

type cblock = {
  cb_comps : string array;  (* aligned with the reference order *)
  cb_rules : string array;
  cb_insts : string array;
  cb_to_ref : Perm.t;
}

type corbit = { co_blocks : cblock array }

type canonizer = {
  cz_orbits : corbit array;
  cz_memo : (State.t * Perm.t) Stbl.t;
  cz_lock : Mutex.t;
}

let canonizer report =
  let orbits =
    List.filter (fun o -> o.o_reducible) report.r_orbits
    |> List.map (fun o ->
           let ref_block = List.hd o.o_blocks in
           let blocks =
             List.map
               (fun b ->
                 {
                   cb_comps =
                     Array.of_list
                       (List.map (Perm.comp b.b_from_ref) ref_block.b_comps);
                   cb_rules =
                     Array.of_list
                       (List.map (Perm.rule b.b_from_ref) ref_block.b_rules);
                   cb_insts =
                     Array.of_list
                       (List.map (Perm.ident b.b_from_ref) ref_block.b_instances);
                   cb_to_ref = Perm.inverse b.b_from_ref;
                 })
               o.o_blocks
           in
           { co_blocks = Array.of_list blocks })
  in
  {
    cz_orbits = Array.of_list orbits;
    cz_memo = Stbl.create 4096;
    cz_lock = Mutex.create ();
  }

let nontrivial cz = Array.length cz.cz_orbits > 0

(* Contents of a block's components, pulled back to the reference
   namespace so that signatures of different blocks are comparable. *)
let signature blk s =
  Array.to_list
    (Array.map
       (fun c -> Term.Set.map (Perm.apply_term blk.cb_to_ref) (State.get c s))
       blk.cb_comps)

let compare_sig = List.compare Term.Set.compare

let canonical cz s =
  Mutex.lock cz.cz_lock;
  match Stbl.find_opt cz.cz_memo s with
  | Some r ->
      Metrics.incr m_canon_hits;
      Mutex.unlock cz.cz_lock;
      r
  | None ->
      Mutex.unlock cz.cz_lock;
      Metrics.incr m_canon_misses;
      let perm = ref Perm.id and cur = ref s in
      Array.iter
        (fun orb ->
          let n = Array.length orb.co_blocks in
          let sigs = Array.map (fun b -> signature b !cur) orb.co_blocks in
          let order = Array.init n (fun i -> i) in
          Array.sort
            (fun i j ->
              match compare_sig sigs.(i) sigs.(j) with
              | 0 -> Int.compare i j
              | c -> c)
            order;
          if not (Array.for_all2 (fun i j -> i = j) order (Array.init n (fun i -> i)))
          then begin
            (* Move block [order.(j)] into slot [j]: map its names to the
               slot's names through the shared reference alignment. *)
            let comps = ref Smap.empty
            and rules = ref Smap.empty
            and syms = ref Smap.empty in
            for j = 0 to n - 1 do
              let src = orb.co_blocks.(order.(j))
              and dst = orb.co_blocks.(j) in
              if order.(j) <> j then begin
                Array.iteri
                  (fun k c -> comps := Smap.add c dst.cb_comps.(k) !comps)
                  src.cb_comps;
                Array.iteri
                  (fun k r -> rules := Smap.add r dst.cb_rules.(k) !rules)
                  src.cb_rules;
                Array.iteri
                  (fun k i -> syms := Smap.add i dst.cb_insts.(k) !syms)
                  src.cb_insts
              end
            done;
            let pi = Perm.of_maps ~comps:!comps ~rules:!rules ~syms:!syms in
            cur := Perm.apply_state pi !cur;
            perm := Perm.compose pi !perm
          end)
        cz.cz_orbits;
      let result = (!cur, !perm) in
      Mutex.lock cz.cz_lock;
      if not (Stbl.mem cz.cz_memo s) then Stbl.replace cz.cz_memo s result;
      (* The representative canonicalises to itself with the identity. *)
      if not (Stbl.mem cz.cz_memo !cur) then
        Stbl.replace cz.cz_memo !cur (!cur, Perm.id);
      Mutex.unlock cz.cz_lock;
      result

(* ------------------------------------------------------------------ *)
(* Ample sets                                                          *)
(* ------------------------------------------------------------------ *)

type por_module = { m_rules : string list; m_reducible : bool; m_why : string }

type por = {
  po_init : State.t;
  po_module_of : (string, int) Hashtbl.t;
  po_reducible : bool array;
  po_modules : por_module list;
}

let por_plan apa net =
  let rules = Array.of_list net.Structural.n_rules in
  let n = Array.length rules in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Structural.interferes rules.(i) rules.(j) then union i j
    done
  done;
  let groups = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let r = find i in
    Hashtbl.replace groups r (i :: Option.value ~default:[] (Hashtbl.find_opt groups r))
  done;
  let module_rule_names idxs =
    List.map (fun i -> rules.(i).Structural.rs_name) idxs
    |> List.sort String.compare
  in
  let modules =
    Hashtbl.fold (fun _ idxs acc -> (module_rule_names idxs, idxs) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* C3 certification: a module may serve as an ample set only when it
     cannot run forever — every rule consumes and the module-internal
     token flow is acyclic, so each firing strictly decreases a
     lexicographic measure. *)
  let flow = Structural.flow_edges net in
  let certify (names, idxs) =
    let name_set = Sset.of_list names in
    match
      List.find_opt
        (fun i ->
          not
            (List.exists
               (fun (_, _, consume) -> consume)
               rules.(i).Structural.rs_takes))
        idxs
    with
    | Some i ->
        ( false,
          Printf.sprintf "rule %s never consumes" rules.(i).Structural.rs_name )
    | None ->
        let edges =
          List.filter
            (fun (a, b) -> Sset.mem a name_set && Sset.mem b name_set)
            flow
        in
        let adj = Hashtbl.create 8 in
        List.iter
          (fun (a, b) ->
            Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a)))
          edges;
        let color = Hashtbl.create 8 in
        let cyclic = ref None in
        let rec dfs v =
          match Hashtbl.find_opt color v with
          | Some `Done -> ()
          | Some `Active -> if !cyclic = None then cyclic := Some v
          | None ->
              Hashtbl.replace color v `Active;
              List.iter dfs (Option.value ~default:[] (Hashtbl.find_opt adj v));
              Hashtbl.replace color v `Done
        in
        List.iter dfs names;
        (match !cyclic with
        | Some v -> (false, Printf.sprintf "token-flow cycle through %s" v)
        | None -> (true, ""))
  in
  let po_modules =
    List.map
      (fun (names, idxs) ->
        let ok, why = certify (names, idxs) in
        { m_rules = names; m_reducible = ok; m_why = why })
      modules
  in
  let module_of = Hashtbl.create 64 in
  List.iteri
    (fun k m -> List.iter (fun name -> Hashtbl.replace module_of name k) m.m_rules)
    po_modules;
  {
    po_init = Apa.initial_state apa;
    po_module_of = module_of;
    po_reducible = Array.of_list (List.map (fun m -> m.m_reducible) po_modules);
    po_modules;
  }

let por_modules po = po.po_modules

let ample po s succs =
  match succs with
  | [] | [ _ ] -> succs
  | _ when State.equal s po.po_init -> succs
  | _ -> (
      let idx_of (r, _, _) =
        Hashtbl.find_opt po.po_module_of r.Apa.r_name
      in
      let idxs = List.map idx_of succs in
      if List.exists (fun i -> i = None) idxs then succs
      else
        let present =
          List.filter_map (fun i -> i) idxs |> List.sort_uniq Int.compare
        in
        match present with
        | [] | [ _ ] -> succs
        | _ -> (
            match
              List.find_opt (fun i -> po.po_reducible.(i)) present
            with
            | None -> succs
            | Some chosen ->
                Metrics.incr m_ample_reduced;
                List.filter (fun t -> idx_of t = Some chosen) succs))

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type kind = Sym | Por | Sym_por

let kind_of_string = function
  | "sym" -> Some Sym
  | "por" -> Some Por
  | "sym+por" -> Some Sym_por
  | _ -> None

let kind_to_string = function
  | Sym -> "sym"
  | Por -> "por"
  | Sym_por -> "sym+por"

type plan = {
  pl_kind : kind;
  pl_report : report;
  pl_canonizer : canonizer option;
  pl_por : por option;
  pl_net : Structural.net;
  pl_indep : (string -> string -> bool) Lazy.t;
}

let plan ?guard_sig kind apa =
  let report = detect ?guard_sig apa in
  let net = Structural.of_apa apa in
  let cz =
    match kind with Sym | Sym_por -> Some (canonizer report) | Por -> None
  in
  let po =
    match kind with
    | Por | Sym_por -> Some (por_plan apa net)
    | Sym -> None
  in
  {
    pl_kind = kind;
    pl_report = report;
    pl_canonizer = cz;
    pl_por = po;
    pl_net = net;
    pl_indep = Structural.independent_all net;
  }

let canon_fn pl =
  match pl.pl_canonizer with
  | Some cz when nontrivial cz -> Some (fun s -> fst (canonical cz s))
  | _ -> None

let ample_fn pl =
  match pl.pl_por with
  | Some po
    when List.length po.po_modules > 1
         && List.exists (fun m -> m.m_reducible) po.po_modules ->
      Some (fun s succs -> ample po s succs)
  | _ -> None
