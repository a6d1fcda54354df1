(* Emission of Graphviz DOT text for the graph artefacts produced by the
   analysis: functional flow graphs, reachability graphs and minimal
   automata.  The builder works on pre-rendered node and edge descriptions,
   so it is independent of the vertex type of the graph it visualises. *)

type node = { id : string; attrs : (string * string) list }
type edge = { src : string; dst : string; e_attrs : (string * string) list }

type t = {
  name : string;
  graph_attrs : (string * string) list;
  mutable nodes : node list;
  mutable dot_edges : edge list;
}

let create ?(graph_attrs = []) name =
  { name; graph_attrs; nodes = []; dot_edges = [] }

let node ?(attrs = []) t id = t.nodes <- { id; attrs } :: t.nodes

let edge ?(attrs = []) t src dst =
  t.dot_edges <- { src; dst; e_attrs = attrs } :: t.dot_edges

(* Quote an identifier for DOT output; identifiers coming from action terms
   contain parentheses and commas, so we always quote and escape. *)
let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    let pp_attr ppf (k, v) = Fmt.pf ppf "%s=%s" k (quote v) in
    Fmt.pf ppf " [%a]" Fmt.(list ~sep:comma pp_attr) attrs

let to_string t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "digraph %s {@." (quote t.name);
  List.iter (fun (k, v) -> Fmt.pf ppf "  %s=%s;@." k (quote v)) t.graph_attrs;
  List.iter
    (fun n -> Fmt.pf ppf "  %s%a;@." (quote n.id) pp_attrs n.attrs)
    (List.rev t.nodes);
  List.iter
    (fun e ->
      Fmt.pf ppf "  %s -> %s%a;@." (quote e.src) (quote e.dst) pp_attrs
        e.e_attrs)
    (List.rev t.dot_edges);
  Fmt.pf ppf "}@.";
  Format.pp_print_flush ppf ();
  Buffer.contents buf
