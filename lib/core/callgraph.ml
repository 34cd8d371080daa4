(** Program call graph, depth-first processing order, and the open/closed
    classification of §3.

    A procedure is {e open} when some caller may be processed after it or is
    unknown to the compiler:
    - it is externally visible ([export]ed, or [main]);
    - its address is taken, so it may be called indirectly;
    - it takes part in recursion (a call-graph cycle, including self-calls).

    All other procedures are {e closed}: every caller is compiled later in
    the depth-first order and can consume their register-usage summary. *)

module Ir = Chow_ir.Ir

type t = {
  order : string list;  (** processing order, callees before callers *)
  open_set : (string, unit) Hashtbl.t;
  callees : (string, string list) Hashtbl.t;  (** direct callees, deduped *)
}

let is_open t name = Hashtbl.mem t.open_set name
let processing_order t = t.order
let direct_callees t name =
  Option.value ~default:[] (Hashtbl.find_opt t.callees name)

(* Tarjan's strongly-connected components.  Components are emitted in
   reverse topological order (callees before callers), which is exactly the
   paper's depth-first processing order. *)
let sccs nodes succs =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !components

let build (prog : Ir.prog) =
  let defined = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace defined p.Ir.pname ()) prog.procs;
  let callees = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let direct =
        Ir.direct_callees p
        |> List.filter (Hashtbl.mem defined)
        |> List.sort_uniq compare
      in
      Hashtbl.replace callees p.Ir.pname direct)
    prog.procs;
  let nodes = List.map (fun p -> p.Ir.pname) prog.procs in
  let succs v = Option.value ~default:[] (Hashtbl.find_opt callees v) in
  let components = sccs nodes succs in
  let open_set = Hashtbl.create 16 in
  let mark name = Hashtbl.replace open_set name () in
  (* recursion: non-trivial SCCs and self-loops *)
  List.iter
    (fun comp ->
      match comp with
      | [ single ] -> if List.mem single (succs single) then mark single
      | _ :: _ :: _ -> List.iter mark comp
      | [] -> ())
    components;
  (* visibility: exported procedures (main included) and taken addresses *)
  List.iter (fun p -> if p.Ir.exported then mark p.Ir.pname) prog.procs;
  List.iter mark (Ir.address_taken prog);
  (* Level the SCC condensation: a component's level is one past the
     deepest level among the components it calls into, so every
     inter-component callee of a level-k procedure lives in some level < k.
     Tarjan emits callees first, so each component's callee components are
     already leveled when it is reached.  [processing_order] lists the
     levels in turn, keeping Tarjan's emission order inside each level — a
     callees-before-callers order that fixes the procedure order of every
     linked image. *)
  let comps = Array.of_list components in
  let ncomps = Array.length comps in
  let comp_of = Hashtbl.create 16 in
  Array.iteri
    (fun i comp -> List.iter (fun n -> Hashtbl.replace comp_of n i) comp)
    comps;
  let level = Array.make ncomps 0 in
  Array.iteri
    (fun i comp ->
      level.(i) <-
        List.fold_left
          (fun acc n ->
            List.fold_left
              (fun acc callee ->
                let j = Hashtbl.find comp_of callee in
                if j = i then acc else max acc (level.(j) + 1))
              acc (succs n))
          0 comp)
    comps;
  let nlevels = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let buckets = Array.make (max 1 nlevels) [] in
  for i = ncomps - 1 downto 0 do
    buckets.(level.(i)) <- comps.(i) :: buckets.(level.(i))
  done;
  let order = List.concat_map List.concat (Array.to_list buckets) in
  { order; open_set; callees }
