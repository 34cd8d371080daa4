(** Seeded generator of Pawn compilation units, with an independent
    reference interpreter.

    Every unit is a whole program (it defines [main]) built from a small
    subset of Pawn: scalar locals and globals, one global array, counted
    [while] loops, [if]/[else], comparisons, short-circuit tests and
    direct calls.  Procedures are arranged in call levels: level 0 are
    leaves, a procedure at level [l] calls only procedures of level
    [l - 1], and only leaves are called inside loops, so run time stays
    small whatever the seed.  Every assignment is reduced modulo a prime,
    so values stay far from overflow and the unit's output does not
    depend on the machine word width.

    [eval] runs the generated tree directly, never through the compiler,
    so its output is the reference every compiled image is checked
    against. *)

type op = Add | Sub | Mul | Div | Rem | Lt | Le | Eq | Ne | Gt | Ge | And | Or

type expr =
  | Const of int
  | Var of string  (** parameter or local *)
  | Glob of string  (** global scalar *)
  | Idx of expr  (** [tab[e]], index wrapped into range *)
  | Bin of op * expr * expr
  | Not of expr

type stmt =
  | Set of string * expr  (** [x = (e) % modulus] *)
  | Call of string * string * expr list  (** [x = f(atoms)] *)
  | Set_glob of string * expr
  | Store of expr * expr  (** [tab[i] = (e) % modulus] *)
  | If of expr * stmt list * stmt list
  | Loop of string * int * stmt list  (** counter, trip count, body *)

type proc = {
  name : string;
  params : string list;
  locals : string list;
  body : stmt list;
  ret : expr;
}

type unit_ = {
  globals : (string * int) list;
  procs : proc list;  (** callees before callers *)
  main_locals : string list;
  main_body : stmt list;
  prints : expr list;  (** what [main] prints, after its body ran *)
}

let modulus = 9973
let tab_size = 64

(* ----- rendering to Pawn ----- *)

let op_text = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Lt -> "<" | Le -> "<=" | Eq -> "==" | Ne -> "!=" | Gt -> ">"
  | Ge -> ">=" | And -> "&&" | Or -> "||"

let rec expr_text = function
  | Const n -> string_of_int n
  | Var x | Glob x -> x
  | Idx e ->
      Printf.sprintf "tab[((%s) %% %d + %d) %% %d]" (expr_text e) tab_size
        tab_size tab_size
  | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_text a) (op_text op) (expr_text b)
  | Not e -> Printf.sprintf "!(%s)" (expr_text e)

let rec stmt_text b ind s =
  let pad = String.make ind ' ' in
  let line fmt = Printf.bprintf b ("%s" ^^ fmt ^^ "\n") pad in
  match s with
  | Set (x, e) -> line "%s = (%s) %% %d;" x (expr_text e) modulus
  | Call (x, f, args) ->
      line "%s = %s(%s);" x f (String.concat ", " (List.map expr_text args))
  | Set_glob (g, e) -> line "%s = (%s) %% %d;" g (expr_text e) modulus
  | Store (i, e) ->
      line "tab[((%s) %% %d + %d) %% %d] = (%s) %% %d;" (expr_text i) tab_size
        tab_size tab_size (expr_text e) modulus
  | If (c, t, e) ->
      line "if (%s) {" (expr_text c);
      List.iter (stmt_text b (ind + 2)) t;
      if e = [] then line "}"
      else begin
        line "} else {";
        List.iter (stmt_text b (ind + 2)) e;
        line "}"
      end
  | Loop (i, n, body) ->
      line "%s = 0;" i;
      line "while (%s < %d) {" i n;
      List.iter (stmt_text b (ind + 2)) body;
      line "  %s = %s + 1;" i i;
      line "}"

let render (u : unit_) =
  let b = Buffer.create 4096 in
  List.iter (fun (g, v) -> Printf.bprintf b "var %s = %d;\n" g v) u.globals;
  Printf.bprintf b "var tab[%d];\n" tab_size;
  List.iter
    (fun p ->
      Printf.bprintf b "\nproc %s(%s) {\n" p.name (String.concat ", " p.params);
      List.iter (fun l -> Printf.bprintf b "  var %s = 0;\n" l) p.locals;
      List.iter (stmt_text b 2) p.body;
      Printf.bprintf b "  return (%s) %% %d;\n}\n" (expr_text p.ret) modulus)
    u.procs;
  Buffer.add_string b "\nproc main() {\n";
  List.iter (fun l -> Printf.bprintf b "  var %s = 0;\n" l) u.main_locals;
  List.iter (stmt_text b 2) u.main_body;
  List.iter (fun e -> Printf.bprintf b "  print(%s);\n" (expr_text e)) u.prints;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ----- reference interpreter ----- *)

let eval (u : unit_) =
  let globals = Hashtbl.create 16 in
  List.iter (fun (g, v) -> Hashtbl.replace globals g v) u.globals;
  let tab = Array.make tab_size 0 in
  let procs = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace procs p.name p) u.procs;
  let wrap i = ((i mod tab_size) + tab_size) mod tab_size in
  let truth b = if b then 1 else 0 in
  let rec expr env = function
    | Const n -> n
    | Var x -> Hashtbl.find env x
    | Glob g -> Hashtbl.find globals g
    | Idx e -> tab.(wrap (expr env e))
    | Not e -> truth (expr env e = 0)
    | Bin (And, a, b) -> truth (expr env a <> 0 && expr env b <> 0)
    | Bin (Or, a, b) -> truth (expr env a <> 0 || expr env b <> 0)
    | Bin (op, a, b) -> (
        let x = expr env a and y = expr env b in
        match op with
        | Add -> x + y | Sub -> x - y | Mul -> x * y | Div -> x / y
        | Rem -> x mod y | Lt -> truth (x < y) | Le -> truth (x <= y)
        | Eq -> truth (x = y) | Ne -> truth (x <> y) | Gt -> truth (x > y)
        | Ge -> truth (x >= y) | And | Or -> assert false)
  and stmt env = function
    | Set (x, e) -> Hashtbl.replace env x (expr env e mod modulus)
    | Call (x, f, args) ->
        Hashtbl.replace env x (call f (List.map (expr env) args))
    | Set_glob (g, e) -> Hashtbl.replace globals g (expr env e mod modulus)
    | Store (i, e) ->
        let i = wrap (expr env i) in
        tab.(i) <- expr env e mod modulus
    | If (c, t, e) -> List.iter (stmt env) (if expr env c <> 0 then t else e)
    | Loop (i, n, body) ->
        Hashtbl.replace env i 0;
        while Hashtbl.find env i < n do
          List.iter (stmt env) body;
          Hashtbl.replace env i (Hashtbl.find env i + 1)
        done
  and call f args =
    let p = Hashtbl.find procs f in
    let env = Hashtbl.create 16 in
    List.iter2 (Hashtbl.replace env) p.params args;
    List.iter (fun l -> Hashtbl.replace env l 0) p.locals;
    List.iter (stmt env) p.body;
    expr env p.ret mod modulus
  in
  let env = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace env l 0) u.main_locals;
  List.iter (stmt env) u.main_body;
  List.map (expr env) u.prints

(* ----- generation ----- *)

let int st n = Random.State.int st n
let pick st l = List.nth l (int st (List.length l))

(* expressions of height at most 2 over values bounded by [modulus]:
   at most four leaves, so no product exceeds 10^16 *)
let rec gen_expr st ~vars ~globs height =
  let atom () =
    match int st 5 with
    | 0 -> Const (int st 100)
    | 1 -> Glob (pick st globs)
    | _ -> Var (pick st vars)
  in
  if height = 0 || int st 4 = 0 then atom ()
  else
    let sub () = gen_expr st ~vars ~globs (height - 1) in
    match int st 10 with
    | 0 | 1 | 2 -> Bin (pick st [ Add; Sub; Add ], sub (), sub ())
    | 3 | 4 -> Bin (Mul, sub (), sub ())
    | 5 -> Bin (Div, sub (), Const (1 + int st 9))
    | 6 -> Bin (Rem, sub (), Const (2 + int st 30))
    | 7 -> Idx (sub ())
    | 8 -> gen_cond st ~vars ~globs
    | _ -> Bin (pick st [ Add; Sub ], sub (), Const (int st 50))

and gen_cond st ~vars ~globs =
  let cmp () =
    Bin
      ( pick st [ Lt; Le; Eq; Ne; Gt; Ge ],
        gen_expr st ~vars ~globs 1,
        gen_expr st ~vars ~globs 1 )
  in
  match int st 6 with
  | 0 -> Bin (And, cmp (), cmp ())
  | 1 -> Bin (Or, cmp (), cmp ())
  | 2 -> Not (cmp ())
  | _ -> cmp ()

type callee = { c_name : string; c_arity : int }

(* [counters] are the loop counters still free, so their number bounds
   loop nesting; [callees] may be called here and [loop_callees] inside a
   loop *)
let rec gen_stmt st ~vars ~locals ~globs ~counters ~callees ~loop_callees =
  match int st (if callees = [] then 7 else 9) with
  | 0 | 1 | 2 -> Set (pick st locals, gen_expr st ~vars ~globs 2)
  | 3 -> Set_glob (pick st globs, gen_expr st ~vars ~globs 2)
  | 4 -> Store (gen_expr st ~vars ~globs 1, gen_expr st ~vars ~globs 2)
  | 5 ->
      let branch () =
        List.init (1 + int st 2) (fun _ ->
            gen_simple st ~vars ~locals ~globs)
      in
      If (gen_cond st ~vars ~globs, branch (), if int st 2 = 0 then [] else branch ())
  | 6 -> (
      match counters with
      | [] -> Set (pick st locals, gen_expr st ~vars ~globs 2)
      | i :: inner ->
          let body =
            List.init (1 + int st 3) (fun _ ->
                gen_stmt st ~vars ~locals ~globs ~counters:inner
                  ~callees:loop_callees ~loop_callees:[])
          in
          Loop (i, 2 + int st 6, body))
  | _ ->
      let c = pick st callees in
      Call
        ( pick st locals,
          c.c_name,
          List.init c.c_arity (fun _ ->
              if int st 3 = 0 then Const (int st 100) else Var (pick st vars)) )

and gen_simple st ~vars ~locals ~globs =
  match int st 3 with
  | 0 -> Set_glob (pick st globs, gen_expr st ~vars ~globs 2)
  | 1 -> Store (gen_expr st ~vars ~globs 1, gen_expr st ~vars ~globs 2)
  | _ -> Set (pick st locals, gen_expr st ~vars ~globs 2)

(* [level] 0 procedures are leaves with nested loops; level 1 call
   leaves, possibly inside one loop; higher levels call the level below
   only at their top level, so a call tree costs at most a few thousand
   steps per level *)
let gen_proc st ~name ~level ~globs ~below =
  let params = List.init (1 + int st 3) (Printf.sprintf "a%d") in
  let locals = List.init (2 + int st 4) (Printf.sprintf "v%d") in
  let vars = params @ locals in
  let counters, loop_callees =
    match level with 0 -> ([ "i0"; "i1" ], []) | 1 -> ([ "i0" ], below) | _ -> ([], [])
  in
  let body =
    List.init (3 + int st 4) (fun _ ->
        gen_stmt st ~vars ~locals ~globs ~counters ~callees:below ~loop_callees)
  in
  let body =
    if level >= 2 && not (List.exists (function Call _ -> true | _ -> false) body)
    then
      let c = pick st below in
      body
      @ [ Call (pick st locals, c.c_name,
                List.init c.c_arity (fun _ -> Var (pick st vars))) ]
    else body
  in
  { name; params; locals = locals @ counters; body; ret = gen_expr st ~vars ~globs 2 }

let levels = 4

(** [generate ~seed ~salt ~nprocs] is a unit of [nprocs] procedures (at
    least [levels]) plus [main]; [salt] tells apart units drawn from one
    seed, and is also stored in a global so distinct salts never yield
    the same text. *)
let generate ~seed ~salt ~nprocs =
  let st = Random.State.make [| seed; salt; nprocs |] in
  let nprocs = max levels nprocs in
  let globs = List.init (2 + int st 3) (Printf.sprintf "g%d") in
  let globals =
    ("uid", salt) :: List.map (fun g -> (g, int st 1000)) globs
  in
  let globs = "uid" :: globs in
  let per_level = nprocs / levels in
  let procs = ref [] and below = ref [] in
  for level = 0 to levels - 1 do
    let n = if level = levels - 1 then nprocs - (per_level * (levels - 1)) else per_level in
    let made =
      List.init n (fun k ->
          gen_proc st ~name:(Printf.sprintf "p%d_%d" level k) ~level ~globs
            ~below:!below)
    in
    procs := !procs @ made;
    below :=
      List.map (fun p -> { c_name = p.name; c_arity = List.length p.params }) made
  done;
  let top = !below in
  let main_locals = List.mapi (fun i _ -> Printf.sprintf "r%d" i) top in
  let main_body =
    List.map2
      (fun r c -> Call (r, c.c_name, List.init c.c_arity (fun _ -> Const (int st 100))))
      main_locals top
  in
  let rs = List.map (fun r -> Var r) main_locals in
  let prints =
    [ List.fold_left (fun acc r -> Bin (Add, acc, r)) (Const 0) rs ]
    @ List.filteri (fun i _ -> i < 4) rs
    @ List.map (fun g -> Glob g) globs
    @ [ Idx (Const (int st tab_size)) ]
  in
  { globals; procs = !procs; main_locals; main_body; prints }
