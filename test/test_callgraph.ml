(** Tests for call-graph construction, depth-first ordering and the §3
    open/closed classification. *)

module Ir = Chow_ir.Ir
module Lower = Chow_frontend.Lower
module Callgraph = Chow_core.Callgraph
module W = Chow_workloads.Workloads

let build src = Callgraph.build (Lower.compile_unit src)

let src_basic =
  {|
proc leaf1() { return 1; }
proc leaf2() { return 2; }
proc mid() { return leaf1() + leaf2(); }
proc main() { print(mid()); }
|}

let test_order_callees_first () =
  let cg = build src_basic in
  let order = Callgraph.processing_order cg in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing from order" name
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "leaf1 before mid" true (pos "leaf1" < pos "mid");
  Alcotest.(check bool) "leaf2 before mid" true (pos "leaf2" < pos "mid");
  Alcotest.(check bool) "mid before main" true (pos "mid" < pos "main")

let test_open_classification () =
  let cg =
    build
      {|
proc closed1() { return 1; }
proc selfrec(n) { if (n <= 0) { return 0; } return selfrec(n - 1); }
proc mutual_a(n) { if (n <= 0) { return 0; } return mutual_b(n - 1); }
proc mutual_b(n) { return mutual_a(n); }
proc pointee(x) { return x; }
export proc visible() { return 2; }
proc calls_indirect() { var p = &pointee; return p(1); }
proc main() {
  print(closed1() + selfrec(3) + mutual_a(4) + visible() + calls_indirect());
}
|}
  in
  let check msg name expected =
    Alcotest.(check bool) msg expected (Callgraph.is_open cg name)
  in
  check "main is open" "main" true;
  check "exported is open" "visible" true;
  check "self-recursive is open" "selfrec" true;
  check "mutual_a is open" "mutual_a" true;
  check "mutual_b is open" "mutual_b" true;
  check "address-taken is open" "pointee" true;
  check "closed1 is closed" "closed1" false;
  (* containing an indirect call does not make the container open *)
  check "calls_indirect is closed" "calls_indirect" false

let test_all_procs_in_order () =
  let cg = build src_basic in
  Alcotest.(check int) "all four procs ordered" 4
    (List.length (Callgraph.processing_order cg))

let test_direct_callees () =
  let cg = build src_basic in
  Alcotest.(check (list string)) "mid's callees" [ "leaf1"; "leaf2" ]
    (List.sort compare (Callgraph.direct_callees cg "mid"));
  Alcotest.(check (list string)) "leaf has none" []
    (Callgraph.direct_callees cg "leaf1")

let test_extern_calls_ignored_in_graph () =
  let cg =
    build
      {|
extern proc outside(a);
proc caller() { return outside(1); }
proc main() { print(caller()); }
|}
  in
  Alcotest.(check (list string)) "extern not a node" []
    (Callgraph.direct_callees cg "caller");
  Alcotest.(check bool) "caller still closed" false
    (Callgraph.is_open cg "caller")

let test_scc_big_cycle () =
  let cg =
    build
      {|
proc a(n) { if (n <= 0) { return 0; } return b(n - 1); }
proc b(n) { return c(n); }
proc c(n) { return a(n); }
proc entry(n) { return a(n); }
proc main() { print(entry(5)); }
|}
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in cycle is open") true
        (Callgraph.is_open cg name))
    [ "a"; "b"; "c" ];
  Alcotest.(check bool) "entry outside cycle is closed" false
    (Callgraph.is_open cg "entry");
  (* the cycle is still ordered before its caller *)
  let order = Callgraph.processing_order cg in
  let pos name =
    let rec go i = function
      | [] -> -1
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "cycle before entry" true (pos "a" < pos "entry")

(* The property IPRA's one pass rests on: every callee outside a
   procedure's own strongly-connected component comes before it in
   [processing_order], so its usage summary is published first.  A callee
   at or after its caller must be able to reach the caller back (same
   component), and then both ends are open and never read each other's
   summary. *)
let check_callees_first prog_name (prog : Ir.prog) =
  let cg = Callgraph.build prog in
  let order = Callgraph.processing_order cg in
  Alcotest.(check (list string))
    (prog_name ^ ": order is a permutation of the procedures")
    (List.sort compare (List.map (fun p -> p.Ir.pname) prog.Ir.procs))
    (List.sort compare order);
  let pos = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace pos n i) order;
  let reaches src dst =
    let seen = Hashtbl.create 16 in
    let rec go n =
      n = dst
      || (not (Hashtbl.mem seen n))
         && begin
              Hashtbl.replace seen n ();
              List.exists go (Callgraph.direct_callees cg n)
            end
    in
    go src
  in
  List.iter
    (fun name ->
      List.iter
        (fun callee ->
          if Hashtbl.find pos callee >= Hashtbl.find pos name then begin
            if not (reaches callee name) then
              Alcotest.failf "%s: callee %s of %s is not ordered first"
                prog_name callee name;
            if not (Callgraph.is_open cg name && Callgraph.is_open cg callee)
            then
              Alcotest.failf "%s: recursive edge %s -> %s has a closed end"
                prog_name name callee
          end)
        (Callgraph.direct_callees cg name))
    order

let test_callees_first_workloads () =
  List.iter
    (fun w -> check_callees_first w.W.name (Lower.compile_unit w.W.source))
    W.all

let test_callees_first_genprog () =
  for seed = 0 to 19 do
    check_callees_first
      (Printf.sprintf "genprog seed %d" seed)
      (Lower.compile_unit (Genprog.generate ~seed ()))
  done

let suite =
  ( "callgraph",
    [
      Alcotest.test_case "callees ordered first" `Quick
        test_order_callees_first;
      Alcotest.test_case "open/closed classification" `Quick
        test_open_classification;
      Alcotest.test_case "order covers all procs" `Quick
        test_all_procs_in_order;
      Alcotest.test_case "direct callees" `Quick test_direct_callees;
      Alcotest.test_case "extern callees" `Quick
        test_extern_calls_ignored_in_graph;
      Alcotest.test_case "three-procedure cycle" `Quick test_scc_big_cycle;
      Alcotest.test_case "workloads: callees come first" `Quick
        test_callees_first_workloads;
      Alcotest.test_case "genprog: callees come first" `Quick
        test_callees_first_genprog;
    ] )
