(** Tests for live-range splitting: the rewrite itself, the speculative
    accept/reject policy (a split must reduce total weighted spill cost or
    be rolled back), and end-to-end behaviour preservation. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Ipra = Chow_core.Ipra
module Coloring = Chow_core.Coloring
module Sim = Chow_sim.Sim

let config_with n =
  {
    Config.o3_sw with
    name = Printf.sprintf "%dregs" n;
    machine = Machine.restrict ~n_caller:(min n 11) ~n_callee:0 ~n_param:0;
  }

let splits_of (c : Pipeline.compiled) name =
  List.find_map
    (fun (alloc : Ipra.t) ->
      List.assoc_opt name alloc.Ipra.stats)
    (Pipeline.allocs c)
  |> Option.map (fun (st : Coloring.stats) -> st.Coloring.s_splits)
  |> Option.value ~default:(-1)

(* a range spilled by conflicts in a nested pressure region, with a
   low-pressure loop of its own: the textbook profitable split *)
let profitable_src =
  {|
proc f(x) {
  var keep = x * 7;
  var s = 0;
  var i = 0;
  while (i < 4) {
    var a = x + i;
    var b = x - i;
    var c = x * 2;
    var d = x * 3;
    var j = 0;
    while (j < 4) {
      s = s + a * b + c * d + j;
      j = j + 1;
    }
    i = i + 1;
  }
  var k = 0;
  while (k < 30) {
    s = s + keep * k;
    k = k + 1;
  }
  return s + keep;
}
proc main() {
  var t = 0;
  var n = 0;
  while (n < 50) { t = t + f(n); n = n + 1; }
  print(t);
}
|}

let test_profitable_split_fires () =
  let c = Pipeline.compile_source (config_with 5) (Pipeline.Src profitable_src) in
  Alcotest.(check int) "one split kept in f" 1 (splits_of c "f");
  (* the rewrite shows up in the IR: a vreg named keep@split *)
  let f = Option.get (Ir.find_proc (Pipeline.ir c) "f") in
  let has_split_vreg =
    Array.exists
      (function Ir.Vlocal n -> n = "keep@split" | _ -> false)
      f.Ir.vreg_kinds
  in
  Alcotest.(check bool) "keep@split vreg exists" true has_split_vreg

let test_split_improves_traffic () =
  let base =
    Pipeline.run (Pipeline.compile_source Config.baseline (Pipeline.Src profitable_src))
  in
  let split = Pipeline.run (Pipeline.compile_source (config_with 5) (Pipeline.Src profitable_src)) in
  Alcotest.(check (list int)) "behaviour preserved" base.Sim.output
    split.Sim.output;
  (* the split range's loop traffic now travels in a register *)
  Alcotest.(check bool) "loop not thrashing memory" true
    (split.Sim.scalar_loads < 10_000)

(* a loop whose simultaneous pressure genuinely exceeds the register file:
   every speculative split must be rolled back *)
let pathological_src =
  {|
proc leaf(x) { return x + 1; }
proc hot(n, a, b, c, d, e) {
  var s = 0;
  var i = 0;
  while (i < n) {
    s = s + a * i + b - c + d * e;
    s = s + leaf(s);
    i = i + 1;
  }
  return s + a + b + c + d + e;
}
proc main() {
  var t = 0;
  var k = 0;
  while (k < 50) {
    t = t + hot(5, k, k+1, k+2, k+3, k+4);
    k = k + 1;
  }
  print(t);
}
|}

let test_hopeless_splits_rolled_back () =
  let c = Pipeline.compile_source (config_with 3) (Pipeline.Src pathological_src) in
  Alcotest.(check int) "no split survives in hot" 0 (splits_of c "hot");
  (* the rollback leaves no trace in the IR *)
  let hot = Option.get (Ir.find_proc (Pipeline.ir c) "hot") in
  let has_split_vreg =
    Array.exists
      (function Ir.Vlocal n -> String.length n > 6
                               && String.sub n (String.length n - 6) 6 = "@split"
              | _ -> false)
      hot.Ir.vreg_kinds
  in
  Alcotest.(check bool) "no residual @split vregs" false has_split_vreg;
  let base = Pipeline.run (Pipeline.compile_source Config.baseline (Pipeline.Src pathological_src)) in
  let o = Pipeline.run c in
  Alcotest.(check (list int)) "behaviour preserved" base.Sim.output o.Sim.output

let test_full_machine_never_splits_workloads () =
  (* with 24 allocatable registers the workloads should not need splits *)
  List.iter
    (fun name ->
      match Chow_workloads.Workloads.find name with
      | None -> Alcotest.failf "missing %s" name
      | Some w ->
          let c = Pipeline.compile_source Config.o3_sw (Pipeline.Src w.Chow_workloads.Workloads.source) in
          List.iter
            (fun (alloc : Ipra.t) ->
              List.iter
                (fun (pname, (st : Coloring.stats)) ->
                  Alcotest.(check int)
                    (name ^ "." ^ pname ^ " splits")
                    0 st.Coloring.s_splits)
                alloc.Ipra.stats)
            (Pipeline.allocs c))
    [ "nim"; "calcc" ]

let test_workloads_equivalent_on_tiny_machines () =
  (* splitting fires on the real workloads under tiny register files; the
     equivalence suite also covers this, but pin it here for the splitter *)
  List.iter
    (fun name ->
      match Chow_workloads.Workloads.find name with
      | None -> Alcotest.failf "missing %s" name
      | Some w ->
          let base =
            Pipeline.run
              (Pipeline.compile_source Config.baseline (Pipeline.Src w.Chow_workloads.Workloads.source))
          in
          let tiny =
            Pipeline.run
              (Pipeline.compile_source (config_with 4) (Pipeline.Src w.Chow_workloads.Workloads.source))
          in
          Alcotest.(check (list int)) (name ^ " output") base.Sim.output
            tiny.Sim.output)
    [ "nim"; "diff" ]

let suite =
  ( "split",
    [
      Alcotest.test_case "profitable split fires" `Quick
        test_profitable_split_fires;
      Alcotest.test_case "split improves traffic" `Quick
        test_split_improves_traffic;
      Alcotest.test_case "hopeless splits rolled back" `Quick
        test_hopeless_splits_rolled_back;
      Alcotest.test_case "full machine needs no splits" `Slow
        test_full_machine_never_splits_workloads;
      Alcotest.test_case "workloads equivalent on tiny machines" `Slow
        test_workloads_equivalent_on_tiny_machines;
    ] )
